"""The array text formatter (grids.write_rows) against Python's `%`,
grids.next_smooth against counting up, and GridSpec's voxel count."""

import io
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from cliffsurf import grids

FLOAT_TEMPLATES = [
    "%.6e %.6e %.6e\n",  # OpenDX data lines
    "%.6e\n",  # the short last OpenDX line
    "%.6e %.6e\n",
    "v %.6f %.6f %.6f\n",  # OBJ vertices
    "%.6f %.6f %.6f\n",  # OFF vertices
]
INT_TEMPLATES = ["f %d %d %d\n", "3 %d %d %d\n"]  # OBJ and OFF faces


def _ulps(x, n):
    """x stepped n floats away (toward +inf when n > 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return float(x)


signs = st.sampled_from([1.0, -1.0])
steps = st.integers(-3, 3)
# a 7-significant-digit rounding half (%.6e), from the decimal text itself
e_halves = st.builds(
    lambda n, e, k, sign: sign * _ulps(float(f"{n}5e{e}"), k),
    st.integers(10**6, 10**7 - 1),
    st.integers(-330, 300),
    steps,
    signs,
)
# a 6-decimal rounding half (%.6f), below 2^53 / 1e6 and past it
f_halves = st.builds(
    lambda n, frac, k, sign: sign * _ulps(float(f"{n}.{frac:06d}5"), k),
    st.integers(0, 10**11),
    st.integers(0, 10**6 - 1),
    steps,
    signs,
)
powers_of_ten = st.builds(
    lambda p, k, sign: sign * _ulps(float(f"1e{p}"), k), st.integers(-320, 308), steps, signs
)
three_digit_exponents = st.builds(
    lambda x, sign: sign * x,
    st.floats(1e100, 1e308) | st.floats(5e-324, 1e-100),
    signs,
)
rounds_to_minus_zero = st.floats(-5e-7, 0.0)
float_values = st.one_of(
    st.floats(),  # every float: subnormals, +-0.0, inf and NaN included
    e_halves,
    f_halves,
    powers_of_ten,
    three_digit_exponents,
    rounds_to_minus_zero,
    st.floats(-1e4, 1e4),  # coordinates and field values
)
int_values = st.integers(-(2**63), 2**63 - 1) | st.integers(-1000, 10**6)


def _rows(values, template, dtype):
    ncols = template.count("%")
    return np.array(values[: len(values) // ncols * ncols], dtype=dtype).reshape(-1, ncols)


def _assert_matches_percent(template, rows, chunk):
    with mock.patch.object(grids, "_ROWS_PER_WRITE", chunk):
        got, want = io.BytesIO(), io.StringIO()
        grids.write_rows(got, template, rows)
        conftest.write_rows_percent(want, template, rows)
    assert got.getvalue() == want.getvalue().encode()


@pytest.mark.parametrize("template", FLOAT_TEMPLATES)
@settings(max_examples=300, deadline=None)
@given(values=st.lists(float_values, max_size=60), chunk=st.integers(1, 25))
def test_write_rows_floats_match_percent(template, values, chunk):
    _assert_matches_percent(template, _rows(values, template, np.float64), chunk)


@pytest.mark.parametrize("template", INT_TEMPLATES)
@settings(max_examples=200, deadline=None)
@given(values=st.lists(int_values, max_size=60), chunk=st.integers(1, 25))
def test_write_rows_ints_match_percent(template, values, chunk):
    _assert_matches_percent(template, _rows(values, template, np.int64), chunk)


# exact ties both ways, the carry into the next decade, the ends of the
# exact power-of-ten range, and the 2^52 / 2^53 limits of %.6f
_HARD = [
    1048576.5, 0.5, 1.5, 2.5, 0.0000005, -5e-7, 9999999.5, 9999999.499999999,
    99999995.0, 0.99999995, 1e22, 1e23, 1e-16, 1e-17, 9.9999995e28, 1e29,
    2.0**52 / 1e6, 2.0**53 / 1e6, 2.0**53, -0.0, 0.0, 5e-324, -2.5e-310,
    1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
]


@pytest.mark.parametrize("template", FLOAT_TEMPLATES)
@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 16])
def test_write_rows_hard_values_match_percent(template, chunk):
    values = np.array(_HARD + [-v for v in _HARD])
    ncols = template.count("%")
    for shift in range(ncols):  # each value in every column
        _assert_matches_percent(template, _rows(np.roll(values, shift), template, float), chunk)


@pytest.mark.parametrize(
    "template, dtype",
    [
        (template, dtype)
        for template in ["f %d %d %d\n", "%.6e %.6e %.6e\n", "%.6f %.6f %.6f\n"]
        for dtype in [np.int64, np.int32, np.uint8, np.uint64, np.float32, np.float64, bool]
        if "%d" not in template or dtype not in (np.float32, np.float64)
    ],
)
def test_write_rows_any_numeric_dtype_matches_percent(template, dtype):
    # every dtype a template takes: integers and booleans under %d, any
    # numeric dtype under %.6e and %.6f
    values = np.array([0, 1, 7, 10, 99, 100, 127, 250, 255, 3, 2, 1])
    _assert_matches_percent(template, values.astype(dtype).reshape(-1, 3), 2)


def _signed_chunks(chunk, ncols, dtype):
    """Six chunks of positive values; chunks 1, 3, 4 and 5 get negatives.

    One at the chunk's start, one in its middle, one at its end, and three
    spread from its first value to its last.
    """
    rng = np.random.default_rng(5)
    n = chunk * ncols
    if dtype == np.int64:
        parts = [rng.integers(0, 10**7, n) for _ in range(6)]
    else:
        parts = [rng.uniform(0.0, 1e3, n) * 10.0 ** rng.integers(-8, 8, n) for _ in range(6)]
    for part, at in ((1, [0]), (3, [n // 2]), (4, [n - 1]), (5, [0, n // 3, n - 1])):
        parts[part][at] *= -1
    return np.concatenate(parts).astype(dtype).reshape(-1, ncols)


@pytest.mark.parametrize("template", FLOAT_TEMPLATES + INT_TEMPLATES)
@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_write_rows_chunks_with_and_without_negatives_match_percent(template, chunk):
    # a sign slot exists only in a chunk with a negative value, and %.6e
    # compacts only the span from its first negative value to its last
    dtype = np.int64 if "%d" in template else np.float64
    rows = _signed_chunks(chunk, template.count("%"), dtype)
    _assert_matches_percent(template, rows, chunk)


@pytest.mark.parametrize("template", FLOAT_TEMPLATES)
@pytest.mark.parametrize(
    "value",
    [1048576.5, -2.5e-7, 5e-7, 1e-100, -1e200, 2.0**53, float("nan"), float("-inf")],
)
def test_write_rows_unprovable_value_mid_chunk_matches_percent(template, value):
    # a tie, values near a 6-decimal half, 3-digit exponents, |x| * 1e6
    # past 2^52, NaN and an infinity, each in the middle of a chunk of
    # mixed-sign values that the arrays do prove
    ncols = template.count("%")
    rows = np.random.default_rng(7).standard_normal((2 * 4096, ncols)) * 100.0
    for col in range(ncols):
        rows[4096 + 2048 + col, col] = value
    _assert_matches_percent(template, rows, 4096)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("template", ["%d %.6e %.6f\n", "%d\0%d %d\n", "v\0%.6e\n"])
def test_write_rows_refuses_mixed_or_nul_templates(template, dtype):
    # mixed conversions, and a literal with a NUL byte (which the arrays
    # use for text left out), are refused before a byte is written
    fh = io.BytesIO()
    values = np.array([0, 1, -7, 10, 99, -100, 127, 250, 255, 3, 2, 1])
    rows = values.astype(dtype).reshape(-1, 3)[:, : template.count("%")]
    with pytest.raises(ValueError, match="one kind of conversion and no NUL byte"):
        grids.write_rows(fh, template, rows)
    assert fh.getvalue() == b""


@pytest.mark.parametrize(
    "template, dtype",
    [("f %d %d %d\n", np.float32), ("f %d %d %d\n", np.float64), ("%.6e %.6e %.6e\n", object)],
)
def test_write_rows_refuses_dtypes_it_cannot_format(template, dtype):
    # Python's %d truncates a float, and only numbers have a %.6e
    fh = io.BytesIO()
    with pytest.raises(ValueError, match="do not fit"):
        grids.write_rows(fh, template, np.ones((2, 3), dtype=dtype))
    assert fh.getvalue() == b""


def test_write_rows_refuses_other_conversions_and_shapes():
    fh = io.BytesIO()
    for template in ("%g\n", "%.3f\n", "%s\n", "%5d\n", "100%\n", "%%d\n"):
        with pytest.raises(ValueError, match="supported"):
            grids.write_rows(fh, template, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="do not fit"):
        grids.write_rows(fh, "%d %d\n", np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match="do not fit"):
        grids.write_rows(fh, "%d\n", np.zeros(3, dtype=int))
    assert fh.getvalue() == b""


def _next_smooth_by_counting(n):
    """The smallest {2, 3, 5, 7}-smooth integer >= max(n, 2), one step at a time."""
    n = max(n, 2)
    while True:
        rest = n
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def test_next_smooth_matches_counting_up():
    for n in range(-3, 20001):
        assert grids.next_smooth(n) == _next_smooth_by_counting(n), n


def test_next_smooth_is_fast_on_huge_counts():
    # counting up from 3e17 + 1 would take about 1e13 steps
    assert grids.next_smooth(3 * 10**17) == 3 * 10**17
    n = grids.next_smooth(3 * 10**17 + 1)
    assert n > 3 * 10**17 and _next_smooth_by_counting(n) == n


def test_grid_voxel_count_is_exact_past_int64():
    # 2^66 voxels: a product in int64 wraps to 0
    grid = grids.GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(2**22,) * 3)
    assert grid.n_voxels == 2**66
    assert grids.GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(3, 4, 5)).n_voxels == 60


@pytest.mark.parametrize("lo, hi", [(np.nan, np.nan), (-np.inf, 1.0), (0.0, np.inf)])
def test_check_finite_refuses_a_non_finite_extreme(lo, hi):
    with pytest.raises(ValueError, match=r"^field contains NaN or Inf$"):
        grids.check_finite(lo, hi)


def test_check_finite_passes_finite_extremes():
    grids.check_finite(np.float64(-1e308), 1e308)


def test_read_only_is_a_view_and_the_callers_array_stays_writeable():
    given = np.arange(6.0)
    view = grids.read_only(given)
    assert np.shares_memory(view, given)
    assert not view.flags.writeable and given.flags.writeable
    given[0] = 7.0
    assert view[0] == 7.0  # a view, not a snapshot
    # other dtypes and sequences are converted once
    assert grids.read_only(np.arange(3)).dtype == np.float64
    ints = grids.read_only([[0, 1, 2]], np.int64)
    assert ints.dtype == np.int64 and not ints.flags.writeable


def test_new_file_leaves_a_pipe_it_fails_to_write(tmp_path):
    # a failed write removes the file it made, but not a named pipe (or a
    # device) that was there before; a reader opened without blocking lets
    # the pipe be opened for writing
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(RuntimeError, match="half written"):
            with grids.new_file(fifo) as fh:
                fh.write(b"part of a file\n")
                raise RuntimeError("half written")
        assert os.read(reader, 64) == b"part of a file\n"
    finally:
        os.close(reader)
    assert fifo.is_fifo()
