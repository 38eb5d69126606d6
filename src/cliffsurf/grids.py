"""Uniform sampling grids, scalar fields, and their FFT wavenumbers.

These types are shared between the volume-construction layer and the
spectral operators, so they live in one dependency-free module; so do
check_positive, the one rule and text for every setting that must be
positive and finite, and _check_grid, the one field check of both grid
ranks; new_file and write_rows, the file opener and text-row formatter
of the volume, mesh and report writers; remove_output, the one rule for
which outputs a failed run removes; read_text, the one reader of input
and config files; and the slab conventions of the streamed pipeline:
the CLI rasterizes, transforms, writes and extracts a grid SLAB planes
of axis 0 at a time, and no stage of a run holds an array the size of
the grid.

write_rows formats numbers as arrays, not one Python float at a time:
integer arithmetic picks each value's 4-byte texts from digit tables,
np.take stores them in a fixed byte record per value, and the bytes go
to a binary file handle. Its %.6e, %.6f and %d text is byte-identical to
Python's `%` and C printf: the rounding is proven per value, and a row
with a value it cannot prove (an exact tie, a 3-digit exponent, a NaN)
is formatted by Python's `%` instead.

Conventions fixed here once for the whole package:

* voxel (i, j, k) is centered at origin + spacing * (i, j, k);
* arrays are indexed [x, y, z] in C order, so the z index varies fastest
  in memory (which is also the file ordering of the volume writers);
* angular wavenumbers are w_i = 2*pi*k_i / (N_i * h) in rad per length
  unit, with the signed integer bin indices k_i of the standard FFT
  layout. All spectral symbols in the package are written in terms of
  these w_i, never in cycles.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import reduce
from typing import BinaryIO

import numpy as np


def check_positive(name: str, value) -> None:
    """Raise ValueError unless value is positive and finite; the one text of that refusal."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_grid(grid, rank: int) -> None:
    """Convert a rank-D grid's fields to floats and ints; refuse a bad origin, spacing or dims."""
    object.__setattr__(grid, "origin", tuple(float(v) for v in grid.origin))
    object.__setattr__(grid, "spacing", float(grid.spacing))
    object.__setattr__(grid, "dims", tuple(int(n) for n in grid.dims))
    if len(grid.origin) != rank or not all(np.isfinite(grid.origin)):
        raise ValueError(f"origin must be {rank} finite floats, got {grid.origin}")
    check_positive("spacing", grid.spacing)
    if len(grid.dims) != rank or any(n < 2 for n in grid.dims):
        raise ValueError(f"dims must be {rank} integers >= 2, got {grid.dims}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform 3D grid: origin, one spacing for all axes, dims."""

    origin: tuple[float, float, float]
    spacing: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        _check_grid(self, 3)

    @property
    def n_voxels(self) -> int:
        return math.prod(self.dims)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis voxel center coordinates."""
        return tuple(
            self.origin[a] + self.spacing * np.arange(self.dims[a]) for a in range(3)
        )

    def meshes(self, sparse: bool = True):
        """Voxel center coordinate arrays, broadcastable to the full grid."""
        return np.meshgrid(*self.axes(), indexing="ij", sparse=sparse)


@dataclass(frozen=True)
class GridSpec2:
    """Uniform 2D grid; exists for the planar transform demonstrations."""

    dims: tuple[int, int]
    spacing: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        _check_grid(self, 2)


def read_only(values, dtype=np.float64) -> np.ndarray:
    """A read-only view of values as dtype, not a snapshot.

    An array of dtype is not copied, and the view has flags of its own: the
    caller's array stays writeable, and writing to it changes the view.
    Other dtypes and sequences are converted once.
    """
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class ScalarField3:
    """Real scalar samples on a GridSpec.

    The constructor checks shape and dtype only; operations that require
    finite data (filtering, export, meshing) validate that themselves so
    a deliberately poisoned field can exercise their error paths.

    values is a read-only view of a float64 input, not a snapshot (other
    dtypes are converted once): writing to the caller's array afterwards
    changes the field. The package's producers hand over fresh arrays.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = read_only(self.values)
        if v.shape != self.grid.dims:
            raise ValueError(
                f"values shape {v.shape} does not match grid dims {self.grid.dims}"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def from_slabs(cls, grid: GridSpec, parts: Iterable[np.ndarray]) -> "ScalarField3":
        """The field whose consecutive slabs along axis 0 are parts."""
        values, feed = np.empty(grid.dims), PlaneFeed(grid.dims)
        for part in parts:
            lo = feed.add(part)
            values[lo : lo + len(part)] = part
        feed.finish()
        return cls(grid, values)

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())


def check_finite(lo, hi) -> None:
    """Refuse a field whose min lo or max hi is not finite: a NaN reaches both.

    The one text of the non-finite refusal, for the filter, the extraction
    and the volume export alike.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("field contains NaN or Inf")


# planes of axis 0 per slab of the streamed pipeline
SLAB = 8


def slabs(values: np.ndarray) -> Iterator[np.ndarray]:
    """Views of consecutive SLAB-plane slabs of values along axis 0, the last maybe shorter."""
    return (values[lo : lo + SLAB] for lo in range(0, len(values), SLAB))


class PlaneFeed:
    """The count of axis-0 planes fed toward a grid of dims, kept by every slab consumer.

    add returns the index of a slab's first plane, and refuses a slab that
    has no planes, does not fit the grid or runs past its last plane;
    finish refuses a short feed.
    """

    def __init__(self, dims: tuple[int, int, int]):
        self.dims, self.planes = tuple(dims), 0

    def add(self, slab: np.ndarray) -> int:
        if not len(slab) or slab.shape[1:] != self.dims[1:]:
            raise ValueError(f"slab of shape {slab.shape} does not fit grid {self.dims}")
        lo, self.planes = self.planes, self.planes + len(slab)
        if self.planes > self.dims[0]:
            self.finish()
        return lo

    def finish(self) -> None:
        if self.planes != self.dims[0]:
            raise ValueError(f"fed {self.planes} of {self.dims[0]} planes")


class SlabRange:
    """Min and max of a field fed in consecutive slabs along axis 0, overall and on the box faces.

    A min or max is exact in any order, so min, max, face_min and
    face_max are those of the whole array; a NaN reaches all four.
    """

    def __init__(self, dims: tuple[int, int, int]):
        self._feed = PlaneFeed(dims)
        self.min = self.face_min = np.float64(np.inf)
        self.max = self.face_max = np.float64(-np.inf)

    def add(self, slab: np.ndarray) -> None:
        lo = self._feed.add(slab)
        faces = [slab[:, 0], slab[:, -1], slab[:, :, 0], slab[:, :, -1]]
        if lo == 0:
            faces.append(slab[0])
        if self._feed.planes == self._feed.dims[0]:
            faces.append(slab[-1])
        self.min = np.minimum(self.min, slab.min())
        self.max = np.maximum(self.max, slab.max())
        self.face_min = np.minimum(self.face_min, np.min([f.min() for f in faces]))
        self.face_max = np.maximum(self.face_max, np.max([f.max() for f in faces]))


def next_smooth(n: int) -> int:
    """Smallest integer >= n whose prime factors are all in {2, 3, 5, 7}.

    Each candidate is an odd part 3^b 5^c 7^d times the least power of
    two that lifts it to n; odd parts run only below the best candidate
    so far, so this takes O(log^3 n) steps at any n.
    """
    n = max(int(n), 2)
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        p5 = p3
        while p5 < best:
            p7 = p5
            while p7 < best:
                # 2^a p7 >= n exactly when 2^a >= ceil(n / p7)
                best = min(best, p7 << (-(-n // p7) - 1).bit_length())
                p7 *= 7
            p5 *= 5
        p3 *= 3
    return best


def w_axes(grid: GridSpec | GridSpec2, half: bool = False) -> list[np.ndarray]:
    """Angular wavenumbers per axis of the FFT of a grid with dims and spacing (any rank).

    Bin k of an N-point axis carries the signed index of np.fft.fftfreq
    and the angular wavenumber w = 2*pi*k/(N*h). The w = 0 bin exists
    exactly once per axis; for even N the Nyquist bin sits at index N/2
    and is assigned the negative frequency.

    half=True selects the real-FFT (np.fft.rfftn) layout instead: the
    last axis keeps only its N//2 + 1 nonnegative bins (np.fft.rfftfreq,
    even-N Nyquist at +N/2), the other axes stay full. The omitted bins
    are the complex conjugates of kept ones, which every even symbol
    (a function of w^2) treats identically.
    """
    *full, last = grid.dims
    freqs = [np.fft.fftfreq(n, d=grid.spacing) for n in full]
    freqs.append((np.fft.rfftfreq if half else np.fft.fftfreq)(last, d=grid.spacing))
    return [2.0 * np.pi * f for f in freqs]


def squared_norm(axes) -> np.ndarray:
    """|w|^2 over the box of the per-axis wavenumbers axes, the axis squares summed in order."""
    meshes = np.meshgrid(*axes, indexing="ij", sparse=True)
    return reduce(np.add, (m * m for m in meshes))


def read_text(path) -> str:
    """The text of an input or config file, read as UTF-8 with or without a BOM, in any locale.

    Bytes that are not UTF-8 raise UnicodeDecodeError.
    """
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def remove_output(path) -> None:
    """Remove the output at path only if it is a regular file, ignoring an OSError.

    A failed run removes what it wrote, but no output it did not create: a
    device such as /dev/null, a named pipe or a symbolic link given as an
    output stays. The path is tested with lstat, so a link is not
    followed: the link stays, and its target keeps what the run wrote.
    """
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


@contextlib.contextmanager
def new_file(path) -> Iterator[BinaryIO]:
    """A binary handle on path, created or truncated, as a context manager.

    The file is closed at the end of the block; when the block or the
    close fails, it is removed if it is a regular file (remove_output), so
    a failed write leaves a device, a named pipe or a symbolic link alone.
    """
    fh = open(path, "wb")
    try:
        with fh:  # closing flushes, and can fail too
            yield fh
    except BaseException:
        remove_output(path)
        raise


# rows per write_rows chunk: its arrays stay in the CPU caches
_ROWS_PER_WRITE = 4096

# 10^0 .. 10^22, every power of ten float64 holds exactly, and the factor and
# divisor of s = |x| * 10^k for k = -22 .. 22, by k + 22 (exact scalings)
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_UP = _POW10[np.maximum(np.arange(-22, 23), 0)]
_DOWN = _POW10[np.maximum(np.arange(22, -23, -1), 0)]
_EXP_AT = 60 - np.arange(45)  # the exponent 6 - k, as an index of _EXP


def _digits(width: int) -> np.ndarray:
    """ASCII digits of 0 .. 10^width - 1, zero-padded, as (10^width, width) uint8."""
    return np.indices((10,) * width, dtype=np.uint8).reshape(width, -1).T + np.uint8(48)


def _words(chars: np.ndarray) -> np.ndarray:
    """Each row of 4 ASCII bytes as the uint32 that holds those bytes in memory."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


# digit tables of 4-byte texts: "dddd" for 0 .. 9999, then the same with the
# leading zeros as NUL bytes (0 has none left); "d.dd" for 0 .. 999; "e+dd" or
# "e-dd" for the exponents -32 .. 31. A NUL byte is text left out.
_quads = _digits(4)
_QUADS = _words(np.vstack([_quads, _quads * np.maximum.accumulate(_quads > ord("0"), axis=1)]))
_LEAD = _words(np.insert(_digits(3), 1, ord("."), axis=1))
_exps = np.arange(-32, 32)
_signs = np.where(_exps < 0, ord("-"), ord("+"))
_EXP = _words(np.c_[np.full(64, ord("e")), _signs, _digits(2)[abs(_exps)]])


def _round_scaled(s: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """rint(s) as integers; fast is narrowed in place to the values where that is proven.

    s is one correctly rounded product or quotient, within s * 2^-53 of
    the exact scaled value, so both round alike unless s lies within
    s * 2^-52 of a half-integer (exact ties among them): the test is
    |s - rint(s)| + s * 2^-52 < 0.5, whose rounded sum can only fail more.
    """
    m = np.rint(s)
    off = np.abs(s - m)  # NaN for inf and NaN
    off += s * 2.0**-52
    fast &= off < 0.5
    return m.astype(np.intp)


def _groups(q: np.ndarray) -> list:
    """Slots of the digits of integers q >= 0, 4 per slot; leading zeros are NUL, 0 has none."""
    top = int(q.max(initial=0))
    count = -(-len(str(top)) // 4) if top else 0
    # the trimmed texts in the top slot, and below it where no higher slot has a digit
    trim = [np.where(q < 10 ** (4 * g + 4), 10**4, 0) for g in range(count - 1)] + [10**4]
    return [_QUADS.take(q // 10 ** (4 * g) % 10**4 + trim[g]) for g in range(count - 1, -1, -1)]


# each maps n values to (slots, neg, gaps, bad): a uint8 or uint32 array of
# n per text field, the values that take a "-" first, whether the slots hold
# NUL bytes, and the indices of the values whose text is not proven


def _format_e(x: np.ndarray):
    """%.6e: [-]d.dd|dddd|e+dd, -0.0 as -0.000000e+00."""
    x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    e = np.log10(ax)  # a guess, checked by the range of s below
    np.floor(e, out=e)
    k = (28.0 - e).astype(np.intp)  # k + 22 for s = |x| * 10^k; out of range is clipped
    s = _UP.take(k, mode="clip") * ax
    if k.min() < 22:  # scale down
        s /= _DOWN.take(k, mode="clip")
    # seven significant digits, so 6 - k is the exponent; log10 can round
    # across a power of ten, and such values fall back
    fast = (s >= 1e6) & (s < 1e7)
    m = _round_scaled(s, fast)
    ei = _EXP_AT.take(k, mode="clip")
    slow = np.flatnonzero(~fast) if not fast.all() else np.empty(0, np.intp)
    m[slow], ei[slow] = 0, 32  # the text of zeros, which are exact
    if m.max() == 10**7:  # rounded up to the next power of ten
        carry = m == 10**7
        m[carry] = 10**6
        ei[carry] += 1
    lead = m // 10**4
    m -= lead * 10**4
    slots = [_LEAD.take(lead), _QUADS.take(m), _EXP.take(ei)]
    return slots, np.signbit(x), False, slow[ax[slow] != 0]


def _format_f(x: np.ndarray):
    """%.6f: [-][integer digits but the last]d.dd|dddd; values rounding to 0 keep the sign."""
    x = x.astype(np.float64, copy=False)
    s = np.abs(x) * 1e6  # exact scale; s >= 2^52 fails the half-integer test
    fast = np.isfinite(s)
    m = _round_scaled(s, fast)
    slow = np.flatnonzero(~fast)
    m[slow] = 0
    lead = m // 10**4
    m -= lead * 10**4
    slots = _groups(lead // 1000) + [_LEAD.take(lead % 1000), _QUADS.take(m)]
    return slots, np.signbit(x), len(slots) > 2, slow


def _format_d(x: np.ndarray):
    """%d: [-][digits but the last]d; integer dtypes only."""
    neg = x < 0
    mag = x.astype(np.uint64)  # two's complement: -mag is |x| for negatives
    mag = np.where(neg, -mag, mag)
    q = mag // 10
    slots = _groups(q.astype(np.intp)) + [(mag - q * 10).astype(np.uint8) + np.uint8(48)]
    return slots, neg, len(slots) > 1, np.empty(0, np.intp)


_FORMATTERS = {"%.6e": _format_e, "%.6f": _format_f, "%d": _format_d}


def _parse_row_format(row_format: str):
    """A row template's start, the literal after each value, and its conversions.

    The literal after the last value ends the row and starts the next one.
    """
    pieces = re.split(r"(%\.6e|%\.6f|%d)", row_format)
    literals, conversions = [lit.encode() for lit in pieces[0::2]], pieces[1::2]
    if any(b"%" in lit for lit in literals):
        raise ValueError(
            f"row template {row_format!r}: only %.6e, %.6f and %d are supported"
        )
    return literals[0], literals[1:-1] + [literals[-1] + literals[0]], conversions


def _write_block(fh, row_format, start, seps, conversion, block) -> None:
    """Write one chunk of rows."""
    n, ncols = block.shape
    with np.errstate(all="ignore"):  # inf and NaN are not proven, and fall back
        slots, neg, gaps, bad = _FORMATTERS[conversion](block.ravel())
    # one record per value: its slots, then the literal after it
    width = max(map(len, seps))
    gaps |= any(len(sep) < width for sep in seps)  # padded with NUL
    if neg.any():  # a sign slot for every value, "-" or NUL
        slots.insert(0, neg.view(np.uint8) * np.uint8(ord("-")))
        gaps = True
    fields = [(f"f{i}", slot.dtype) for i, slot in enumerate(slots)]
    rec = np.empty(block.size, fields + [("sep", f"S{width}")])
    rec["sep"].reshape(n, ncols)[:] = seps
    for i, slot in enumerate(slots):
        rec[f"f{i}"] = slot
    text = rec.view(np.uint8)
    if gaps:
        text = text[text != 0]
    if not bad.size:
        fh.write(start)
        fh.write(text[: text.size - len(start)])
        return
    # row i is whole[ends[i] - lens[i] : ends[i]]: splice in `%` rows for the unproven
    lens = np.count_nonzero(rec.view(np.uint8).reshape(n, -1), axis=1)
    ends = np.cumsum(lens).tolist()
    whole = start + text.tobytes()
    pieces, at = [], 0
    for i in np.unique(bad // ncols).tolist():
        pieces += [whole[at : ends[i] - lens[i]], (row_format % tuple(block[i].tolist())).encode()]
        at = ends[i]
    fh.write(b"".join(pieces) + whole[at : len(whole) - len(start)])


def write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write every row of a 2D array through one printf-style row template, to a binary handle.

    The bytes are those of `row_format % tuple(row)` for each row, which
    for %.6e, %.6f and %d is also C printf's. The template holds one of
    those conversions, as often as the rows have columns, and literals
    without a NUL byte; %d takes an integer or boolean dtype, the others
    a numeric one. Anything else raises ValueError before a byte is
    written. Chunks of _ROWS_PER_WRITE rows are formatted as flat arrays
    (see the module docstring). NUL bytes stand for unused sign slots and
    leading zeros, and a boolean compaction drops them; a chunk gets a
    sign slot only when it holds a negative value, so a %.6e chunk
    without one is written as it is.

    Rounding is exact by construction: %.6e scales s = |x| * 10^(6 -
    floor(log10|x|)) and %.6f s = |x| * 1e6, each one correctly rounded
    operation with an exact power of ten, so rint(s) is the printed
    integer unless s lies within s * 2^-52 of a half-integer. A row goes
    through Python's `%` when one of its values is not proven that way:
    near a half-integer (exact ties among them), a power of ten past 1e22
    (every 3-digit exponent is), a log10 guess that leaves s outside
    [1e6, 1e7), |x| * 1e6 of 2^52 or more, inf or NaN. Only one chunk's
    arrays and text are alive at a time.
    """
    start, seps, conversions = _parse_row_format(row_format)
    if rows.ndim != 2 or rows.shape[1] != len(conversions):
        raise ValueError(
            f"rows of shape {rows.shape} do not fit the {len(conversions)} "
            f"conversions of {row_format!r}"
        )
    if len(set(conversions)) != 1 or b"\0" in start + b"".join(seps):
        raise ValueError(
            f"row template {row_format!r}: need one kind of conversion and no NUL byte"
        )
    if rows.dtype.kind not in ("biu" if conversions[0] == "%d" else "biuf"):
        raise ValueError(f"rows of dtype {rows.dtype} do not fit {conversions[0]}")
    for at in range(0, len(rows), _ROWS_PER_WRITE):
        _write_block(fh, row_format, start, seps, conversions[0], rows[at : at + _ROWS_PER_WRITE])
