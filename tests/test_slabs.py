"""The streamed pipeline's slab boundaries: extraction, transforms and
volume writers fed in slabs of axis-0 planes give the whole-array results
bit for bit, wherever the slab boundaries fall."""

import io
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsurf import grids
from cliffsurf.grids import SLAB, GridSpec, ScalarField3, SlabRange
from cliffsurf.pdefilter import BandForward, FilterParams, SpectralBand, field_slabs
from cliffsurf.surface import SlabMarcher, TriangleMesh, marching_cubes, mesh_metrics
from cliffsurf.molecule import Molecule
from cliffsurf.volumetrics import VolumeWriter, gaussian_slabs, piecewise_slabs
from conftest import FullDisk, marching_cubes_loop, sphere_distance_field, write_rows_percent

# planes along axis 0 that a multiple of SLAB would not exercise
n0s = st.integers(2, 25).filter(lambda n: n % SLAB)


def slabs(values, rows):
    """Consecutive slabs of rows planes along axis 0, the last maybe shorter."""
    return [values[lo : lo + rows] for lo in range(0, len(values), rows)]


@st.composite
def fields(draw):
    """A field whose surfaces cross slab planes: a blob, or noise with ties."""
    dims = (draw(n0s), draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(origin=tuple(rng.uniform(-2.0, 2.0, 3)), spacing=0.3, dims=dims)
    if draw(st.booleans()):
        # distance from a point inside the box, stretched along axis 0
        x, y, z = (np.arange(n) - rng.uniform(0, n - 1) for n in dims)
        values = np.sqrt((x[:, None, None] / 3.0) ** 2 + y[None, :, None] ** 2 + z**2)
    else:
        values = np.round(rng.standard_normal(dims), 1)  # samples equal to 0.1 k
    return ScalarField3(grid, values)


def _error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    field=fields(),
    rows=st.sampled_from([SLAB, 1, 2, 3, 5]),
    quantiles=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_slab_marching_matches_loop_oracle(field, rows, quantiles):
    # several isovalues extracted in one pass over the slabs, each equal to
    # the per-cell loop oracle, or failing with its message; the range
    # checks wait for finish()
    isos = [round(float(np.quantile(field.values, q)), 1) for q in quantiles]
    marchers = [SlabMarcher(field.grid, iso) for iso in isos]
    for slab in slabs(field.values, rows):
        for marcher in marchers:
            marcher.add(slab)
    for iso, marcher in zip(isos, marchers):
        got = _error(marcher.finish, field)
        want = _error(marching_cubes_loop, field, iso)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got.vertices, want.vertices)
            assert np.array_equal(got.triangles, want.triangles)


def test_slab_marching_carries_vertices_across_every_boundary():
    # a sphere cut by slab planes at every spacing: every slab after the
    # first meets vertices of the one before, and the mesh stays closed
    field = sphere_distance_field(1.8, 0.25)
    want = marching_cubes_loop(field, 1.8)
    for rows in (1, 2, 3, SLAB, len(field.values)):
        marcher = SlabMarcher(field.grid, 1.8)
        for slab in slabs(field.values, rows):
            marcher.add(slab)
        got = marcher.finish(field)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.triangles, want.triangles)
        assert mesh_metrics(got).boundary_edge_count == 0


@pytest.mark.parametrize("rows", [1, 3, SLAB])
def test_slab_marching_numbers_ids_past_int32(rows):
    # a marcher whose vertex count so far is just below 2**31 holds its ids
    # as int64: its triangles are a plain run's plus that count, int64 like
    # the plain run's. They are read before finish, whose TriangleMesh
    # would refuse ids past its vertices
    field = sphere_distance_field(1.8, 0.25)
    plain, big = SlabMarcher(field.grid, 1.8), SlabMarcher(field.grid, 1.8)
    offset = 2**31 - 10
    big._n_vertices = offset
    for slab in slabs(field.values, rows):
        plain.add(slab)
        big.add(slab)
    assert all(t.dtype == np.int64 for t in plain._triangles + big._triangles)
    got, want = np.concatenate(big._triangles), np.concatenate(plain._triangles)
    assert want.max() > 10
    assert np.array_equal(got, want + offset)


def test_slab_marcher_peak_per_slab_voxel():
    # beside the growing mesh, marching a slab holds arrays of its points
    # and of its active cells, none of the grid's size: at most 33 B per
    # voxel of the slab fed, the peak the sort-based numbering reached on
    # this field (32.7). An int32 index over the whole 87^3 grid alone
    # would be 43 B per slab voxel.
    field = sphere_distance_field(9.5, 0.25)
    marcher = SlabMarcher(field.grid, 9.5)
    worst = 0.0
    tracemalloc.start()
    try:
        for slab in slabs(field.values, SLAB):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            marcher.add(slab)
            worst = max(worst, (tracemalloc.get_traced_memory()[1] - before) / slab.size)
    finally:
        tracemalloc.stop()
    assert marcher.finish(field).n_triangles >= 50_000
    assert worst <= 33.0


def test_slab_marcher_refuses_a_partial_field():
    field = sphere_distance_field(1.0, 0.5)
    marcher = SlabMarcher(field.grid, 1.0)
    marcher.add(field.values[:3])
    with pytest.raises(ValueError, match="fed 3 of"):
        marcher.finish(field)
    with pytest.raises(ValueError, match="does not fit"):
        marcher.add(field.values[:, :2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_slab_marcher_marches_a_nonfinite_slab_quietly(bad):
    # the marcher scans no slab for its range: it marches one with a NaN or
    # an infinity without a warning, and finish refuses the field on the
    # caller's range of the same slabs
    values = np.random.default_rng(1).standard_normal((10, 6, 6))
    values[4, 2, 2] = bad
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=values.shape)
    marcher, r = SlabMarcher(grid, 0.0), SlabRange(values.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for slab in slabs(values, 3):
            marcher.add(slab)
            r.add(slab)
    with pytest.raises(ValueError, match="field contains NaN or Inf"):
        marcher.finish(r)


def test_slab_range_matches_whole_array():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((11, 4, 5))
    r = SlabRange(values.shape)
    for slab in slabs(values, 3):
        r.add(slab)
    faces = [values[0], values[-1], values[:, 0], values[:, -1], values[:, :, 0], values[:, :, -1]]
    assert (r.min, r.max) == (values.min(), values.max())
    assert r.face_min == min(f.min() for f in faces)
    assert r.face_max == max(f.max() for f in faces)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.tuples(st.integers(2, 25), st.integers(2, 14), st.integers(2, 14)),
    spacing=st.sampled_from([0.25, 0.5, 1.0]),
    t=st.sampled_from([None, 0.01, 1.0, 100.0]),
    rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_slab_transforms_match_rfftn_and_irfftn(dims, spacing, t, rows, seed):
    # a band pruned by a filter or every bin (t None); the slab forward, fed
    # slabs of any size, is rfftn's half spectrum on the band, and the slab
    # inverse irfftn's field of the zero-filled band, both bit for bit
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    if t is None:
        band = SpectralBand.full(grid)
    else:
        band = SpectralBand.of(grid, [FilterParams.single_term(t)])
    box = np.ix_(*band.index)
    values = np.random.default_rng(seed).standard_normal(dims)
    forward = BandForward(band)
    for slab in slabs(values, rows):
        forward.add(slab)
    spectrum = forward.spectrum()
    assert np.array_equal(spectrum, np.fft.rfftn(values)[box])

    full = np.zeros((dims[0], dims[1], dims[2] // 2 + 1), dtype=complex)
    full[box] = spectrum
    got = list(field_slabs(spectrum, band))
    assert [len(s) for s in got] == [len(s) for s in slabs(values, SLAB)]
    assert np.array_equal(np.concatenate(got), np.fft.irfftn(full, s=dims, axes=(0, 1, 2)))


def test_band_forward_refuses_a_partial_field():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 3, 3))
    forward = BandForward(SpectralBand.full(grid))
    forward.add(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError, match="fed 3 of 4 planes"):
        forward.spectrum()


def test_band_forward_refuses_a_slab_that_does_not_fit_the_grid():
    # a wider slab would otherwise be cut to the band's bins, and its DC
    # bin would sum voxels outside the grid
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 6, 6))
    forward = BandForward(SpectralBand.full(grid))
    refusal = r"slab of shape \(4, 9, 10\) does not fit grid \(4, 6, 6\)"
    with pytest.raises(ValueError, match=refusal):
        forward.add(np.ones((4, 9, 10)))
    forward.add(np.ones((4, 6, 6)))
    assert forward.spectrum()[0, 0, 0] == 144.0


def test_field_from_slabs_refuses_a_partial_field():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 6, 6))
    with pytest.raises(ValueError, match="fed 3 of 4 planes"):
        ScalarField3.from_slabs(grid, slabs(np.ones((3, 6, 6)), 2))
    # a slab numpy would broadcast into the planes
    with pytest.raises(ValueError, match=r"slab of shape \(4, 1, 6\) does not fit grid"):
        ScalarField3.from_slabs(grid, [np.ones((4, 1, 6))])
    field = ScalarField3.from_slabs(grid, slabs(np.ones((4, 6, 6)), 3))
    assert np.array_equal(field.values, np.ones((4, 6, 6)))


def _dx_oracle(values, grid):
    """write_volume's OpenDX bytes through Python's `%`, the whole array at once."""
    nx, ny, nz = grid.dims
    h = grid.spacing
    ox, oy, oz = grid.origin
    fh = io.StringIO()
    fh.write(
        f"object 1 class gridpositions counts {nx} {ny} {nz}\n"
        f"origin {ox:.6e} {oy:.6e} {oz:.6e}\n"
        f"delta {h:.6e} 0.000000e+00 0.000000e+00\n"
        f"delta 0.000000e+00 {h:.6e} 0.000000e+00\n"
        f"delta 0.000000e+00 0.000000e+00 {h:.6e}\n"
        f"object 2 class gridconnections counts {nx} {ny} {nz}\n"
        f"object 3 class array type double rank 0 items {nx * ny * nz} data follows\n"
    )
    flat = values.ravel()
    full = flat.size - flat.size % 3
    write_rows_percent(fh, "%.6e %.6e %.6e\n", flat[:full].reshape(-1, 3))
    if full < flat.size:
        fh.write(" ".join(["%.6e"] * (flat.size - full)) % tuple(flat[full:]) + "\n")
    fh.write(
        'attribute "dep" string "positions"\n'
        'object "regular positions regular connections" class field\n'
        'component "positions" value 1\n'
        'component "connections" value 2\n'
        'component "data" value 3\n'
    )
    return fh.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(2, 12), st.integers(2, 5), st.integers(2, 5)),
    rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_volume_writers_match_whole_array_bytes(tmp_path_factory, dims, rows, seed):
    # slabs of rows * n1 * n2 voxels, most of them no multiple of 3, so the
    # OpenDX rows of three values span slab boundaries
    rng = np.random.default_rng(seed)
    grid = GridSpec(origin=tuple(rng.uniform(-5.0, 5.0, 3)), spacing=0.37, dims=dims)
    values = rng.standard_normal(dims) * 10.0 ** rng.integers(-3, 4, dims)
    path = tmp_path_factory.mktemp("vol")
    # the path's extension picks the format: .raw in any case, else OpenDX
    names = ("v.dx", "v.raw", "v.RAW", "v.dat")
    for name in names:
        with VolumeWriter(grid, path / name) as writer:
            for slab in slabs(values, rows):
                writer.write(slab)
    raw = np.asarray(dims, "<i8").tobytes() + np.asarray(grid.origin, "<f8").tobytes()
    raw += np.float64(grid.spacing).astype("<f8").tobytes() + values.astype("<f8").tobytes()
    want = dict(zip(names, (_dx_oracle(values, grid), raw, raw, _dx_oracle(values, grid))))
    for name in names:
        assert (path / name).read_bytes() == want[name], name


def test_volume_writer_removes_a_refused_file(tmp_path):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 2, 2))
    path = tmp_path / "v.dx"
    with pytest.raises(ValueError, match="does not fit"):
        with VolumeWriter(grid, path) as writer:
            writer.write(np.zeros((2, 2, 2)))
            writer.write(np.zeros((2, 2, 3)))
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["dx", "raw"])
def test_volume_writer_refuses_a_short_or_misshapen_field(tmp_path, fmt):
    # 3 of 4 planes would leave a DX header promising 16 items over 12, and
    # a (4, 3, 3) slab 36 values in a raw file of a 16-voxel grid; too few
    # or too many planes, or a slab of the wrong shape, are refused, and the
    # partial file is removed
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 2, 2))
    path = tmp_path / f"v.{fmt}"
    with pytest.raises(ValueError, match="fed 3 of 4 planes"):
        with VolumeWriter(grid, path) as writer:
            writer.write(np.zeros((3, 2, 2)))
    assert not path.exists()
    with pytest.raises(ValueError, match=r"slab of shape \(4, 3, 3\) does not fit"):
        with VolumeWriter(grid, path) as writer:
            writer.write(np.zeros((4, 3, 3)))
    assert not path.exists()
    with pytest.raises(ValueError, match="fed 6 of 4 planes"):
        with VolumeWriter(grid, path) as writer:
            for _ in range(3):
                writer.write(np.zeros((2, 2, 2)))
    assert not path.exists()
    with VolumeWriter(grid, path) as writer:
        writer.write(np.zeros((4, 2, 2)))
    assert path.exists()


class Unrefused(Exception):
    """Raised by a feed below that took every slab it was given."""


def _feed_each(add, parts):
    for part in parts:
        add(part)
    raise Unrefused


def _then_unrefused(parts):
    yield from parts
    raise Unrefused


def _write_dx(grid, path, parts):
    with VolumeWriter(grid, path) as writer:
        _feed_each(writer.write, parts)


# the five consumers of a slab stream, each fed parts as far as it takes them
CONSUMERS = {
    "SlabRange": lambda grid, path, parts: _feed_each(SlabRange(grid.dims).add, parts),
    "BandForward": lambda grid, path, parts: _feed_each(
        BandForward(SpectralBand.full(grid)).add, parts
    ),
    "SlabMarcher": lambda grid, path, parts: _feed_each(SlabMarcher(grid, 0.0).add, parts),
    "VolumeWriter": _write_dx,
    "from_slabs": lambda grid, path, parts: ScalarField3.from_slabs(grid, _then_unrefused(parts)),
}
# every consumer refuses a slab past the last plane, and a slab without
# planes, at that slab; the others' misshapen slabs have their own tests above
REFUSALS = [
    pytest.param(name, (n, 6, 6), f"fed {4 + n} of 4 planes", id=f"{name}-{n}-past")
    for name in CONSUMERS
    for n in (1, 2)
] + [
    pytest.param(
        name, (0, 6, 6), r"slab of shape \(0, 6, 6\) does not fit grid \(4, 6, 6\)",
        id=f"{name}-empty",
    )
    for name in CONSUMERS
]
REFUSALS.append(
    pytest.param(
        "SlabRange", (4, 9, 9), r"slab of shape \(4, 9, 9\) does not fit grid \(4, 6, 6\)",
        id="SlabRange-misshapen",
    )
)


@pytest.mark.parametrize("consumer, shape, refusal", REFUSALS)
def test_slab_consumers_refuse_the_slab_that_breaks_the_feed(tmp_path, consumer, shape, refusal):
    # a whole grid, then one slab more: the marcher would march it and the
    # writer write it, a range would read it and a transform drop or
    # broadcast it, were it not refused where it is added
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 6, 6))
    rng = np.random.default_rng(5)
    parts = [rng.standard_normal(grid.dims), rng.standard_normal(shape)]
    with pytest.raises(ValueError, match=refusal):
        CONSUMERS[consumer](grid, tmp_path / "v.dx", parts)
    assert not (tmp_path / "v.dx").exists()


@pytest.mark.parametrize("fmt, fail", [("dx", "write"), ("dx", "close"), ("raw", "close")])
def test_volume_writer_removes_a_file_it_fails_to_finish(tmp_path, fmt, fail):
    # every plane is written, then the OpenDX trailer or the closing flush
    # fails: the truncated file goes too
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 2, 2))
    path = tmp_path / f"v.{fmt}"
    with pytest.raises(OSError, match="No space left"):
        with VolumeWriter(grid, path) as writer:
            writer.write(np.zeros((4, 2, 2)))
            writer._fh = FullDisk(writer._fh, fail)
    assert not path.exists()


def test_mesh_metrics_peak_per_triangle():
    # besides the mesh, at most 120 B per triangle: int32 ids, no second
    # copy of the edge codes, and no copies of the cross product's inputs
    field = sphere_distance_field(9.5, 0.25)
    mesh = marching_cubes(field, 9.5)
    mesh = TriangleMesh(mesh.vertices.copy(), mesh.triangles.copy())
    assert mesh.n_triangles >= 50_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        metrics = mesh_metrics(mesh)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert metrics.boundary_edge_count == 0
    assert peak <= 120 * mesh.n_triangles


def test_mesh_metrics_area_and_volume_sum_as_before(rng):
    # area and volume sum the per-face terms of the np.cross formula in one
    # reduction each, so they are bit-identical to it
    field = sphere_distance_field(3.0, 0.2)
    mesh = marching_cubes(field, 3.0)
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    m = mesh_metrics(mesh)
    assert m.area == float(np.linalg.norm(cross, axis=1).sum() / 2.0)
    assert m.enclosed_volume == float(np.einsum("ij,ij->i", p[:, 0], cross).sum() / 6.0)


def test_cli_import_leaves_out_the_algebra_layer():
    # `python -m cliffsurf` imports cliffsurf.cli; the package's exports
    # load lazily, so ga and cft stay out, and every exported name imports
    code = (
        "import sys, cliffsurf.cli\n"
        "loaded = sorted(m for m in sys.modules if m in ('cliffsurf.ga', 'cliffsurf.cft'))\n"
        "import cliffsurf\n"
        "for name in cliffsurf.__all__:\n"
        "    exec(f'from cliffsurf import {name}')\n"
        "print(loaded, 'cliffsurf.ga' in sys.modules, 'cliffsurf.cft' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["[]", "True", "True"]


def test_unknown_package_attribute_raises():
    import cliffsurf

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        cliffsurf.nonexistent  # noqa: B018
    assert "marching_cubes" in dir(cliffsurf)


def test_write_rows_chunks_do_not_matter_to_streamed_dx(tmp_path, monkeypatch):
    monkeypatch.setattr(grids, "_ROWS_PER_WRITE", 4)  # many chunk boundaries
    rng = np.random.default_rng(8)
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(7, 5, 4))
    values = rng.standard_normal(grid.dims)
    with VolumeWriter(grid, tmp_path / "v.dx") as writer:
        for slab in slabs(values, 3):
            writer.write(slab)
    assert (tmp_path / "v.dx").read_bytes() == _dx_oracle(values, grid)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_streamed_dx_of_a_mixed_sign_field_matches_percent(tmp_path, monkeypatch, chunk):
    # negative blobs in a positive field, so slabs and chunks come with
    # and without negatives; rows span slabs, and the last line is short
    monkeypatch.setattr(grids, "_ROWS_PER_WRITE", chunk)
    rng = np.random.default_rng(12)
    grid = GridSpec(origin=(-1.5, 0.25, 3.0), spacing=0.3, dims=(23, 31, 37))
    x, y, z = np.meshgrid(*(np.linspace(0, 6, n) for n in grid.dims), indexing="ij")
    values = rng.uniform(0.5, 2.0, grid.dims) * 10.0 ** rng.integers(-12, 12, grid.dims)
    values[np.sin(x) * np.cos(y) * np.sin(z) > 0.3] *= -1
    values[0, 0, :3] = [0.0, -0.0, 1e-300]
    with VolumeWriter(grid, tmp_path / "v.dx") as writer:
        for slab in slabs(values, 11):
            writer.write(slab)
    assert values.size % 3 and (values < 0).mean() > 0.05
    assert (tmp_path / "v.dx").read_bytes() == _dx_oracle(values, grid)


def test_each_producer_does_no_work_before_its_first_slab(monkeypatch):
    # a producer is a generator: its checks and setup run at its first
    # slab, in the stage that consumes it, and nothing runs at the call
    axes_calls = []
    real_axes = GridSpec.axes

    def counted_axes(self):
        axes_calls.append(self)
        return real_axes(self)

    monkeypatch.setattr(GridSpec, "axes", counted_axes)
    mol = Molecule([(0.0, 0.0, 0.0)], [1.5])
    grid = GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.5, dims=(9, 9, 9))
    parts = piecewise_slabs(mol, grid)
    assert axes_calls == []
    next(parts)
    assert axes_calls == [grid]

    parts = gaussian_slabs(mol, grid, s=0.0)
    with pytest.raises(ValueError, match="s must be positive and finite, got 0.0"):
        next(parts)

    band = SpectralBand.full(grid)
    parts = field_slabs(np.zeros((2, 2, 2), dtype=complex), band)
    with pytest.raises(ValueError, match=r"spectrum shape \(2, 2, 2\) does not match"):
        next(parts)
