"""Grid sizing, rasterization correctness, volume export formats."""

import tracemalloc

import numpy as np
import pytest

from cliffsurf import grids
from cliffsurf.grids import GridSpec, ScalarField3
from cliffsurf.molecule import Atom, Molecule
from cliffsurf.pdefilter import FilterParams, mode_decompose
from cliffsurf.surface import marching_cubes
from cliffsurf.volumetrics import (
    export_opendx,
    export_raw,
    make_grid,
    rasterize_gaussian,
    rasterize_piecewise,
    rasterize_piecewise_swapped,
)
from conftest import read_dx, read_raw

GOLDEN = __file__.rsplit("/", 1)[0] + "/golden"


def _single_atom(r=1.8):
    return Molecule((Atom(center=(0.0, 0.0, 0.0), radius=r),))


def test_make_grid_three_atom_reference(three_atoms):
    grid = make_grid(three_atoms, spacing=0.25, padding=5.0)
    assert grid.dims == (56, 70, 70)
    assert grid.spacing == 0.25
    # box recentered: extent symmetric around the sphere-box center
    lo, hi = three_atoms.bounding_box()
    center = (lo - 5.0 + hi + 5.0) / 2.0
    for a in range(3):
        extent = (grid.dims[a] - 1) * 0.25
        assert np.isclose(grid.origin[a], center[a] - extent / 2.0, atol=1e-12)


def test_make_grid_covers_padded_box(three_atoms):
    for spacing, padding in ((0.25, 5.0), (0.4, 2.0), (1.0, 0.0)):
        grid = make_grid(three_atoms, spacing=spacing, padding=padding)
        lo, hi = three_atoms.bounding_box()
        axes = grid.axes()
        for a in range(3):
            assert axes[a][0] <= lo[a] - padding + 1e-9
            assert axes[a][-1] >= hi[a] + padding - 1e-9


def test_make_grid_dims_are_fft_smooth(three_atoms):
    grid = make_grid(three_atoms, spacing=0.3, padding=4.0)
    for n in grid.dims:
        rem = n
        for p in (2, 3, 5, 7):
            while rem % p == 0:
                rem //= p
        assert rem == 1, n


def test_make_grid_x_axis_symmetric_for_symmetric_molecule(three_atoms):
    # all atoms sit at x=0, so the x axis must come out bin-symmetric
    grid = make_grid(three_atoms, spacing=0.25, padding=5.0)
    x = grid.axes()[0]
    assert np.array_equal(x, -x[::-1])


def test_make_grid_memory_cap(three_atoms):
    with pytest.raises(ValueError, match="memory cap"):
        make_grid(three_atoms, spacing=0.25, padding=5.0, mem_cap_bytes=10 * 1024**2)
    grid = make_grid(three_atoms, spacing=0.25, padding=5.0, mem_cap_bytes=None)
    assert grid.dims == (56, 70, 70)


def test_make_grid_validation(three_atoms):
    with pytest.raises(ValueError):
        make_grid(three_atoms, spacing=0.0)
    with pytest.raises(ValueError):
        make_grid(three_atoms, padding=-1.0)


def test_piecewise_inside_outside():
    mol = _single_atom(r=1.0)
    grid = GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.5, dims=(9, 9, 9))
    field = rasterize_piecewise(mol, grid)
    x, y, z = grid.meshes()
    d2 = x * x + y * y + z * z
    want = np.where(d2 <= 1.0, 0.0, 1.0)
    assert np.array_equal(field.values, want)
    # boundary samples (distance exactly r) count as inside
    assert field.values[4, 4, 2] == 0.0  # (0, 0, -1)
    assert field.values[4, 4, 0] == 1.0  # (0, 0, -2)


def test_piecewise_union_of_overlapping_atoms(three_atoms):
    grid = make_grid(three_atoms, spacing=0.5, padding=2.0)
    field = rasterize_piecewise(three_atoms, grid)
    x, y, z = grid.meshes(sparse=True)
    inside_any = np.zeros(grid.dims, dtype=bool)
    for atom in three_atoms.atoms:
        c = atom.center
        d2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
        inside_any |= d2 <= atom.radius**2
    assert np.array_equal(field.values == 0.0, inside_any)
    assert set(np.unique(field.values)) <= {0.0, 1.0}


def test_piecewise_atom_outside_grid_is_clipped():
    mol = Molecule(
        (
            Atom(center=(0.0, 0.0, 0.0), radius=1.0),
            Atom(center=(50.0, 0.0, 0.0), radius=1.0),
        )
    )
    grid = GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.5, dims=(9, 9, 9))
    field = rasterize_piecewise(mol, grid)
    assert field.values[4, 4, 4] == 0.0
    assert field.min == 0.0 and field.max == 1.0


def test_piecewise_swapped_is_complement(three_atoms):
    grid = make_grid(three_atoms, spacing=0.5, padding=2.0)
    a = rasterize_piecewise(three_atoms, grid).values
    b = rasterize_piecewise_swapped(three_atoms, grid).values
    assert np.array_equal(a + b, np.ones(grid.dims))


def test_gaussian_matches_analytic_maximum(three_atoms, rng):
    grid = make_grid(three_atoms, spacing=0.5, padding=2.0)
    s, r_e = 1.3, 2.5
    field = rasterize_gaussian(three_atoms, grid, s=s, r_e=r_e)
    axes = grid.axes()
    for _ in range(50):
        i, j, k = (int(rng.integers(0, n)) for n in grid.dims)
        p = np.array([axes[0][i], axes[1][j], axes[2][k]])
        want = max(
            s * np.exp(-(np.sum((p - np.array(a.center)) ** 2) - a.radius**2) / r_e**2)
            for a in three_atoms.atoms
        )
        assert np.isclose(field.values[i, j, k], want, rtol=1e-12)


def test_gaussian_equals_s_on_isolated_sphere_surface():
    mol = _single_atom(r=1.5)
    grid = GridSpec(origin=(-3.0, -3.0, -3.0), spacing=0.75, dims=(9, 9, 9))
    field = rasterize_gaussian(mol, grid, s=2.0, r_e=3.0)
    # (1.5, 0, 0) is a grid point exactly on the sphere
    assert np.isclose(field.values[6, 4, 4], 2.0, rtol=1e-14)
    assert field.values[4, 4, 4] > 2.0  # interior exceeds s
    assert field.values[0, 0, 0] < 2.0  # exterior below s


def test_gaussian_validation(three_atoms):
    grid = make_grid(three_atoms, spacing=1.0, padding=1.0)
    with pytest.raises(ValueError):
        rasterize_gaussian(three_atoms, grid, s=0.0)
    with pytest.raises(ValueError):
        rasterize_gaussian(three_atoms, grid, r_e=-1.0)


def _ramp_field():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(2, 2, 2))
    values = np.arange(8, dtype=float).reshape(2, 2, 2)
    return ScalarField3(grid, values)


def test_opendx_golden_bytes(tmp_path):
    path = tmp_path / "ramp.dx"
    export_opendx(_ramp_field(), path)
    golden = open(f"{GOLDEN}/unit_ramp.dx", "rb").read()
    assert path.read_bytes() == golden


def test_opendx_round_trip(tmp_path, three_atoms):
    grid = make_grid(three_atoms, spacing=0.8, padding=1.0)
    field = rasterize_gaussian(three_atoms, grid)
    path = tmp_path / "vol.dx"
    export_opendx(field, path)
    dims, origin, deltas, values = read_dx(path)
    assert dims == grid.dims
    assert np.allclose(origin, grid.origin, atol=1e-6)
    assert np.allclose(deltas, np.eye(3) * grid.spacing, atol=1e-12)
    # %.6e keeps about 7 significant digits
    assert np.allclose(values, field.values, rtol=1e-6, atol=1e-12)


def test_opendx_z_varies_fastest(tmp_path):
    path = tmp_path / "ramp.dx"
    export_opendx(_ramp_field(), path)
    text = path.read_text().splitlines()
    first_data = text[7].split()
    # values[0,0,0], [0,0,1], [0,1,0] in file order
    assert [float(v) for v in first_data] == [0.0, 1.0, 2.0]


def _per_value_dx(field):
    # the value-by-value formatter that the chunked writer replaced
    nx, ny, nz = field.grid.dims
    h = field.grid.spacing
    ox, oy, oz = field.grid.origin
    lines = [
        f"object 1 class gridpositions counts {nx} {ny} {nz}",
        f"origin {ox:.6e} {oy:.6e} {oz:.6e}",
        f"delta {h:.6e} 0.000000e+00 0.000000e+00",
        f"delta 0.000000e+00 {h:.6e} 0.000000e+00",
        f"delta 0.000000e+00 0.000000e+00 {h:.6e}",
        f"object 2 class gridconnections counts {nx} {ny} {nz}",
        f"object 3 class array type double rank 0 items {nx * ny * nz} data follows",
    ]
    flat = field.values.ravel(order="C")
    for start in range(0, flat.size, 3):
        lines.append(" ".join(f"{v:.6e}" for v in flat[start : start + 3]))
    lines += [
        'attribute "dep" string "positions"',
        'object "regular positions regular connections" class field',
        'component "positions" value 1',
        'component "connections" value 2',
        'component "data" value 3',
    ]
    return "\n".join(lines) + "\n"


# voxel counts 8, 27, 30, 385: remainders 2, 0, 0, 1 on the three-per-line layout
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 5), (5, 7, 11)])
def test_opendx_chunked_matches_per_value_formatter(tmp_path, rng, monkeypatch, dims):
    monkeypatch.setattr(grids, "_ROWS_PER_WRITE", 4)  # many chunk boundaries
    values = rng.standard_normal(dims) * 10.0 ** rng.integers(-300, 300, size=dims)
    flat = values.reshape(-1)
    flat[:5] = [-0.0, 5e-324, 1e300, -2.5e-310, 0.0]
    field = ScalarField3(GridSpec((-1.5, 0.25, 3.0), 0.35, dims), values)
    path = tmp_path / "v.dx"
    export_opendx(field, path)
    assert path.read_text() == _per_value_dx(field)


def test_raw_round_trip_bit_exact(tmp_path, rng):
    grid = GridSpec(origin=(-1.25, 0.5, 3.0), spacing=0.3, dims=(4, 5, 6))
    field = ScalarField3(grid, rng.standard_normal((4, 5, 6)))
    path = tmp_path / "vol.raw"
    export_raw(field, path)
    dims, origin, spacing, values = read_raw(path)
    assert dims == (4, 5, 6)
    assert origin == grid.origin
    assert spacing == 0.3
    assert np.array_equal(values, field.values)


def test_raw_bytes_are_little_endian_c_order(tmp_path):
    # odd dims, signed zero, denormals and huge values, held in C or Fortran
    # order: the header, then the values as "<f8" with z fastest
    values = np.random.default_rng(5).standard_normal((3, 5, 7))
    values.reshape(-1)[:5] = [-0.0, 5e-324, 1e300, -2.5e-310, 0.0]
    grid = GridSpec(origin=(-1.5, 0.25, 3.0), spacing=0.35, dims=(3, 5, 7))
    header = (
        np.asarray(grid.dims, dtype="<i8").tobytes()
        + np.asarray(grid.origin, dtype="<f8").tobytes()
        + np.float64(grid.spacing).astype("<f8").tobytes()
    )
    for layout in (values, np.asfortranarray(values)):
        path = tmp_path / "v.raw"
        export_raw(ScalarField3(grid, layout), path)
        assert path.read_bytes() == header + values.astype("<f8").ravel(order="C").tobytes()


def test_raw_export_copies_no_field(tmp_path):
    values = np.random.default_rng(6).standard_normal((64, 64, 64))
    field = ScalarField3(GridSpec((0.0, 0.0, 0.0), 0.5, values.shape), values)
    tracemalloc.start()
    try:
        export_raw(field, tmp_path / "v.raw")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes


def test_export_rejects_nonfinite(tmp_path):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(2, 2, 2))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.inf
    field = ScalarField3(grid, bad)
    with pytest.raises(ValueError, match="refusing to export"):
        export_opendx(field, tmp_path / "x.dx")
    with pytest.raises(ValueError, match="refusing to export"):
        export_raw(field, tmp_path / "x.raw")


def test_is_finite_builds_no_mask():
    values = np.zeros((100, 100, 100))
    field = ScalarField3(GridSpec((0.0, 0.0, 0.0), 0.5, values.shape), values)
    tracemalloc.start()
    try:
        assert field.is_finite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.size // 10  # an np.isfinite mask is 1 B per voxel


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_nonfinite_sample_is_rejected_everywhere(tmp_path, bad):
    # a single interior sample: neither the first nor the last in memory,
    # and the field's finite samples straddle the isovalue
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(5, 5, 5))
    values = np.linspace(0.0, 1.0, 125).reshape(5, 5, 5)
    values[2, 3, 1] = bad
    field = ScalarField3(grid, values)
    assert not field.is_finite()
    with pytest.raises(ValueError, match="NaN or Inf"):
        marching_cubes(field, 0.5)
    with pytest.raises(ValueError, match="NaN or Inf"):
        export_opendx(field, tmp_path / "x.dx")
    with pytest.raises(ValueError, match="NaN or Inf"):
        export_raw(field, tmp_path / "x.raw")
    with pytest.raises(ValueError, match="NaN or Inf"):
        mode_decompose(field, 2, FilterParams.single_term(t=1.0))
    assert not any(tmp_path.iterdir())
