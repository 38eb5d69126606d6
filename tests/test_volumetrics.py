"""Grid sizing, rasterization correctness, volume export formats."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsurf import grids, volumetrics
from cliffsurf.grids import GridSpec, ScalarField3
from cliffsurf.molecule import Molecule, parse_xyzr
from cliffsurf.pdefilter import FilterParams, mode_decompose
from cliffsurf.surface import marching_cubes
from cliffsurf.volumetrics import (
    _BYTES_PER_VOXEL,
    DEFAULT_ISOVALUES,
    INIT_KINDS,
    check_isovalue,
    initial_slabs,
    make_grid,
    piecewise_slabs,
    rasterize,
    write_volume,
)
from conftest import (
    THREE_ATOM_XYZR,
    piecewise_slabs_per_atom,
    rasterize_gaussian_all_atoms,
    read_dx,
    read_raw,
)

GOLDEN = __file__.rsplit("/", 1)[0] + "/golden"


def _single_atom(r=1.8):
    return Molecule([(0.0, 0.0, 0.0)], [r])


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


def test_make_grid_refuses_a_nan_memory_cap(three_atoms):
    # "need > nan" is False for every need, so the cap is "not need <= cap"
    with pytest.raises(ValueError, match=r"\(56, 70, 70\) needs about .* over the nan GiB memory cap"):
        make_grid(three_atoms, spacing=0.25, padding=5.0, mem_cap_bytes=float("nan"))
    # None and inf are no cap
    for cap in (None, np.inf):
        grid = make_grid(three_atoms, spacing=0.25, padding=5.0, mem_cap_bytes=cap)
        assert grid.dims == (56, 70, 70)


def test_memory_cap_refusal_names_the_rounded_dims():
    # the fixture at h = 0.05 samples (273, 336, 345) voxels, which fit a
    # cap one byte under their estimate; the run would use (280, 336, 350)
    text = (Path(__file__).parent / "golden" / "fixture.xyzr").read_text()
    mol = parse_xyzr(text)
    sampled, rounded = (math.prod(d) * _BYTES_PER_VOXEL for d in [(273, 336, 345), (280, 336, 350)])
    assert make_grid(mol, spacing=0.05, mem_cap_bytes=rounded).dims == (280, 336, 350)
    for cap in (sampled - 1, sampled, rounded - 1):
        with pytest.raises(ValueError, match=r"grid \(280, 336, 350\) needs about 2\.2 GiB"):
            make_grid(mol, spacing=0.05, mem_cap_bytes=cap)


def test_make_grid_without_cap_refuses_absurd_spacing_fast():
    # about 1e301 samples per axis: more voxels than any array can hold,
    # refused before rounding; it used to count up toward a smooth size
    # one integer at a time and never return
    import subprocess
    import sys

    code = (
        "from cliffsurf.molecule import parse_xyzr\n"
        "from cliffsurf.volumetrics import make_grid\n"
        f"mol = parse_xyzr({THREE_ATOM_XYZR!r})\n"
        "try:\n"
        "    make_grid(mol, spacing=1e-300, mem_cap_bytes=None)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    assert "more voxels than a float64 array can hold" in proc.stdout


def test_make_grid_validation(three_atoms):
    with pytest.raises(ValueError):
        make_grid(three_atoms, spacing=0.0)
    with pytest.raises(ValueError):
        make_grid(three_atoms, padding=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_grid_rejects_nonfinite_settings(three_atoms, bad):
    # the same named error as the CLI's, not a failed int() of a NaN or inf
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        make_grid(three_atoms, spacing=bad)
    with pytest.raises(ValueError, match="padding must be nonnegative and finite"):
        make_grid(three_atoms, padding=bad)


def test_piecewise_inside_outside():
    mol = _single_atom(r=1.0)
    grid = GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.5, dims=(9, 9, 9))
    field = rasterize("piecewise", mol, grid)
    x, y, z = grid.meshes()
    d2 = x * x + y * y + z * z
    want = np.where(d2 <= 1.0, 0.0, 1.0)
    assert np.array_equal(field.values, want)
    # boundary samples (distance exactly r) count as inside
    assert field.values[4, 4, 2] == 0.0  # (0, 0, -1)
    assert field.values[4, 4, 0] == 1.0  # (0, 0, -2)


def test_piecewise_union_of_overlapping_atoms(three_atoms):
    grid = make_grid(three_atoms, spacing=0.5, padding=2.0)
    field = rasterize("piecewise", three_atoms, grid)
    x, y, z = grid.meshes(sparse=True)
    inside_any = np.zeros(grid.dims, dtype=bool)
    for c, radius in zip(three_atoms.centers.tolist(), three_atoms.radii.tolist()):
        d2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
        inside_any |= d2 <= radius**2
    assert np.array_equal(field.values == 0.0, inside_any)
    assert set(np.unique(field.values)) <= {0.0, 1.0}


def test_piecewise_atom_outside_grid_is_clipped():
    mol = Molecule([(0.0, 0.0, 0.0), (50.0, 0.0, 0.0)], [1.0, 1.0])
    grid = GridSpec(origin=(-2.0, -2.0, -2.0), spacing=0.5, dims=(9, 9, 9))
    field = rasterize("piecewise", mol, grid)
    assert field.values[4, 4, 4] == 0.0
    assert field.min == 0.0 and field.max == 1.0


@pytest.mark.parametrize("spacing", [0.3, 0.35])
def test_piecewise_boundary_voxel_at_pdb_range_coordinates(spacing):
    # 6-atom molecules 9,999 A from the origin, one sphere boundary on a voxel
    # centre: the field is the d2 <= r*r test at every voxel of the grid
    for seed in range(24):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-3.0, 3.0, (6, 3)) + 9999.0
        radii = rng.uniform(1.2, 2.0, 6)
        grid = make_grid(Molecule(centers, radii), spacing=spacing, padding=1.0)
        x, y, z = grid.axes()
        i, j, k = (int(np.searchsorted(axis, c)) for axis, c in zip((x, y, z), centers[0]))
        centers[0, 1:] = y[j], z[k]
        radii[0] = abs(x[i + (5 if seed % 2 else -5)] - centers[0, 0])
        mol = Molecule(centers, radii)
        inside = np.zeros(grid.dims, dtype=bool)
        for c, r in zip(centers.tolist(), radii.tolist()):
            dx, dy, dz = x - c[0], y - c[1], z - c[2]
            d2 = dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2
            inside |= d2 <= r * r
        field = rasterize("piecewise", mol, grid).values
        assert np.array_equal(field == 0.0, inside), seed


def test_piecewise_swapped_is_complement(three_atoms):
    grid = make_grid(three_atoms, spacing=0.5, padding=2.0)
    a = rasterize("piecewise", three_atoms, grid).values
    b = rasterize("piecewise-swapped", three_atoms, grid).values
    assert np.array_equal(a + b, np.ones(grid.dims))


# the cap under which the lattice cluster of _piecewise_case fills at least
# three batches: its largest window, (2 * 4 + 1)^3 voxels
_CLUSTER_CAP = 9**3


def _piecewise_case(seed, dims):
    """Atoms of 0.8-2.2 A and one of 8 A over a grid of dims at h = 0.5, and one boundary voxel.

    The origin is a multiple of 0.5, so every voxel coordinate is exact.
    Random atoms spread 2 A past every face, and one sits on each face;
    one atom lies wholly outside the grid; one sphere passes exactly
    through a voxel center, which is returned. A cluster of atoms centred
    on voxel centers of plane 12, of radii (k + 1/2) h for k in 1..4,
    has windows of exactly (2k + 1)^3 voxels, all starting in the second
    slab.
    """
    rng = np.random.default_rng(seed)
    grid = GridSpec(origin=(-3.0, -2.5, -4.0), spacing=0.5, dims=dims)
    axes = grid.axes()
    lo, hi = np.array([x[0] for x in axes]), np.array([x[-1] for x in axes])
    centers = [rng.uniform(lo - 2.0, hi + 2.0, (40, 3))]
    radii = [rng.uniform(0.8, 2.2, 40)]
    for a in range(3):
        for end in (lo, hi):
            c = rng.uniform(lo, hi)
            c[a] = end[a] + rng.uniform(-0.3, 0.3)
            centers.append(c[None])
            radii.append(rng.uniform(1.5, 2.2, 1))
    # the 8 A atom reaches into the first planes and past four faces
    centers.append(np.array([(lo[0] - 5.5, 0.0, 0.0), hi + 20.0]))
    radii.append(np.array([8.0, 2.0]))
    # the boundary sphere: centred on voxel (i, j, k) but for a random x, its
    # radius the rounded x offset of voxel i, so that voxel's d2 is r*r
    i, j, k = (int(rng.integers(2, n - 2)) for n in dims)
    x = rng.uniform(axes[0][i] - 2.0, axes[0][i] - 1.0)
    centers.append(np.array([[x, axes[1][j], axes[2][k]]]))
    radii.append(np.array([axes[0][i] - x]))
    ks = rng.integers(1, 5, 24)
    y, z = (rng.integers(ks, n - ks) for n in dims[1:])  # windows inside the grid
    centers.append(np.stack([np.full(24, axes[0][12]), axes[1][y], axes[2][z]], axis=1))
    radii.append((ks + 0.5) * grid.spacing)
    assert np.sum((2 * ks + 1) ** 3) > 2 * _CLUSTER_CAP  # so three batches at the least
    return Molecule(np.concatenate(centers), np.concatenate(radii)), grid, (i, j, k)


@pytest.mark.parametrize("cap", [None, 1, _CLUSTER_CAP])
@pytest.mark.parametrize("dims", [(21, 13, 19), (27, 18, 11), (19, 23, 30)])
def test_piecewise_matches_per_atom_oracle(monkeypatch, dims, cap):
    # at the default cap, at one atom per batch, and at a cap that cuts the
    # cluster's slab into three batches or more
    if cap is not None:
        monkeypatch.setattr(volumetrics, "_BATCH_VOXELS", cap)
    mol, grid, boundary = _piecewise_case(sum(dims), dims)
    got = list(piecewise_slabs(mol, grid))
    want = list(piecewise_slabs_per_atom(mol, grid))
    assert len(got) == len(want) == -(-dims[0] // grids.SLAB)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    field = np.concatenate(got)
    assert field[boundary] == 0.0
    assert 0.2 < field.mean() < 0.8


def test_piecewise_peak_memory_with_an_outsized_atom():
    # one whole pass over 3000 atoms of 0.8-2.2 A in a 24 A cube at h = 0.25
    # (160^3) with one 8 A atom, whose window alone is 65^3 voxels. Drawn one
    # atom at a time the traced peak read 5.50 MB; the bound is that plus
    # 2 MB, and the batches read 6.72 MB
    rng = np.random.default_rng(36)
    centers = rng.uniform(-12.0, 12.0, (3000, 3))
    radii = rng.uniform(0.8, 2.2, 3000)
    centers[0], radii[0] = (0.3, -0.2, 0.1), 8.0
    mol = Molecule(centers, radii)
    grid = make_grid(mol, spacing=0.25)
    peaks = []
    for atoms in (mol, Molecule(centers[:1], radii[:1])):
        tracemalloc.start()
        try:
            for slab in piecewise_slabs(atoms, grid):
                del slab
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 7.5e6
    # the outsized atom is a batch of its own, and costs what it costs alone
    # (6.44 MB): a neighbour padded to its window would add 9 B per voxel of
    # it, 2.5 MB, for the offsets' squares and the test's result alone
    assert peaks[0] < peaks[1] + 1e6


def test_gaussian_matches_analytic_maximum(three_atoms, rng):
    grid = make_grid(three_atoms, spacing=0.5, padding=2.0)
    s, r_e = 1.3, 2.5
    field = rasterize("gaussian", three_atoms, grid, s=s, r_e=r_e)
    axes = grid.axes()
    for _ in range(50):
        i, j, k = (int(rng.integers(0, n)) for n in grid.dims)
        p = np.array([axes[0][i], axes[1][j], axes[2][k]])
        want = max(
            s * np.exp(-(np.sum((p - np.array(c)) ** 2) - radius**2) / r_e**2)
            for c, radius in zip(three_atoms.centers.tolist(), three_atoms.radii.tolist())
        )
        assert np.isclose(field.values[i, j, k], want, rtol=1e-12)


def test_gaussian_equals_s_on_isolated_sphere_surface():
    mol = _single_atom(r=1.5)
    grid = GridSpec(origin=(-3.0, -3.0, -3.0), spacing=0.75, dims=(9, 9, 9))
    field = rasterize("gaussian", mol, grid, s=2.0, r_e=3.0)
    # (1.5, 0, 0) is a grid point exactly on the sphere
    assert np.isclose(field.values[6, 4, 4], 2.0, rtol=1e-14)
    assert field.values[4, 4, 4] > 2.0  # interior exceeds s
    assert field.values[0, 0, 0] < 2.0  # exterior below s


def test_gaussian_validation(three_atoms):
    grid = make_grid(three_atoms, spacing=1.0, padding=1.0)
    with pytest.raises(ValueError):
        rasterize("gaussian", three_atoms, grid, s=0.0)
    with pytest.raises(ValueError):
        rasterize("gaussian", three_atoms, grid, r_e=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"s": np.inf}, {"s": np.nan}, {"r_e": np.inf}, {"r_e": np.nan}],
    ids=["s-inf", "s-nan", "r_e-inf", "r_e-nan"],
)
def test_gaussian_refuses_a_non_finite_height_or_decay(three_atoms, kwargs):
    # an infinite height would give an all-inf field, an infinite decay a
    # constant one
    grid = make_grid(three_atoms, spacing=0.5)
    with pytest.raises(ValueError, match="must be positive and finite"):
        rasterize("gaussian", three_atoms, grid, **kwargs)


def _globule(rng, atoms=300, ball=9.9, radius=1.7, separation=2.0):
    """Seeded G300-like globule: equal spheres packed in a ball by rejection.

    The bench's G300 keeps centres 2.2 A apart, close to the jamming limit
    of this sampler, which takes seconds to get there; 2.0 A takes a tenth
    of a second.
    """
    centres = np.zeros((0, 3))
    while len(centres) < atoms:
        p = rng.uniform(-ball, ball, 3)
        if p @ p <= ball * ball and np.all(np.sum((centres - p) ** 2, axis=1) >= separation**2):
            centres = np.vstack([centres, p])
    return Molecule(centres, np.full(len(centres), radius))


def _mixed_radii(rng, atoms, lo, hi):
    """Random centres in the box [lo, hi]^3 with radii from 0.5 to 3."""
    centres = rng.uniform(lo, hi, (atoms, 3))
    radii = rng.uniform(0.5, 3.0, atoms)
    return Molecule(centres, radii)


@pytest.mark.parametrize("seed", range(6))
def test_gaussian_matches_all_atom_oracle_mixed_radii(seed):
    # a 3 A atom beside 0.5 A ones wins voxels far from its centre
    rng = np.random.default_rng(seed)
    mol = _mixed_radii(rng, int(rng.integers(2, 60)), -6.0, 6.0)
    grid = make_grid(mol, spacing=float(rng.uniform(0.3, 0.7)), padding=2.0)
    s, r_e = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 4.0))
    got = rasterize("gaussian", mol, grid, s=s, r_e=r_e).values
    assert np.array_equal(got, rasterize_gaussian_all_atoms(mol, grid, s=s, r_e=r_e).values)


@pytest.mark.parametrize(
    "dims",
    [(2, 7, 17), (17, 17, 17), (7, 2, 9), (17, 9, 2), (8, 16, 24), (25, 3, 11),
     (2, 2, 130), (130, 2, 3), (3, 70, 2)],
)
def test_gaussian_matches_all_atom_oracle_on_odd_dims(dims):
    # dims off the leaf edge leave partial leaves (17 leaves a leaf one
    # voxel wide); on the elongated grids the cube the pruning starts from
    # lies mostly outside the grid, and its halves past each axis are
    # dropped; some atoms lie outside the grid, some far from it
    rng = np.random.default_rng(sum(dims))
    grid = GridSpec(origin=(-2.0, -3.0, -1.5), spacing=0.5, dims=dims)
    mol = _mixed_radii(rng, 40, -8.0, 12.0)
    got = rasterize("gaussian", mol, grid).values
    assert np.array_equal(got, rasterize_gaussian_all_atoms(mol, grid).values)


@pytest.mark.parametrize("dims", [(17, 17, 17), (9, 12, 17)])
def test_gaussian_matches_all_atom_oracle_with_exact_ties(dims):
    # coincident centres: equal radii tie everywhere, unequal ones never;
    # an atom placed on a voxel centre ties with its twin there too
    rng = np.random.default_rng(7)
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=dims)
    base = rng.uniform(-1.0, 9.0, (12, 3))
    base[0] = (2.0, 4.0, 8.0)  # a voxel centre in the last z block, one voxel wide
    mol = Molecule(np.vstack([base, base]), np.repeat([1.2, 1.9], [18, 6]))
    got = rasterize("gaussian", mol, grid).values
    assert np.array_equal(got, rasterize_gaussian_all_atoms(mol, grid).values)


@pytest.mark.parametrize("center", [(0.3, -0.2, 0.1), (40.0, -25.0, 3.0)])
def test_gaussian_matches_all_atom_oracle_one_atom(center):
    grid = GridSpec(origin=(-4.0, -4.0, -4.0), spacing=0.4, dims=(21, 20, 19))
    mol = Molecule([center], [1.6])
    got = rasterize("gaussian", mol, grid).values
    assert np.array_equal(got, rasterize_gaussian_all_atoms(mol, grid).values)


def test_gaussian_matches_all_atom_oracle_on_globule():
    mol = _globule(np.random.default_rng(11))
    grid = make_grid(mol, spacing=0.3)
    assert grid.dims == (112, 112, 112)
    got = rasterize("gaussian", mol, grid).values
    assert np.array_equal(got, rasterize_gaussian_all_atoms(mol, grid).values)


@st.composite
def _prune_cases(draw):
    """A grid cut at any block and leaf offset, and a molecule around it.

    Radii from 0.3 to 12 A in one molecule, centres up to half the box
    beyond every face, some on voxel centres, and twins with equal radii,
    which tie exactly everywhere.
    """
    dims = tuple(draw(st.integers(2, 40)) for _ in range(3))
    spacing = draw(st.floats(0.1, 1.0))
    origin = tuple(draw(st.floats(-5.0, 5.0)) for _ in range(3))
    grid = GridSpec(origin=origin, spacing=spacing, dims=dims)
    centers, radii = [], []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):  # on a voxel centre, inside the grid or not
            index = [draw(st.integers(-n // 2, n + n // 2)) for n in dims]
            center = tuple(o + spacing * i for o, i in zip(origin, index))
        else:
            center = tuple(
                o + spacing * (n - 1) * draw(st.floats(-0.5, 1.5))
                for o, n in zip(origin, dims)
            )
        centers.append(center)
        radii.append(draw(st.floats(0.3, 12.0)))
    twins = draw(st.lists(st.integers(0, len(radii) - 1), max_size=5))
    mol = Molecule(centers + [centers[i] for i in twins], radii + [radii[i] for i in twins])
    # r_e >= 0.5 keeps exp(12^2 / r_e^2) finite
    return mol, grid, draw(st.floats(0.1, 10.0)), draw(st.floats(0.5, 6.0))


@settings(max_examples=150, deadline=None)
@given(_prune_cases())
def test_gaussian_two_level_prune_matches_all_atom_oracle(case):
    mol, grid, s, r_e = case
    got = rasterize("gaussian", mol, grid, s=s, r_e=r_e).values
    assert np.array_equal(got, rasterize_gaussian_all_atoms(mol, grid, s=s, r_e=r_e).values)


def test_gaussian_peak_memory_per_voxel():
    # the field itself is 8 B per voxel; the per-atom loop peaked at 32
    mol = _globule(np.random.default_rng(12))
    grid = GridSpec(origin=(-15.0, -15.0, -15.0), spacing=0.3, dims=(100, 100, 100))
    tracemalloc.start()
    try:
        rasterize("gaussian", mol, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * grid.n_voxels


def _ramp_field():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(2, 2, 2))
    values = np.arange(8, dtype=float).reshape(2, 2, 2)
    return ScalarField3(grid, values)


def test_opendx_golden_bytes(tmp_path):
    path = tmp_path / "ramp.dx"
    write_volume(_ramp_field(), path)
    golden = open(f"{GOLDEN}/unit_ramp.dx", "rb").read()
    assert path.read_bytes() == golden


def test_opendx_round_trip(tmp_path, three_atoms):
    grid = make_grid(three_atoms, spacing=0.8, padding=1.0)
    field = rasterize("gaussian", three_atoms, grid)
    path = tmp_path / "vol.dx"
    write_volume(field, path)
    dims, origin, deltas, values = read_dx(path)
    assert dims == grid.dims
    assert np.allclose(origin, grid.origin, atol=1e-6)
    assert np.allclose(deltas, np.eye(3) * grid.spacing, atol=1e-12)
    # %.6e keeps about 7 significant digits
    assert np.allclose(values, field.values, rtol=1e-6, atol=1e-12)


def test_opendx_z_varies_fastest(tmp_path):
    path = tmp_path / "ramp.dx"
    write_volume(_ramp_field(), path)
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
    write_volume(field, path)
    assert path.read_text() == _per_value_dx(field)


def test_raw_round_trip_bit_exact(tmp_path, rng):
    grid = GridSpec(origin=(-1.25, 0.5, 3.0), spacing=0.3, dims=(4, 5, 6))
    field = ScalarField3(grid, rng.standard_normal((4, 5, 6)))
    path = tmp_path / "vol.raw"
    write_volume(field, path)
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
        write_volume(ScalarField3(grid, layout), path)
        assert path.read_bytes() == header + values.astype("<f8").ravel(order="C").tobytes()


def test_raw_export_copies_no_field(tmp_path):
    values = np.random.default_rng(6).standard_normal((64, 64, 64))
    field = ScalarField3(GridSpec((0.0, 0.0, 0.0), 0.5, values.shape), values)
    tracemalloc.start()
    try:
        write_volume(field, tmp_path / "v.raw")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes


def test_export_rejects_nonfinite(tmp_path):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(2, 2, 2))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.inf
    field = ScalarField3(grid, bad)
    with pytest.raises(ValueError, match="field contains NaN or Inf"):
        write_volume(field, tmp_path / "x.dx")
    with pytest.raises(ValueError, match="field contains NaN or Inf"):
        write_volume(field, tmp_path / "x.raw")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_nonfinite_sample_is_rejected_everywhere(tmp_path, bad):
    # a single interior sample: neither the first nor the last in memory,
    # and the field's finite samples straddle the isovalue
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(5, 5, 5))
    values = np.linspace(0.0, 1.0, 125).reshape(5, 5, 5)
    values[2, 3, 1] = bad
    field = ScalarField3(grid, values)
    with pytest.raises(ValueError, match="NaN or Inf"):
        grids.check_finite(field.min, field.max)
    with pytest.raises(ValueError, match="NaN or Inf"):
        marching_cubes(field, 0.5)
    with pytest.raises(ValueError, match="NaN or Inf"):
        write_volume(field, tmp_path / "x.dx")
    with pytest.raises(ValueError, match="NaN or Inf"):
        write_volume(field, tmp_path / "x.raw")
    with pytest.raises(ValueError, match="NaN or Inf"):
        mode_decompose(field, [FilterParams.single_term(t=1.0)] * 2)
    assert not any(tmp_path.iterdir())


def test_initial_slabs_give_each_init_kind():
    mol = parse_xyzr(THREE_ATOM_XYZR)
    grid = make_grid(mol, spacing=0.5)
    piecewise = ScalarField3.from_slabs(grid, piecewise_slabs(mol, grid)).values
    want = {
        "piecewise": piecewise,
        "gaussian": rasterize_gaussian_all_atoms(mol, grid, s=2.0, r_e=1.5).values,
        "piecewise-swapped": 1.0 - piecewise,  # the complement, 1 inside
    }
    assert set(INIT_KINDS) == set(want)
    for kind in INIT_KINDS:
        got = ScalarField3.from_slabs(grid, initial_slabs(kind, mol, grid, s=2.0, r_e=1.5))
        assert np.array_equal(got.values, want[kind]), kind
        # the whole field is the assembled slabs
        assert np.array_equal(rasterize(kind, mol, grid, s=2.0, r_e=1.5).values, want[kind]), kind
    for make in (initial_slabs, rasterize):
        with pytest.raises(ValueError, match=r"^init must be one of \(.*\), got 'smooth'$"):
            make("smooth", mol, grid)


def test_each_init_kind_has_its_isovalue_rule():
    # a binary field lies in [0, 1]; the bumps reach s, so any positive level
    assert DEFAULT_ISOVALUES == {"piecewise": 0.9, "gaussian": 0.8, "piecewise-swapped": 0.1}
    assert INIT_KINDS == tuple(DEFAULT_ISOVALUES)
    for kind, iso in DEFAULT_ISOVALUES.items():
        check_isovalue(kind, iso)
    check_isovalue("gaussian", 1.3)
    for kind in ("piecewise", "piecewise-swapped"):
        check_isovalue(kind, 1.0)
        for iso in (0.0, 1.3, np.nan):
            with pytest.raises(
                ValueError, match=rf"^isovalue must lie in \(0, 1\] for binary initial data, got {iso}$"
            ):
                check_isovalue(kind, iso)
    for iso in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=rf"^isovalue must be positive and finite, got {iso}$"):
            check_isovalue("gaussian", iso)
