"""Isosurface extraction: per-case cell behavior, welding, topology and
geometry metrics, mesh file formats."""

import numpy as np
import pytest

from cliffsurf import grids
from cliffsurf.grids import GridSpec, ScalarField3
from cliffsurf.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, EDGE_MASKS, TRI_TABLE
from cliffsurf.surface import (
    TriangleMesh,
    marching_cubes,
    mesh_metrics,
    write_obj,
    write_off,
)
from conftest import read_obj, read_off, sphere_distance_field

GOLDEN = __file__.rsplit("/", 1)[0] + "/golden"

_CORNERS = [tuple(int(v) for v in row) for row in np.asarray(CORNER_OFFSETS)]


def _single_cell_field(case):
    """2x2x2 field selecting one table case: bit set means corner below."""
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(2, 2, 2))
    values = np.empty((2, 2, 2))
    for corner, (i, j, k) in enumerate(_CORNERS):
        values[i, j, k] = -0.5 if case & (1 << corner) else 1.5
    return ScalarField3(grid, values)


def _table_triangle_count(case):
    row = TRI_TABLE[case]
    return sum(1 for v in row if v >= 0) // 3


@pytest.mark.parametrize("case", range(1, 255))
def test_single_cell_all_cases(case):
    mesh = marching_cubes(_single_cell_field(case), 0.5)
    # the cell may be complemented by the ambiguity decider, never both
    assert mesh.n_triangles in {_table_triangle_count(case), _table_triangle_count(255 - case)}
    # with values -0.5 / 1.5 every cut lands mid-edge: one coordinate 0.5,
    # the others on grid planes
    frac = mesh.vertices == 0.5
    assert np.all(frac.sum(axis=1) == 1)
    on_grid = np.isin(mesh.vertices, (0.0, 1.0))
    assert np.all((frac | on_grid).all(axis=1))
    # each vertex must sit on an edge whose corners straddle the isovalue
    for x, y, z in mesh.vertices:
        coords = (x, y, z)
        axis = coords.index(0.5)
        base = tuple(int(c) for c in coords[:axis] + (0,) + coords[axis + 1 :])
        tip = tuple(base[a] + (1 if a == axis else 0) for a in range(3))
        cb = _CORNERS.index(base)
        ct = _CORNERS.index(tip)
        below_b = bool(case & (1 << cb))
        below_t = bool(case & (1 << ct))
        assert below_b != below_t, f"case {case}: vertex {coords} on an uncut edge"


@pytest.mark.parametrize("case", range(1, 255))
def test_single_cell_complement_cuts_same_edges(case):
    # inverting the field complements the case; the cut-edge set (hence
    # the vertex positions) must be identical
    assert EDGE_MASKS[case] == EDGE_MASKS[255 - case]
    va = marching_cubes(_single_cell_field(case), 0.5).vertices
    vb = marching_cubes(_single_cell_field(255 - case), 0.5).vertices
    sa = {tuple(v) for v in np.round(va, 12)}
    sb = {tuple(v) for v in np.round(vb, 12)}
    assert sa == sb


def test_edge_corner_tables_consistent():
    # every tabulated edge joins corners differing in exactly one axis
    for a, b in EDGE_CORNERS:
        da = np.array(_CORNERS[a])
        db = np.array(_CORNERS[b])
        assert np.abs(da - db).sum() == 1
    # table rows only reference edges the mask declares cut
    for case in range(256):
        used = {v for v in TRI_TABLE[case] if v >= 0}
        mask = EDGE_MASKS[case]
        assert all(mask & (1 << e) for e in used)


def test_uniform_field_has_no_surface():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(3, 3, 3))
    with pytest.raises(ValueError, match="outside the open field range"):
        marching_cubes(ScalarField3(grid, np.ones((3, 3, 3))), 1.0)


def test_isovalue_range_and_finiteness_checks():
    field = sphere_distance_field(1.0, 0.5)
    with pytest.raises(ValueError, match="outside the open field range"):
        marching_cubes(field, 100.0)
    with pytest.raises(ValueError, match="finite"):
        marching_cubes(field, np.nan)
    bad = field.values.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        marching_cubes(ScalarField3(field.grid, bad), 1.0)


def test_samples_equal_to_isovalue_are_nudged():
    # a whole slab sits exactly at the isovalue: the nudge pushes it just
    # above, so no vertex coincides with a grid point and no zero-length
    # triangle edges appear
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 4, 4))
    x = grid.meshes()[0]
    bands = np.select([x < 0.5, x < 1.5], [0.0, 0.5], default=2.0)
    values = np.broadcast_to(bands, (4, 4, 4)).copy()
    mesh = marching_cubes(ScalarField3(grid, values), 0.5)
    assert mesh.n_triangles > 0
    assert np.isfinite(mesh.vertices).all()
    on_lattice = np.all(mesh.vertices == np.round(mesh.vertices), axis=1)
    assert not on_lattice.any()
    tri = mesh.vertices[mesh.triangles]
    lengths = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2)
    assert lengths.min() > 0.0


def test_isovalue_at_field_minimum_is_rejected():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 4, 4))
    x = grid.meshes()[0]
    values = np.broadcast_to(np.where(x < 1.5, 0.5, 2.0), (4, 4, 4)).copy()
    with pytest.raises(ValueError, match="outside the open field range"):
        marching_cubes(ScalarField3(grid, values), 0.5)


def test_vertices_are_welded_unique(rng):
    field = sphere_distance_field(1.8, 0.25)
    mesh = marching_cubes(field, 1.8)
    rounded = np.round(mesh.vertices, 9)
    assert len(np.unique(rounded, axis=0)) == mesh.n_vertices
    used = np.unique(mesh.triangles)
    assert len(used) == mesh.n_vertices


def test_sphere_topology_and_geometry():
    field = sphere_distance_field(1.8, 0.125)
    mesh = marching_cubes(field, 1.8)
    m = mesh_metrics(mesh)
    assert m.component_count == 1
    assert m.euler_characteristic == 2
    assert m.boundary_edge_count == 0
    area_exact = 4.0 * np.pi * 1.8**2
    vol_exact = 4.0 / 3.0 * np.pi * 1.8**3
    assert abs(m.area - area_exact) / area_exact <= 0.02
    assert abs(m.enclosed_volume - vol_exact) / vol_exact <= 0.03
    assert m.enclosed_volume > 0  # normals toward increasing values


def test_sphere_errors_shrink_with_spacing():
    area_exact = 4.0 * np.pi * 1.8**2
    vol_exact = 4.0 / 3.0 * np.pi * 1.8**3
    errs = []
    for h in (0.25, 0.125):
        m = mesh_metrics(marching_cubes(sphere_distance_field(1.8, h), 1.8))
        errs.append(
            (
                abs(m.area - area_exact) / area_exact,
                abs(m.enclosed_volume - vol_exact) / vol_exact,
            )
        )
    assert errs[1][0] < errs[0][0]
    assert errs[1][1] < errs[0][1]


def test_decreasing_field_flips_orientation():
    # -distance has the inside above the isovalue, so outward normals
    # see decreasing values and the signed volume flips sign; ambiguous
    # cells may resolve differently under negation, so magnitudes agree
    # only to mesh scale, not exactly
    field = sphere_distance_field(1.5, 0.25)
    neg = ScalarField3(field.grid, -field.values)
    m_pos = mesh_metrics(marching_cubes(field, 1.5))
    m_neg = mesh_metrics(marching_cubes(neg, -1.5))
    assert m_neg.enclosed_volume < 0
    assert m_neg.euler_characteristic == 2
    assert m_neg.boundary_edge_count == 0
    assert np.isclose(m_neg.enclosed_volume, -m_pos.enclosed_volume, rtol=1e-3)
    assert np.isclose(m_neg.area, m_pos.area, rtol=1e-3)


def test_two_disjoint_spheres():
    grid = GridSpec(origin=(-2.0, -2.0, -5.5), spacing=0.25, dims=(17, 17, 45))
    x, y, z = grid.meshes()
    d1 = np.sqrt(x**2 + y**2 + (z + 3.0) ** 2)
    d2 = np.sqrt(x**2 + y**2 + (z - 3.0) ** 2)
    field = ScalarField3(grid, np.minimum(d1, d2))
    m = mesh_metrics(marching_cubes(field, 1.2))
    assert m.component_count == 2
    assert m.euler_characteristic == 4  # two spheres
    assert m.boundary_edge_count == 0
    vol_exact = 2.0 * 4.0 / 3.0 * np.pi * 1.2**3
    assert abs(m.enclosed_volume - vol_exact) / vol_exact <= 0.05


def test_overlapping_spheres_remain_genus_zero():
    grid = GridSpec(origin=(-2.5, -2.5, -3.5), spacing=0.25, dims=(21, 21, 29))
    x, y, z = grid.meshes()
    d1 = np.sqrt(x**2 + y**2 + (z + 1.0) ** 2)
    d2 = np.sqrt(x**2 + y**2 + (z - 1.0) ** 2)
    field = ScalarField3(grid, np.minimum(d1, d2))
    m = mesh_metrics(marching_cubes(field, 1.5))
    assert m.component_count == 1
    assert m.euler_characteristic == 2
    assert m.boundary_edge_count == 0


# ---------------------------------------------------------------------------
# metrics on hand-built meshes

_CUBE_VERTICES = [
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
]
# outward-oriented unit cube, two triangles per face
_CUBE_TRIANGLES = [
    (0, 2, 1), (0, 3, 2),  # z = 0
    (4, 5, 6), (4, 6, 7),  # z = 1
    (0, 1, 5), (0, 5, 4),  # y = 0
    (2, 3, 7), (2, 7, 6),  # y = 1
    (0, 4, 7), (0, 7, 3),  # x = 0
    (1, 2, 6), (1, 6, 5),  # x = 1
]


def test_metrics_unit_cube():
    m = mesh_metrics(TriangleMesh(np.array(_CUBE_VERTICES, float), _CUBE_TRIANGLES))
    assert m.component_count == 1
    assert m.euler_characteristic == 2
    assert m.boundary_edge_count == 0
    assert np.isclose(m.area, 6.0)
    assert np.isclose(m.enclosed_volume, 1.0)
    # flattest crease between adjacent faces is the 90 degree cube edge
    assert np.isclose(m.min_dihedral, 90.0)


def test_metrics_single_triangle():
    mesh = TriangleMesh(
        np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]), [(0, 1, 2)]
    )
    m = mesh_metrics(mesh)
    assert m.component_count == 1
    assert m.euler_characteristic == 1  # 3 - 3 + 1
    assert m.boundary_edge_count == 3
    assert np.isclose(m.area, 0.5)
    assert np.isnan(m.min_dihedral)  # no interior edges


def test_metrics_tetrahedron_volume_sign():
    verts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    outward = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
    m = mesh_metrics(TriangleMesh(verts, outward))
    assert np.isclose(m.enclosed_volume, 1.0 / 6.0)
    assert m.euler_characteristic == 2
    assert m.boundary_edge_count == 0
    flipped = [(a, c, b) for a, b, c in outward]
    m2 = mesh_metrics(TriangleMesh(verts, flipped))
    assert np.isclose(m2.enclosed_volume, -1.0 / 6.0)


def test_metrics_two_components():
    verts = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
         (5.0, 0.0, 0.0), (6.0, 0.0, 0.0), (5.0, 1.0, 0.0)]
    )
    m = mesh_metrics(TriangleMesh(verts, [(0, 1, 2), (3, 4, 5)]))
    assert m.component_count == 2
    assert m.euler_characteristic == 2  # 6 - 6 + 2
    assert m.boundary_edge_count == 6


def test_mesh_validation():
    verts = np.zeros((3, 3))
    with pytest.raises(ValueError, match="indices out of"):
        TriangleMesh(verts, [(0, 1, 5)])
    with pytest.raises(ValueError, match="degenerate"):
        TriangleMesh(verts, [(1, 1, 1)])
    mesh = TriangleMesh(np.eye(3), [(0, 1, 2)])
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 9.0


def test_field_and_mesh_alias_their_input_read_only():
    # no defensive copy: the containers hold read-only views of float64
    # (and int64 index) inputs, and the caller's own arrays stay writeable
    values = np.arange(27, dtype=np.float64).reshape(3, 3, 3)
    field = ScalarField3(GridSpec((0.0, 0.0, 0.0), 1.0, (3, 3, 3)), values)
    verts = np.eye(3)
    tris = np.array([(0, 1, 2)], dtype=np.int64)
    mesh = TriangleMesh(verts, tris)
    for held, given in ((field.values, values), (mesh.vertices, verts), (mesh.triangles, tris)):
        assert np.shares_memory(held, given)
        assert not held.flags.writeable
        assert given.flags.writeable
    values[0, 0, 0] = -1.0  # the field aliases, it does not snapshot
    assert field.values[0, 0, 0] == -1.0
    with pytest.raises(ValueError):
        field.values[0, 0, 0] = 9.0


# ---------------------------------------------------------------------------
# file formats


def _two_tris_mesh():
    verts = np.array(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0)]
    )
    return TriangleMesh(verts, [(0, 1, 2), (1, 3, 2)])


def test_obj_golden_bytes(tmp_path):
    path = tmp_path / "mesh.obj"
    write_obj(_two_tris_mesh(), path)
    assert path.read_bytes() == open(f"{GOLDEN}/two_tris.obj", "rb").read()


def test_off_golden_bytes(tmp_path):
    path = tmp_path / "mesh.off"
    write_off(_two_tris_mesh(), path)
    assert path.read_bytes() == open(f"{GOLDEN}/two_tris.off", "rb").read()


def test_obj_round_trip(tmp_path):
    field = sphere_distance_field(1.0, 0.5)
    mesh = marching_cubes(field, 1.0)
    path = tmp_path / "sphere.obj"
    write_obj(mesh, path)
    verts, faces = read_obj(path)
    assert np.allclose(verts, mesh.vertices, atol=5e-7)
    assert np.array_equal(faces, mesh.triangles)


def test_off_round_trip_header_counts(tmp_path):
    mesh = marching_cubes(sphere_distance_field(1.0, 0.5), 1.0)
    m = mesh_metrics(mesh)
    path = tmp_path / "sphere.off"
    write_off(mesh, path)
    verts, faces, ne = read_off(path)
    assert np.allclose(verts, mesh.vertices, atol=5e-7)
    assert np.array_equal(faces, mesh.triangles)
    # header edge count is the true unique-edge count: E = V + F - chi
    assert ne == mesh.n_vertices + mesh.n_triangles - m.euler_characteristic


def test_mesh_writers_chunked_match_per_value_formatter(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(grids, "_ROWS_PER_WRITE", 3)  # many chunk boundaries
    verts = rng.standard_normal((11, 3)) * 10.0 ** rng.integers(-300, 300, size=(11, 3))
    verts[0] = (-0.0, 5e-324, 1e300)
    verts[1] = (-2.5e-310, 0.0, -1e-7)
    tris = rng.permutation(11 * 3 * 3).reshape(-1, 3) % 11
    tris = tris[(tris[:, 0] != tris[:, 1]) | (tris[:, 1] != tris[:, 2])]
    mesh = TriangleMesh(verts, tris)
    edges = len({tuple(sorted(e)) for a, b, c in tris.tolist() for e in ((a, b), (b, c), (c, a))})

    obj = [f"v {x:.6f} {y:.6f} {z:.6f}" for x, y, z in mesh.vertices]
    obj += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    write_obj(mesh, tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_text() == "\n".join(obj) + "\n"

    off = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} {edges}"]
    off += [f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in mesh.vertices]
    off += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    write_off(mesh, tmp_path / "m.off")
    assert (tmp_path / "m.off").read_text() == "\n".join(off) + "\n"


def test_writers_refuse_empty(tmp_path):
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match="empty"):
        write_obj(empty, tmp_path / "e.obj")
    with pytest.raises(ValueError, match="empty"):
        write_off(empty, tmp_path / "e.off")
