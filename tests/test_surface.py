"""Isosurface extraction: per-case cell behavior, welding, topology and
geometry metrics, mesh file formats."""

import hashlib
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import conftest
from cliffsurf import grids, surface
from cliffsurf.grids import GridSpec, ScalarField3
from cliffsurf.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from cliffsurf.pdefilter import FilterParams, lowpass_apply
from cliffsurf.surface import (
    TriangleMesh,
    marching_cubes,
    mesh_metrics,
    write_mesh,
    write_obj,
    write_off,
)
from cliffsurf.volumetrics import make_grid, rasterize
from conftest import marching_cubes_loop, read_obj, read_off, sphere_distance_field

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


def _cut_edges(case):
    """The edges whose two corners lie on opposite sides of the isovalue."""
    return {e for e, (a, b) in enumerate(EDGE_CORNERS) if (case >> a ^ case >> b) & 1}


@pytest.mark.parametrize("case", range(1, 255))
def test_single_cell_all_cases(case):
    mesh = marching_cubes(_single_cell_field(case), 0.5)
    # every cell meshes with its own table row
    assert mesh.n_triangles == _table_triangle_count(case)
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
    assert _cut_edges(case) == _cut_edges(255 - case)
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
    # each table row uses exactly the edges whose corners differ in sign
    for case in range(256):
        assert {int(v) for v in TRI_TABLE[case] if v >= 0} == _cut_edges(case)
    # so every mixed case draws a triangle: a field with samples on both
    # sides of the isovalue has a cell of mixed corners, and a nonempty mesh
    assert (TRI_TABLE[1:255, 0] >= 0).all()


def test_case_table_is_the_listed_one():
    # the packed hex literal holds exactly the widely circulated listing:
    # these are the sha256 of its 256 x 16 int8 bytes
    assert TRI_TABLE.shape == (256, 16) and TRI_TABLE.dtype == np.int64
    digest = hashlib.sha256(TRI_TABLE.astype(np.int8).tobytes()).hexdigest()
    assert digest == "19bf7699e214903d72c94c296546f2e31337d637a1e4b118c3108a0f428e809b"


def _grid_edge(cell, e):
    """A cell edge as a grid edge: its axis and its lower grid point."""
    a, b = (_CORNERS[c] for c in EDGE_CORNERS[e])
    axis = next(i for i in range(3) if a[i] != b[i])
    return axis, tuple(c + min(u, v) for c, u, v in zip(cell, a, b))


def _box_class(cell):
    """A cell's box-boundary class: bit b set when it is at 0 on axis b."""
    return sum(1 << b for b in range(3) if cell[b] == 0)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 2, 4), (4, 3, 2), (4, 4, 5)])
def test_every_grid_edge_has_one_owner_the_first_cell_that_holds_it(dims):
    # brute force over the cell edges of grids one cell across on some
    # axes and several on others, so every box-boundary class occurs: the
    # marcher's tables give each grid edge exactly one owner, the first
    # cell in row-major order that holds it, and every cell that holds
    # the edge keys it by the same axis and lower grid point
    holders = defaultdict(list)
    for cell in np.ndindex(*(n - 1 for n in dims)):  # row-major order
        for e in range(12):
            holders[_grid_edge(cell, e)].append((cell, e))
    nx, ny, nz = dims
    assert len(holders) == (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
    classes = set()
    for edge, held in holders.items():
        first = held[0][0]
        assert [cell for cell, e in held if surface._OWNS[_box_class(cell), e]] == [first]
        for cell, e in held:
            low = tuple(int(c) for c in np.add(cell, surface._EDGE_LOW[e]))
            assert (int(surface._EDGE_AXIS[e]), low) == edge
            classes.add(_box_class(cell))
    # every class a grid of these dims has: an axis one cell across is always at 0
    assert classes == {c for c in range(8) if all(c >> b & 1 for b in range(3) if dims[b] == 2)}


def test_marcher_rows_list_owned_edges_in_first_appearance_order():
    # row 256 * class + code: the edges a cell of that class owns, in the
    # order its case's TRI_TABLE row first meets them; row code: the row's
    # corners' edges, each triangle reversed. The code has bit
    # 4 dx + 2 dy + dz set for a below corner at offset (dx, dy, dz)
    for code in range(256):
        below = [code >> (4 * x + 2 * y + z) & 1 for x, y, z in _CORNERS]
        case = sum(bit << i for i, bit in enumerate(below))
        edges = [int(v) for v in TRI_TABLE[case] if v >= 0]
        corners = [v for a, b, c in zip(*[iter(edges)] * 3) for v in (a, c, b)]
        assert [int(v) for v in surface._TRI_EDGES[code] if v != 255] == corners
        assert surface._N_SLOTS[code] == len(corners)
        for cls in range(8):
            row = 256 * cls + code
            owned = [e for e in dict.fromkeys(edges) if surface._OWNS[cls, e]]
            assert [int(v) for v in surface._NEW_EDGES[row] if v != 255] == owned
            assert surface._N_NEW[row] == len(owned)


def test_case_table_is_face_consistent():
    # the three facts of the surface module's closure proof, for all 256
    # cases: a side is on a face when both its vertices' edges are
    def in_face(corner, axis):  # a corner's coordinates within the face
        return tuple(x for a, x in enumerate(_CORNERS[corner]) if a != axis)

    faces = []  # (axis, side, corners, edges)
    for axis in range(3):
        for side in (0, 1):
            corners = {c for c, xyz in enumerate(_CORNERS) if xyz[axis] == side}
            edges = {e for e, (a, b) in enumerate(EDGE_CORNERS) if {a, b} <= corners}
            faces.append((axis, side, corners, edges))
    drawn = {}  # (axis, face corner signs) -> side -> segment sets drawn
    for case in range(256):
        row = [int(e) for e in TRI_TABLE[case] if e >= 0]
        sides = [
            (row[i + k], row[i + (k + 1) % 3]) for i in range(0, len(row), 3) for k in range(3)
        ]
        interior = set(sides)
        for axis, side, corners, edges in faces:
            segments = [(a, b) for a, b in sides if a in edges and b in edges]
            interior -= set(segments)
            assert max(Counter(frozenset(s) for s in segments).values(), default=1) == 1
            below = {c for c in corners if case >> c & 1}
            if len(below) == 2 and not any({*EDGE_CORNERS[e]} <= below for e in edges):
                # an ambiguous face: each segment cuts off one below corner
                for a, b in segments:
                    assert len({*EDGE_CORNERS[a]} & {*EDGE_CORNERS[b]} & below) == 1
            # in face coordinates, an edge as its two corners
            local = frozenset(
                tuple(frozenset(in_face(c, axis) for c in EDGE_CORNERS[e]) for e in s)
                for s in segments
            )
            signs = tuple(sorted((in_face(c, axis), case >> c & 1) for c in corners))
            drawn.setdefault((axis, signs), {}).setdefault(side, set()).add(local)
        # every side inside the cell is used twice, once in each direction
        assert all(sides.count(s) == 1 and (s[1], s[0]) in interior for s in interior)
    assert len(drawn) == 3 * 16
    for by_side in drawn.values():
        # one segment set per face pattern, whatever the other corners, and
        # the cells on the two sides of a face draw it in opposite directions
        assert len(by_side[0]) == len(by_side[1]) == 1
        (low,), (high,) = by_side[0], by_side[1]
        assert low == {(b, a) for a, b in high}


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
# the array extractor against the per-cell loop it replaced


def _assert_matches_loop(field, iso):
    got = marching_cubes(field, iso)
    want = marching_cubes_loop(field, iso)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.triangles, want.triangles)
    return got


def test_single_cells_match_loop_oracle():
    for case in range(1, 255):
        _assert_matches_loop(_single_cell_field(case), 0.5)


def _noise_fields():
    # white noise is full of ambiguous faces; every other field is rounded
    # to one decimal so that samples equal the isovalue and get nudged
    rng = np.random.default_rng(4096)
    for n in range(200):
        dims = tuple(int(d) for d in rng.integers(3, 10, size=3))
        grid = GridSpec(origin=tuple(rng.uniform(-2.0, 2.0, 3)), spacing=0.3, dims=dims)
        values = rng.standard_normal(dims)
        iso = float(rng.uniform(-0.5, 0.5))
        if n % 2:
            values = np.round(values, 1)
            iso = round(iso, 1)
        yield ScalarField3(grid, values), iso


def test_noise_fields_match_loop_oracle():
    nudged = 0
    for field, iso in _noise_fields():
        _assert_matches_loop(field, iso)
        nudged += bool((field.values == iso).any())
    assert nudged >= 50


def test_ambiguous_face_separates_the_below_corners():
    # corners 0 and 2 below, on the diagonal of the z- face, whose center
    # mean lies below too: the cell still meshes as its own case, two
    # triangles that cut off one below corner each
    values = _single_cell_field(0b101).values * 7.0 - 6.5  # -10 below, 4 above
    field = ScalarField3(GridSpec((0.0, 0.0, 0.0), 1.0, (2, 2, 2)), values)
    mesh = _assert_matches_loop(field, 0.5)
    assert mesh.n_triangles == _table_triangle_count(0b101) == 2
    assert mesh_metrics(mesh).component_count == 2


@st.composite
def _noise_boxes(draw):
    """White noise on a 3-13 point box, half of them inside a shell of
    samples all above or all below the isovalue, a third rounded to one
    decimal so that samples tie with the isovalue and get nudged."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(draw(st.integers(3, 13)) for _ in range(3))
    values = rng.standard_normal(dims)
    iso = draw(st.floats(-0.5, 0.5))
    if draw(st.booleans()):
        inner = values[1:-1, 1:-1, 1:-1].copy()
        values[:] = draw(st.sampled_from([-10.0, 10.0]))
        values[1:-1, 1:-1, 1:-1] = inner
    if draw(st.integers(0, 2)) == 0:
        values = np.round(values, 1)
        iso = round(iso, 1)
    assume(values.min() < iso < values.max())
    return ScalarField3(GridSpec((0.0, 0.0, 0.0), 0.5, dims), values), iso


@settings(max_examples=200, deadline=None)
@given(_noise_boxes())
def test_mesh_is_closed_exactly_when_the_box_faces_are_one_sided(case):
    field, iso = case
    mesh = marching_cubes(field, iso)
    m = mesh_metrics(mesh)
    # a sample equal to the isovalue counts as above: ties are nudged up
    below = [face < iso for face in (field.values[[0, -1]], field.values[:, [0, -1]],
                                     field.values[:, :, [0, -1]])]
    one_sided = all(b.all() for b in below) or not any(b.any() for b in below)
    assert (m.boundary_edge_count == 0) == one_sided
    if not one_sided:
        return
    # every directed side once and its reverse once: each undirected edge
    # in exactly two faces, used once in each direction
    t = mesh.triangles
    V = np.int64(mesh.n_vertices)
    a, b = t.ravel(), t[:, [1, 2, 0]].ravel()
    sides = np.sort(a * V + b)
    assert np.all(sides[1:] != sides[:-1])
    assert np.array_equal(sides, np.sort(b * V + a))
    # a closed orientable surface: every component's Euler characteristic is even
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(V, V))
    n, label = connected_components(graph, directed=False)
    chi = (
        np.bincount(label, minlength=n)
        - np.bincount(label[a], minlength=n) // 2
        + np.bincount(label[t[:, 0]], minlength=n)
    )
    assert np.all(chi % 2 == 0)


def _three_atom_field(three_atoms):
    grid = make_grid(three_atoms, spacing=0.25, padding=5.0)
    init = rasterize("piecewise", three_atoms, grid)
    d = (0.0,) * 5 + (1.0,)
    return lowpass_apply(init, FilterParams(d=d, epsilon=0.0, t=1e2))


def test_three_atom_fixture_matches_loop_oracle(three_atoms):
    field = _three_atom_field(three_atoms)
    for iso in (0.8, 0.9):
        _assert_matches_loop(field, iso)


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


def test_unreferenced_vertex_is_its_own_component():
    verts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (9.0, 9.0, 9.0)])
    m = mesh_metrics(TriangleMesh(verts, [(0, 1, 2)]))
    assert m.component_count == 2
    assert m.euler_characteristic == 2  # 4 - 3 + 1


@pytest.mark.parametrize("shuffle", [False, True])
def test_long_strip_is_one_component(shuffle):
    # a 10k-triangle ribbon: the chain is 5k vertices long, the worst
    # case for label propagation without pointer jumping
    n = 5001
    x = np.arange(n, dtype=float)
    verts = np.concatenate([np.stack([x, 0 * x, 0 * x], 1), np.stack([x, 0 * x + 1, 0 * x], 1)])
    i = np.arange(n - 1)
    tris = np.concatenate([np.stack([i, i + 1, n + i], 1), np.stack([i + 1, n + i + 1, n + i], 1)])
    if shuffle:
        perm = np.random.default_rng(11).permutation(2 * n)
        verts[perm] = verts.copy()
        tris = perm[tris]
    m = mesh_metrics(TriangleMesh(verts, tris))
    assert len(tris) >= 10_000
    assert m.component_count == 1
    assert m.euler_characteristic == 1  # a disk
    assert m.boundary_edge_count == 2 * n


def test_components_match_scipy(rng):
    for _ in range(30):
        V = int(rng.integers(3, 300))
        F = int(rng.integers(1, V + 1))
        tris = np.array([rng.choice(V, 3, replace=False) for _ in range(F)])
        verts = rng.standard_normal((V, 3))
        pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(V, V))
        want, _ = connected_components(graph, directed=False)
        assert mesh_metrics(TriangleMesh(verts, tris)).component_count == want


# ---------------------------------------------------------------------------
# metrics against the edge oracle


def _edge_oracle_metrics(mesh):
    """(components, Euler characteristic, boundary edges, min dihedral) of
    mesh, its edges taken from the dict oracle.

    Components come from scipy over the oracle's edges; the dihedral scan
    repeats mesh_metrics' arithmetic on the oracle's two-face pairs, so
    every value must match exactly.
    """
    faces = conftest.edge_faces(mesh.triangles)
    V, F = mesh.n_vertices, mesh.n_triangles
    edges = np.array(list(faces), dtype=np.int64)
    graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(V, V))
    components, _ = connected_components(graph, directed=False)
    boundary = sum(len(f) == 1 for f in faces.values())
    pairs = np.array([f for f in faces.values() if len(f) == 2], dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    norm = np.linalg.norm(cross, axis=1)
    norms = norm[pairs[:, 0]] * norm[pairs[:, 1]]
    ok = norms > 0
    min_dihedral = np.nan
    if ok.any():
        n1, n2 = cross[pairs[ok, 0]], cross[pairs[ok, 1]]
        cosang = np.einsum("ij,ij->i", n1, n2) / norms[ok]
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        min_dihedral = float((180.0 - ang).min())
    return components, V - len(faces) + F, boundary, min_dihedral


def _assert_metrics_match_edge_oracle(mesh):
    m = mesh_metrics(mesh)
    want = _edge_oracle_metrics(mesh)
    got = (m.component_count, m.euler_characteristic, m.boundary_edge_count, m.min_dihedral)
    assert got[:3] == want[:3]
    assert got[3] == want[3] or (np.isnan(got[3]) and np.isnan(want[3]))
    return m


def _random_mesh(rng, lattice):
    """Random triangles over few vertices: boundary and 3+-face edges, two
    equal corners, unreferenced vertices; on a lattice, zero-area faces."""
    V = int(rng.integers(4, 30))
    F = int(rng.integers(1, 60))
    used = V - int(rng.integers(0, 3))  # the last vertices may be unreferenced
    tris = rng.integers(0, used, size=(F, 3))
    same = (tris[:, 0] == tris[:, 1]) & (tris[:, 1] == tris[:, 2])
    tris[same, 2] = (tris[same, 2] + 1) % used
    if lattice:
        verts = rng.integers(-1, 2, size=(V, 3)).astype(float)
    else:
        verts = rng.standard_normal((V, 3))
    return TriangleMesh(verts, tris)


def test_random_meshes_match_edge_oracle(rng):
    seen = dict.fromkeys(
        ("boundary", "3+ faces", "two equal corners", "unreferenced", "zero area",
         "nan with 2-face edges", "finite dihedral"),
        0,
    )
    for i in range(200):
        mesh = _random_mesh(rng, lattice=i % 2 == 0)
        m = _assert_metrics_match_edge_oracle(mesh)
        t = mesh.triangles
        faces = conftest.edge_faces(t)
        p = mesh.vertices[t]
        area = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
        seen["boundary"] += m.boundary_edge_count > 0
        seen["3+ faces"] += any(len(f) >= 3 for f in faces.values())
        seen["two equal corners"] += bool(np.any(t == np.roll(t, 1, axis=1)))
        seen["unreferenced"] += len(np.unique(t)) < mesh.n_vertices
        seen["zero area"] += bool(np.any(area == 0))
        two_face = any(len(f) == 2 for f in faces.values())
        seen["nan with 2-face edges"] += two_face and bool(np.isnan(m.min_dihedral))
        seen["finite dihedral"] += bool(np.isfinite(m.min_dihedral))
    # every case the edge table must handle came up several times
    assert min(seen.values()) >= 5, seen


def test_three_atom_fixture_metrics_match_edge_oracle(three_atoms):
    m = _assert_metrics_match_edge_oracle(marching_cubes(_three_atom_field(three_atoms), 0.9))
    assert m.boundary_edge_count == 0 and m.euler_characteristic == 2


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_sliced_dihedral_scan_matches_edge_oracle(rng, three_atoms, monkeypatch, chunk):
    # slices that end mid-mesh, hold only zero-area pairs, or are the last
    # short one must give the same minimum as one scan over every edge
    monkeypatch.setattr(surface, "_DIHEDRAL_CHUNK", chunk)
    for i in range(60):
        _assert_metrics_match_edge_oracle(_random_mesh(rng, lattice=i % 2 == 0))
    mesh = marching_cubes(_three_atom_field(three_atoms), 0.9)
    assert _assert_metrics_match_edge_oracle(mesh).boundary_edge_count == 0


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


def _sphere():
    return marching_cubes(sphere_distance_field(1.0, 0.5), 1.0)


def _open_sphere():
    mesh = _sphere()
    return TriangleMesh(mesh.vertices, mesh.triangles[10:])


def _nonmanifold_mesh():
    # three triangles on edge (0, 1), one with two equal corners on (1, 2)
    verts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 1)], float)
    return TriangleMesh(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4), (1, 2, 2)])


@pytest.mark.parametrize(
    "make_mesh, boundary",
    [
        (_sphere, False),
        (_open_sphere, True),
        (_nonmanifold_mesh, True),
    ],
    ids=["closed", "open", "nonmanifold"],
)
def test_off_round_trip_header_counts(tmp_path, make_mesh, boundary):
    mesh = make_mesh()
    m = mesh_metrics(mesh)
    assert (m.boundary_edge_count > 0) == boundary
    path = tmp_path / "sphere.off"
    write_off(mesh, path)
    verts, faces, ne = read_off(path)
    assert np.allclose(verts, mesh.vertices, atol=5e-7)
    assert np.array_equal(faces, mesh.triangles)
    # header edge count is the true unique-edge count: E = V + F - chi
    assert ne == mesh.n_vertices + mesh.n_triangles - m.euler_characteristic
    assert ne == len(conftest.edge_faces(mesh.triangles))


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

    # write_mesh writes OFF for a .off name in any case, and else OBJ
    for name in ("w.off", "w.OFF", "w.Off", "w.obj", "w.OBJ", "w.txt", "w", "w.off.obj"):
        write_mesh(mesh, tmp_path / name)
        want = off if name.lower().endswith(".off") else obj
        assert (tmp_path / name).read_text() == "\n".join(want) + "\n", name


def test_writers_refuse_empty():
    # a mesh with no triangles is refused when it is built, so neither
    # writer nor mesh_metrics ever sees one
    with pytest.raises(ValueError, match="empty"):
        TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
