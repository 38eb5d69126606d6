"""Isosurface extraction by table-driven marching cubes, plus mesh quality metrics.

Every surface vertex sits on a grid edge whose two end samples straddle
the isovalue, and it is keyed by that edge: axis * n_points + the flat
index of the edge's lower grid point. The two to four cells that share an
edge produce the same key, so vertices are welded by construction, not by
a floating-point tolerance, and watertightness is a property of the case
tables. All cells are processed at once as arrays: the case index of every
cell, the table rows of the active ones, and one key per triangle corner.
Triangles are emitted in row-major cell order, table row order within a
cell, and vertex ids are numbered by first occurrence in that order, so
the output is identical from run to run.

Ambiguous faces (a cell face whose below-isovalue corners sit on a
diagonal) admit two triangulations. The resolution here is deliberately
light: such a cell compares its ambiguous-face center means against the
isovalue and, when the majority land below, switches to the complementary
case with flipped winding, which joins the below-diagonal instead of
separating it. This is a heuristic; topology inside ambiguous cells is
best-effort, and the closure guarantee is only claimed for fields whose
active cells have no ambiguous faces. The smooth filtered fields this
package produces are overwhelmingly in that regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ScalarField3, write_rows
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE

# Faces as cyclic corner quadruples, for ambiguity detection.
_FACES = np.array(
    [
        (0, 1, 2, 3),  # z-
        (4, 5, 6, 7),  # z+
        (0, 1, 5, 4),  # y-
        (3, 2, 6, 7),  # y+
        (0, 3, 7, 4),  # x-
        (1, 2, 6, 5),  # x+
    ],
    dtype=np.int64,
)

# Per case: which faces are ambiguous (their below-corners occupy exactly
# one diagonal), how many, and how many triangles the table row holds.
_FACE_BELOW = ((np.arange(256)[:, None] >> np.arange(8)) & 1)[:, _FACES]
_AMBIG_FACES = (
    (_FACE_BELOW[..., 0] == _FACE_BELOW[..., 2])
    & (_FACE_BELOW[..., 1] == _FACE_BELOW[..., 3])
    & (_FACE_BELOW[..., 0] != _FACE_BELOW[..., 1])
)
_N_AMBIG = _AMBIG_FACES.sum(axis=1)
_N_TRI = (TRI_TABLE >= 0).sum(axis=1) // 3
_TRI_EDGES = TRI_TABLE.astype(np.int8)
# the grid axis each cell edge runs along
_EDGE_AXIS = np.argmax(
    CORNER_OFFSETS[EDGE_CORNERS[:, 0]] != CORNER_OFFSETS[EDGE_CORNERS[:, 1]], axis=1
)


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertex positions (V, 3) and triangle vertex indices (T, 3).

    Both are read-only views of float64/int64 inputs, not snapshots:
    writing to the caller's arrays afterwards changes the mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        # views with their own flags: the caller's arrays stay writeable
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3).view()
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3).view()
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of vertex range")
        if t.size and np.any((t[:, 0] == t[:, 1]) & (t[:, 1] == t[:, 2])):
            raise ValueError("degenerate triangle with three identical vertices")
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


@dataclass(frozen=True)
class MeshMetrics:
    component_count: int
    euler_characteristic: int
    boundary_edge_count: int
    area: float
    enclosed_volume: float
    min_dihedral: float


def marching_cubes(field: ScalarField3, isovalue: float) -> TriangleMesh:
    """Extract the isovalue surface as a welded triangle mesh.

    The isovalue must lie strictly inside the field's value range. Grid
    samples exactly equal to the isovalue are nudged up by a few ulp
    before classification so no surface vertex ever coincides with a grid
    point (zero-length edges and double-welded vertices cannot occur).
    Triangle normals (right-hand winding) point toward increasing values.
    """
    iso = float(isovalue)
    if not np.isfinite(iso):
        raise ValueError(f"isovalue must be finite, got {isovalue}")
    values = field.values
    vmin, vmax = values.min(), values.max()
    if not (np.isfinite(vmin) and np.isfinite(vmax)):  # a NaN reaches both
        raise ValueError("field contains NaN or Inf")
    if not (vmin < iso < vmax):
        raise ValueError(
            f"isovalue {iso} outside the open field range ({vmin}, {vmax}); "
            "the surface would be empty"
        )
    eq = values == iso
    if eq.any():
        nudge = 4.0 * np.spacing(max(abs(iso), 1.0))
        values = np.where(eq, iso + nudge, values)
    # each intermediate is dropped once spent: measured, the peak RSS of a
    # run is about 1 MB higher when they live until the return
    del eq

    below = values < iso
    nx, ny, nz = field.grid.dims
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        corner = below[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1]
        case |= corner.view(np.uint8) << bit
    del below, corner
    # active cells in row-major order, each as the flat grid index of its
    # corner 0
    cells = np.flatnonzero((case != 0) & (case != 255))
    base = np.ravel_multi_index(np.unravel_index(cells, case.shape), values.shape)
    case = case.ravel()[cells]
    del cells

    flat_values = values.ravel()
    corner_flat = CORNER_OFFSETS @ np.array([ny * nz, nz, 1], dtype=np.int64)
    # the ambiguous-face majority vote, on the few cells that have one
    flip = np.zeros(len(case), dtype=bool)
    ambiguous = np.flatnonzero(_N_AMBIG[case])
    if ambiguous.size:
        corner_vals = flat_values[base[ambiguous, None] + corner_flat]
        f = corner_vals[:, _FACES]
        # summed left to right, the order np.mean takes on four values:
        # a center that rounds onto the isovalue must keep its side
        center = (((f[..., 0] + f[..., 1]) + f[..., 2]) + f[..., 3]) / 4.0
        c = case[ambiguous]
        below_centers = ((center < iso) & _AMBIG_FACES[c]).sum(axis=1)
        flip[ambiguous] = below_centers * 2 > _N_AMBIG[c]
    use = np.where(flip, 255 - case, case)

    # one slot per triangle corner, in emission order: cells in row-major
    # order, each cell's table row in order
    rows = _TRI_EDGES[use]
    edge = rows[rows >= 0]
    if not edge.size:
        raise ValueError(
            f"isovalue {iso} crosses no cell; the surface would be empty"
        )
    n_tri = _N_TRI[use]
    slot_base = np.repeat(base, 3 * n_tri)
    del rows, base
    corner_a = corner_flat[EDGE_CORNERS[:, 0]]
    corner_b = corner_flat[EDGE_CORNERS[:, 1]]
    edge_key = _EDGE_AXIS * values.size + np.minimum(corner_a, corner_b)
    _, first, inverse = np.unique(
        slot_base + edge_key[edge], return_index=True, return_inverse=True
    )
    # vertex ids by first occurrence of their edge in emission order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    tri = rank[inverse].reshape(-1, 3)
    del inverse, rank

    # each vertex is interpolated along the cell edge where it first
    # occurs, from that edge's first corner: edge 2 runs from corner 2 to
    # 3, toward -x, and interpolating it from its lower corner instead
    # would change the last bits of the position
    s = first[order]
    e = edge[s]
    pa = slot_base[s] + corner_a[e]
    fa, fb = flat_values[pa], flat_values[slot_base[s] + corner_b[e]]
    t = (iso - fa) / (fb - fa)
    step = CORNER_OFFSETS[EDGE_CORNERS[e, 1]] - CORNER_OFFSETS[EDGE_CORNERS[e, 0]]
    ijk = np.stack(np.unravel_index(pa, values.shape), axis=1)
    origin = np.asarray(field.grid.origin)
    positions = origin + field.grid.spacing * (ijk + t[:, None] * step)

    # The case tables wind triangles clockwise when seen from the
    # higher-value side; emitting them reversed points the normals toward
    # increasing field values, which is the orientation contract of this
    # module (verified by the sphere orientation test: distance fields get
    # positive enclosed volume). A complementary case is already reversed.
    flip_tri = np.repeat(flip, n_tri)
    triangles = np.where(flip_tri[:, None], tri, tri[:, [0, 2, 1]])
    return TriangleMesh(vertices=positions, triangles=triangles)


def _unique_edges(triangles: np.ndarray, n_vertices: int):
    pairs = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )
    pairs = np.sort(pairs, axis=1)
    codes = pairs[:, 0] * np.int64(n_vertices) + pairs[:, 1]
    uniq, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    lo = (uniq // n_vertices).astype(np.int64)
    hi = (uniq % n_vertices).astype(np.int64)
    return np.stack([lo, hi], axis=1), inverse, counts


def mesh_metrics(mesh: TriangleMesh) -> MeshMetrics:
    """Topology and quality summary of a triangle mesh.

    Components join vertices that share an edge (unreferenced vertices
    count as their own components). The Euler characteristic is
    V - E + F over unique undirected edges. The enclosed volume is the
    signed tetrahedron sum, meaningful for closed meshes: positive when
    normals point outward. min_dihedral is the smallest angle between
    neighboring faces across interior edges, in degrees, where 180 means
    flat; it is NaN when no edge has exactly two faces.
    """
    V = mesh.n_vertices
    F = mesh.n_triangles
    if F == 0:
        raise ValueError("empty mesh")
    edges, edge_of, counts = _unique_edges(mesh.triangles, V)
    E = len(edges)

    # Components by label propagation: hook the larger root of every edge
    # that still joins two trees onto the smaller one, then jump pointers
    # until each vertex points at its root. In each round every tree with
    # a smaller-rooted neighbour hooks, so the rounds are few.
    label = np.arange(V)
    a, b = edges[:, 0], edges[:, 1]
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            break
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    components = int(np.count_nonzero(label == np.arange(V)))

    tri_pts = mesh.vertices[mesh.triangles]
    cross = np.cross(tri_pts[:, 1] - tri_pts[:, 0], tri_pts[:, 2] - tri_pts[:, 0])
    cross_norm = np.linalg.norm(cross, axis=1)
    area = float(cross_norm.sum() / 2.0)
    volume = float(np.einsum("ij,ij->i", tri_pts[:, 0], cross).sum() / 6.0)

    boundary = int((counts == 1).sum())

    # pair up the faces across every 2-face edge for the dihedral scan
    face_ids = np.tile(np.arange(F), 3)
    order = np.argsort(edge_of, kind="stable")
    sorted_edges = edge_of[order]
    sorted_faces = face_ids[order]
    starts = np.searchsorted(sorted_edges, np.arange(E))
    min_dihedral = np.nan
    two_face = np.flatnonzero(counts == 2)
    if two_face.size:
        f1 = sorted_faces[starts[two_face]]
        f2 = sorted_faces[starts[two_face] + 1]
        n1, n2 = cross[f1], cross[f2]
        norms = cross_norm[f1] * cross_norm[f2]
        ok = norms > 0
        if ok.any():
            cosang = np.einsum("ij,ij->i", n1[ok], n2[ok]) / norms[ok]
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            min_dihedral = float((180.0 - ang).min())

    return MeshMetrics(
        component_count=components,
        euler_characteristic=V - E + F,
        boundary_edge_count=boundary,
        area=area,
        enclosed_volume=volume,
        min_dihedral=min_dihedral,
    )


def write_obj(mesh: TriangleMesh, path) -> None:
    """Write vertices then 1-based faces, coordinates with 6 decimals."""
    if mesh.n_triangles == 0:
        raise ValueError("refusing to write an empty mesh")
    with open(path, "w", newline="\n") as fh:
        write_rows(fh, "v %.6f %.6f %.6f\n", mesh.vertices)
        write_rows(fh, "f %d %d %d\n", mesh.triangles + 1)


def write_off(mesh: TriangleMesh, path) -> None:
    """Write the OFF layout: header, counts, vertices, 0-based face rows."""
    if mesh.n_triangles == 0:
        raise ValueError("refusing to write an empty mesh")
    edges, _, _ = _unique_edges(mesh.triangles, mesh.n_vertices)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_triangles} {len(edges)}\n")
        write_rows(fh, "%.6f %.6f %.6f\n", mesh.vertices)
        write_rows(fh, "3 %d %d %d\n", mesh.triangles)
