"""Isosurface extraction by table-driven cell marching, plus mesh quality metrics.

Vertices are welded by exact grid-edge identity: every surface vertex lies
on an edge between two grid points, the (sorted) pair of flat grid indices
is its key, and both cells sharing the edge get the same vertex. That makes
watertightness a property of the case tables instead of a floating-point
tolerance. Cells are visited in a fixed row-major order, so the output is
identical from run to run regardless of how the caller parallelizes around
this module.

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


def _ambiguous_faces_per_case() -> list[tuple[int, ...]]:
    # A face is ambiguous when its below-corners occupy exactly one diagonal.
    out = []
    for case in range(256):
        below = [(case >> c) & 1 for c in range(8)]
        faces = []
        for f, (a, b, c, d) in enumerate(_FACES):
            if below[a] == below[c] and below[b] == below[d] and below[a] != below[b]:
                faces.append(f)
        out.append(tuple(faces))
    return out


_AMBIG_FACES = _ambiguous_faces_per_case()


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
    if not field.is_finite():
        raise ValueError("field contains NaN or Inf")
    vmin, vmax = values.min(), values.max()
    if not (vmin < iso < vmax):
        raise ValueError(
            f"isovalue {iso} outside the open field range ({vmin}, {vmax}); "
            "the surface would be empty"
        )
    eq = values == iso
    if eq.any():
        nudge = 4.0 * np.spacing(max(abs(iso), 1.0))
        values = np.where(eq, iso + nudge, values)

    below = values < iso
    nx, ny, nz = field.grid.dims
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.int64)
    for bit, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        case |= (
            below[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1].astype(np.int64)
            << bit
        )
    active = np.argwhere((case != 0) & (case != 255))

    origin = np.asarray(field.grid.origin)
    h = field.grid.spacing
    strides = np.array([ny * nz, nz, 1], dtype=np.int64)

    vertex_of_edge: dict[tuple[int, int], int] = {}
    positions: list[np.ndarray] = []
    tri_rows: list[tuple[int, int, int]] = []
    flat_values = values.ravel()

    for i, j, k in active:
        c = int(case[i, j, k])
        corner_ijk = np.array((i, j, k)) + CORNER_OFFSETS
        use = c
        flip = False
        ambig = _AMBIG_FACES[c]
        if ambig:
            corner_vals = values[
                corner_ijk[:, 0], corner_ijk[:, 1], corner_ijk[:, 2]
            ]
            below_centers = sum(
                1 for f in ambig if corner_vals[_FACES[f]].mean() < iso
            )
            if below_centers * 2 > len(ambig):
                use = 255 - c
                flip = True
        row = TRI_TABLE[use]
        corner_flat = corner_ijk @ strides
        cell_vertex: dict[int, int] = {}
        for e in row[row >= 0]:
            e = int(e)
            if e in cell_vertex:
                continue
            ca, cb = EDGE_CORNERS[e]
            pa, pb = int(corner_flat[ca]), int(corner_flat[cb])
            key = (pa, pb) if pa < pb else (pb, pa)
            vid = vertex_of_edge.get(key)
            if vid is None:
                fa, fb = flat_values[pa], flat_values[pb]
                t = (iso - fa) / (fb - fa)
                pos = origin + h * (
                    corner_ijk[ca] + t * (corner_ijk[cb] - corner_ijk[ca])
                )
                vid = len(positions)
                positions.append(pos)
                vertex_of_edge[key] = vid
            cell_vertex[e] = vid
        # The case tables wind triangles clockwise when seen from the
        # higher-value side; emitting them reversed points the normals toward
        # increasing field values, which is the orientation contract of this
        # module (verified by the sphere orientation test: distance fields get
        # positive enclosed volume). A complementary case is already reversed.
        for s in range(0, int((row >= 0).sum()), 3):
            a, b, c3 = (cell_vertex[int(row[s + o])] for o in range(3))
            tri_rows.append((a, b, c3) if flip else (a, c3, b))

    if not tri_rows:
        raise ValueError(
            f"isovalue {iso} crosses no cell; the surface would be empty"
        )
    return TriangleMesh(
        vertices=np.array(positions), triangles=np.array(tri_rows, dtype=np.int64)
    )


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

    parent = np.arange(V)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for a, b in edges:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in range(V)})

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
