"""Isosurface extraction by table-driven marching cubes, plus mesh quality metrics.

Every surface vertex sits on a grid edge whose two end samples straddle
the isovalue, and it is keyed by that edge: axis * n_points + the flat
index of the edge's lower grid point. The two to four cells that share an
edge produce the same key, so vertices are welded by construction, not by
a floating-point tolerance, and watertightness is a property of the case
tables. The field is taken a slab of axis-0 planes at a time
(SlabMarcher), and a slab's cells are processed at once as arrays: the
case index of every cell, the table rows of the active ones, and one key
per triangle corner. Triangles are emitted in row-major cell order,
table row order within a cell, and vertex ids are numbered by first
occurrence in that order over the whole grid, so the output is identical
from run to run and does not depend on where the slabs end.

Every active cell is meshed with its own TRI_TABLE row, and that makes
the mesh closed, for any finite field, whenever the box-face samples
all lie on one side of the isovalue (a sample equal to it counts as
above: marching_cubes nudges ties up). Three facts about the table,
each checked over all 256 cases by the test suite, give this:

- On every face, the segments a case draws (triangle sides whose two
  vertices are on edges of that face) depend only on the face's four
  corner signs. On an ambiguous face, one whose below-isovalue corners
  sit on a diagonal, every case separates the two below corners. So
  the two cells that share a face draw the same segments there, each
  once.
- Inside each cell, every triangle side that is not on a face is used
  by exactly two of the cell's triangles, once in each direction.
- Both cells that share a face orient their triangles toward increasing
  values, and they see the face from opposite sides, so they use each
  shared segment once in each direction.

Only a box face has no second cell, and a box face with all its
samples on one side carries no segment. Every edge of such a mesh is
then in exactly two triangles, used once in each direction. Inside an
ambiguous cell the topology is the table's, not necessarily that of the
trilinear interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, ScalarField3, SlabRange, slabs, write_rows
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE

_N_TRI = (TRI_TABLE >= 0).sum(axis=1) // 3
_TRI_EDGES = TRI_TABLE.astype(np.int8)
# the grid axis each cell edge runs along
_EDGE_AXIS = np.argmax(
    CORNER_OFFSETS[EDGE_CORNERS[:, 0]] != CORNER_OFFSETS[EDGE_CORNERS[:, 1]], axis=1
)
# 2-face edges per slice of mesh_metrics' dihedral scan: 0.4 MB of gathered
# normals, about 1 MB of arrays in all
_DIHEDRAL_CHUNK = 1 << 13


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertex positions (V, 3) and triangle vertex indices (T, 3).

    Both are read-only views of float64/int64 inputs, not snapshots:
    writing to the caller's arrays afterwards changes the mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray

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


class SlabMarcher:
    """marching_cubes of a field fed in consecutive slabs of axis-0 planes.

    Each slab's cells are the ones between its planes and, after the
    first slab, those between the last plane of the slab before and its
    first. Vertex ids of the y and z edges on that shared plane carry
    over, so a vertex met again in the next slab keeps its id. Cells are
    taken in row-major order and ids numbered by first occurrence over
    the whole grid, and each vertex is interpolated where it first
    occurs, so the mesh is the one the whole field gives, bit for bit.
    Besides the growing mesh, a slab's arrays and one plane of vertex ids
    are alive.

    The checks of the whole field's range wait for finish(), which raises
    them as marching_cubes does.
    """

    def __init__(self, grid: GridSpec, isovalue: float):
        iso = float(isovalue)
        if not np.isfinite(iso):
            raise ValueError(f"isovalue must be finite, got {isovalue}")
        self.grid, self.iso = grid, iso
        self._range = SlabRange(grid.dims[0])
        self._last = None  # the last plane fed, nudged
        self._carry = None  # vertex ids of its y and z edges, -1 for none
        self._vertices: list[np.ndarray] = []
        self._triangles: list[np.ndarray] = []
        self._n_vertices = 0

    def add(self, slab: np.ndarray) -> None:
        if slab.shape[1:] != self.grid.dims[1:]:
            raise ValueError(f"slab of shape {slab.shape} does not fit grid {self.grid.dims}")
        first = self._range.planes - (self._last is not None)  # plane of the cells' corner 0
        self._range.add(slab)
        if not (np.isfinite(self._range.min) and np.isfinite(self._range.max)):
            return  # finish() refuses the field
        iso = self.iso
        eq = slab == iso
        if eq.any():
            slab = np.where(eq, iso + 4.0 * np.spacing(max(abs(iso), 1.0)), slab)
        del eq
        values = slab if self._last is None else np.concatenate([self._last[None], slab])
        self._last = slab[-1].copy()
        if len(values) > 1:
            self._march(values, first)

    def _march(self, values: np.ndarray, first: int) -> None:
        # each intermediate is dropped once spent: measured, the peak RSS of
        # a run is about 1 MB higher when they live until the return
        iso = self.iso
        below = values < iso
        nx, ny, nz = values.shape
        case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
        for bit, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
            corner = below[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1]
            case |= corner.view(np.uint8) << bit
        del below, corner
        # active cells in row-major order, each as the flat index of its
        # corner 0 in values
        cells = np.flatnonzero((case != 0) & (case != 255))
        base = np.ravel_multi_index(np.unravel_index(cells, case.shape), values.shape)
        case = case.ravel()[cells]
        del cells
        carry, self._carry = self._carry, None
        plane = ny * nz

        # one slot per triangle corner, in emission order: cells in row-major
        # order, each cell's table row in order
        rows = _TRI_EDGES[case]
        edge = rows[rows >= 0]
        if not edge.size:
            return
        slot_base = np.repeat(base, 3 * _N_TRI[case])
        del rows, base
        corner_flat = CORNER_OFFSETS @ np.array([plane, nz, 1], dtype=np.int64)
        corner_a = corner_flat[EDGE_CORNERS[:, 0]]
        corner_b = corner_flat[EDGE_CORNERS[:, 1]]
        # an edge's key: its axis, then the flat index of its lower end
        keys = slot_base + (_EDGE_AXIS * values.size + np.minimum(corner_a, corner_b))[edge]
        by_key = np.argsort(keys)
        sorted_keys = keys[by_key]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        axis, at = np.divmod(sorted_keys[starts], values.size)
        del keys, sorted_keys
        # each edge's first slot in emission order: the least slot of its run,
        # whatever order the sort left the run in
        firsts = np.minimum.reduceat(by_key, starts)
        # y and z edges on the first plane may have ids from the slab before
        ids = np.full(len(starts), -1)
        if carry is not None:
            shared = (axis > 0) & (at < plane)
            ids[shared] = carry[axis[shared] - 1, at[shared]]
        # the other edges are new vertices, numbered by first occurrence
        is_first = np.zeros(len(by_key), dtype=bool)
        is_first[firsts[ids < 0]] = True
        rank = np.cumsum(is_first) - 1 + self._n_vertices
        ids = np.where(ids < 0, rank[firsts], ids)
        vertex = np.empty_like(by_key)
        vertex[by_key] = np.repeat(ids, np.diff(starts, append=len(by_key)))
        # y and z edges on the last plane: their ids go to the next slab
        top = (axis > 0) & (at >= (nx - 1) * plane)
        self._carry = np.full((2, plane), -1)
        self._carry[axis[top] - 1, at[top] - (nx - 1) * plane] = ids[top]
        del by_key, starts, firsts, ids, rank, axis, at, top

        # each vertex is interpolated along the cell edge where it first
        # occurs, from that edge's first corner: edge 2 runs from corner 2 to
        # 3, toward -x, and interpolating it from its lower corner instead
        # would change the last bits of the position
        s = np.flatnonzero(is_first)
        del is_first
        e = edge[s]
        pa = slot_base[s] + corner_a[e]
        flat_values = values.ravel()
        fa, fb = flat_values[pa], flat_values[slot_base[s] + corner_b[e]]
        t = (iso - fa) / (fb - fa)
        step = CORNER_OFFSETS[EDGE_CORNERS[e, 1]] - CORNER_OFFSETS[EDGE_CORNERS[e, 0]]
        ijk = np.stack(np.unravel_index(pa, values.shape), axis=1)
        ijk[:, 0] += first
        origin = np.asarray(self.grid.origin)
        self._vertices.append(origin + self.grid.spacing * (ijk + t[:, None] * step))
        self._n_vertices += len(s)
        # The case tables wind triangles clockwise when seen from the
        # higher-value side; emitting them reversed points the normals
        # toward increasing field values, which is the orientation contract
        # of this module (verified by the sphere orientation test: distance
        # fields get positive enclosed volume).
        self._triangles.append(vertex.reshape(-1, 3)[:, [0, 2, 1]])

    def finish(self) -> TriangleMesh:
        """The mesh of the whole field; raises ValueError as marching_cubes does."""
        vmin, vmax, iso = self._range.min, self._range.max, self.iso
        if self._range.planes != self.grid.dims[0]:
            raise ValueError(f"fed {self._range.planes} of {self.grid.dims[0]} planes")
        if not (np.isfinite(vmin) and np.isfinite(vmax)):  # a NaN reaches both
            raise ValueError("field contains NaN or Inf")
        if not (vmin < iso < vmax):
            raise ValueError(
                f"isovalue {iso} outside the open field range ({vmin}, {vmax}); "
                "the surface would be empty"
            )
        if not self._triangles:
            raise ValueError(f"isovalue {iso} crosses no cell; the surface would be empty")
        vertices, triangles = self._vertices, self._triangles
        self._vertices, self._triangles = [], []
        return TriangleMesh(vertices=np.concatenate(vertices), triangles=np.concatenate(triangles))


def marching_cubes(field: ScalarField3, isovalue: float) -> TriangleMesh:
    """Extract the isovalue surface as a welded triangle mesh.

    The isovalue must lie strictly inside the field's value range. Grid
    samples exactly equal to the isovalue are nudged up by a few ulp
    before classification so no surface vertex ever coincides with a grid
    point (zero-length edges and double-welded vertices cannot occur).
    Triangle normals (right-hand winding) point toward increasing values.
    The field goes through SlabMarcher one slab at a time.
    """
    marcher = SlabMarcher(field.grid, isovalue)
    for slab in slabs(field.values):
        marcher.add(slab)
    return marcher.finish()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two (n, 3) float64 arrays, operation for operation, bit for bit.

    np.cross first copies both inputs through astype; this skips the
    copies, so besides the result it holds one (n,) buffer.
    """
    cp = np.empty(a.shape)
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    cp0, cp1, cp2 = cp.T
    np.multiply(a1, b2, out=cp0)
    tmp = np.multiply(a2, b1)
    cp0 -= tmp
    np.multiply(a2, b0, out=cp1)
    np.multiply(a0, b2, out=tmp)
    cp1 -= tmp
    np.multiply(a0, b1, out=cp2)
    np.multiply(a1, b0, out=tmp)
    cp2 -= tmp
    return cp


def _edge_runs(triangles: np.ndarray, n_vertices: int):
    """The 3F triangle sides grouped by undirected edge, with one sort.

    Slot s is side s // F of face s % F (sides (0, 1), (1, 2), (2, 0)),
    coded lo * V + hi by its sorted vertex pair. An argsort of the codes
    puts each edge's slots side by side, in no set order within a run:
    the callers need none, as an edge's face count and code do not depend
    on it, and the dihedral across a 2-face edge is symmetric in its two
    faces bit for bit (the products commute and sum in the same order).
    Returns that order, the start of each edge's run in it, and each
    edge's code, the edges in increasing code order. The order and the
    starts are int32 when 3F fits; the peak is 72 B per face.
    """
    a = triangles.T  # side k of face f runs from a[k, f] to b[k, f]
    b = np.roll(a, -1, axis=0)
    codes = np.minimum(a, b, out=np.empty(a.shape, dtype=np.int64))  # C order
    codes *= n_vertices
    codes += np.maximum(a, b, out=b)
    del b
    codes = codes.ravel()  # a view
    order = np.argsort(codes)
    codes = codes[order]
    index = np.int32 if codes.size < 2**31 else np.int64
    order = order.astype(index)
    new = np.empty(codes.size, dtype=bool)
    new[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    starts = np.flatnonzero(new).astype(index)
    return order, starts, codes[starts]


def mesh_metrics(mesh: TriangleMesh) -> MeshMetrics:
    """Topology and quality summary of a triangle mesh.

    Components join vertices that share an edge (unreferenced vertices
    count as their own components). The Euler characteristic is
    V - E + F over unique undirected edges. The enclosed volume is the
    signed tetrahedron sum, meaningful for closed meshes: positive when
    normals point outward. min_dihedral is the smallest angle between
    neighboring faces across interior edges, in degrees, where 180 means
    flat; it is NaN when no edge has exactly two faces, or when every such
    edge has a zero-area face.

    Besides the mesh, the peak is about 100 B per face: each array is
    dropped once spent, vertex and face ids are int32 where they fit, and
    the corner differences are taken in place.
    """
    V = mesh.n_vertices
    F = mesh.n_triangles
    if F == 0:
        raise ValueError("empty mesh")
    order, starts, codes = _edge_runs(mesh.triangles, V)
    E = len(starts)
    counts = np.diff(starts, append=3 * F)
    boundary = int(np.count_nonzero(counts == 1))
    two_face = starts[counts == 2]
    del starts, counts

    # Components by label propagation: hook the larger root of every edge
    # that still joins two trees onto the smaller one, then jump pointers
    # until each vertex points at its root. In each round every tree with
    # a smaller-rooted neighbour hooks, so the rounds are few.
    index = np.int32 if V < 2**31 else np.int64
    label = np.arange(V, dtype=index)
    a, b = (ends.astype(index) for ends in np.divmod(codes, V))
    del codes
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
    del label, a, b, la, lb, split

    # corners gathered one at a time, so no (F, 3, 3) array is alive, and
    # the first corner gathered again for the volume instead of being held
    # through the cross product
    verts, tris = mesh.vertices, mesh.triangles
    p0 = verts[tris[:, 0]]
    e1 = verts[tris[:, 1]]
    e1 -= p0
    e2 = verts[tris[:, 2]]
    e2 -= p0
    del p0
    cross = _cross(e1, e2)
    del e1, e2
    cross_norm = np.linalg.norm(cross, axis=1)
    area = float(cross_norm.sum() / 2.0)
    volume = float(np.einsum("ij,ij->i", verts[tris[:, 0]], cross).sum() / 6.0)

    # the two faces across every 2-face edge, for the dihedral scan: the
    # first two slots of its run, slot s being a side of face s % F. The
    # scan runs over fixed-size slices of those edges, so the gathered
    # normals stay small; min is exact, so the slices' least minimum is
    # the minimum over every edge.
    lows = []
    for lo in range(0, two_face.size, _DIHEDRAL_CHUNK):
        run = two_face[lo : lo + _DIHEDRAL_CHUNK]
        f1 = order[run] % F
        f2 = order[run + 1] % F
        norms = cross_norm[f1] * cross_norm[f2]
        ok = norms > 0
        if ok.any():
            f1, f2, norms = f1[ok], f2[ok], norms[ok]
            cosang = np.einsum("ij,ij->i", cross[f1], cross[f2]) / norms
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            lows.append((180.0 - ang).min())
    min_dihedral = float(np.min(lows)) if lows else np.nan

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
    _, starts, _ = _edge_runs(mesh.triangles, mesh.n_vertices)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_triangles} {len(starts)}\n")
        write_rows(fh, "%.6f %.6f %.6f\n", mesh.vertices)
        write_rows(fh, "3 %d %d %d\n", mesh.triangles)
