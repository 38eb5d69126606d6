"""Isosurface extraction by table-driven marching cubes, plus mesh quality metrics.

Every surface vertex sits on a grid edge whose two end samples straddle
the isovalue. The two to four cells that share such an edge are all
active, and each case's TRI_TABLE row uses exactly its crossed edges, so
every one of those cells meets the edge. The first of them in row-major
order owns it: for an x edge at grid point (i, j, k), the cell
(i, max(j - 1, 0), max(k - 1, 0)), and likewise along y and z. Vertices
are welded by construction, not by a floating-point tolerance, and
watertightness is a property of the case tables.

Triangles are emitted in row-major cell order, table row order within a
cell. Vertex ids count the edges in order of first occurrence there,
which is owner order: each cell numbers the crossed edges it owns, in the
order its table row first meets them, after those of the cells before
it. So no sort is needed to number them, and every other corner reads
its id from the edge's owner. Each vertex is interpolated along its
owner's edge. The field is taken a slab of axis-0 planes at a time
(SlabMarcher), and a slab's cells are processed at once as arrays. The
output is identical from run to run and does not depend on where the
slabs end.

Every active cell is meshed with its own TRI_TABLE row, and that makes
the mesh closed, for any finite field, whenever the box-face samples
all lie on one side of the isovalue (a sample equal to it counts as
above). Three facts about the table, each checked over all 256 cases by
the test suite, give this:

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

# each cell edge's two corners, its first corner, and its step from the
# first to the second
_ends = CORNER_OFFSETS[EDGE_CORNERS]
_EDGE_START = _ends[:, 0]
_EDGE_STEP = _ends[:, 1] - _ends[:, 0]

# A grid edge's owner is the first cell in row-major order that holds it:
# one cell back along each other axis where the edge lies on the cell's
# lower face, unless the cell is at 0 on that axis. A cell of box-boundary
# class c is at 0 on axis b when bit b of c is set. _SHIFT[c * 12 + e] is
# the step from a class-c cell back to the owner of its edge e, and
# _OWNER_EDGE[c * 12 + e] that edge's number in the owner.
_SHIFT = ((_ends[:, 0] | _ends[:, 1]) == 0) & (
    ((np.arange(8)[:, None, None] >> np.arange(3)) & 1) == 0
)
_OWNS = ~_SHIFT.any(axis=2)
# an edge's key, 8 * its lower corner's code + its upper one's (the code of
# offset (dx, dy, dz) is 4 dx + 2 dy + dz): a step by code d adds 9 d
_codes = _ends @ [4, 2, 1]
_key = (_codes[:, 0] & _codes[:, 1]) * 8 + (_codes[:, 0] | _codes[:, 1])
_edge_at = np.zeros(64, dtype=np.int64)
_edge_at[_key] = np.arange(12)
_OWNER_EDGE = _edge_at[_key + 9 * (_SHIFT @ [4, 2, 1])].ravel()
_SHIFT = _SHIFT.reshape(-1, 3).astype(np.int64)

# A cell's pair code has bit 4 dx + 2 dy + dz set when its corner at
# offset (dx, dy, dz) is below the isovalue, where its case has bit i set
# for corner i. The tables below are indexed by code. They are built with
# one column per code: its TRI_TABLE row's 15 slots, and which of them
# hold an edge's first appearance in the row, the order in which the row
# meets its crossed edges.
_case_of_code = ((np.arange(256)[:, None] >> (CORNER_OFFSETS @ [4, 2, 1])) & 1) @ (
    1 << np.arange(8)
)
_edges = TRI_TABLE[_case_of_code, :15].T
_used = _edges >= 0
_bit = _used << (_edges & 15)
_first = _used.copy()
_first[1:] &= (_bit[1:] & np.bitwise_or.accumulate(_bit, axis=0)[:-1]) == 0
_owned = _first & _OWNS.take(_edges, axis=1)

# Rows indexed by class * 256 + code: the edges a cell owns, at the slots
# where they first appear and 255 elsewhere, and its triangle corners as
# class * 12 + edge, 255 padded. Each triangle is listed reversed: the
# case tables wind triangles clockwise when seen from the higher-value
# side, and reversed their normals point toward increasing field values,
# the orientation contract of this module (verified by the sphere
# orientation test: distance fields get positive enclosed volume).
_edges = _edges.astype(np.uint8)  # -1 wraps to 255
_NEW_EDGES = (_owned * (_edges + 1) - 1).transpose(0, 2, 1).reshape(-1, 15)
_N_NEW = _owned.sum(axis=1).ravel()
_TRI_SLOTS = _used * np.arange(0, 96, 12, dtype=np.uint8)[:, None, None]
_TRI_SLOTS += _edges[[0, 2, 1, 3, 5, 4, 6, 8, 7, 9, 11, 10, 12, 14, 13]]
_TRI_SLOTS = _TRI_SLOTS.transpose(0, 2, 1).reshape(-1, 15)
_N_SLOTS = np.tile(_used.sum(axis=0), 8)
del _ends, _codes, _key, _edge_at, _case_of_code, _edges, _used, _bit, _first, _owned
_NO_CARRY = (np.empty(0, dtype=np.int64), np.empty((0, 12), dtype=np.int64))

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
    first. Those cells are classified at once: a case code from three
    pair passes over the flat points, the table rows of the active
    cells, the ids of the edges each owns, and one id per triangle
    corner, read from the owner of its edge. A y or z edge on the slab's
    first plane is owned by a cell of the slab before; the ids of that
    slab's last layer of active cells carry over for it. So the mesh is
    the one the whole field gives, bit for bit.

    Besides the growing mesh, the marcher holds the last plane fed and
    the carried ids, about 100 B per active cell of one layer. While a
    slab is marched, about 4 B per point index the owners, and the other
    arrays scale with the slab's points or its active cells; none is as
    large as the grid.

    The checks of the whole field's range wait for finish(), which raises
    them as marching_cubes does.
    """

    def __init__(self, grid: GridSpec, isovalue: float):
        iso = float(isovalue)
        if not np.isfinite(iso):
            raise ValueError(f"isovalue must be finite, got {isovalue}")
        self.grid, self.iso = grid, iso
        self._range = SlabRange(grid.dims[0])
        self._last = None  # the last plane fed
        # the last layer of cells marched: each active cell's place in the
        # layer and its row of 12 edge ids, read where it owns the edge
        self._carry = _NO_CARRY
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
        last, self._last = self._last, slab[-1].copy()
        if last is not None or len(slab) > 1:
            self._march(last, slab, first)

    def _march(self, last: np.ndarray | None, slab: np.ndarray, first: int) -> None:
        # the points are the last plane of the slab before, if any, then the
        # slab's; each intermediate is dropped once spent, which keeps the
        # slab's peak down
        iso = self.iso
        lead = last is not None
        ny, nz = slab.shape[1:]
        nx, plane = len(slab) + lead, ny * nz
        below = np.empty((nx, ny, nz), dtype=bool)
        if lead:
            np.less(last, iso, out=below[0])
        np.less(slab, iso, out=below[lead:])
        # pair codes over the flat points, a pass per axis: code[p] is the
        # code of the cell whose corner 0 is point p (multiplying is many
        # times faster than shifting uint8)
        below = below.view(np.uint8).ravel()
        pairs = below[1:] * 2
        pairs |= below[:-1]
        del below
        quads = pairs[nz:] * 4
        quads |= pairs[:-nz]
        del pairs
        n = (nx - 1) * plane
        code = np.zeros(n, dtype=np.uint8)
        np.multiply(quads[plane:], 16, out=code[: len(quads) - plane])
        code[: len(quads) - plane] |= quads[:-plane]
        del quads
        # no cell has its corner 0 on the last row or column of a plane
        code.reshape(nx - 1, ny, nz)[:, -1] = 0
        code.reshape(nx - 1, ny, nz)[:, :, -1] = 0
        # active cells in row-major order, each as the flat index of its
        # corner 0 in the points
        cells = np.flatnonzero((code != 0) & (code != 255))
        pos, carried = self._carry
        self._carry = _NO_CARRY
        if not cells.size:
            return
        # each cell's table row, 256 * its box-boundary class + its code
        edge_class = np.zeros((ny, nz), dtype=np.intp)
        edge_class[0] += 2 * 256
        edge_class[:, 0] += 4 * 256
        row = edge_class.ravel().take(cells % plane)
        row += code.take(cells)
        del code
        if first == 0:
            row[: np.searchsorted(cells, plane)] += 256

        # the cells' owned edges are new vertices, numbered in cell order and
        # within a cell in the order its table row first meets them
        new = _NEW_EDGES.take(row, axis=0)
        e = new[new != 255].astype(np.intp)
        del new
        owned = _N_NEW.take(row)
        m = len(pos)
        ids = np.empty((m + len(cells), 12), dtype=np.int64)
        ids[:m] = carried
        at = np.repeat(np.arange(12 * m, 12 * len(ids), 12), owned)
        at += e
        ids.ravel()[at] = np.arange(self._n_vertices, self._n_vertices + len(e))
        self._n_vertices += len(e)
        del at

        # each vertex is interpolated along its owner's edge, from that
        # edge's first corner: edge 2 runs from corner 2 to 3, toward -x,
        # and interpolating it from its lower corner instead would change
        # the last bits of the position
        pa = np.repeat(cells, owned)
        del owned
        pa += (_EDGE_START @ (plane, nz, 1)).take(e)
        # a sample equal to the isovalue is nudged up a few ulp: it already
        # counts as above, and no vertex lands on a grid point
        fa = _sample(last, slab, pa)
        fb = _sample(last, slab, pa + (_EDGE_STEP @ (plane, nz, 1)).take(e))
        for f in (fa, fb):
            f[f == iso] = iso + 4.0 * np.spacing(max(abs(iso), 1.0))
        t = (iso - fa) / (fb - fa)
        del fa, fb
        step = _EDGE_STEP.take(e, axis=0)
        del e
        ijk = np.stack(np.unravel_index(pa, (nx, ny, nz)), axis=1)
        del pa
        ijk[:, 0] += first
        origin = np.asarray(self.grid.origin)
        self._vertices.append(origin + self.grid.spacing * (ijk + t[:, None] * step))
        del t, step, ijk

        # every triangle corner reads its id from the owner of its edge: a
        # cell of this slab, or of the last layer of the slab before, which
        # sits one plane before this slab's first in the index of owners
        index = np.int32 if 12 * nx * plane < 2**31 else np.int64
        at = np.empty(nx * plane, dtype=index)  # 12 * the owner's row of ids
        at[pos] = np.arange(0, 12 * m, 12)
        cells += plane
        at[cells] = np.arange(12 * m, 12 * len(ids), 12)
        slots = _TRI_SLOTS.take(row, axis=0)
        j = slots[slots != 255].astype(np.intp)
        del slots
        owner = np.repeat(cells, _N_SLOTS.take(row))
        del row
        owner -= (_SHIFT @ (plane, nz, 1)).take(j)
        corner = at.take(owner)
        del at, owner
        corner += _OWNER_EDGE.take(j)
        del j
        self._triangles.append(ids.ravel().take(corner).reshape(-1, 3))
        del corner

        # the cells of the last layer own the y and z edges of the last
        # plane: their ids go to the next slab
        last = np.searchsorted(cells, (nx - 1) * plane)
        self._carry = (cells[last:] - (nx - 1) * plane, ids[m + last :].copy())

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
        # so some cell has corners on both sides, and every such case of
        # TRI_TABLE draws a triangle: the mesh is not empty
        vertices, triangles = self._vertices, self._triangles
        self._vertices, self._triangles = [], []
        return TriangleMesh(vertices=np.concatenate(vertices), triangles=np.concatenate(triangles))


def _sample(last: np.ndarray | None, slab: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The values at flat indices into the planes last (if not None), then slab."""
    if last is None:
        return slab.ravel().take(points)
    before = last.ravel().take(points, mode="clip")
    after = slab.ravel().take(points - last.size, mode="clip")
    return np.where(points < last.size, before, after)


def marching_cubes(field: ScalarField3, isovalue: float) -> TriangleMesh:
    """Extract the isovalue surface as a welded triangle mesh.

    The isovalue must lie strictly inside the field's value range. Grid
    samples exactly equal to the isovalue count as above it, and are
    nudged up by a few ulp where a vertex is interpolated, so no surface
    vertex ever coincides with a grid point (zero-length edges and
    double-welded vertices cannot occur).
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
    codes = codes.take(order)
    index = np.int32 if codes.size < 2**31 else np.int64
    order = order.astype(index)
    new = np.empty(codes.size, dtype=bool)
    new[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    starts = np.flatnonzero(new).astype(index)
    return order, starts, codes.take(starts)


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
        la, lb = label.take(a), label.take(b)
        split = la != lb
        if not split.any():
            break
        keep = np.flatnonzero(split)
        a, b, la, lb = a.take(keep), b.take(keep), la.take(keep), lb.take(keep)
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label.take(label)
            if np.array_equal(up, label):
                break
            label = up
    components = int(np.count_nonzero(label == np.arange(V)))
    del label, a, b, la, lb, split, keep

    # corners gathered one at a time, so no (F, 3, 3) array is alive, and
    # the first corner gathered again for the volume instead of being held
    # through the cross product
    verts, tris = mesh.vertices, mesh.triangles
    p0 = verts.take(tris[:, 0], axis=0)
    e1 = verts.take(tris[:, 1], axis=0)
    e1 -= p0
    e2 = verts.take(tris[:, 2], axis=0)
    e2 -= p0
    del p0
    cross = _cross(e1, e2)
    del e1, e2
    cross_norm = np.linalg.norm(cross, axis=1)
    area = float(cross_norm.sum() / 2.0)
    volume = float(np.einsum("ij,ij->i", verts.take(tris[:, 0], axis=0), cross).sum() / 6.0)

    # the two faces across every 2-face edge, for the dihedral scan: the
    # first two slots of its run, slot s being a side of face s % F. The
    # scan runs over fixed-size slices of those edges, so the gathered
    # normals stay small; min is exact, so the slices' least minimum is
    # the minimum over every edge.
    lows = []
    for lo in range(0, two_face.size, _DIHEDRAL_CHUNK):
        run = two_face[lo : lo + _DIHEDRAL_CHUNK]
        f1 = order.take(run) % F
        f2 = order.take(run + 1) % F
        norms = cross_norm.take(f1) * cross_norm.take(f2)
        ok = norms > 0
        if ok.any():
            f1, f2, norms = f1[ok], f2[ok], norms[ok]
            cosang = np.einsum("ij,ij->i", cross.take(f1, axis=0), cross.take(f2, axis=0)) / norms
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
    with open(path, "wb") as fh:
        write_rows(fh, "v %.6f %.6f %.6f\n", mesh.vertices)
        write_rows(fh, "f %d %d %d\n", mesh.triangles + 1)


def write_off(mesh: TriangleMesh, path) -> None:
    """Write the OFF layout: header, counts, vertices, 0-based face rows."""
    if mesh.n_triangles == 0:
        raise ValueError("refusing to write an empty mesh")
    _, starts, _ = _edge_runs(mesh.triangles, mesh.n_vertices)
    with open(path, "wb") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_triangles} {len(starts)}\n".encode())
        write_rows(fh, "%.6f %.6f %.6f\n", mesh.vertices)
        write_rows(fh, "3 %d %d %d\n", mesh.triangles)
