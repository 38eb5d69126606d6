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
its id from the grid edge, keyed by its axis and its lower grid point.
Each vertex is interpolated along its owner's edge. The field is taken
a slab of axis-0 planes at a time (SlabMarcher), and a slab's cells are
processed at once as arrays. The output is identical from run to run
and does not depend on where the slabs end.

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

from .grids import (
    _ROWS_PER_WRITE,
    GridSpec,
    PlaneFeed,
    ScalarField3,
    check_finite,
    new_file,
    read_only,
    slabs,
    write_rows,
)
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE

# each cell edge's two corners, its first corner, its step from the first
# to the second, its lower corner and its axis
_ends = CORNER_OFFSETS[EDGE_CORNERS]
_EDGE_START = _ends[:, 0]
_EDGE_STEP = _ends[:, 1] - _ends[:, 0]
_EDGE_LOW = _ends.min(axis=1)
_EDGE_AXIS = abs(_EDGE_STEP).argmax(axis=1)

# A grid edge's owner is the first cell in row-major order that holds it:
# a cell leaves an edge on its lower face along an axis to the cell one
# back along that axis, unless it is at 0 there. A cell of box-boundary
# class c is at 0 on axis b when bit b of c is set; _OWNS[c, e] says
# whether it owns its edge e.
_OWNS = ~(
    (_ends.max(axis=1) == 0) & (((np.arange(8)[:, None, None] >> np.arange(3)) & 1) == 0)
).any(axis=2)

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
# where they first appear and 255 elsewhere. Rows indexed by code: the
# edges of its triangle corners, 255 padded. Each triangle is listed
# reversed: the case tables wind triangles clockwise when seen from the
# higher-value side, and reversed their normals point toward increasing
# field values, the orientation contract of this module (verified by the
# sphere orientation test: distance fields get positive enclosed volume).
_edges = _edges.astype(np.uint8)  # -1 wraps to 255
_NEW_EDGES = (_owned * (_edges + 1) - 1).transpose(0, 2, 1).reshape(-1, 15)
_N_NEW = _owned.sum(axis=1).ravel()
_TRI_EDGES = np.ascontiguousarray(_edges[[0, 2, 1, 3, 5, 4, 6, 8, 7, 9, 11, 10, 12, 14, 13]].T)
_N_SLOTS = _used.sum(axis=0)
del _ends, _case_of_code, _edges, _used, _bit, _first, _owned

# 2-face edges per slice of mesh_metrics' dihedral scan: 0.4 MB of gathered
# normals, about 1 MB of arrays in all
_DIHEDRAL_CHUNK = 1 << 13


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Vertex positions (V, 3) and triangle vertex indices (T, 3), T >= 1.

    Both are read-only views of float64/int64 inputs, not snapshots:
    writing to the caller's arrays afterwards changes the mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = read_only(np.reshape(self.vertices, (-1, 3)))
        t = read_only(np.reshape(self.triangles, (-1, 3)), np.int64)
        if not t.size:
            raise ValueError("empty mesh")
        if t.min() < 0 or t.max() >= len(v):
            raise ValueError("triangle indices out of vertex range")
        if np.any((t[:, 0] == t[:, 1]) & (t[:, 1] == t[:, 2])):
            raise ValueError("degenerate triangle with three identical vertices")
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
    cells, the ids of the edges each owns, written to a grid of ids with
    a slot per grid edge, and one id per triangle corner, read at its
    edge's slot. A y or z edge on the slab's first plane is owned by a
    cell of the slab before; the ids of that slab's last plane's y and z
    edges carry over for it. So the mesh is the one the whole field
    gives, bit for bit.

    Besides the growing mesh, the marcher holds the last plane fed, the
    two carried ids per point of it and each point's table row offset,
    24 B per point of one plane while the ids are int32. While a slab is
    marched, its grid of ids takes 12 B per point, and the other arrays
    scale with the slab's points or its active cells; none is as large
    as the grid. The traced peak of a march is 17-23 B per voxel of the
    slab fed on a sphere and on seeded globules of 300 to 20,000 atoms.

    The marcher scans no slab for its range: finish(field) reads the
    caller's range of the same slabs, a grids.SlabRange or the field.
    """

    def __init__(self, grid: GridSpec, isovalue: float):
        iso = float(isovalue)
        if not np.isfinite(iso):
            raise ValueError(f"isovalue must be finite, got {isovalue}")
        self.grid, self.iso = grid, iso
        self._feed = PlaneFeed(grid.dims)
        self._last = None  # the last plane fed
        # the ids of the y and z edges of the last plane marched, (2, plane),
        # or None where the slab before has no active cell
        self._carry = None
        # each point's table row offset within a plane, 256 * the
        # box-boundary class of the cell whose corner 0 it is
        edge_class = np.zeros(grid.dims[1:], dtype=np.intp)
        edge_class[0] += 2 * 256
        edge_class[:, 0] += 4 * 256
        self._edge_class = edge_class.ravel()
        self._vertices: list[np.ndarray] = []
        self._triangles: list[np.ndarray] = []
        self._n_vertices = 0

    def add(self, slab: np.ndarray) -> None:
        lo = self._feed.add(slab)
        first = lo - (lo > 0)  # plane of the cells' corner 0
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
        carry, self._carry = self._carry, None
        if not cells.size:
            return
        # each cell's code, and its table row, 256 * its box-boundary class
        # + its code
        code = code.take(cells)
        row = self._edge_class.take(cells % plane)
        row += code
        if first == 0:
            row[: np.searchsorted(cells, plane)] += 256

        # one id per grid edge, axis-major: the edge along axis a from point
        # p is at slot a * points + p, and a cell's edge e at the cell's
        # point + slot[e]. Only crossed edges' slots are written and read;
        # those on the first plane along y and z were numbered by the slab
        # before, and carry over
        points = nx * plane
        eid = np.empty((3, points), dtype=_index_dtype(self._n_vertices + 3 * points))
        if carry is not None:
            eid[1:, :plane] = carry
        del carry
        slot = _EDGE_LOW @ (plane, nz, 1) + _EDGE_AXIS * points

        # the cells' owned edges are new vertices, numbered in cell order and
        # within a cell in the order its table row first meets them
        new = _NEW_EDGES.take(row, axis=0)
        e = new[new != 255].astype(np.intp)
        del new
        pa = np.repeat(cells, _N_NEW.take(row))
        del row
        eid.ravel()[pa + slot.take(e)] = np.arange(self._n_vertices, self._n_vertices + len(e))
        self._n_vertices += len(e)

        # each vertex is interpolated along its owner's edge, from that
        # edge's first corner: edge 2 runs from corner 2 to 3, toward -x,
        # and interpolating it from its lower corner instead would change
        # the last bits of the position
        pa += (_EDGE_START @ (plane, nz, 1)).take(e)
        # a sample equal to the isovalue is nudged up a few ulp: it already
        # counts as above, and no vertex lands on a grid point
        fa = _sample(last, slab, pa)
        fb = _sample(last, slab, pa + (_EDGE_STEP @ (plane, nz, 1)).take(e))
        for f in (fa, fb):
            f[f == iso] = iso + 4.0 * np.spacing(max(abs(iso), 1.0))
        with np.errstate(invalid="ignore"):  # inf / inf at an infinite sample, refused by finish
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

        # every triangle corner reads its id at its edge's slot
        j = _TRI_EDGES.take(code, axis=0)
        j = j[j != 255].astype(np.intp)
        corner = np.repeat(cells, _N_SLOTS.take(code))
        del cells, code
        corner += slot.take(j)
        del j
        ids = eid.ravel().take(corner)
        del corner
        self._triangles.append(ids.astype(np.int64, copy=False).reshape(-1, 3))

        # the y and z edges of the last plane: their ids go to the next slab
        self._carry = eid[1:, points - plane :].copy()

    def finish(self, field) -> TriangleMesh:
        """The mesh of the slabs fed, given their range; raises as marching_cubes does."""
        vmin, vmax, iso = field.min, field.max, self.iso
        self._feed.finish()
        check_finite(vmin, vmax)
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
    return marcher.finish(field)


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


def _index_dtype(n: int) -> type:
    """The dtype of indices below n: int32 where they fit, else int64."""
    return np.int32 if n < 2**31 else np.int64


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
    index = _index_dtype(codes.size)
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
    index = _index_dtype(V)
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
    with new_file(path) as fh:
        write_rows(fh, "v %.6f %.6f %.6f\n", mesh.vertices)
        # 1-based a chunk at a time, so no copy of every face is alive
        for at in range(0, mesh.n_triangles, _ROWS_PER_WRITE):
            write_rows(fh, "f %d %d %d\n", mesh.triangles[at : at + _ROWS_PER_WRITE] + 1)


def write_off(mesh: TriangleMesh, path) -> None:
    """Write the OFF layout: header, counts, vertices, 0-based face rows."""
    _, starts, _ = _edge_runs(mesh.triangles, mesh.n_vertices)
    with new_file(path) as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_triangles} {len(starts)}\n".encode())
        write_rows(fh, "%.6f %.6f %.6f\n", mesh.vertices)
        write_rows(fh, "3 %d %d %d\n", mesh.triangles)


def write_mesh(mesh: TriangleMesh, path) -> None:
    """Write an OFF file where path ends in .off, in any case, and else an OBJ file."""
    if str(path).lower().endswith(".off"):
        write_off(mesh, path)
    else:
        write_obj(mesh, path)
