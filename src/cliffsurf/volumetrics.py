"""Grid construction around a molecule, initial-data rasterization, volume export.

Two initial fields drive the smoothing pipeline:

* piecewise: 0 inside the union of atom spheres (boundary included),
  1 outside. Binary, so every later smoothness is the filter's doing.
* smooth bumps: pointwise maximum over atoms of
  s * exp(-(|r - c|^2 - r_atom^2) / r_e^2), equal to s exactly on each
  isolated sphere surface and decaying with distance beyond it.

Both rasterizers produce the field as consecutive slabs of SLAB axis-0
planes (piecewise_slabs, gaussian_slabs), which the CLI streams into the
filter; rasterize_* assemble the slabs into a whole field, and the volume
writers take a field slab by slab too (VolumeWriter).

The piecewise rasterizer touches each atom's bounding window only. The
bumps reach every voxel, so the gaussian rasterizer prunes atoms in two
levels: it keeps for each cube of voxels only the atoms that can win
somewhere in it, then for each of the cube's eight smaller leaf cubes
only those of them that can win there, and evaluates the survivors a
whole layer of leaves per array operation. Rounded lower and upper
bounds of each atom's power distance over a cube or leaf discard the
rest. The bounds are sums of the same rounded terms as the per-voxel
values, so the pruned field is bit-identical to taking every atom over
every voxel.

Fields are sampled at voxel centers. A molecule mirror-symmetric about a
grid-aligned plane lands on a symmetric grid here (the box is discretized
symmetrically about its center), so the sampled field inherits the
symmetry bin-exactly; the spectral filter preserves it.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Iterator

import numpy as np

from .grids import SLAB, GridSpec, ScalarField3, next_smooth, slabs, write_rows
from .molecule import Molecule

DEFAULT_SPACING = 0.25
DEFAULT_PADDING = 5.0
DEFAULT_BUMP_HEIGHT = 1.0
DEFAULT_BUMP_DECAY = 3.0
DEFAULT_MEM_CAP = 4 * 1024**3

# Traced (tracemalloc) peak of a whole CLI run per grid voxel. A run streams
# the grid in slabs of SLAB axis-0 planes: each rasterized slab goes into the
# forward transform of the band of bins the filter keeps, and per time each
# inverted slab goes to the range, the volume writer and every isovalue's
# marching cubes. So no array the size of the grid is alive: only the band's
# n0 x b1 x bz lines, a few slabs' arrays (O(n^2) each) and the meshes of
# one time, one per isovalue, while they grow. mesh_metrics holds about 100 B
# per triangle besides its mesh. Seeded globules (bench seed 0), whole run,
# then the largest traced total inside one stage: 5.6 B/voxel for 300
# atoms at 135^3 with every writer (mesh_metrics 5.7, the OpenDX writer 5.3,
# marching cubes 3.3, the inverse 2.9, rasterize 1.4, forward 1.1); 5.0 at
# 112^3 with gaussian init (mesh_metrics 5.2, marching cubes 3.6, rasterize
# 3.5); 11.2 for 3000 atoms, two times and two isovalues at 108^3, where two
# meshes grow at once (mesh writer 11.5, mesh_metrics 11.3). The slab terms
# grow as n^2, so the smaller the grid, the more B/voxel: the three-atom fixture at h = 0.25
# (every writer) reads 10.1, 10.2, 10.2, 10.3 with 1, 2, 6, 12 times, and
# sweep(), which returns its meshes, 10.1, 11.8, 18.4, 27.9; at h = 0.5
# (37.8k voxels, two times) it reads 17.0. With eps > 0 the band is the
# whole half spectrum (8 B/voxel complex, and a copy of it per transform
# pass): --epsilon 0.05 --passes 3 with two times at 112^3 reads 33.2, the
# highest measured. 72 is about twice that. It stays a flat per-voxel
# estimate, though the streamed run needs O(n^2) plus the band plus the
# meshes; a model of those is an open item. Used only to refuse grids
# before allocating.
_BYTES_PER_VOXEL = 72

# edges, in voxels, of the cubes rasterize_gaussian prunes atoms over and
# of the leaves it refines each cube's candidates to; a layer of cubes is
# one slab deep
_BLOCK = SLAB
_LEAF = 4


def check_grid_settings(spacing: float, padding: float) -> None:
    """Raise ValueError unless spacing is positive and padding nonnegative, both finite."""
    if not 0 < spacing < np.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if not 0 <= padding < np.inf:
        raise ValueError(f"padding must be nonnegative and finite, got {padding}")


def _check_grid_size(dims, mem_cap_bytes: int | None) -> None:
    # the tests in Python ints, exact at any size; the messages' floats may
    # read inf
    voxels = math.prod(dims)
    shape = ", ".join(f"{float(n):.7g}" for n in dims)
    if mem_cap_bytes is not None and voxels * _BYTES_PER_VOXEL > mem_cap_bytes:
        gib = math.prod(map(float, dims)) * _BYTES_PER_VOXEL / 1024**3
        raise ValueError(
            f"grid ({shape}) needs about {gib:.1f} GiB, "
            f"over the {mem_cap_bytes / 1024**3:.1f} GiB memory cap"
        )
    if voxels > np.iinfo(np.intp).max // 8:
        raise ValueError(f"grid ({shape}) has more voxels than a float64 array can hold")


def make_grid(
    mol: Molecule,
    spacing: float = DEFAULT_SPACING,
    padding: float = DEFAULT_PADDING,
    mem_cap_bytes: int | None = DEFAULT_MEM_CAP,
) -> GridSpec:
    """Uniform grid covering the molecule's sphere box plus padding.

    Dims are rounded up to {2,3,5,7}-smooth sizes for the FFT stages; the
    rounding grows the box symmetrically about its center (the origin is
    recentered, never clipped). Periodic wraparound across the padded
    faces is what the padding is for; 5 Angstrom keeps it far below
    isovalue scale for the default filter strengths. The memory cap is
    checked against the estimated peak of a whole run, _BYTES_PER_VOXEL
    per voxel, on the sample counts and again on the rounded dims; with
    or without a cap, more voxels than a float64 array can hold are
    refused the same way. A span whose sample count is not finite raises
    ValueError.
    """
    check_grid_settings(spacing, padding)
    lo, hi = mol.bounding_box()
    lo = lo - padding
    hi = hi + padding
    center = (lo + hi) / 2.0
    counts = []
    for span in (hi - lo).tolist():
        samples = span / spacing
        if not math.isfinite(samples):
            raise ValueError(f"a {span:g} A span at spacing {spacing:g} needs {samples} samples")
        # smallest sample count covering the span, robust to float fuzz
        counts.append(max(math.ceil(samples - 1e-9) + 1, 2))
    # rounding only grows dims, so the checks can refuse them first
    _check_grid_size(counts, mem_cap_bytes)
    dims = tuple(next_smooth(n) for n in counts)
    _check_grid_size(dims, mem_cap_bytes)
    origin = tuple(center[a] - (dims[a] - 1) * spacing / 2.0 for a in range(3))
    return GridSpec(origin=origin, spacing=spacing, dims=dims)


def piecewise_slabs(mol: Molecule, grid: GridSpec) -> Iterator[np.ndarray]:
    """rasterize_piecewise's values as consecutive SLAB-plane slabs along axis 0.

    The atoms are drawn in order of their window's first plane into a
    rolling boolean buffer of planes that starts at the current slab and
    reaches as far as the deepest window; the slab is complete, and
    leaves the buffer as a fresh float64 array, once every atom whose
    window starts in it is drawn. So each atom is drawn once and whole,
    and the buffer holds SLAB plus one window depth of planes at 1 B per
    voxel.
    """
    h, dims = grid.spacing, grid.dims
    centers, radii = mol.centers, mol.radii
    # each atom's window per axis, [lo, hi), clipped to the grid
    lo = np.empty((len(radii), 3), dtype=np.int64)
    hi = np.empty_like(lo)
    for a in range(3):
        first = np.ceil((centers[:, a] - radii - grid.origin[a]) / h - 1e-12)
        last = np.floor((centers[:, a] + radii - grid.origin[a]) / h + 1e-12)
        lo[:, a] = np.clip(first, 0, dims[a])
        hi[:, a] = np.clip(last, -1, dims[a] - 1) + 1
    drawn = np.flatnonzero(np.all(lo < hi, axis=1))
    drawn = drawn[np.argsort(lo[drawn, 0], kind="stable")]
    depth = SLAB + int((hi[drawn, 0] - lo[drawn, 0]).max(initial=0))
    # per drawn atom, in drawing order, as Python numbers for the loop
    atoms = list(zip(lo[drawn].tolist(), hi[drawn].tolist(), centers[drawn].tolist(),
                     radii[drawn].tolist()))
    return _piecewise_slabs(grid.axes(), atoms, depth)


def _piecewise_slabs(axes, atoms, depth):
    n0, n1, n2 = (len(x) for x in axes)
    outside = np.ones((depth, n1, n2), dtype=bool)
    k = 0
    for base in range(0, n0, SLAB):
        while k < len(atoms) and atoms[k][0][0] < base + SLAB:
            (x0, y0, z0), (x1, y1, z1), c, r = atoms[k]
            k += 1
            dx = axes[0][x0:x1] - c[0]
            dy = axes[1][y0:y1] - c[1]
            dz = axes[2][z0:z1] - c[2]
            d2 = (
                dx[:, None, None] ** 2
                + dy[None, :, None] ** 2
                + dz[None, None, :] ** 2
            )
            inside = d2 <= r * r
            block = outside[x0 - base : x1 - base, y0:y1, z0:z1]  # a view
            block[inside] = False
        yield outside[: min(SLAB, n0 - base)].astype(np.float64)  # 1.0 and 0.0
        outside[:-SLAB] = outside[SLAB:]
        outside[-SLAB:] = True


def rasterize_piecewise(mol: Molecule, grid: GridSpec) -> ScalarField3:
    """Binary inside/outside field: 0 within any atom sphere, 1 elsewhere.

    A voxel center exactly on a sphere boundary counts as inside. Each
    atom only touches the voxels in its bounding window, so cost is
    O(atoms * window), not O(atoms * grid). The slabs come from
    piecewise_slabs.
    """
    return ScalarField3.from_slabs(grid, piecewise_slabs(mol, grid))


def rasterize_piecewise_swapped(mol: Molecule, grid: GridSpec) -> ScalarField3:
    """The complementary binary field: 1 inside the spheres, 0 outside."""
    return ScalarField3.from_slabs(grid, (1.0 - slab for slab in piecewise_slabs(mol, grid)))


def rasterize_gaussian(
    mol: Molecule,
    grid: GridSpec,
    s: float = DEFAULT_BUMP_HEIGHT,
    r_e: float = DEFAULT_BUMP_DECAY,
) -> ScalarField3:
    """Smooth-bump field: max over atoms of s*exp(-(d^2 - r^2)/r_e^2).

    The slabs come from gaussian_slabs, which says how they are computed
    and what memory they take besides the returned field (8 B/voxel).
    """
    return ScalarField3.from_slabs(grid, gaussian_slabs(mol, grid, s=s, r_e=r_e))


def gaussian_slabs(
    mol: Molecule,
    grid: GridSpec,
    s: float = DEFAULT_BUMP_HEIGHT,
    r_e: float = DEFAULT_BUMP_DECAY,
) -> Iterator[np.ndarray]:
    """rasterize_gaussian's values as consecutive SLAB-plane slabs, one per layer of cubes.

    Computed through the power-distance identity
        max_b exp(-(d_b^2 - r_b^2)/r_e^2) = exp(-min_b(d_b^2 - r_b^2)/r_e^2),
    exact because exp is monotone. One exp over the grid instead of one
    per atom, and the max cannot lose precision to summation order.

    The bumps have unbounded support, but each voxel takes its min over
    only the atoms that can win somewhere near it, found in two levels.
    A voxel's power distance is ((dx^2 + dy^2) + dz^2) - r^2, each dx^2
    the rounded square of one axis offset. Summing the least (greatest)
    per-axis squares over a box of voxels in that same order rounds to a
    lower (upper) bound lb (ub) of every voxel's value in the box, since
    rounded addition and subtraction are monotone.

    First level, cubes of _BLOCK^3 voxels: an atom with lb > min ub over
    every atom loses at every voxel of the cube to the atom with the
    least ub; the rest are the cube's candidates. Second level, the
    cube's eight leaves of _LEAF^3 voxels: a candidate stays for a leaf
    when its leaf lb is at most the least leaf ub among the cube's
    candidates. Those candidates' values bound the leaf's minimum from
    above, and no other atom wins anywhere in the cube, so every atom
    that attains the minimum at some voxel of the leaf stays, ties
    included. Each survivor's value is computed with the same expression
    from the same grid.axes() coordinates, and a min is exact in any
    order, so the field is bit-identical to a min over every atom.

    The survivors are evaluated one layer of leaves (_LEAF planes) at a
    time, the leaves sorted by candidate count: rank r holds each leaf's
    r-th candidate, and a few array operations of shape (_LEAF, _LEAF,
    _LEAF, leaves) evaluate a whole rank. Each axis is padded to whole
    cubes by repeating its last coordinate, which changes no min or max;
    padded voxels are cropped.

    The cost is the atoms times the cubes for the first bounds, plus the
    candidates times the voxels. On seeded globules, 300 atoms at 112^3
    keep 17.95 candidates per cube (at most 34) and 5.13 per leaf (at
    most 14): 7.2M atom-voxel values where cubes alone take 25.2M. 3000
    atoms at 108^3 keep 66.1 per cube and 15.1 per leaf (at most 36):
    19.8M values instead of 92.8M. Memory is the slab, six arrays of
    atoms x cubes per axis (no atoms x voxels array), arrays over one
    layer of cubes' candidate pairs, and four arrays of one leaf layer,
    none of them the size of the grid. Traced peaks while the slabs are
    consumed one at a time: 2.5 B/voxel (3.6 MB) for 300 atoms at 112^3,
    and 7.5 (9.4 MB) for 3000 atoms at 108^3, most of it the candidate
    pairs of one layer of cubes. rasterize_gaussian, which assembles the
    field, peaks at 11.1 and 16.0.
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not r_e > 0:
        raise ValueError(f"r_e must be positive, got {r_e}")
    return _gaussian_slabs(mol, grid, s, r_e)


def _gaussian_slabs(mol, grid, s, r_e):
    dims, centers = grid.dims, mol.centers.T
    r2 = mol.radii * mol.radii
    nb = [-(-n // _BLOCK) for n in dims]
    per_block = _BLOCK // _LEAF
    # voxel centres per axis, padded to whole blocks by repeating the last
    # one (a repeated point moves no min or max), shape (leaf voxel, leaf),
    # and by block, (leaf voxel, leaf of the block, block): the axis a
    # bound is taken over comes first, and the axis gathered from last
    leaf_pts = [
        np.ascontiguousarray(
            np.concatenate([x, np.repeat(x[-1], b * _BLOCK - x.size)]).reshape(-1, _LEAF).T
        )
        for x, b in zip(grid.axes(), nb)
    ]
    pts = [np.ascontiguousarray(q.reshape(_LEAF, -1, per_block).transpose(0, 2, 1)) for q in leaf_pts]

    def extremes(offsets):
        # least and greatest squared offset over the first axis
        d2 = np.square(offsets, out=offsets)
        return d2.min(axis=0), d2.max(axis=0)

    # first level: per axis, each atom's least and greatest squared offset
    # over each block, shape (blocks, atoms), built a block at a time
    near, far = [], []
    for p, coord in zip(pts, centers):
        lo_hi = [extremes(p[..., b].reshape(-1, 1) - coord) for b in range(p.shape[-1])]
        near.append(np.array([lo for lo, _ in lo_hi]))
        far.append(np.array([hi for _, hi in lo_hi]))

    def block_pairs(bi):
        # the (block, atom) pairs of block layer bi that pass lb <= min ub,
        # grouped by block; the bounds are built a row of blocks at a time
        blocks, atoms = [], []
        for bj in range(nb[1]):
            lb = ((near[0][bi] + near[1][bj]) + near[2]) - r2
            ub = ((far[0][bi] + far[1][bj]) + far[2]) - r2
            bk, a = np.nonzero(lb <= ub.min(axis=1)[:, None])
            blocks.append(bj * nb[2] + bk)
            atoms.append(a)
        return np.concatenate(blocks), np.concatenate(atoms)

    n_leaves = (per_block * nb[1], per_block * nb[2])  # per leaf layer, per axis
    n_layer = n_leaves[0] * n_leaves[1]

    def leaf_pairs(bi):
        # per leaf layer of block layer bi: the (leaf, atom) pairs that pass
        # the leaf test, each leaf numbered within the layer
        blocks, atoms = block_pairs(bi)
        starts = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])
        sizes = np.diff(starts, append=len(blocks))
        bj, bk = np.divmod(blocks, nb[2])
        # each pair's bounds over its block's leaves, per axis, (leaf, pair)
        near0, far0 = extremes(pts[0][..., bi, None] - centers[0][atoms])
        near1, far1 = extremes(np.take(pts[1], bj, axis=2) - centers[1][atoms])
        near2, far2 = extremes(np.take(pts[2], bk, axis=2) - centers[2][atoms])
        r2_pair = r2[atoms]
        layers = []
        for u in range(per_block):
            # shape (leaf y, leaf z, pair)
            ub = ((far0[u] + far1[:, None]) + far2) - r2_pair
            least = np.repeat(np.minimum.reduceat(ub, starts, axis=2), sizes, axis=2)
            del ub
            lb = ((near0[u] + near1[:, None]) + near2) - r2_pair
            v, w, p = np.nonzero(lb <= least)
            leaf = (per_block * bj[p] + v) * n_leaves[1] + per_block * bk[p] + w
            layers.append((leaf, atoms[p]))
        return layers

    # one leaf layer at a time, in arrays of shape (x, y, z within the
    # leaf, leaf) with the leaf axis innermost: the layer's running min, and
    # flat buffers for one candidate rank's values and their xy partial sums
    acc = np.empty((_LEAF, _LEAF, _LEAF, n_layer))
    val = np.empty(acc.size)
    xy = np.empty(_LEAF * _LEAF * n_layer)
    # where each voxel of a layer's plane sits in a row of acc, but for the
    # slot of its leaf
    j, k = np.ogrid[: dims[1], : dims[2]]
    in_leaf = (j % _LEAF * _LEAF + k % _LEAF) * n_layer
    leaf_of = j // _LEAF * n_leaves[1] + k // _LEAF

    def fill_layer(planes, lo, leaf, atoms):
        # leaves by candidate count, most first, each in a slot: rank r
        # takes each leaf's r-th candidate, and the leaves that have one
        # form a prefix of the slots. Every leaf keeps the candidate with
        # its least ub, so rank 0 fills every slot of acc.
        counts = np.bincount(leaf, minlength=n_layer)
        by_count = np.argsort(-counts)
        slot = np.empty_like(by_count)
        slot[by_count] = np.arange(n_layer)
        counts = counts[by_count]
        atoms = atoms[np.argsort(slot[leaf])]  # grouped by slot
        first = np.cumsum(counts) - counts  # each slot's first candidate
        c, c2 = centers[:, atoms], r2[atoms]
        x = leaf_pts[0][:, lo // _LEAF, None]
        y = np.take(leaf_pts[1], by_count // n_leaves[1], axis=1)
        z = np.take(leaf_pts[2], by_count % n_leaves[1], axis=1)
        for r in range(counts[0]):
            n = np.count_nonzero(counts > r)
            at = first[:n] + r
            cx, cy, cz = c[:, at]
            xy_n = xy[: _LEAF * _LEAF * n].reshape(_LEAF, _LEAF, 1, n)
            np.add(((x - cx) ** 2)[:, None, None], ((y[:, :n] - cy) ** 2)[:, None], out=xy_n)
            out = val[: _LEAF**3 * n].reshape(_LEAF, _LEAF, _LEAF, n) if r else acc[..., :n]
            np.add(xy_n, (z[:, :n] - cz) ** 2, out=out)
            np.subtract(out, c2[at], out=out)
            if r:
                np.minimum(acc[..., :n], out, out=acc[..., :n])
        where = in_leaf + slot[leaf_of]
        # in range by construction; "clip" spares the copy "raise" makes of out
        np.take(acc.reshape(_LEAF, -1)[: len(planes)], where, axis=1, out=planes, mode="clip")

    for bi in range(nb[0]):
        # the block layer's leaf layers tile the slab: each voxel is set once
        power = np.empty((min(_BLOCK, dims[0] - bi * _BLOCK),) + dims[1:])
        for u, (leaf, atoms) in enumerate(leaf_pairs(bi)):
            lo = u * _LEAF
            if lo < len(power):
                fill_layer(power[lo : lo + _LEAF], bi * _BLOCK + lo, leaf, atoms)
        # s * exp(-power / r_e^2), operation for operation, in place
        np.negative(power, out=power)
        power /= r_e * r_e
        np.exp(power, out=power)
        power *= s
        yield power
        del power  # before the next slab is allocated


def _require_exportable(field: ScalarField3):
    if not field.is_finite():
        raise ValueError("field contains NaN or Inf, refusing to export")


class VolumeWriter:
    """A volume file written from consecutive slabs of axis-0 planes, as a context manager.

    fmt "dx" writes export_opendx's layout and "raw" export_raw's, byte
    for byte: the OpenDX rows of three values may span two slabs, so the
    one or two values left at the end of a slab are carried to the next.
    A slab with a NaN or an infinity raises ValueError. A context left by
    an exception removes the partial file; one left normally finishes it.
    """

    def __init__(self, grid: GridSpec, path, fmt: str):
        if fmt not in ("dx", "raw"):
            raise ValueError(f"volume format must be dx or raw, got {fmt}")
        self.path, self.fmt = path, fmt
        self._carry = np.empty(0)
        if fmt == "raw":
            self._fh = open(path, "wb")
            self._fh.write(np.asarray(grid.dims, dtype="<i8").tobytes())
            self._fh.write(np.asarray(grid.origin, dtype="<f8").tobytes())
            self._fh.write(np.float64(grid.spacing).astype("<f8").tobytes())
            return
        nx, ny, nz = grid.dims
        h = grid.spacing
        ox, oy, oz = grid.origin
        header = [
            f"object 1 class gridpositions counts {nx} {ny} {nz}",
            f"origin {ox:.6e} {oy:.6e} {oz:.6e}",
            f"delta {h:.6e} 0.000000e+00 0.000000e+00",
            f"delta 0.000000e+00 {h:.6e} 0.000000e+00",
            f"delta 0.000000e+00 0.000000e+00 {h:.6e}",
            f"object 2 class gridconnections counts {nx} {ny} {nz}",
            f"object 3 class array type double rank 0 items {nx * ny * nz} data follows",
        ]
        self._fh = open(path, "w", newline="\n")
        self._fh.write("\n".join(header) + "\n")

    def write(self, slab: np.ndarray) -> None:
        if not (np.isfinite(slab.min()) and np.isfinite(slab.max())):  # a NaN reaches both
            raise ValueError("field contains NaN or Inf, refusing to export")
        if self.fmt == "raw":
            # a view of the values when they are already little-endian
            # float64 and C-ordered; a copy only where the dtype or layout
            # needs one
            self._fh.write(np.ascontiguousarray(slab, dtype="<f8").data)
            return
        flat = slab.ravel()  # C order: z fastest
        if self._carry.size:
            flat = np.concatenate([self._carry, flat])
        full = flat.size - flat.size % 3
        write_rows(self._fh, "%.6e %.6e %.6e\n", flat[:full].reshape(-1, 3))
        self._carry = flat[full:].copy()

    def __enter__(self) -> "VolumeWriter":
        return self

    def __exit__(self, kind, exc, tb):
        try:
            if kind is None and self.fmt == "dx":
                if self._carry.size:  # one or two values on the last data line
                    last = self._carry[None]
                    write_rows(self._fh, " ".join(["%.6e"] * last.size) + "\n", last)
                trailer = [
                    'attribute "dep" string "positions"',
                    'object "regular positions regular connections" class field',
                    'component "positions" value 1',
                    'component "connections" value 2',
                    'component "data" value 3',
                ]
                self._fh.write("\n".join(trailer) + "\n")
        finally:
            self._fh.close()
            if kind is not None:
                with contextlib.suppress(OSError):
                    os.remove(self.path)


def _export(field: ScalarField3, path, fmt: str) -> None:
    _require_exportable(field)
    with VolumeWriter(field.grid, path, fmt) as writer:
        for slab in slabs(field.values):
            writer.write(slab)


def export_opendx(field: ScalarField3, path) -> None:
    """Write the field as an OpenDX scalar map (the electrostatics-tool layout).

    Header: gridpositions counts, origin, three axis-aligned deltas,
    gridconnections, then the data array three values per line with the
    z index varying fastest, then the field trailer. A field with a NaN
    or an infinity is refused before the file is opened.
    """
    _export(field, path, "dx")


def export_raw(field: ScalarField3, path) -> None:
    """Write the field as a small self-describing binary dump.

    Layout, all little-endian: dims as 3 int64, origin as 3 float64,
    spacing as 1 float64, then the values as float64 with z fastest.
    """
    _export(field, path, "raw")
