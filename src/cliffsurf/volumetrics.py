"""Grid construction around a molecule, initial-data rasterization, volume export.

Two initial fields drive the smoothing pipeline:

* piecewise: 0 inside the union of atom spheres (boundary included),
  1 outside. Binary, so every later smoothness is the filter's doing.
* smooth bumps: pointwise maximum over atoms of
  s * exp(-(|r - c|^2 - r_atom^2) / r_e^2), equal to s exactly on each
  isolated sphere surface and decaying with distance beyond it.

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

import math

import numpy as np

from .grids import GridSpec, ScalarField3, next_smooth, write_rows
from .molecule import Molecule

DEFAULT_SPACING = 0.25
DEFAULT_PADDING = 5.0
DEFAULT_BUMP_HEIGHT = 1.0
DEFAULT_BUMP_DECAY = 3.0
DEFAULT_MEM_CAP = 4 * 1024**3

# Traced (tracemalloc) peak of a whole CLI run per grid voxel. Times run one
# at a time. The filter transforms only the band of bins its gain keeps, so
# next to the initial field (8 B/voxel, freed after the forward pass) or one
# filtered field (8) it holds one plane's half spectrum and arrays the size
# of the band's box (a few hundred bins at the defaults); with eps > 0 the
# band is the whole half spectrum (8 B/voxel complex) and the filter's
# buffers are full-size again. Extraction needs a few B per cell (sign mask,
# uint8 case index) plus arrays per triangle corner; the surface stage's
# peak is mesh_metrics (edge table, cross products), whose dihedral scan
# gathers normals in fixed-size slices. Seeded globules (bench seed 0): 19
# B/voxel for 300 atoms at 135^3, 18 at 112^3 with gaussian init, 26 for
# 3000 atoms and two times (108^3), all set by mesh_metrics (the filter's
# peak is 8-9, the OpenDX export's 13, the gaussian rasterizer's 9); with
# --epsilon 0.05 --passes 3 and two times at 112^3 the filter sets it, at
# 33. 72 is about twice the highest. A CLI run holds one mesh at a time, so
# its peak stops growing with the (t, isovalue) pairs (three-atom fixture
# at h = 0.25, every writer: 38, 38, 38, 38 with 1, 2, 6, 12 times, set by
# the OpenDX export's fixed-size buffers); only sweep(), which returns its
# meshes, adds a few B/voxel per pair (37, 39, 46, 55). A few MB do not
# scale with the grid (the fixture at h = 0.5, 37.8k voxels, two times,
# peaks at 50). Used only to refuse grids before allocating.
_BYTES_PER_VOXEL = 72

# edges, in voxels, of the cubes rasterize_gaussian prunes atoms over and
# of the leaves it refines each cube's candidates to
_BLOCK = 8
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


def rasterize_piecewise(mol: Molecule, grid: GridSpec) -> ScalarField3:
    """Binary inside/outside field: 0 within any atom sphere, 1 elsewhere.

    A voxel center exactly on a sphere boundary counts as inside. Each
    atom only touches the voxels in its bounding window, so cost is
    O(atoms * window), not O(atoms * grid).
    """
    values = np.ones(grid.dims)
    h = grid.spacing
    axes = grid.axes()
    for atom in mol.atoms:
        c, r = atom.center, atom.radius
        sl = []
        for a in range(3):
            first = int(np.ceil((c[a] - r - grid.origin[a]) / h - 1e-12))
            last = int(np.floor((c[a] + r - grid.origin[a]) / h + 1e-12))
            sl.append(slice(max(first, 0), min(last, grid.dims[a] - 1) + 1))
        if any(s.start >= s.stop for s in sl):
            continue
        dx = axes[0][sl[0]] - c[0]
        dy = axes[1][sl[1]] - c[1]
        dz = axes[2][sl[2]] - c[2]
        d2 = (
            dx[:, None, None] ** 2
            + dy[None, :, None] ** 2
            + dz[None, None, :] ** 2
        )
        inside = d2 <= r * r
        block = values[sl[0], sl[1], sl[2]]  # a view: writes reach values
        block[inside] = 0.0
    return ScalarField3(grid, values)


def rasterize_piecewise_swapped(mol: Molecule, grid: GridSpec) -> ScalarField3:
    """The complementary binary field: 1 inside the spheres, 0 outside."""
    base = rasterize_piecewise(mol, grid)
    return ScalarField3(grid, 1.0 - base.values)


def rasterize_gaussian(
    mol: Molecule,
    grid: GridSpec,
    s: float = DEFAULT_BUMP_HEIGHT,
    r_e: float = DEFAULT_BUMP_DECAY,
) -> ScalarField3:
    """Smooth-bump field: max over atoms of s*exp(-(d^2 - r^2)/r_e^2).

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
    19.8M values instead of 92.8M. Besides the field, memory is six
    arrays of atoms x cubes per axis (no atoms x voxels array), arrays
    over one layer of cubes' candidate pairs, and four arrays of one
    leaf layer. The traced peak is 10.0 B/voxel for 300 atoms at 112^3
    and 14.9 for 3000 atoms at 108^3.
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not r_e > 0:
        raise ValueError(f"r_e must be positive, got {r_e}")
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
    power = np.empty(dims)  # the leaf layers tile it: each voxel is set once

    def fill_layer(lo, leaf, atoms):
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
        rows = min(_LEAF, dims[0] - lo)
        where = in_leaf + slot[leaf_of]
        # in range by construction; "clip" spares the copy "raise" makes of out
        np.take(acc.reshape(_LEAF, -1)[:rows], where, axis=1, out=power[lo : lo + rows], mode="clip")

    for bi in range(nb[0]):
        for u, (leaf, atoms) in enumerate(leaf_pairs(bi)):
            lo = (per_block * bi + u) * _LEAF
            if lo < dims[0]:
                fill_layer(lo, leaf, atoms)
    # s * exp(-power / r_e^2), operation for operation, in place
    np.negative(power, out=power)
    power /= r_e * r_e
    np.exp(power, out=power)
    power *= s
    return ScalarField3(grid, power)


def _require_exportable(field: ScalarField3):
    if not field.is_finite():
        raise ValueError("field contains NaN or Inf, refusing to export")


def export_opendx(field: ScalarField3, path) -> None:
    """Write the field as an OpenDX scalar map (the electrostatics-tool layout).

    Header: gridpositions counts, origin, three axis-aligned deltas,
    gridconnections, then the data array three values per line with the
    z index varying fastest, then the field trailer.
    """
    _require_exportable(field)
    nx, ny, nz = field.grid.dims
    h = field.grid.spacing
    ox, oy, oz = field.grid.origin
    header = [
        f"object 1 class gridpositions counts {nx} {ny} {nz}",
        f"origin {ox:.6e} {oy:.6e} {oz:.6e}",
        f"delta {h:.6e} 0.000000e+00 0.000000e+00",
        f"delta 0.000000e+00 {h:.6e} 0.000000e+00",
        f"delta 0.000000e+00 0.000000e+00 {h:.6e}",
        f"object 2 class gridconnections counts {nx} {ny} {nz}",
        f"object 3 class array type double rank 0 items {nx * ny * nz} data follows",
    ]
    trailer = [
        'attribute "dep" string "positions"',
        'object "regular positions regular connections" class field',
        'component "positions" value 1',
        'component "connections" value 2',
        'component "data" value 3',
    ]
    flat = field.values.ravel(order="C")  # C order: z fastest
    full = flat.size - flat.size % 3
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")
        write_rows(fh, "%.6e %.6e %.6e\n", flat[:full].reshape(-1, 3))
        if full < flat.size:  # one or two values on the last data line
            last = flat[full:]
            write_rows(fh, " ".join(["%.6e"] * last.size) + "\n", last[None])
        fh.write("\n".join(trailer) + "\n")


def export_raw(field: ScalarField3, path) -> None:
    """Write the field as a small self-describing binary dump.

    Layout, all little-endian: dims as 3 int64, origin as 3 float64,
    spacing as 1 float64, then the values as float64 with z fastest.
    """
    _require_exportable(field)
    with open(path, "wb") as fh:
        fh.write(np.asarray(field.grid.dims, dtype="<i8").tobytes())
        fh.write(np.asarray(field.grid.origin, dtype="<f8").tobytes())
        fh.write(np.float64(field.grid.spacing).astype("<f8").tobytes())
        # a view of the values when they are already little-endian float64
        # and C-ordered; a copy only where the dtype or layout needs one
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").data)
