"""Grid construction around a molecule, initial-data rasterization, volume export.

Two initial fields drive the smoothing pipeline:

* piecewise: 0 inside the union of atom spheres (boundary included),
  1 outside. Binary, so every later smoothness is the filter's doing.
* smooth bumps: pointwise maximum over atoms of
  s * exp(-(|r - c|^2 - r_atom^2) / r_e^2), equal to s exactly on each
  isolated sphere surface and decaying with distance beyond it.

Both rasterizers produce the field as consecutive slabs of SLAB axis-0
planes (piecewise_slabs, gaussian_slabs). Each is a generator, so its
checks and setup run when its first slab is asked for, inside the stage
that consumes it: the CLI times them, and tags their errors, in its
rasterize stage. initial_slabs gives the slabs of each of INIT_KINDS,
the swapped kind being 1 minus the piecewise field, and refuses an
unknown kind at the call; the CLI streams them into the filter, and
rasterize(kind) assembles them into a whole field. Each kind's default
isovalue (DEFAULT_ISOVALUES, whose keys are INIT_KINDS) and isovalue
rule (check_isovalue) are kept here too, so RunConfig names no kind. A
volume file is written slab by slab too (VolumeWriter), in the format
its path's extension names: raw for .raw, in any case, and else OpenDX.

The piecewise rasterizer touches each atom's bounding window only, and
tests a slab's atoms in array batches of windows padded to a common
shape. The bumps reach every voxel, so the gaussian rasterizer prunes
atoms by one rule at every box size: from one cube over the grid that
holds every atom, it cuts each box in half along every axis, and each
half keeps only those of its box's atoms that can win somewhere in it,
down to leaves of 4^3 voxels, whose survivors it evaluates a whole layer
of leaves per array operation. Rounded lower and upper bounds of each
atom's power distance over a half discard the rest. The bounds are sums
of the same rounded terms as the per-voxel values, so the pruned field
is bit-identical to taking every atom over every voxel.

Fields are sampled at voxel centers. A molecule mirror-symmetric about a
grid-aligned plane lands on a symmetric grid here (the box is discretized
symmetrically about its center), so the sampled field inherits the
symmetry bin-exactly; the spectral filter preserves it.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterator

import numpy as np

from .grids import (
    SLAB,
    GridSpec,
    PlaneFeed,
    ScalarField3,
    check_finite,
    check_positive,
    new_file,
    next_smooth,
    slabs,
    write_rows,
)
from .molecule import Molecule

DEFAULT_SPACING = 0.25
DEFAULT_PADDING = 5.0
DEFAULT_BUMP_HEIGHT = 1.0
DEFAULT_BUMP_DECAY = 3.0
DEFAULT_MEM_CAP = 4 * 1024**3

# the initial fields a run can start from, as initial_slabs names them, and
# the isovalue a run of each meshes by default; the swapped binary field is
# the complement of the piecewise one, so its default is the mirrored level
# 1 - 0.9
DEFAULT_ISOVALUES = {"piecewise": 0.9, "gaussian": 0.8, "piecewise-swapped": 0.1}
INIT_KINDS = tuple(DEFAULT_ISOVALUES)

# Estimated peak of a whole CLI run per grid voxel, used only to refuse
# grids before allocating. A run streams the grid in slabs of SLAB axis-0
# planes, so no array the size of the grid is alive: it holds the band of
# bins the filter keeps, a few slabs' arrays (O(n^2) each), and the meshes of
# one time while they grow, plus about 100 B per triangle in mesh_metrics.
# Traced (tracemalloc) peaks of whole runs on seeded globules (bench seed 0):
# 5.7 B/voxel at 135^3 with every writer, 5.2 at 112^3 with gaussian init,
# 11.5 at 108^3 with two times and two isovalues. With eps > 0 the band is
# the whole half spectrum: --epsilon 0.05 --passes 3 with two times at 112^3
# reads 25.2, the most at that size. The slab terms grow as n^2, so small
# grids read more: the three-atom fixture at h = 0.5 (37.8k voxels) reads 42
# with that filter, two times and every writer. 72 stays a flat estimate; a
# model of slabs, band and meshes is an open item.
_BYTES_PER_VOXEL = 72

# the most padded window voxels piecewise_slabs tests in one array batch,
# at about 12 B each while the batch is drawn
_BATCH_VOXELS = 1 << 16

# edge, in voxels, of the smallest boxes gaussian_slabs prunes atoms over,
# whose candidates it evaluates a layer at a time
_LEAF = 4


def check_grid_settings(spacing: float, padding: float) -> None:
    """Raise ValueError unless spacing is positive and padding nonnegative, both finite."""
    check_positive("spacing", spacing)
    if not 0 <= padding < np.inf:
        raise ValueError(f"padding must be nonnegative and finite, got {padding}")


def check_bump_settings(s: float, r_e: float) -> None:
    """Raise ValueError unless the bump height s and decay r_e are positive and finite."""
    check_positive("s", s)
    check_positive("r_e", r_e)


def check_init_kind(kind: str) -> None:
    """Raise ValueError unless kind is one of INIT_KINDS."""
    if kind not in INIT_KINDS:
        raise ValueError(f"init must be one of {INIT_KINDS}, got {kind!r}")


def check_isovalue(kind: str, iso: float) -> None:
    """Raise ValueError unless iso can mesh the initial field of kind, one of INIT_KINDS.

    A binary field (piecewise, piecewise-swapped) lies in [0, 1], so its
    isovalue must lie in (0, 1]; the bumps take any positive and finite one.
    """
    if kind == "gaussian":
        check_positive("isovalue", iso)
    elif not 0.0 < iso <= 1.0:
        raise ValueError(f"isovalue must lie in (0, 1] for binary initial data, got {iso}")


def _check_grid_size(dims, mem_cap_bytes: float | None) -> None:
    # the tests compare Python ints, and a float cap, exactly at any size;
    # the messages' floats may read inf. The need reads two significant
    # digits and the cap as given. The test is "not need <= cap", so a NaN
    # cap is refused
    voxels = math.prod(dims)
    shape = ", ".join(f"{float(n):.7g}" for n in dims)
    if mem_cap_bytes is not None and not voxels * _BYTES_PER_VOXEL <= mem_cap_bytes:
        gib = float(f"{math.prod(map(float, dims)) * _BYTES_PER_VOXEL / 1024**3:.2g}")
        raise ValueError(
            f"grid ({shape}) needs about {gib:g} GiB, "
            f"over the {mem_cap_bytes / 1024**3:g} GiB memory cap"
        )
    if voxels > np.iinfo(np.intp).max // 8:
        raise ValueError(f"grid ({shape}) has more voxels than a float64 array can hold")


def make_grid(
    mol: Molecule,
    spacing: float = DEFAULT_SPACING,
    padding: float = DEFAULT_PADDING,
    mem_cap_bytes: float | None = DEFAULT_MEM_CAP,
) -> GridSpec:
    """Uniform grid covering the molecule's sphere box plus padding.

    Dims are rounded up to {2,3,5,7}-smooth sizes for the FFT stages; the
    rounding grows the box symmetrically about its center (the origin is
    recentered, never clipped). The padding holds off periodic wraparound,
    but not far at 5 Angstrom: tests/golden/fixture.xyzr at the defaults
    meshes to area 264.14 and volume 397.47, 3.3% and 3.6% over 255.81
    and 383.66 at 40 Angstrom (ROADMAP item 1). The memory cap (None or
    inf for none) is checked against the estimated peak of a whole run,
    _BYTES_PER_VOXEL per voxel, on the rounded dims, which the refusal
    names; a NaN cap refuses every grid. With or
    without a cap, more voxels than a float64 array can hold are refused,
    on the sample counts before rounding and on the rounded dims. A span
    whose sample count is not finite raises ValueError.
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
    # no cap on the counts: the refusal names the dims a run would use,
    # and counts past any array are refused before next_smooth sees them
    _check_grid_size(counts, None)
    dims = tuple(next_smooth(n) for n in counts)
    _check_grid_size(dims, mem_cap_bytes)
    origin = tuple(center[a] - (dims[a] - 1) * spacing / 2.0 for a in range(3))
    return GridSpec(origin=origin, spacing=spacing, dims=dims)


def piecewise_slabs(mol: Molecule, grid: GridSpec) -> Iterator[np.ndarray]:
    """The binary field, 0 within any atom sphere and 1 elsewhere, as SLAB-plane slabs.

    A voxel is inside an atom when (dx^2 + dy^2) + dz^2 <= r*r, with its
    grid.axes() coordinates' offsets from the center, so a voxel center
    exactly on a sphere boundary counts as inside. The slabs are
    consecutive along axis 0.

    Each atom is tested over its bounding window only: per axis, the run
    of voxels whose offset on that axis alone passes the test. The atoms
    are drawn in order of their window's first plane into a rolling
    boolean buffer of planes that starts at the current slab and reaches
    as far as the deepest window; the slab is complete, and leaves the
    buffer as a fresh float64 array, once every atom whose window starts
    in it is drawn. So each atom is drawn once and whole.

    A slab's atoms are drawn in array batches. They are ordered by window
    size and cut into runs whose windows, each padded to the run's largest
    extent per axis, hold at most _BATCH_VOXELS voxels together; an atom
    whose window alone is larger is a batch of its own, so an outsized
    atom pads no other. A batch is one test of shape (atom, z, x * y),
    and it writes only False into the buffer, so overlapping windows and
    the drawing order change nothing. Padding adds no voxel either. A
    padded index past the grid is clipped to its last voxel, a real voxel
    tested as itself. A padded voxel inside the grid lies off the atom's
    window on some axis, where its squared offset alone exceeds r*r, and
    a rounded sum of non-negative terms never falls below one of them. So
    the field is bit-identical to testing each atom's window on its own.

    The cost is about 8 ns per padded window voxel plus a few dozen array
    calls per batch, where drawing atom by atom cost about 10 us of calls
    per atom. On seeded globules (bench seed 0) padding adds 9-17% to the
    windows' voxels, and the pass took 7-9 ms instead of 30-36 ms for 3000
    atoms at 108^3 (16 batches), and 0.12-0.15 s instead of 0.27-0.30 s
    for 20000 atoms in a 47 A ball at 270^3 (237 batches). Memory is the
    buffer, SLAB plus one window depth of planes at 1 B per voxel, the
    yielded slab at 8 B per voxel, and one batch at about 12 B per padded
    voxel: under 1 MB at the cap, or more for an atom whose window alone
    is larger.
    """
    h, dims = grid.spacing, grid.dims
    centers, radii = mol.centers, mol.radii
    # each atom's window per axis, [lo, hi), clipped to the grid: the run of
    # voxels whose offset on that axis alone passes the d2 <= r*r test below
    # (d2 is a rounded sum of such squares, so the run holds every voxel the
    # test accepts). Each end lies within one voxel of the rounded index of
    # c -+ r, which far from the origin rounds by more than any fixed slack,
    # so two steps inward from one voxel beyond it find the end
    lo = np.empty((len(radii), 3), dtype=np.int64)
    hi = np.empty_like(lo)
    r2 = radii * radii
    for a in range(3):
        c, o = centers[:, a], grid.origin[a]  # grid.axes() puts voxel i at o + h * i
        first = np.ceil((c - radii - o) / h) - 1
        last = np.floor((c + radii - o) / h) + 1
        for _ in range(2):
            first += (o + h * first - c) ** 2 > r2
            last -= (o + h * last - c) ** 2 > r2
        lo[:, a] = np.clip(first, 0, dims[a])
        hi[:, a] = np.clip(last, -1, dims[a] - 1) + 1
    drawn = np.flatnonzero(np.all(lo < hi, axis=1))
    drawn = drawn[np.argsort(lo[drawn, 0], kind="stable")]
    lo, centers, r2 = lo[drawn], centers[drawn], r2[drawn]
    size = hi[drawn] - lo
    del hi, drawn, first, last  # not kept alive while the slabs are drawn
    axes = grid.axes()
    n0, n1, n2 = dims
    outside = np.ones((SLAB + int(size[:, 0].max(initial=0)), n1, n2), dtype=bool)
    flat = outside.reshape(-1)  # a view
    k = 0
    for base in range(0, n0, SLAB):
        # the atoms whose window starts in this slab, smallest window first
        end = int(np.searchsorted(lo[:, 0], base + SLAB))
        todo = k + np.argsort(np.prod(size[k:end], axis=1), kind="stable")
        k = end
        while todo.size:
            # the longest run whose padded windows fit the cap, or one atom
            pad = np.maximum.accumulate(size[todo], axis=0)
            fill = np.arange(1, len(todo) + 1) * np.prod(pad, axis=1)
            n = max(1, int(np.searchsorted(fill, _BATCH_VOXELS, side="right")))
            batch, todo = todo[:n], todo[n:]
            # per axis, each atom's padded window indices clipped to the grid,
            # and their offsets from its center
            at = [
                np.minimum(lo[batch, a, None] + np.arange(pad[n - 1, a]), dims[a] - 1)
                for a in range(3)
            ]
            dx, dy, dz = (axes[a][at[a]] - centers[batch, a, None] for a in range(3))
            # each padded voxel's test and its index in the buffer, of shape
            # (atom, z, x * y): the long axis innermost
            xy = (dx[:, :, None] ** 2 + dy[:, None, :] ** 2).reshape(n, 1, -1)
            inside = xy + (dz**2)[:, :, None] <= r2[batch, None, None]
            row = (at[0] - base)[:, :, None] * (n1 * n2) + (at[1] * n2)[:, None, :]
            voxel = row.reshape(n, 1, -1) + at[2][:, :, None]
            # compress (nonzero, then take) is faster here than a boolean index
            flat[np.compress(inside.ravel(), voxel)] = False
        yield outside[: min(SLAB, n0 - base)].astype(np.float64)  # 1.0 and 0.0
        outside[:-SLAB] = outside[SLAB:]
        outside[-SLAB:] = True


def gaussian_slabs(
    mol: Molecule,
    grid: GridSpec,
    s: float = DEFAULT_BUMP_HEIGHT,
    r_e: float = DEFAULT_BUMP_DECAY,
) -> Iterator[np.ndarray]:
    """The smooth-bump field as consecutive SLAB-plane slabs.

    The field is the max over atoms of s * exp(-(d^2 - r^2) / r_e^2).

    Computed through the power-distance identity
        max_b exp(-(d_b^2 - r_b^2)/r_e^2) = exp(-min_b(d_b^2 - r_b^2)/r_e^2),
    exact because exp is monotone. One exp over the grid instead of one
    per atom, and the max cannot lose precision to summation order.

    The bumps have unbounded support, but each voxel takes its min over
    only the atoms that can win somewhere near it, found by halving boxes
    of voxels. A voxel's power distance is ((dx^2 + dy^2) + dz^2) - r^2,
    each dx^2 the rounded square of one axis offset, which is monotone in
    |dx|. So over a box, each axis's greatest square is at one of the
    box's end voxels, and its least is that of the centre clipped to the
    box's span. Summed in that same order they round to a lower (upper)
    bound lb (ub) of every voxel's value in the box, since rounded
    addition and subtraction are monotone.

    The pruning starts from one cube of _LEAF * 2^k voxels an edge that
    covers the grid and holds every atom. Each box is cut in half along
    every axis, halves that start past the grid are dropped, and a half
    keeps an atom of its box when the atom's lb over the half is at most
    the least ub over the half among the box's atoms; the halving stops
    at leaves of _LEAF^3 voxels. By induction from the cube, a box keeps
    every atom that attains the minimum at some voxel of it, ties
    included: an atom dropped from a half is beaten at every voxel of
    the half by the box's atom with the least ub over the half, which
    always stays, since its lb is at most its ub. Each survivor's value is computed
    with the same expression from the same grid.axes() coordinates, and a
    min is exact in any order, so the field is bit-identical to a min
    over every atom.

    The boxes of one x range are halved together, depth first and the
    lower x half first, so the leaf layers (_LEAF planes each) arrive in
    x order and fill the slabs. A leaf layer's survivors are evaluated
    with the leaves sorted by candidate count: rank r holds each leaf's
    r-th candidate, and a few array operations of shape (_LEAF, _LEAF,
    _LEAF, leaves) evaluate a whole rank. Each axis is padded to whole
    leaves by repeating its last coordinate, which changes no min or
    max; padded voxels are cropped.

    The cost is the (box, atom) pairs the halving tests plus the
    candidates times the voxels. On seeded globules (bench seed 0), 300
    atoms at 112^3 keep 5.13 candidates per leaf (at most 14): 7.2M
    atom-voxel values where every atom takes 421M. 3000 atoms at 108^3
    keep 15.1 per leaf (at most 36), 19.0M values, and 20000 atoms in a
    47 A ball at 270^3 keep 9.85 (at most 36). Memory is the slab, the pair arrays of
    the pending halves, the bounds of one x half's pairs, and four arrays
    of one leaf layer, none of them the size of the grid. Traced peaks
    while the slabs are consumed one at a time: 2.7 B/voxel (3.7 MB) for
    300 atoms at 112^3, 5.8 (7.3 MB) for 3000 atoms at 108^3 and 2.2 (43
    MB) for 20000 atoms at 270^3. rasterize("gaussian", ...), which
    assembles the field, peaks at 10.7, 13.8 and 10.2.
    """
    check_bump_settings(s, r_e)
    dims, centers = grid.dims, mol.centers.T
    r2 = mol.radii * mol.radii
    # voxel centres per axis, padded to whole leaves by repeating the last
    # one (a repeated point moves no min or max), shape (leaf voxel, leaf)
    leaf_pts = [
        np.ascontiguousarray(np.concatenate([x, np.repeat(x[-1], -x.size % _LEAF)]).reshape(-1, _LEAF).T)
        for x in grid.axes()
    ]
    leaves = [q.shape[1] for q in leaf_pts]  # per axis
    n_leaves = leaves[1:]  # per leaf layer, per axis
    n_layer = n_leaves[0] * n_leaves[1]

    def extremes(a, box, m, c):
        # least and greatest rounded (x - c)^2 over each box of m leaves
        # along axis a. Over the box the rounded x - c runs from lo = x_lo - c
        # up to -hi, hi = c - x_hi, and its rounded square is monotone in
        # |x - c|: the greatest is min(lo, hi)^2, the least max(lo, hi, 0)^2.
        # A box that starts past the axis gets an infinite least, which
        # fails every test
        lo = leaf_pts[a][0].take(box * m, mode="clip") - c
        hi = c - leaf_pts[a][-1].take(box * m + m - 1, mode="clip")
        far = np.square(np.minimum(lo, hi))
        near = np.square(np.maximum(np.maximum(lo, hi), 0.0))
        near[box * m >= leaves[a]] = np.inf
        return near, far

    def halve(m, i, box, atoms):
        # the (yz box, atom) pairs of x box i, m leaves wide: each pair's yz
        # box of 2m leaves is cut in half along y and z, and a half keeps the
        # atom when its lb over the half is at most the least ub over the
        # half among its box's atoms. Boxes are numbered as leaves are, and
        # a box's pairs are contiguous
        by, bz = np.divmod(box, n_leaves[1])
        starts = np.flatnonzero(np.r_[True, box[1:] != box[:-1]])
        sizes = np.diff(starts, append=len(box))
        near0, far0 = (q[atoms] for q in extremes(0, i, m, centers[0]))
        halves = [[0], [1]]  # lower and upper, against the pair axis
        near1, far1 = extremes(1, 2 * by + halves, m, centers[1][atoms])
        near2, far2 = extremes(2, 2 * bz + halves, m, centers[2][atoms])
        r2_pair = r2[atoms]
        # shape (y half, z half, pair)
        ub = ((far0 + far1[:, None]) + far2) - r2_pair
        least = np.repeat(np.minimum.reduceat(ub, starts, axis=2), sizes, axis=2)
        del ub
        lb = ((near0 + near1[:, None]) + near2) - r2_pair
        v, w, p = np.unravel_index(np.flatnonzero(lb <= least), lb.shape)
        return (2 * by[p] + v) * n_leaves[1] + 2 * bz[p] + w, atoms[p]

    def leaf_layers():
        # depth first over x halves, the lower first, from one cube of m
        # leaves holding the grid and every atom: an entry is an x box
        # with its parent's pairs, tested when it is taken
        m = 1 << (max(leaves) - 1).bit_length()
        stack = [(m, 0, np.zeros(len(r2), dtype=np.intp), np.arange(len(r2)))]
        while stack:
            m, i, box, atoms = stack.pop()
            box, atoms = halve(m, i, box, atoms)
            if m == 1:
                yield box, atoms
                continue
            for half in (2 * i + 1, 2 * i):
                if half * (m // 2) < leaves[0]:
                    stack.append((m // 2, half, box, atoms))

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

    layers = leaf_layers()
    for base in range(0, dims[0], SLAB):
        # the slab's leaf layers arrive in x order: each voxel is set once
        power = np.empty((min(SLAB, dims[0] - base),) + dims[1:])
        for lo in range(0, len(power), _LEAF):
            fill_layer(power[lo : lo + _LEAF], base + lo, *next(layers))
        # s * exp(-power / r_e^2), operation for operation, in place
        np.negative(power, out=power)
        power /= r_e * r_e
        np.exp(power, out=power)
        power *= s
        yield power
        del power  # before the next slab is allocated


def initial_slabs(
    kind: str,
    mol: Molecule,
    grid: GridSpec,
    s: float = DEFAULT_BUMP_HEIGHT,
    r_e: float = DEFAULT_BUMP_DECAY,
) -> Iterator[np.ndarray]:
    """The initial field of one of INIT_KINDS as consecutive SLAB-plane slabs.

    piecewise-swapped is the complement of piecewise, 1 - slab; only the
    gaussian kind reads the bump height s and decay r_e.
    """
    check_init_kind(kind)
    if kind == "gaussian":
        return gaussian_slabs(mol, grid, s=s, r_e=r_e)
    parts = piecewise_slabs(mol, grid)
    if kind == "piecewise-swapped":
        return (1.0 - part for part in parts)
    return parts


def rasterize(
    kind: str,
    mol: Molecule,
    grid: GridSpec,
    s: float = DEFAULT_BUMP_HEIGHT,
    r_e: float = DEFAULT_BUMP_DECAY,
) -> ScalarField3:
    """The initial field of one of INIT_KINDS, assembled from initial_slabs."""
    return ScalarField3.from_slabs(grid, initial_slabs(kind, mol, grid, s, r_e))


class VolumeWriter:
    """A volume file written from consecutive slabs of axis-0 planes, as a context manager.

    A path ending in .raw, in any case, gets a small self-describing
    binary dump: dims as 3 int64, origin as 3 float64 and spacing as 1
    float64, then the values as float64 with z fastest, all
    little-endian. Any other path gets an OpenDX scalar map (the
    electrostatics-tool layout): gridpositions counts, origin, three
    axis-aligned deltas and gridconnections, then the values three to a
    line with z fastest, then the field trailer. The OpenDX rows may span
    two slabs, so the one or two values left at the end of a slab are
    carried to the next. No value is scanned: callers refuse a NaN or an
    infinity first. A normal exit finishes the file, and any failure
    removes it.
    """

    def __init__(self, grid: GridSpec, path):
        self.grid, self.raw = grid, str(path).lower().endswith(".raw")
        self._feed = PlaneFeed(grid.dims)
        self._carry = np.empty(0)
        if self.raw:
            header = b"".join([
                np.asarray(grid.dims, dtype="<i8").tobytes(),
                np.asarray(grid.origin, dtype="<f8").tobytes(),
                np.float64(grid.spacing).astype("<f8").tobytes(),
            ])
        else:
            nx, ny, nz = grid.dims
            h = grid.spacing
            ox, oy, oz = grid.origin
            lines = [
                f"object 1 class gridpositions counts {nx} {ny} {nz}",
                f"origin {ox:.6e} {oy:.6e} {oz:.6e}",
                f"delta {h:.6e} 0.000000e+00 0.000000e+00",
                f"delta 0.000000e+00 {h:.6e} 0.000000e+00",
                f"delta 0.000000e+00 0.000000e+00 {h:.6e}",
                f"object 2 class gridconnections counts {nx} {ny} {nz}",
                f"object 3 class array type double rank 0 items {nx * ny * nz} data follows",
            ]
            header = ("\n".join(lines) + "\n").encode()
        # new_file removes the file on a failure, from the header on
        with contextlib.ExitStack() as stack:
            self._fh = stack.enter_context(new_file(path))
            self._fh.write(header)
            self._file = stack.pop_all()

    def write(self, slab: np.ndarray) -> None:
        self._feed.add(slab)
        if self.raw:
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
        if kind is not None:  # new_file removes the file
            return self._file.__exit__(kind, exc, tb)
        with self._file:  # and removes it if finishing fails
            self._feed.finish()
            if not self.raw:
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
                self._fh.write(("\n".join(trailer) + "\n").encode())
            self._fh.close()  # closing flushes, and can fail too


def write_volume(field: ScalarField3, path) -> None:
    """Write the field to path in VolumeWriter's format for it.

    A field with a NaN or an infinity is refused before the file is opened.
    """
    check_finite(field.min, field.max)
    with VolumeWriter(field.grid, path) as writer:
        for slab in slabs(field.values):
            writer.write(slab)
