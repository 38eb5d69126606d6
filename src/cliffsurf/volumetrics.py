"""Grid construction around a molecule, initial-data rasterization, volume export.

Two initial fields drive the smoothing pipeline:

* piecewise: 0 inside the union of atom spheres (boundary included),
  1 outside. Binary, so every later smoothness is the filter's doing.
* smooth bumps: pointwise maximum over atoms of
  s * exp(-(|r - c|^2 - r_atom^2) / r_e^2), equal to s exactly on each
  isolated sphere surface and decaying with distance beyond it.

Fields are sampled at voxel centers. A molecule mirror-symmetric about a
grid-aligned plane lands on a symmetric grid here (the box is discretized
symmetrically about its center), so the sampled field inherits the
symmetry bin-exactly; the spectral filter preserves it.
"""

from __future__ import annotations

import numpy as np

from .grids import GridSpec, ScalarField3, next_smooth, write_rows
from .molecule import Molecule

DEFAULT_SPACING = 0.25
DEFAULT_PADDING = 5.0
DEFAULT_BUMP_HEIGHT = 1.0
DEFAULT_BUMP_DECAY = 3.0
DEFAULT_MEM_CAP = 4 * 1024**3

# Traced (tracemalloc) peak of a whole CLI run per grid voxel. Times run one
# at a time, so at most the real-FFT half spectrum (8 B/voxel, freed once the
# last time is filtered) and one filtered field (8) sit next to the filter's
# buffers or the surface stage's scratch. Extraction needs a few B per cell
# (sign mask, uint8 case index) plus arrays per triangle corner; the peak of
# the surface stage is mesh_metrics, whose arrays grow with the triangles.
# Seeded globules (bench seed 0): 29 B/voxel for 300 atoms at 135^3, 32 at
# 112^3 (the gaussian rasterizer's peak), 50 for 3000 atoms and two times
# (108^3); 72 keeps 44% over that. A CLI run holds one mesh at a time, so its peak
# stops growing with the (t, isovalue) pairs (three-atom fixture at h = 0.25,
# every writer: 46, 54, 54, 54 with 1, 2, 6, 12 times); only sweep(), which
# returns its meshes, adds a few B/voxel per pair (46, 54, 60, 70). A few MB
# do not scale with the grid (the fixture at h = 0.5, 37.8k voxels, two
# times, peaks at 69). Used only to refuse grids before allocating.
_BYTES_PER_VOXEL = 72


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
    per voxel.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if padding < 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    lo, hi = mol.bounding_box()
    lo = lo - padding
    hi = hi + padding
    center = (lo + hi) / 2.0
    dims = []
    for span in hi - lo:
        # smallest sample count covering the span, robust to float fuzz
        n = int(np.ceil(span / spacing - 1e-9)) + 1
        dims.append(next_smooth(max(n, 2)))
    dims = tuple(dims)
    need = int(np.prod(dims)) * _BYTES_PER_VOXEL
    if mem_cap_bytes is not None and need > mem_cap_bytes:
        raise ValueError(
            f"grid {dims} needs about {need / 1024**3:.1f} GiB, "
            f"over the {mem_cap_bytes / 1024**3:.1f} GiB memory cap"
        )
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
        block = values[sl[0], sl[1], sl[2]]
        block[inside] = 0.0
        values[sl[0], sl[1], sl[2]] = block
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
    Every atom contributes over the whole grid (the bumps have unbounded
    support), so cost is O(atoms * grid).
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not r_e > 0:
        raise ValueError(f"r_e must be positive, got {r_e}")
    X, Y, Z = grid.meshes(sparse=True)
    power = np.full(grid.dims, np.inf)
    for atom in mol.atoms:
        c, r = atom.center, atom.radius
        d2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2
        np.minimum(power, d2 - r * r, out=power)
    return ScalarField3(grid, s * np.exp(-power / (r_e * r_e)))


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
            fh.write(" ".join(f"{v:.6e}" for v in flat[full:]) + "\n")
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
