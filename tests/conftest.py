"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths under test: the
geometric product is checked against 2x2 matrix representations, the
transforms against direct-sum DFTs built from explicit kernel matrices,
the filter against finite-difference time stepping, the one-transform
mode decomposition against filtering each residue anew, marching cubes
against its former per-cell loop, the mesh metrics' edge table against
a dict of edges, the gaussian rasterizer against its former loop over
every atom, the piecewise rasterizer against its former loop over each
atom's window, and the array text formatter against Python's `%`.
"""

import errno

import numpy as np
import pytest

from cliffsurf import grids
from cliffsurf.ga import BLADE_NAMES_2, BLADE_NAMES_3
from cliffsurf.grids import SLAB, GridSpec, ScalarField3
from cliffsurf.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from cliffsurf.molecule import parse_xyzr
from cliffsurf.pdefilter import frequency_response
from cliffsurf.surface import TriangleMesh

# ---------------------------------------------------------------------------
# geometric product oracle: blades as 2x2 matrices
#
# The degree-3 algebra is isomorphic to complex 2x2 matrices via the Pauli
# map e_j -> sigma_j; the degree-2 algebra to real 2x2 matrices via
# e1 -> diag(1,-1), e2 -> antidiag(1,1). Multivector multiplication becomes
# plain matrix multiplication, which shares no code with the table-driven
# product under test.

_PAULI = {
    "1": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "2": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "3": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_REAL2 = {
    "1": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "2": np.array([[0.0, 1.0], [1.0, 0.0]]),
}


def _name_to_matrix(name, table):
    m = np.eye(2, dtype=table["1"].dtype)
    if name != "1":
        for ch in name.lstrip("e"):
            m = m @ table[ch]
    return m


_BASIS_MATS_3 = [_name_to_matrix(n, _PAULI) for n in BLADE_NAMES_3]
_BASIS_MATS_2 = [_name_to_matrix(n, _REAL2) for n in BLADE_NAMES_2]

# coefficients are recovered by solving the (invertible) linear map
# coeffs -> stacked real and imaginary matrix entries
_UNMAP_3 = np.linalg.inv(
    np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in _BASIS_MATS_3]).T
)
_UNMAP_2 = np.linalg.inv(np.array([m.ravel() for m in _BASIS_MATS_2]).T)


def matrix_gp_oracle(a_coeffs, b_coeffs, dim=3):
    """Geometric product of coefficient vectors via matrix representation."""
    mats = _BASIS_MATS_3 if dim == 3 else _BASIS_MATS_2
    ma = sum(c * m for c, m in zip(np.asarray(a_coeffs, dtype=float), mats))
    mb = sum(c * m for c, m in zip(np.asarray(b_coeffs, dtype=float), mats))
    prod = ma @ mb
    if dim == 3:
        return _UNMAP_3 @ np.concatenate([prod.real.ravel(), prod.imag.ravel()])
    return _UNMAP_2 @ prod.ravel()


# ---------------------------------------------------------------------------
# transform oracles: direct-sum DFT from explicit kernel matrices


def _kernel_matrix(n, sign):
    idx = np.arange(n)
    return np.exp(sign * 2.0j * np.pi * np.outer(idx, idx) / n)


def naive_dft3(channel, sign=-1):
    """O(N^2) separable DFT of one complex channel, forward kernel sign -1."""
    ka, kb, kc = (_kernel_matrix(n, sign) for n in channel.shape)
    return np.einsum("ia,jb,kc,abc->ijk", ka, kb, kc, channel)


def naive_dft2(channel, sign=+1):
    """O(N^2) separable DFT of one complex channel, forward kernel sign +1."""
    ka, kb = (_kernel_matrix(n, sign) for n in channel.shape)
    return np.einsum("ia,jb,ab->ij", ka, kb, channel)


def loop_dft3(channel, sign=-1):
    """Literal triple-sum DFT, no vectorization; validates naive_dft3 itself."""
    na, nb, nc = channel.shape
    out = np.zeros_like(channel, dtype=complex)
    for i in range(na):
        for j in range(nb):
            for k in range(nc):
                acc = 0.0j
                for a in range(na):
                    for b in range(nb):
                        for c in range(nc):
                            phase = sign * 2.0j * np.pi * (i * a / na + j * b / nb + k * c / nc)
                            acc += channel[a, b, c] * np.exp(phase)
                out[i, j, k] = acc
    return out


# ---------------------------------------------------------------------------
# finite-difference helpers (periodic, fourth order)

_LAP_STENCIL = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])
_GRAD_STENCIL = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])


def fd_laplacian(values, spacing):
    out = np.zeros_like(values)
    for axis in range(values.ndim):
        for offset, w in zip((-2, -1, 0, 1, 2), _LAP_STENCIL):
            out += w * np.roll(values, -offset, axis=axis)
    return out / spacing**2


def fd_partial(values, axis, spacing):
    out = np.zeros_like(values)
    for offset, w in zip((-2, -1, 0, 1, 2), _GRAD_STENCIL):
        out += w * np.roll(values, -offset, axis=axis)
    return out / spacing


def heat_rk4(values, spacing, t_final, steps):
    """Explicit RK4 integration of du/dt = laplacian(u), periodic box."""
    u = values.astype(float).copy()
    dt = t_final / steps
    for _ in range(steps):
        k1 = fd_laplacian(u, spacing)
        k2 = fd_laplacian(u + 0.5 * dt * k1, spacing)
        k3 = fd_laplacian(u + 0.5 * dt * k2, spacing)
        k4 = fd_laplacian(u + dt * k3, spacing)
        u += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def response_rk4(w2, params, steps=1000):
    """Per-bin RK4 for dg/dt = -(P + eps) g + eps, g(0) = 1.

    Independent route to the closed-form frequency response for any order.
    """
    w2 = np.asarray(w2, dtype=float)
    p = np.zeros_like(w2)
    for d in reversed(params.d):
        p = (p + d) * w2
    rate = p + params.epsilon

    def f(g):
        return -rate * g + params.epsilon

    g = np.ones_like(w2)
    dt = params.t / steps
    for _ in range(steps):
        k1 = f(g)
        k2 = f(g + 0.5 * dt * k1)
        k3 = f(g + 0.5 * dt * k2)
        k4 = f(g + dt * k3)
        g += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return g


def mode_decompose_per_residue(X, per_pass):
    """Peel-off modes by filtering each residue anew: mode k is the low
    pass of X minus the modes before it, each through a full rfftn, gain
    and irfftn. Returns the modes and the final residue."""
    w2 = grids.squared_norm(grids.w_axes(X.grid, half=True))
    modes = []
    residue = X.values
    for params in per_pass:
        spectrum = np.fft.rfftn(residue) * frequency_response(params, w2)
        mode = np.fft.irfftn(spectrum, s=X.grid.dims, axes=(0, 1, 2))
        modes.append(mode)
        residue = residue - mode
    return modes, residue


# ---------------------------------------------------------------------------
# output format readers (independent of the writers)


def read_obj(path):
    vertices, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return np.array(vertices), np.array(faces, dtype=int)


def read_off(path):
    with open(path) as fh:
        tokens = fh.read().split()
    assert tokens[0] == "OFF"
    nv, nf, ne = int(tokens[1]), int(tokens[2]), int(tokens[3])
    flat = tokens[4:]
    vertices = np.array(flat[: 3 * nv], dtype=float).reshape(nv, 3)
    faces = []
    pos = 3 * nv
    for _ in range(nf):
        cnt = int(flat[pos])
        faces.append([int(v) for v in flat[pos + 1 : pos + 1 + cnt]])
        pos += 1 + cnt
    return vertices, np.array(faces, dtype=int), ne


def read_dx(path):
    dims = origin = deltas = None
    data = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "object" and "gridpositions" in parts:
                dims = tuple(int(p) for p in parts[-3:])
            elif parts[0] == "origin":
                origin = tuple(float(p) for p in parts[1:4])
            elif parts[0] == "delta":
                deltas = (deltas or []) + [[float(p) for p in parts[1:4]]]
            elif parts[0] in ("object", "attribute", "component"):
                continue
            else:
                data.extend(float(p) for p in parts)
    values = np.array(data).reshape(dims)  # z fastest
    return dims, origin, np.array(deltas), values


def read_raw(path):
    with open(path, "rb") as fh:
        dims = np.fromfile(fh, dtype="<i8", count=3)
        origin = np.fromfile(fh, dtype="<f8", count=3)
        spacing = np.fromfile(fh, dtype="<f8", count=1)[0]
        values = np.fromfile(fh, dtype="<f8").reshape(tuple(dims))
    return tuple(dims), tuple(origin), spacing, values


# ---------------------------------------------------------------------------
# marching-cubes oracle: the per-cell loop

def marching_cubes_loop(field, isovalue):
    """Per-cell marching cubes with a dict weld: the oracle of the array code.

    The package's extraction loop before surface.marching_cubes became
    array code, verbatim but for its name, this docstring and the
    ambiguous-face vote, deleted from both since: one Python
    iteration per active cell, vertices welded through a dict keyed by the
    sorted pair of flat grid indices. It pins the triangles, the emission
    order and the vertex numbering.
    """
    iso = float(isovalue)
    if not np.isfinite(iso):
        raise ValueError(f"isovalue must be finite, got {isovalue}")
    values = field.values
    vmin, vmax = values.min(), values.max()
    grids.check_finite(vmin, vmax)
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
        row = TRI_TABLE[c]
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
        # positive enclosed volume).
        for s in range(0, int((row >= 0).sum()), 3):
            a, b, c3 = (cell_vertex[int(row[s + o])] for o in range(3))
            tri_rows.append((a, c3, b))

    return TriangleMesh(
        vertices=np.array(positions), triangles=np.array(tri_rows, dtype=np.int64)
    )


# ---------------------------------------------------------------------------
# mesh edge oracle: a dict from undirected edge to the faces using it


def edge_faces(triangles):
    """Map each sorted vertex pair to the faces that use it, in slot order.

    Slot s is side s // F of face s % F, the sides being (0, 1), (1, 2)
    and (2, 0); a face lists once per side it has on the edge. The number
    of keys is E, the one-face edges are the boundary, and the two-face
    edges are the pairs the dihedral scan compares.
    """
    rows = [tuple(int(v) for v in row) for row in triangles]
    faces = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        for f, row in enumerate(rows):
            a, b = row[i], row[j]
            faces.setdefault((min(a, b), max(a, b)), []).append(f)
    return faces


# ---------------------------------------------------------------------------
# gaussian rasterization oracle: every atom over the whole grid


def rasterize_gaussian_all_atoms(mol, grid, s=1.0, r_e=3.0):
    """Smooth-bump field with every atom taken over every voxel.

    The package's gaussian rasterizer before it pruned atoms per voxel
    block, verbatim but for its name, this docstring and its loop header,
    which reads the molecule's center and radius arrays: cost atoms x
    voxels, three full-grid temporaries per atom. It pins the field bit
    for bit.
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not r_e > 0:
        raise ValueError(f"r_e must be positive, got {r_e}")
    X, Y, Z = grid.meshes(sparse=True)
    power = np.full(grid.dims, np.inf)
    for c, r in zip(mol.centers.tolist(), mol.radii.tolist()):
        d2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2
        np.minimum(power, d2 - r * r, out=power)
    return ScalarField3(grid, s * np.exp(-power / (r_e * r_e)))


# ---------------------------------------------------------------------------
# piecewise rasterization oracle: one atom at a time


def piecewise_slabs_per_atom(mol, grid):
    """The binary field's slabs with each atom's window tested on its own.

    The package's piecewise_slabs before it drew atoms in array batches,
    verbatim but for its name, this docstring and its signature's
    annotations: a Python loop over the atoms in order of their window's
    first plane, about 10 us of numpy calls each. It pins the slabs bit
    for bit.
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
    depth = SLAB + int((hi[drawn, 0] - lo[drawn, 0]).max(initial=0))
    # per drawn atom, in drawing order, as Python numbers for the loop
    atoms = list(zip(lo[drawn].tolist(), hi[drawn].tolist(), centers[drawn].tolist(),
                     radii[drawn].tolist()))
    del lo, hi, r2, drawn, first, last  # not kept alive while the slabs are drawn
    axes = grid.axes()
    n0, n1, n2 = dims
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


# ---------------------------------------------------------------------------
# text-row oracle: one Python `%` per chunk of rows


def write_rows_percent(fh, row_format, rows):
    """Write every row of a 2D array through one printf-style row template.

    The package's write_rows before it formatted arrays, verbatim but for
    its name and this docstring: Python's `%` on the template repeated
    once per row of the chunk. Python rounds %.6e and %.6f correctly, as
    C printf does, so this pins the text byte for byte.
    """
    for start in range(0, len(rows), grids._ROWS_PER_WRITE):
        block = rows[start : start + grids._ROWS_PER_WRITE]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# a file handle on a full disk


class FullDisk:
    """A file handle whose writes (fail "write") or close (fail "close") raise ENOSPC."""

    def __init__(self, fh, fail):
        self.fh, self.fail = fh, fail

    def _raise(self, call):
        if call == self.fail:
            raise OSError(errno.ENOSPC, "No space left on device")

    def write(self, data):
        self._raise("write")
        return self.fh.write(data)

    def close(self):
        self.fh.close()
        self._raise("close")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# fixtures

THREE_ATOM_XYZR = "0.0 0.0 1.8 1.8\n0.0 0.0 -1.8 1.8\n0.0 3.12 0.0 1.8\n"


@pytest.fixture
def three_atoms():
    return parse_xyzr(THREE_ATOM_XYZR)


@pytest.fixture
def three_atom_file(tmp_path):
    path = tmp_path / "three.xyzr"
    path.write_text(THREE_ATOM_XYZR)
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def sphere_distance_field(radius, spacing, pad=1.2):
    """Distance-to-origin field on a symmetric grid covering the sphere."""
    half = radius + pad
    n = 2 * int(np.ceil(half / spacing)) + 1
    origin = (-spacing * (n - 1) / 2.0,) * 3
    grid = GridSpec(origin=origin, spacing=spacing, dims=(n, n, n))
    x, y, z = grid.meshes()
    return ScalarField3(grid, np.sqrt(x * x + y * y + z * z))
