"""Discrete Clifford-Fourier transforms and the spectral derivative operators.

A multivector field over R^3 packs into four classical complex signals,
pairing each blade with the blade it lands on under left multiplication
by the central pseudoscalar i3 = e123:

    c0 = F_1   + i F_123     (i3 * 1  = e123)
    c1 = F_e1  + i F_e23     (i3 * e1 = e23)
    c2 = F_e2  + i F_e31     (i3 * e2 = e31)
    c3 = F_e3  + i F_e12     (i3 * e3 = e12)

so the 3D transform with kernel exp(-i3 <w, x>) is exactly one standard
complex DFT per channel, with i3 in the role of the imaginary unit. The
forward transform is unnormalized; the 1/N factor lives entirely in the
inverse, matching the usual FFT library convention.

Both ranks follow one rule (see the ga module): a grade-r blade commutes
with the pseudoscalar I_k of R_k exactly when (k - 1) * r is even. So i3
is central, but in the plane i2 = e12 is not, and the field splits into
the part that commutes with i2 (blades 1, e12, packed as
c0 = F_1 + i F_e12) and the part that anticommutes (blades e1, e2,
packed with e1 factored out on the left: c1 = F_e1 + i F_e2). The
planar forward kernel is oriented as exp(+i2 <w, x>); under that
orientation the gradient takes the minus-sign symbol -i2 w on the
anticommuting part and +i2 w on the commuting part, and no
single-signed symbol reproduces the gradient on mixed fields.

Wavenumbers are angular (rad per length unit), w_i = 2*pi*k_i/(N_i h),
from grids.w_axes; spectral symbols below are written directly in these
w_i, and the odd ones zero the even-N Nyquist bins (_odd_w_meshes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ga import _algebra, _commutation_split, geometric_product_field
from .grids import GridSpec, GridSpec2, ScalarField3, read_only, squared_norm, w_axes

# (real blade, imaginary blade) per channel, by the algebra's blade count
_CHANNELS = {8: ((0, 7), (1, 5), (2, 6), (3, 4)), 4: ((0, 3), (1, 2))}


@dataclass(frozen=True, eq=False)
class _MultivectorField:
    """Per-sample multivector coefficients on a grid of rank k: data shape grid.dims + (2**k,).

    data is a read-only view of a float64 input, not a snapshot (other
    dtypes are converted once): writing to the caller's array afterwards
    changes the field.
    """

    grid: GridSpec | GridSpec2
    data: np.ndarray

    def __post_init__(self):
        d = read_only(self.data)
        if d.shape != self.grid.dims + (2 ** len(self.grid.dims),):
            raise ValueError(
                f"dimension mismatch between grid and data: "
                f"data shape {d.shape}, grid dims {self.grid.dims}"
            )
        object.__setattr__(self, "data", d)


class MultivectorField3(_MultivectorField):
    """Per-voxel Multivector3 coefficients on a GridSpec.

    data has shape grid.dims + (8,), blade order as in the ga module.
    The same type carries spatial samples and spectra; a spectrum is just
    the multivector whose channel pairs hold the complex bin values.
    """

    @classmethod
    def from_scalar_field(cls, f: ScalarField3) -> "MultivectorField3":
        data = np.zeros(f.grid.dims + (8,))
        data[..., 0] = f.values
        return cls(f.grid, data)

    def scalar_part(self) -> ScalarField3:
        return ScalarField3(self.grid, self.data[..., 0])


class MultivectorField2(_MultivectorField):
    """Per-pixel Multivector2 coefficients on a GridSpec2, data shape grid.dims + (4,)."""


def _channel_pairs(dim: int, blades: int) -> tuple:
    """The channel pairs of R^dim, for data of its 2**dim blades; refuses other counts."""
    n = len(_algebra(dim)._NAMES)
    if blades != n:
        raise ValueError(f"R^{dim} has {n} blades, got {blades}")
    return _CHANNELS[n]


def pack_channels(data: np.ndarray, dim: int = 3) -> list[np.ndarray]:
    """Blade coefficients -> complex channel arrays. Exact bijection with unpack."""
    pairs = _channel_pairs(dim, data.shape[-1])
    return [data[..., re] + 1j * data[..., im] for re, im in pairs]


def unpack_channels(channels, dim: int = 3) -> np.ndarray:
    """Complex channel arrays -> blade coefficients."""
    pairs = _channel_pairs(dim, 2 * len(channels))
    out = np.empty(channels[0].shape + (2 * len(pairs),))
    for (re, im), c in zip(pairs, channels):
        out[..., re] = c.real
        out[..., im] = c.imag
    return out


def cft3_forward(field: MultivectorField3) -> MultivectorField3:
    """Forward 3D transform, kernel exp(-i3 <w, x>), unnormalized.

    Linear in the field; equals one classical complex DFT per packed
    channel with i3 as the imaginary unit.
    """
    channels = [np.fft.fftn(c, axes=(0, 1, 2)) for c in pack_channels(field.data)]
    return MultivectorField3(field.grid, unpack_channels(channels))


def cft3_inverse(field: MultivectorField3) -> MultivectorField3:
    """Inverse 3D transform; carries the 1/(nx*ny*nz) normalization."""
    channels = [np.fft.ifftn(c, axes=(0, 1, 2)) for c in pack_channels(field.data)]
    return MultivectorField3(field.grid, unpack_channels(channels))


def _fft2_conjugate(c: np.ndarray) -> np.ndarray:
    # sum_x c(x) exp(+i w.x): conjugate sandwich around the stock forward FFT
    return np.conj(np.fft.fft2(np.conj(c)))


def _ifft2_conjugate(c: np.ndarray) -> np.ndarray:
    # (1/N) sum_w c(w) exp(-i w.x)
    return np.conj(np.fft.ifft2(np.conj(c)))


def cft2_forward(field: MultivectorField2) -> MultivectorField2:
    """Forward planar transform, kernel oriented exp(+i2 <w, x>), unnormalized.

    The orientation is the one under which the split gradient rule carries
    the minus sign on the anticommuting (vector) part; see the module
    docstring. Round trip, linearity, and Parseval are orientation-blind.
    """
    channels = [_fft2_conjugate(c) for c in pack_channels(field.data, dim=2)]
    return MultivectorField2(field.grid, unpack_channels(channels, dim=2))


def cft2_inverse(field: MultivectorField2) -> MultivectorField2:
    """Inverse planar transform with the 1/(nx*ny) normalization."""
    channels = [_ifft2_conjugate(c) for c in pack_channels(field.data, dim=2)]
    return MultivectorField2(field.grid, unpack_channels(channels, dim=2))


def _odd_w_meshes(grid: GridSpec | GridSpec2) -> list[np.ndarray]:
    """Sparse wavenumber meshes for an odd symbol, each unpaired even-N Nyquist bin zeroed."""
    axes = w_axes(grid)
    for w in axes:
        if w.size % 2 == 0:
            w[w.size // 2] = 0.0
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _pseudoscalar_w_symbol(grid: GridSpec | GridSpec2) -> np.ndarray:
    """The multivector symbol I_k*w as a grid.dims + (2**k,) array, k the grid's rank.

    Built through the blade product table rather than by hand so the
    channel pairing stays correct by construction. The Nyquist bins are
    zeroed: the symbol is odd in w and an unpaired bin would otherwise
    leak imaginary parts into real fields.
    """
    rank = len(grid.dims)
    wvec = np.zeros(grid.dims + (2**rank,))
    for axis, w in enumerate(_odd_w_meshes(grid)):
        wvec[..., 1 + axis] = w  # slots 1 .. k hold e1 .. ek
    i_k = np.zeros(2**rank)
    i_k[-1] = 1.0
    return geometric_product_field(i_k, wvec, dim=rank)


def spectral_gradient3(field: MultivectorField3) -> MultivectorField3:
    """Vector derivative of a periodic field via the spectral symbol i3*w.

    Forward transform, left-multiply every bin by i3*w (geometric
    product), inverse transform. With angular wavenumbers the kernel's
    2*pi lives inside w, so the symbol carries no explicit 2*pi factor.
    """
    spec = cft3_forward(field)
    ghat = geometric_product_field(_pseudoscalar_w_symbol(field.grid), spec.data)
    return cft3_inverse(MultivectorField3(field.grid, ghat))


def spectral_laplacian3(field: MultivectorField3, order_j: int = 1) -> MultivectorField3:
    """Apply the 2j-th order Laplacian power: spectral symbol (-w^2)^j.

    The symbol is even in w, scalar-valued, and multiplies all blade
    channels alike; Nyquist bins keep their full weight. order_j = 1
    agrees with applying spectral_gradient3 twice on scalar inputs.
    """
    j = int(order_j)
    if j < 1:
        raise ValueError(f"order_j must be a positive integer, got {order_j}")
    mult = (-squared_norm(w_axes(field.grid))) ** j
    spec = cft3_forward(field)
    return cft3_inverse(MultivectorField3(field.grid, spec.data * mult[..., None]))


def spectral_gradient2_split(field: MultivectorField2) -> MultivectorField2:
    """Planar vector derivative via the two-sided sign rule.

    The commuting part of the spectrum is multiplied by +i2*w, the
    anticommuting part by -i2*w, and the parts are summed before the
    inverse transform. The split is essential: no single choice of sign
    reproduces the gradient of a mixed-grade field (the two pure-grade
    rules are incompatible), which spectral_gradient2_single_sign lets
    callers demonstrate.
    """
    symbol = _pseudoscalar_w_symbol(field.grid)
    spec = cft2_forward(field)
    com, anti = _commutation_split(spec.data, 2)
    ghat = geometric_product_field(symbol, com, dim=2) - geometric_product_field(
        symbol, anti, dim=2
    )
    return cft2_inverse(MultivectorField2(field.grid, ghat))


def spectral_gradient2_single_sign(field: MultivectorField2, sign: int) -> MultivectorField2:
    """Apply sign * i2 * w to the whole spectrum, no commutation split.

    Correct only on pure-grade fields (sign=+1 for commuting inputs,
    sign=-1 for anticommuting ones); on mixed fields it provably differs
    from the true gradient. Kept public as the witness of that fact.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    symbol = float(sign) * _pseudoscalar_w_symbol(field.grid)
    spec = cft2_forward(field)
    ghat = geometric_product_field(symbol, spec.data, dim=2)
    return cft2_inverse(MultivectorField2(field.grid, ghat))
