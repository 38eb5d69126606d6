"""Closed-form spectral solution of a high-order linear smoothing PDE.

The evolution  du/dt = sum_j (-1)^(j+1) d_j laplacian^j u + eps (X - u)
diagonalizes over the transform of the initial field X: each bin evolves
independently, and at time t the bin gain is

    L(w^2) = exp(-(P + eps) t) + eps/(P + eps) * (1 - exp(-(P + eps) t)),
    P = sum_{j=1..m} d_j (w^2)^j,

with the second term read as its limit 0 when eps = 0. L(0) = 1 for every
eps >= 0, so the field mean is preserved, and L is nonincreasing in w^2
whenever all d_j >= 0, which is what makes this a low pass.

Unit bookkeeping: w carries rad per length unit, so d_j t carries
(length)^(2j). Propagation times are therefore pure knob values tied to
the wavenumber convention and the grid spacing; the same nominal t
smooths far more aggressively on a coarse grid than published figures
produced under per-sample frequency conventions. d_j stays configurable
for exactly that reason (see the README note on reproducing
monotonicity sweeps, which use d_m = spacing^(2m)).

Exponent evaluation is clamped at 708 (exp(-708) is about the smallest
normal double); beyond it the decay factor is exactly 0. The high-order
symbol (w^2)^m at Nyquist with large t exceeds that long before any
float overflows, so the clamp is the honest limit value, not a fudge.

So a high-order filter is nearly a brick wall: at the CLI defaults all
but a few hundred of a million half-spectrum bins get a gain of exactly
0. The transforms therefore work on a SpectralBand, one sorted array of
kept bin indices per axis: the bins whose w^2 along that axis alone gets
a nonzero gain. That is exact. A bin's w^2 = (w_x^2 + w_y^2) + w_z^2 is
a rounded sum of nonnegative terms, so it is at least each axis term,
and the rounded exponent (P(w^2) + eps) t cannot fall as w^2 grows; a
bin outside the band's box is past the clamp and gets gain 0, and so
does 1 - (1 - L)^K. The band transforms compute every kept line as the
full np.fft.rfftn / irfftn do, so their values are bit-identical. With
eps > 0 no gain is 0 and the band is every bin: the same code then does
the full transforms. A band holds its grid, so the functions that take
one take no grid beside it, and the wavenumbers of its bins, computed
once when it is built, so weighting it builds no wavenumber grid.

Both transforms take the field as slabs of axis-0 planes: BandForward
gathers the band's lines slab by slab and transforms axis 0 at the end,
and field_slabs transforms axis 0 first and then inverts slab by slab.
Only the band's n0 x b1 x bz lines and one slab's arrays are alive, so
the CLI never holds the field or its half spectrum whole.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, PlaneFeed, ScalarField3, check_finite, slabs, squared_norm, w_axes

# exp(-x) stays a normal double up to x ~ 708.4; past that the gain is
# indistinguishable from zero, so clamp there and avoid underflow flags
_EXP_CLAMP = 708.0

DEFAULT_HALF_ORDER = 6  # PDE order 2m = 12


def default_coefficients(m: int = DEFAULT_HALF_ORDER) -> tuple[float, ...]:
    """Single highest-order term: d_j = 0 for j < m, d_m = 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (0.0,) * (m - 1) + (1.0,)


@dataclass(frozen=True)
class FilterParams:
    """Coefficients d_1..d_m (PDE order 2m, m = len(d)), fidelity eps, time t."""

    d: tuple[float, ...]
    epsilon: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(float(v) for v in self.d))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "t", float(self.t))
        if any(v < 0 or not np.isfinite(v) for v in self.d):
            raise ValueError(f"coefficients must be finite and >= 0, got {self.d}")
        if not any(v > 0 for v in self.d):
            raise ValueError("at least one diffusion coefficient must be positive")
        if self.epsilon < 0 or not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (self.t > 0 and np.isfinite(self.t)):
            raise ValueError(f"propagation time t must be positive and finite, got {self.t}")

    @classmethod
    def single_term(
        cls,
        t: float,
        m: int = DEFAULT_HALF_ORDER,
        d_m: float = 1.0,
        epsilon: float = 0.0,
    ) -> "FilterParams":
        d = list(default_coefficients(m))
        d[-1] = float(d_m)
        return cls(d=tuple(d), epsilon=epsilon, t=t)


def _symbol_poly(params: FilterParams, w2: np.ndarray) -> np.ndarray:
    # Horner over P(w2) = d_1 w2 + d_2 w2^2 + ... + d_m w2^m
    p = np.zeros_like(w2)
    for dj in reversed(params.d):
        p = (p + dj) * w2
    return p


def frequency_response(params: FilterParams, w2) -> np.ndarray | float:
    """Bin gain L at squared angular wavenumber w2 (scalar or array), in (0, 1].

    Exactly 1 at w2 = 0; nonincreasing in w2; for eps = 0 it is the pure
    decay exp(-P t) and composes multiplicatively over t (semigroup). For
    eps > 0 the response floors at eps/(P + eps) instead of reaching 0,
    and the semigroup identity genuinely fails.
    """
    w2_arr = np.asarray(w2, dtype=np.float64)
    if np.any(w2_arr < 0):
        raise ValueError("w2 must be nonnegative")
    with np.errstate(over="ignore"):  # an exponent that overflows is past the clamp
        p = _symbol_poly(params, w2_arr)
        exponent = (p + params.epsilon) * params.t
    decay = np.where(
        exponent > _EXP_CLAMP, 0.0, np.exp(-np.minimum(exponent, _EXP_CLAMP))
    )
    if params.epsilon > 0:
        resp = decay + params.epsilon / (p + params.epsilon) * (1.0 - decay)
        resp = np.where(w2_arr == 0.0, 1.0, resp)  # exact limit at DC
    else:
        resp = decay
    if np.isscalar(w2) or w2_arr.ndim == 0:
        return float(resp)
    return resp


@dataclass(frozen=True, eq=False)
class SpectralBand:
    """A box of bins of a grid's real-FFT half spectrum: sorted bin indices per axis.

    index[0] and index[1] are bin positions in the FFT layout of axes 0
    and 1; index[2] is a prefix of the nonnegative half of the last axis.
    The band functions below transform, weight and invert only the bins
    of the box, on the band's grid; full() is every bin, of() is the bins
    a filter can keep. w[a] holds the angular wavenumbers of the bins
    index[a], taken once from grids.w_axes(grid, half=True).
    """

    grid: GridSpec
    index: tuple[np.ndarray, np.ndarray, np.ndarray]
    w: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(len(i) for i in self.index)

    def w2(self, planes: slice = slice(None)) -> np.ndarray:
        """|w|^2 over the band's box, or over a slice of its axis-0 planes."""
        wx, wy, wz = self.w
        return squared_norm((wx[planes], wy, wz))

    @classmethod
    def full(cls, grid: GridSpec) -> "SpectralBand":
        axes = tuple(w_axes(grid, half=True))
        return cls(grid, tuple(np.arange(w.size) for w in axes), axes)

    @classmethod
    def of(cls, grid: GridSpec, params: Sequence[FilterParams]) -> "SpectralBand":
        """Per axis, the bins whose w^2 alone gets a nonzero gain at some params.

        Every bin outside the box gets a gain of exactly 0 (see the module
        docstring); with eps > 0 the band is every bin. params holds at
        least one parameter set.
        """
        if not params:
            raise ValueError("need at least one parameter set")
        axes = w_axes(grid, half=True)
        index = []
        for w in axes:
            keep = np.zeros(w.shape, dtype=bool)
            for p in params:
                keep |= frequency_response(p, w * w) > 0
            index.append(np.flatnonzero(keep))
        # the half axis's w^2 grows with the bin, so its kept bins are a prefix
        index[2] = np.arange(index[2][-1] + 1)
        return cls(grid, tuple(index), tuple(w[i] for w, i in zip(axes, index)))


def _check_spectrum(spectrum: np.ndarray, band: SpectralBand):
    if spectrum.shape != band.shape:
        raise ValueError(
            f"spectrum shape {spectrum.shape} does not match the band {band.shape} "
            f"of grid {band.grid.dims}"
        )


def _take(a: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    """a restricted to the sorted bins index along axis (a itself if all)."""
    return a if index.size == a.shape[axis] else a.take(index, axis=axis)


def _pad(a: np.ndarray, index: np.ndarray, n: int, axis: int) -> np.ndarray:
    """Zero-filled lines of length n along axis, holding a at the bins index."""
    if index.size == n:
        return a
    shape = list(a.shape)
    shape[axis] = n
    out = np.zeros(shape, dtype=a.dtype)
    out[(slice(None),) * axis + (index,)] = a
    return out


class BandForward:
    """forward_spectrum of a field on the band's grid, fed in consecutive slabs of axis-0 planes.

    Each slab gets the last-axis rfft and then the axis-1 fft, keeping
    only the band's bins after each; spectrum() runs the axis-0 fft once
    all n0 planes are in. Only the band's n0 x b1 x bz lines and one
    slab's arrays are alive, never a full grid.
    """

    def __init__(self, band: SpectralBand):
        self.band = band
        _, iy, iz = band.index
        self._lines = np.empty((band.grid.dims[0], iy.size, iz.size), dtype=np.complex128)
        self._feed = PlaneFeed(band.grid.dims)

    def add(self, slab: np.ndarray) -> None:
        lo = self._feed.add(slab)
        _, iy, iz = self.band.index
        half = np.fft.rfft(slab, axis=2)[:, :, : iz.size]
        self._lines[lo : lo + len(slab)] = _take(np.fft.fft(half, axis=1), iy, 1)

    def spectrum(self) -> np.ndarray:
        self._feed.finish()
        return _take(np.fft.fft(self._lines, axis=0), self.band.index[0], 0)


def forward_spectrum(X: ScalarField3, band: SpectralBand | None = None) -> np.ndarray:
    """Unnormalized real-FFT half spectrum (np.fft.rfftn) of a finite field, on a band.

    For a real field this is the scalar channel of the Clifford-Fourier
    transform (cft3_forward of the field's scalar embedding) restricted to
    the nonnegative half of the last axis; the other half is its complex
    conjugate mirror and carries no extra information. band defaults to
    every bin, and must be of a grid with the field's dims and spacing.

    The passes are rfftn's, in its order (last axis, then axis 1, then
    axis 0), each keeping only the band's bins; every line is transformed
    as rfftn transforms it, so the band values are rfftn's bit for bit.
    The field goes through BandForward one slab at a time, so no full
    half spectrum is ever alive.
    """
    check_finite(X.min, X.max)
    if band is None:
        band = SpectralBand.full(X.grid)
    elif (band.grid.dims, band.grid.spacing) != (X.grid.dims, X.grid.spacing):
        raise ValueError(f"band of grid {band.grid} does not match the field's grid {X.grid}")
    forward = BandForward(band)
    for slab in slabs(X.values):
        forward.add(slab)
    return forward.spectrum()


def check_passes(passes: int) -> None:
    """Raise ValueError unless passes, the peel-off pass count, is an integer >= 1.

    Python and numpy integers count; a bool, a float and anything else do not.
    """
    if isinstance(passes, bool) or not isinstance(passes, (int, np.integer)) or passes < 1:
        raise ValueError(f"passes must be >= 1, an integer, got {passes}")


def filter_gain(params: FilterParams, band: SpectralBand, passes: int = 1) -> np.ndarray:
    """Bin gain over a band of the half spectrum of `passes` summed peel-off modes.

    Pass k extracts the low pass of the k-th residue, L (1 - L)^(k-1) X,
    because every pass applies the same linear gain L; the modes of K
    passes therefore sum to (1 - (1 - L)^K) X in closed form. The gain is
    evaluated one axis-0 plane of the band at a time and the passes fold
    in place, so besides the gain only one plane's arrays are alive.
    """
    check_passes(passes)
    gain = np.empty(band.shape)
    for i in range(len(gain)):
        plane = gain[i : i + 1]
        plane[...] = frequency_response(params, band.w2(slice(i, i + 1)))
        if passes > 1:
            np.subtract(1.0, plane, out=plane)
            plane **= passes
            np.subtract(1.0, plane, out=plane)
    return gain


def zero_gain_frac(gain: np.ndarray, band: SpectralBand) -> float:
    """The share of the band grid's whole real-FFT half spectrum whose gain is 0.

    gain is over the band, as filter_gain returns it; every bin outside the
    band has gain 0. The half spectrum holds n0 * n1 * (nz // 2 + 1) bins.
    """
    n0, n1, nz = band.grid.dims
    return 1.0 - np.count_nonzero(gain) / (n0 * n1 * (nz // 2 + 1))


def field_slabs(spectrum: np.ndarray, band: SpectralBand) -> Iterator[np.ndarray]:
    """field_from_spectrum's values as consecutive slabs of SLAB axis-0 planes.

    A generator: the spectrum's shape is checked against the band, and
    the axis-0 ifft of the band runs once, when the first slab is asked
    for; each slab then takes the axis-1 ifft of its zero-filled band
    lines and the last-axis irfft. Besides the band, one slab's lines are
    alive.
    """
    _check_spectrum(spectrum, band)
    ix, iy, _ = band.index
    n0, n1, nz = band.grid.dims
    lines = np.fft.ifft(_pad(spectrum, ix, n0, 0), axis=0)
    del spectrum
    for part in slabs(lines):
        yield np.fft.irfft(np.fft.ifft(_pad(part, iy, n1, 1), axis=1), n=nz, axis=2)


def field_from_spectrum(spectrum: np.ndarray, band: SpectralBand) -> ScalarField3:
    """Inverse real FFT of a band of the half spectrum back onto the band's grid (1/N included).

    The bins outside the band are zero. The passes are irfftn's, in its
    order: axis 0 and then axis 1 on zero-filled band lines, then the
    last axis, where irfft zero-fills each short line itself; the field is
    irfftn's of the zero-filled half spectrum bit for bit. The slabs come
    from field_slabs.
    """
    return ScalarField3.from_slabs(band.grid, field_slabs(spectrum, band))


def lowpass_apply(X: ScalarField3, params: FilterParams) -> ScalarField3:
    """Filter a periodic scalar field: transform, scale every bin by L, invert.

    Only the band of bins L keeps is transformed. The mean (DC bin) is
    preserved exactly up to rounding because L(0) = 1.
    """
    band = SpectralBand.of(X.grid, [params])
    retained = forward_spectrum(X, band) * filter_gain(params, band)
    return field_from_spectrum(retained, band)


@dataclass(frozen=True)
class ModeDecomposition:
    """Low-pass modes plus the final residue of the peel-off recursion.

    modes[k] is the low pass of the k-th residue; the next residue is the
    input minus all modes extracted so far. Summing every mode and the
    final residue reconstructs the input (the recursion telescopes).
    """

    modes: tuple[ScalarField3, ...]
    final_residue: ScalarField3
    params: tuple[FilterParams, ...]

    def reconstruct(self) -> ScalarField3:
        total = self.final_residue.values
        for mode in self.modes:
            total = total + mode.values
        return ScalarField3(self.final_residue.grid, total)


def mode_decompose(X: ScalarField3, per_pass: Sequence[FilterParams]) -> ModeDecomposition:
    """Extract one low-pass mode per parameter set, each from the residue of the last.

    The k-th residue's spectrum is S (1 - L_1) ... (1 - L_(k-1)) for the
    input's spectrum S, so one forward transform over the band of every
    pass serves all modes, and each mode is one inverse transform.
    """
    per_pass = tuple(per_pass)
    band = SpectralBand.of(X.grid, per_pass)
    rest = forward_spectrum(X, band)
    modes = []
    residue = X.values
    for p in per_pass:
        gain = filter_gain(p, band)
        mode = field_from_spectrum(rest * gain, band)
        rest = rest * (1.0 - gain)
        modes.append(mode)
        residue = residue - mode.values
    return ModeDecomposition(
        modes=tuple(modes), final_residue=ScalarField3(X.grid, residue), params=per_pass
    )


def spectral_energy(spectrum: np.ndarray, band: SpectralBand, w2_threshold: float) -> float:
    """Full-spectrum energy above a squared-wavenumber threshold, from a band of a half spectrum.

    Sum of |X_hat|^2 over the bins of the complete unnormalized DFT with
    w^2 > w2_threshold, read off the real-FFT half spectrum, whose bins
    outside the band are zero: an interior bin of the last axis stands
    for itself and its conjugate mirror and counts twice; the k_z = 0
    plane and, for even N_z, the Nyquist plane are their own mirrors and
    count once. An energy beyond the float range reads inf, without a
    warning.
    """
    if not w2_threshold > 0:
        raise ValueError(f"w2_threshold must be positive, got {w2_threshold}")
    _check_spectrum(spectrum, band)
    # |X_hat|^2 one axis-0 plane of the band at a time, its rows added to
    # the running sum row after row in C order, as a cumsum over the full
    # half spectrum adds them (zero rows add nothing); sum() on a small box
    # may pair its terms in another order. The dot spans the whole half
    # axis, so it too adds what the full half spectrum's would.
    rows = np.zeros(spectrum.shape[-1])
    with np.errstate(over="ignore"):
        for i in range(len(spectrum)):
            power = np.abs(spectrum[i])
            power *= power
            power[band.w2(slice(i, i + 1))[0] <= w2_threshold] = 0.0
            power[0] += rows
            rows = np.cumsum(power, axis=0, out=power)[-1]
        nz = band.grid.dims[-1]
        planes = _pad(rows, band.index[2], nz // 2 + 1, 0)
        weight = np.full(planes.size, 2.0)
        weight[0] = 1.0
        if nz % 2 == 0:
            weight[-1] = 1.0
        return float(planes @ weight)


def highband_energy(X: ScalarField3, w2_threshold: float) -> float:
    """Spectral energy above a squared-wavenumber threshold.

    Sum of |X_hat|^2 over bins with w^2 > w2_threshold, under the
    unnormalized forward transform. A scalar field only populates the
    scalar channel, so this is the plain FFT energy of the values.
    Useful as a smoothness diagnostic: filtering with growing t drives
    it down monotonically.
    """
    return spectral_energy(forward_spectrum(X), SpectralBand.full(X.grid), w2_threshold)
