"""Frequency response against time-stepped oracles, semigroup and
reconstruction invariants, parameter validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsurf import pdefilter
from cliffsurf.cft import MultivectorField3, cft3_forward, cft3_inverse
from cliffsurf.grids import GridSpec, GridSpec2, ScalarField3, squared_norm, w_axes
from cliffsurf.pdefilter import (
    FilterParams,
    SpectralBand,
    default_coefficients,
    field_from_spectrum,
    filter_gain,
    forward_spectrum,
    frequency_response,
    highband_energy,
    lowpass_apply,
    mode_decompose,
    spectral_energy,
    zero_gain_frac,
)
from conftest import heat_rk4, mode_decompose_per_residue, response_rk4


def _smooth_random_field(rng, dims=(16, 16, 16), spacing=1.0, kmax=3):
    spec = np.zeros(dims, dtype=complex)
    for _ in range(10):
        k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=3))
        spec[k] = rng.standard_normal() + 1j * rng.standard_normal()
        spec[tuple(-v for v in k)] = np.conj(spec[k])
    vals = np.fft.ifftn(spec).real
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    return ScalarField3(grid, vals)


def test_default_coefficients():
    assert default_coefficients(6) == (0.0,) * 5 + (1.0,)
    assert default_coefficients(1) == (1.0,)


def test_response_is_one_at_dc():
    for eps in (0.0, 0.01, 3.0):
        p = FilterParams(d=default_coefficients(6), epsilon=eps, t=100.0)
        assert frequency_response(p, 0.0) == 1.0
        w2 = np.array([0.0, 0.5, 2.0])
        assert frequency_response(p, w2)[0] == 1.0


def test_response_monotone_in_frequency_single_term():
    p = FilterParams.single_term(t=50.0)
    w2 = np.linspace(0.0, 4.0, 200)
    resp = frequency_response(p, w2)
    assert np.all(np.diff(resp) <= 0.0)
    assert np.all(resp >= 0.0) and np.all(resp <= 1.0)


def test_response_small_time_near_identity():
    p = FilterParams.single_term(t=1e-15)
    w2 = np.linspace(0.0, 3.0 * np.pi**2, 100)
    assert np.abs(frequency_response(p, w2) - 1.0).max() <= 1e-6


def test_response_clamps_huge_exponent_without_warnings():
    p = FilterParams.single_term(t=1e12, m=6)
    with np.errstate(all="raise"):
        resp = frequency_response(p, np.array([0.0, 1.0, 9.0]))
    assert resp[0] == 1.0
    assert resp[1] == 0.0 and resp[2] == 0.0
    # with fidelity the floor is eps / (P + eps), not zero
    p2 = FilterParams(d=default_coefficients(6), epsilon=0.5, t=1e12)
    r2 = frequency_response(p2, np.array([2.0]))
    assert np.allclose(r2, 0.5 / (2.0**6 + 0.5), atol=1e-12)
    # a symbol that overflows to inf is past the clamp too, without warnings
    p3 = FilterParams(d=(1e300,) * 6, epsilon=0.5, t=1e300)
    with np.errstate(all="raise"):
        r3 = frequency_response(p3, np.array([0.0, 1e10]))
    assert r3[0] == 1.0 and r3[1] == 0.0


def test_response_matches_per_bin_rk4():
    # independent integration of the spectral ODE, several parameter sets
    w2 = np.linspace(0.0, 2.0, 40)
    for params in (
        FilterParams.single_term(t=0.1, m=6),
        FilterParams(d=(0.3, 1.0), epsilon=0.0, t=0.1),
        FilterParams(d=(0.1, 0.0, 2.0), epsilon=0.7, t=0.1),
    ):
        want = response_rk4(w2, params, steps=1000)
        got = frequency_response(params, w2)
        assert np.abs(got - want).max() <= 1e-4


def test_lowpass_matches_heat_equation_rk4(rng):
    # m=1, d=(1,) is the plain heat equation; integrate it in physical
    # space with fourth-order finite differences and explicit RK4
    field = _smooth_random_field(rng, dims=(32, 32, 32), spacing=1.0, kmax=2)
    params = FilterParams(d=(1.0,), epsilon=0.0, t=0.1)
    got = lowpass_apply(field, params).values
    want = heat_rk4(field.values, 1.0, 0.1, steps=100)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-4 * scale


def test_semigroup_property_without_fidelity(rng):
    field = _smooth_random_field(rng)
    p1 = FilterParams.single_term(t=30.0)
    p2 = FilterParams.single_term(t=70.0)
    p12 = FilterParams.single_term(t=100.0)
    twice = lowpass_apply(lowpass_apply(field, p1), p2).values
    once = lowpass_apply(field, p12).values
    assert np.abs(twice - once).max() <= 1e-12 * max(1.0, np.abs(once).max())


def test_fidelity_breaks_semigroup(rng):
    field = _smooth_random_field(rng)
    p1 = FilterParams(d=default_coefficients(6), epsilon=0.5, t=30.0)
    p2 = FilterParams(d=default_coefficients(6), epsilon=0.5, t=70.0)
    p12 = FilterParams(d=default_coefficients(6), epsilon=0.5, t=100.0)
    twice = lowpass_apply(lowpass_apply(field, p1), p2).values
    once = lowpass_apply(field, p12).values
    assert np.abs(twice - once).max() > 1e-6


@pytest.mark.parametrize("passes", [1, 2, 5])
def test_mode_decomposition_reconstructs(passes, rng):
    field = _smooth_random_field(rng)
    params = FilterParams.single_term(t=10.0)
    dec = mode_decompose(field, [params] * passes)
    assert len(dec.modes) == passes
    recon = dec.reconstruct().values
    assert np.abs(recon - field.values).max() <= 1e-10
    # manual sum agrees with the helper
    total = dec.final_residue.values.copy()
    for mode in dec.modes:
        total += mode.values
    assert np.array_equal(total, recon)


def test_mode_decomposition_first_mode_is_lowpass(rng):
    field = _smooth_random_field(rng)
    params = FilterParams.single_term(t=25.0)
    dec = mode_decompose(field, [params] * 3)
    direct = lowpass_apply(field, params).values
    assert np.abs(dec.modes[0].values - direct).max() <= 1e-13


def test_mode_decomposition_per_pass_params(rng):
    field = _smooth_random_field(rng)
    plist = [FilterParams.single_term(t=t) for t in (10.0, 40.0, 160.0)]
    dec = mode_decompose(field, plist)
    assert len(dec.modes) == 3
    assert np.abs(dec.reconstruct().values - field.values).max() <= 1e-10


def test_lowpass_preserves_constants(rng):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(8, 10, 12))
    field = ScalarField3(grid, np.full((8, 10, 12), 3.25))
    out = lowpass_apply(field, FilterParams.single_term(t=1e6)).values
    assert np.abs(out - 3.25).max() <= 1e-12


def test_lowpass_damps_high_frequencies(rng):
    field = _smooth_random_field(rng, kmax=7)
    out = lowpass_apply(field, FilterParams.single_term(t=1e4))
    thr = 0.25
    assert highband_energy(out, thr) < highband_energy(field, thr)


def test_highband_energy_monotone_in_time(rng):
    field = _smooth_random_field(rng, kmax=7)
    energies = [
        highband_energy(lowpass_apply(field, FilterParams.single_term(t=t)), 0.25)
        for t in (1e1, 1e2, 1e3)
    ]
    assert energies[0] > energies[1] > energies[2]


def test_highband_energy_validation(rng):
    field = _smooth_random_field(rng)
    with pytest.raises(ValueError):
        highband_energy(field, 0.0)


def _random_field(rng, dims, spacing=0.5):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    return ScalarField3(grid, rng.standard_normal(dims))


def _cft3_lowpass(X, params):
    # the Clifford-Fourier round trip: scalar embedding, full-spectrum gain
    spec = cft3_forward(MultivectorField3.from_scalar_field(X))
    gain = frequency_response(params, squared_norm(w_axes(X.grid)))
    filtered = MultivectorField3(X.grid, spec.data * gain[..., None])
    return cft3_inverse(filtered).scalar_part().values


_ODD_EVEN_DIMS = [(8, 6, 10), (7, 9, 11), (6, 5, 9), (9, 8, 4)]


@pytest.mark.parametrize("dims", _ODD_EVEN_DIMS)
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_rfft_lowpass_matches_cft3_round_trip(rng, dims, eps):
    X = _random_field(rng, dims)
    # gains spread over (0, 1] on this band rather than flushing to zero
    params = FilterParams(d=(0.1, 0.0, 1e-5), epsilon=eps, t=0.7)
    got = lowpass_apply(X, params).values
    assert np.abs(got - _cft3_lowpass(X, params)).max() <= 1e-12


def test_half_spectrum_w2_is_the_rfft_slice_of_the_full_one():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.3, dims=(6, 5, 8))
    half = squared_norm(w_axes(grid, half=True))
    assert half.shape == (6, 5, 5)
    # nonnegative z bins coincide; the even-N Nyquist differs only in sign
    assert np.array_equal(half, squared_norm(w_axes(grid))[:, :, :5])
    assert squared_norm(w_axes(GridSpec2(dims=(4, 7)), half=True)).shape == (4, 4)


@pytest.mark.parametrize("dims", _ODD_EVEN_DIMS)
@pytest.mark.parametrize("passes", [2, 3, 5])
def test_closed_form_passes_match_summed_modes(rng, dims, passes):
    X = _random_field(rng, dims)
    params = FilterParams(d=(0.1, 0.0, 1e-5), epsilon=0.2, t=0.7)
    modes = mode_decompose(X, [params] * passes).modes
    want = sum(mode.values for mode in modes)
    # the CLI's filter stage: one forward spectrum times the summed gain
    full = SpectralBand.full(X.grid)
    retained = forward_spectrum(X) * filter_gain(params, full, passes)
    got = field_from_spectrum(retained, full).values
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("dims", _ODD_EVEN_DIMS)
@pytest.mark.parametrize("passes", [1, 2, 4])
@pytest.mark.parametrize(
    "per_pass",
    [
        lambda k: FilterParams.single_term(t=10.0),
        lambda k: FilterParams(d=(0.1, 0.0, 1e-5), epsilon=0.2 * k, t=0.7 * (k + 1)),
        lambda k: FilterParams(d=(0.0, 0.5), epsilon=0.0, t=10.0**k),
    ],
)
def test_mode_decomposition_matches_filtering_each_residue(rng, dims, passes, per_pass):
    # one forward transform and one inverse per mode, against a full
    # rfftn / irfftn of every residue
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=dims)
    X = ScalarField3(grid, rng.standard_normal(dims) + 2.0)
    params = [per_pass(k) for k in range(passes)]
    dec = mode_decompose(X, params)
    want_modes, want_residue = mode_decompose_per_residue(X, params)
    scale = np.abs(X.values).max()
    for got, want in zip(dec.modes, want_modes):
        assert np.abs(got.values - want).max() <= 1e-12 * scale
    assert np.abs(dec.final_residue.values - want_residue).max() <= 1e-12 * scale


def test_filter_gain_rejects_zero_passes():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(4, 4, 4))
    with pytest.raises(ValueError, match="passes"):
        filter_gain(FilterParams.single_term(t=1.0), SpectralBand.full(grid), 0)


def test_filter_gain_takes_only_whole_pass_counts():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(4, 4, 4))
    params, band = FilterParams.single_term(t=1.0), SpectralBand.full(grid)
    for passes in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^passes must be >= 1, an integer, got {passes}$"):
            filter_gain(params, band, passes)
    assert np.array_equal(filter_gain(params, band, np.int64(3)), filter_gain(params, band, 3))


def test_single_pass_gain_is_the_frequency_response():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(6, 7, 9))
    params = FilterParams.single_term(t=0.01)
    w2 = squared_norm(w_axes(grid, half=True))
    gain = filter_gain(params, SpectralBand.full(grid))
    assert np.array_equal(gain, frequency_response(params, w2))


@pytest.mark.parametrize("passes", [1, 2, 3, 7])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_gain_is_the_closed_form_of_the_frequency_response(passes, eps):
    # plane by plane and folded in place, bit for bit the whole-array formula
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(6, 7, 9))
    params = FilterParams.single_term(t=0.01, epsilon=eps)
    gain = frequency_response(params, squared_norm(w_axes(grid, half=True)))
    want = gain if passes == 1 else 1.0 - (1.0 - gain) ** passes
    assert np.array_equal(filter_gain(params, SpectralBand.full(grid), passes), want)


def test_gain_on_a_full_band_holds_one_plane_of_temporaries():
    # with eps > 0 the band is the whole half spectrum; besides the gain,
    # only a few planes' arrays may be alive, not band-sized temporaries
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(64, 48, 40))
    band = SpectralBand.full(grid)
    params = FilterParams.single_term(t=100.0, epsilon=0.05)
    filter_gain(params, band, 3)  # first-call allocations are not the gain's
    tracemalloc.start()
    try:
        gain = filter_gain(params, band, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gain.shape == (64, 48, 21)
    assert peak <= gain.nbytes + 12 * gain[0].nbytes


@pytest.mark.parametrize("dims", _ODD_EVEN_DIMS)
@pytest.mark.parametrize("thr", [0.5, 4.0, 30.0])
def test_spectral_energy_matches_full_fft_band_sum(rng, dims, thr):
    X = _random_field(rng, dims)
    band = squared_norm(w_axes(X.grid)) > thr
    want = float(np.sum(np.abs(np.fft.fftn(X.values)[band]) ** 2))
    got = spectral_energy(np.fft.rfftn(X.values), SpectralBand.full(X.grid), thr)
    assert abs(got - want) <= 1e-12 * want
    assert abs(highband_energy(X, thr) - want) <= 1e-12 * want


def test_spectral_energy_rejects_mismatched_spectrum(rng):
    X = _random_field(rng, (6, 6, 6))
    with pytest.raises(ValueError, match="does not match"):
        spectral_energy(np.fft.fftn(X.values), SpectralBand.full(X.grid), 1.0)


def test_rejects_nonfinite_field():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(4, 4, 4))
    vals = np.zeros((4, 4, 4))
    vals[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        lowpass_apply(ScalarField3(grid, vals), FilterParams.single_term(t=1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        FilterParams(d=(), epsilon=0.0, t=1.0)
    with pytest.raises(ValueError):
        FilterParams(d=(0.0, 0.0), epsilon=0.0, t=1.0)  # no positive term
    with pytest.raises(ValueError):
        FilterParams(d=(-1.0,), epsilon=0.0, t=1.0)
    with pytest.raises(ValueError):
        FilterParams(d=(1.0,), epsilon=-0.1, t=1.0)
    with pytest.raises(ValueError):
        FilterParams(d=(1.0,), epsilon=0.0, t=0.0)
    with pytest.raises(ValueError):
        FilterParams(d=(1.0,), epsilon=0.0, t=np.inf)


@given(
    t=st.floats(min_value=1e-6, max_value=1e9),
    w2=st.floats(min_value=0.0, max_value=50.0),
    eps=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200)
def test_response_bounded_unit_interval(t, w2, eps):
    p = FilterParams(d=default_coefficients(6), epsilon=eps, t=t)
    r = float(frequency_response(p, w2))
    assert 0.0 <= r <= 1.0
    assert np.isfinite(r)


def test_spectral_grid_wavenumbers():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.25, dims=(8, 6, 5))
    wx = w_axes(grid)[0]
    assert np.allclose(wx, 2.0 * np.pi * np.fft.fftfreq(8, d=0.25))
    w2 = squared_norm(w_axes(grid))
    assert w2.shape == (8, 6, 5)
    assert w2[0, 0, 0] == 0.0
    assert np.all(w2 >= 0.0)


@st.composite
def _band_cases(draw):
    m = draw(st.integers(1, 8))
    d = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), min_size=m, max_size=m))
    if not any(d):
        d[draw(st.integers(0, m - 1))] = draw(st.floats(1e-6, 10.0))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
    times = draw(
        st.lists(st.floats(-3.0, 9.0).map(lambda e: 10.0**e), min_size=1, max_size=3)
    )
    dims = tuple(draw(st.lists(st.integers(2, 17), min_size=3, max_size=3)))
    spacing = draw(st.floats(0.1, 2.0))
    params = [FilterParams(d=tuple(d), epsilon=eps, t=t) for t in times]
    return params, draw(st.integers(1, 4)), dims, spacing, draw(st.integers(0, 2**32 - 1))


@given(case=_band_cases(), thr=st.floats(1e-3, 50.0))
@settings(max_examples=150, deadline=None)
def test_band_functions_equal_the_full_spectrum_ones(case, thr):
    params, passes, dims, spacing, seed = case
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    X = ScalarField3(grid, np.random.default_rng(seed).standard_normal(dims) + 1.0)
    band = SpectralBand.of(grid, params)
    box = np.ix_(*band.index)
    if params[0].epsilon > 0:
        assert band.shape == SpectralBand.full(grid).shape
    whole = SpectralBand.full(grid)
    full = forward_spectrum(X)
    want = np.fft.rfftn(X.values)
    assert np.abs(full - want).max() <= 1e-12 * np.abs(want).max()
    spectrum = forward_spectrum(X, band)
    assert np.array_equal(spectrum, full[box])
    for p in params:
        gain_full = filter_gain(p, whole, passes)
        outside = gain_full.copy()
        outside[box] = 0.0
        assert not outside.any()  # every bin outside the band box gets exactly 0
        gain = filter_gain(p, band, passes)
        assert np.array_equal(gain, gain_full[box])
        f_full = field_from_spectrum(full * gain_full, whole).values
        f = field_from_spectrum(spectrum * gain, band).values
        assert np.array_equal(f, f_full)
        f_numpy = np.fft.irfftn(want * gain_full, s=dims, axes=(0, 1, 2))
        assert np.abs(f - f_numpy).max() <= 1e-12 * max(1.0, np.abs(f_numpy).max())
        e = spectral_energy(spectrum * gain, band, thr)
        assert e == spectral_energy(full * gain_full, whole, thr)


@pytest.mark.parametrize("dims", [(12, 9, 10), (16, 15, 11), (7, 20, 2)])
@pytest.mark.parametrize("eps, passes", [(0.0, 1), (0.0, 3), (0.05, 2)])
def test_zero_gain_frac_counts_the_whole_half_spectrum(dims, eps, passes):
    # the band's zeros plus every bin outside it, over n0 * n1 * (nz // 2 + 1)
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.4, dims=dims)
    params = FilterParams.single_term(t=30.0, epsilon=eps)
    band, whole = SpectralBand.of(grid, [params]), SpectralBand.full(grid)
    gain_full = filter_gain(params, whole, passes)
    want = 1.0 - np.count_nonzero(gain_full) / gain_full.size
    assert zero_gain_frac(filter_gain(params, band, passes), band) == want
    assert zero_gain_frac(gain_full, whole) == want
    assert (want == 0.0) == (eps > 0)


def test_band_of_fidelity_filter_is_every_bin():
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.25, dims=(12, 9, 10))
    band = SpectralBand.of(grid, [FilterParams.single_term(t=1e9, epsilon=0.01)])
    full = SpectralBand.full(grid)
    assert band.shape == full.shape == (12, 9, 6)
    assert all(np.array_equal(a, b) for a, b in zip(band.index, full.index))


def test_band_of_sharp_filter_keeps_the_low_bins():
    # 100 (w^2)^6 <= 708 needs w <= 1.18 rad/A; a 20 A box has w = 0.314 |k|
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.25, dims=(80, 81, 82))
    band = SpectralBand.of(grid, [FilterParams.single_term(t=100.0)])
    ix, iy, iz = band.index
    # the signed low bins of the FFT layout on full axes, a prefix on the half one
    assert np.array_equal(ix, [0, 1, 2, 3, 77, 78, 79])
    assert np.array_equal(iy, [0, 1, 2, 3, 78, 79, 80])
    assert np.array_equal(iz, [0, 1, 2, 3])


@pytest.mark.parametrize("dims, spacing", [((12, 9, 10), 0.25), ((7, 8, 5), 1.3)])
def test_band_w2_is_the_half_spectrum_w2_over_its_box(dims, spacing):
    grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    half = squared_norm(w_axes(grid, half=True))
    kept = SpectralBand.of(grid, [FilterParams.single_term(t=1e-3)])
    for band in (SpectralBand.full(grid), kept):
        box = half[np.ix_(*band.index)]
        assert band.w2().tobytes() == box.tobytes()
        for i in range(band.shape[0]):
            assert band.w2(slice(i, i + 1)).tobytes() == box[i : i + 1].tobytes()


def test_weighting_a_band_builds_no_spectral_grid(monkeypatch, rng):
    X = _random_field(rng, (12, 9, 10))
    params = FilterParams.single_term(t=10.0)
    bands = [SpectralBand.of(X.grid, [params]), SpectralBand.full(X.grid)]
    assert 1 < bands[0].shape[0] < bands[1].shape[0]
    spectra = [forward_spectrum(X, band) for band in bands]
    built = []

    def counting(grid, half=False):
        built.append(grid.dims)
        return w_axes(grid, half)

    monkeypatch.setattr(pdefilter, "w_axes", counting)
    for band, spectrum in zip(bands, spectra):
        gain = filter_gain(params, band, passes=3)
        spectral_energy(spectrum * gain, band, 0.25)
    assert built == []
    # a band computes its wavenumbers once, when it is built
    SpectralBand.of(X.grid, [params])
    assert len(built) == 1


def test_a_band_of_no_parameter_sets_is_refused(rng):
    # the band, and the decomposition that builds one, need a parameter set
    X = _random_field(rng, (6, 7, 8))
    with pytest.raises(ValueError, match="need at least one parameter set"):
        SpectralBand.of(X.grid, [])
    with pytest.raises(ValueError, match="need at least one parameter set"):
        mode_decompose(X, [])


def test_band_functions_reject_a_foreign_band_or_spectrum(rng):
    X = _random_field(rng, (6, 7, 8))
    for dims, spacing in (((6, 7, 9), 0.5), ((6, 7, 8), 0.25)):
        other = SpectralBand.full(GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims))
        with pytest.raises(ValueError, match="does not match"):
            forward_spectrum(X, other)
    band = SpectralBand.of(X.grid, [FilterParams.single_term(t=1e3)])
    with pytest.raises(ValueError, match="does not match"):
        field_from_spectrum(forward_spectrum(X), band)
