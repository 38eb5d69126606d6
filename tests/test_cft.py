"""Transforms against direct-sum DFT oracles; spectral derivatives against
analytic results and finite differences."""

import tracemalloc

import numpy as np
import pytest

from cliffsurf.cft import (
    MultivectorField2,
    MultivectorField3,
    cft2_forward,
    cft2_inverse,
    cft3_forward,
    cft3_inverse,
    pack_channels,
    spectral_gradient2_single_sign,
    spectral_gradient2_split,
    spectral_gradient3,
    spectral_laplacian3,
    unpack_channels,
)
from cliffsurf.grids import GridSpec, GridSpec2, ScalarField3
from conftest import fd_laplacian, fd_partial, loop_dft3, naive_dft2, naive_dft3

DIMS_3D = [(2, 2, 2), (2, 3, 4), (3, 5, 7), (4, 4, 4), (5, 6, 8), (8, 8, 8)]
DIMS_2D = [(2, 2), (3, 4), (5, 7), (8, 8)]


def _grid3(dims):
    return GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=dims)


def test_pack_unpack_bijection(rng):
    data = rng.standard_normal((3, 4, 5, 8))
    assert np.array_equal(unpack_channels(pack_channels(data), dim=3), data)
    d2 = rng.standard_normal((3, 4, 4))
    assert np.array_equal(unpack_channels(pack_channels(d2, dim=2), dim=2), d2)


@pytest.mark.parametrize("dim", [1, 4, "3", None])
def test_pack_unpack_refuse_an_unknown_dim(dim):
    # only R^2 and R^3 have channel pairs, in ga's words; "3" is not 3
    with pytest.raises(ValueError, match=f"^dim must be 2 or 3, got {dim}$"):
        pack_channels(np.zeros((3, 8)), dim=dim)
    with pytest.raises(ValueError, match=f"^dim must be 2 or 3, got {dim}$"):
        unpack_channels([np.zeros(3, dtype=complex)] * 4, dim=dim)


@pytest.mark.parametrize(("dim", "blades"), [(3, 4), (3, 6), (2, 8), (2, 2)])
def test_pack_unpack_refuse_another_blade_count(dim, blades):
    # data of R^dim holds 2**dim blades, in 2**(dim - 1) channels
    with pytest.raises(ValueError, match=f"^R\\^{dim} has {2**dim} blades, got {blades}$"):
        pack_channels(np.zeros((3, blades)), dim=dim)
    channels = [np.zeros(3, dtype=complex)] * (blades // 2)
    with pytest.raises(ValueError, match=f"^R\\^{dim} has {2**dim} blades, got {blades}$"):
        unpack_channels(channels, dim=dim)


def test_naive_oracle_agrees_with_literal_triple_loop(rng):
    c = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    assert np.allclose(naive_dft3(c), loop_dft3(c), atol=1e-12)


@pytest.mark.parametrize("dims", DIMS_3D)
def test_forward3_matches_naive_dft(dims, rng):
    data = rng.standard_normal(dims + (8,))
    got = cft3_forward(MultivectorField3(_grid3(dims), data)).data
    want = unpack_channels([naive_dft3(c) for c in pack_channels(data)], dim=3)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("dims", DIMS_2D)
def test_forward2_matches_naive_dft(dims, rng):
    data = rng.standard_normal(dims + (4,))
    got = cft2_forward(MultivectorField2(GridSpec2(dims=dims), data)).data
    want = unpack_channels([naive_dft2(c) for c in pack_channels(data, dim=2)], dim=2)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_round_trip_identity_16cubed(rng):
    dims = (16, 16, 16)
    for _ in range(3):
        data = rng.standard_normal(dims + (8,))
        field = MultivectorField3(_grid3(dims), data)
        back = cft3_inverse(cft3_forward(field)).data
        assert np.abs(back - data).max() <= 1e-10


def test_round_trip_identity_2d(rng):
    data = rng.standard_normal((12, 9, 4))
    field = MultivectorField2(GridSpec2(dims=(12, 9)), data)
    assert np.abs(cft2_inverse(cft2_forward(field)).data - data).max() <= 1e-12


def test_parseval(rng):
    dims = (16, 12, 10)
    data = rng.standard_normal(dims + (8,))
    spec = cft3_forward(MultivectorField3(_grid3(dims), data)).data
    lhs = (data**2).sum()
    rhs = (spec**2).sum() / np.prod(dims)
    assert abs(lhs - rhs) / lhs <= 1e-9


def test_linearity(rng):
    dims = (4, 6, 5)
    a = rng.standard_normal(dims + (8,))
    b = rng.standard_normal(dims + (8,))
    g = _grid3(dims)
    fa = cft3_forward(MultivectorField3(g, a)).data
    fb = cft3_forward(MultivectorField3(g, b)).data
    fab = cft3_forward(MultivectorField3(g, 2.5 * a - 0.7 * b)).data
    assert np.allclose(fab, 2.5 * fa - 0.7 * fb, atol=1e-9 * max(1.0, np.abs(fab).max()))


def test_scalar_field_embedding(rng, three_atoms):
    g = _grid3((4, 4, 4))
    vals = rng.standard_normal((4, 4, 4))
    mv = MultivectorField3.from_scalar_field(ScalarField3(g, vals))
    assert np.array_equal(mv.data[..., 0], vals)
    assert np.all(mv.data[..., 1:] == 0.0)
    assert np.array_equal(mv.scalar_part().values, vals)


def test_multivector_fields_alias_their_input_read_only():
    # no defensive copy, as in ScalarField3: a float64 input is held as a
    # read-only view and the caller's own array stays writeable
    given3, given2 = np.zeros((2, 2, 2, 8)), np.zeros((2, 2, 4))
    fields = (
        MultivectorField3(_grid3((2, 2, 2)), given3),
        MultivectorField2(GridSpec2(dims=(2, 2)), given2),
    )
    for field, given in zip(fields, (given3, given2)):
        assert np.shares_memory(field.data, given)
        assert not field.data.flags.writeable and given.flags.writeable
        given.flat[-1] = 1.0  # the field aliases, it does not snapshot
        assert field.data.flat[-1] == 1.0
        with pytest.raises(ValueError):
            field.data.flat[0] = 9.0


def test_scalar_embedding_allocates_one_multivector_array():
    scalar = ScalarField3(_grid3((16, 16, 16)), np.ones((16, 16, 16)))
    tracemalloc.start()
    try:
        mv = MultivectorField3.from_scalar_field(scalar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * mv.data.nbytes  # a copy would double it


def test_field_grid_shape_mismatch_rejected(rng):
    g = _grid3((4, 4, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        MultivectorField3(g, rng.standard_normal((4, 4, 5, 8)))
    with pytest.raises(ValueError):
        MultivectorField3(g, rng.standard_normal((4, 4, 4, 7)))


# ---------------------------------------------------------------------------
# derivatives


def _sinusoid_field(dims, spacing, waves):
    """Product-of-axis-sinusoids field with exact periodic wavenumbers.

    waves: per-axis (integer mode, use_cos) pairs; the analytic partial
    derivatives follow the chain rule axis by axis.
    """
    g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    axes = g.axes()
    factors = []
    dfactors = []
    for (mode, use_cos), ax, n in zip(waves, axes, dims):
        w = 2.0 * np.pi * mode / (n * spacing)
        phase = w * ax
        if use_cos:
            factors.append(np.cos(phase))
            dfactors.append(-w * np.sin(phase))
        else:
            factors.append(np.sin(phase))
            dfactors.append(w * np.cos(phase))
    fx, fy, fz = factors
    values = fx[:, None, None] * fy[None, :, None] * fz[None, None, :]
    partials = [
        dfactors[0][:, None, None] * fy[None, :, None] * fz[None, None, :],
        fx[:, None, None] * dfactors[1][None, :, None] * fz[None, None, :],
        fx[:, None, None] * fy[None, :, None] * dfactors[2][None, None, :],
    ]
    return ScalarField3(g, values), partials


def test_gradient3_matches_analytic_sinusoid():
    dims = (24, 20, 16)
    field, partials = _sinusoid_field(dims, 0.5, ((2, False), (3, True), (1, False)))
    grad = spectral_gradient3(MultivectorField3.from_scalar_field(field))
    for axis in range(3):
        err = np.abs(grad.data[..., 1 + axis] - partials[axis]).max()
        assert err <= 1e-8, f"axis {axis}: {err}"
    # a scalar input has a pure vector gradient
    other = np.delete(grad.data, (1, 2, 3), axis=-1)
    assert np.abs(other).max() <= 1e-8


def test_gradient3_matches_finite_differences(rng):
    # smooth periodic random field: keep only low modes
    dims = (32, 32, 32)
    spec = np.zeros(dims, dtype=complex)
    for _ in range(12):
        k = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        spec[k] = rng.standard_normal() + 1j * rng.standard_normal()
        spec[tuple(-v for v in k)] = np.conj(spec[k])
    vals = np.fft.ifftn(spec).real
    h = 0.7
    g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=h, dims=dims)
    grad = spectral_gradient3(MultivectorField3.from_scalar_field(ScalarField3(g, vals)))
    for axis in range(3):
        fd = fd_partial(vals, axis, h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(grad.data[..., 1 + axis] - fd).max() <= 2e-3 * scale


def test_gradient3_of_gradient_is_laplacian(rng):
    dims = (16, 16, 16)
    field, _ = _sinusoid_field(dims, 1.0, ((1, False), (2, True), (1, True)))
    mv = MultivectorField3.from_scalar_field(field)
    twice = spectral_gradient3(spectral_gradient3(mv))
    lap = spectral_laplacian3(mv, order_j=1)
    assert np.abs(twice.data[..., 0] - lap.data[..., 0]).max() <= 1e-9
    assert np.abs(twice.data[..., 1:]).max() <= 1e-9


def test_laplacian3_matches_analytic_and_fd():
    dims = (24, 24, 24)
    h = 0.5
    field, _ = _sinusoid_field(dims, h, ((2, False), (1, True), (3, False)))
    w = [2.0 * np.pi * m / (n * h) for m, n in zip((2, 1, 3), dims)]
    w2 = sum(v * v for v in w)
    lap = spectral_laplacian3(MultivectorField3.from_scalar_field(field))
    assert np.abs(lap.data[..., 0] + w2 * field.values).max() <= 1e-8
    fd = fd_laplacian(field.values, h)
    assert np.abs(lap.data[..., 0] - fd).max() <= 5e-2 * np.abs(fd).max()


def test_laplacian3_higher_powers():
    dims = (12, 12, 12)
    field, _ = _sinusoid_field(dims, 1.0, ((1, False), (1, True), (2, False)))
    w = [2.0 * np.pi * m / n for m, n in zip((1, 1, 2), dims)]
    w2 = sum(v * v for v in w)
    for j in (1, 2, 3):
        out = spectral_laplacian3(MultivectorField3.from_scalar_field(field), order_j=j)
        want = (-w2) ** j * field.values
        assert np.abs(out.data[..., 0] - want).max() <= 1e-8 * max(1.0, abs(w2) ** j)
    with pytest.raises(ValueError):
        spectral_laplacian3(MultivectorField3.from_scalar_field(field), order_j=0)


def _grid2_sinusoid(dims, modes):
    g = GridSpec2(dims=dims)
    x = np.arange(dims[0])[:, None]
    y = np.arange(dims[1])[None, :]
    wx = 2.0 * np.pi * modes[0] / dims[0]
    wy = 2.0 * np.pi * modes[1] / dims[1]
    f = np.sin(wx * x) * np.cos(wy * y)
    dfx = wx * np.cos(wx * x) * np.cos(wy * y)
    dfy = -wy * np.sin(wx * x) * np.sin(wy * y)
    return g, f, dfx, dfy


def test_gradient2_split_scalar_field():
    g, f, dfx, dfy = _grid2_sinusoid((20, 24), (2, 3))
    data = np.zeros(g.dims + (4,))
    data[..., 0] = f
    grad = spectral_gradient2_split(MultivectorField2(g, data))
    assert np.abs(grad.data[..., 1] - dfx).max() <= 1e-8
    assert np.abs(grad.data[..., 2] - dfy).max() <= 1e-8
    assert np.abs(grad.data[..., 0]).max() <= 1e-8
    assert np.abs(grad.data[..., 3]).max() <= 1e-8


def test_gradient2_split_vector_field():
    # for u = f e1: scalar part of grad u is the divergence d_x f and the
    # e12 part is e2 e1 d_y f = -d_y f
    g, f, dfx, dfy = _grid2_sinusoid((18, 18), (1, 2))
    data = np.zeros(g.dims + (4,))
    data[..., 1] = f
    grad = spectral_gradient2_split(MultivectorField2(g, data))
    assert np.abs(grad.data[..., 0] - dfx).max() <= 1e-8
    assert np.abs(grad.data[..., 3] + dfy).max() <= 1e-8
    assert np.abs(grad.data[..., 1:3]).max() <= 1e-8


def test_gradient2_single_sign_fails_on_mixed_field():
    # a field with both commuting and anticommuting content cannot be
    # differentiated with one fixed sign; the split rule is the witness
    g, f, _, _ = _grid2_sinusoid((16, 16), (2, 1))
    data = np.zeros(g.dims + (4,))
    data[..., 0] = f
    data[..., 1] = f
    field = MultivectorField2(g, data)
    split = spectral_gradient2_split(field)
    for sign in (+1, -1):
        single = spectral_gradient2_single_sign(field, sign)
        deviation = np.abs(single.data - split.data).max()
        assert deviation > 1e-3, f"sign {sign} unexpectedly matched the split rule"


def test_gradient2_single_sign_matches_on_pure_fields():
    g, f, _, _ = _grid2_sinusoid((16, 16), (1, 1))
    com = np.zeros(g.dims + (4,))
    com[..., 0] = f
    com[..., 3] = 0.5 * f
    anti = np.zeros(g.dims + (4,))
    anti[..., 1] = f
    anti[..., 2] = -2.0 * f
    fc = MultivectorField2(g, com)
    fa = MultivectorField2(g, anti)
    assert np.abs(
        spectral_gradient2_single_sign(fc, +1).data - spectral_gradient2_split(fc).data
    ).max() <= 1e-10
    assert np.abs(
        spectral_gradient2_single_sign(fa, -1).data - spectral_gradient2_split(fa).data
    ).max() <= 1e-10


def test_nyquist_zeroed_for_gradient_even_dims(rng):
    # pure Nyquist sawtooth has no well-defined first derivative on the
    # grid; the odd symbol must send it to zero rather than inventing one
    dims = (8, 8, 8)
    g = _grid3(dims)
    x = np.arange(8)
    vals = np.cos(np.pi * x)[:, None, None] * np.ones((1, 8, 8))
    grad = spectral_gradient3(MultivectorField3.from_scalar_field(ScalarField3(g, vals)))
    assert np.abs(grad.data).max() <= 1e-10
    # the even Laplacian symbol keeps the Nyquist bin
    lap = spectral_laplacian3(MultivectorField3.from_scalar_field(ScalarField3(g, vals)))
    assert np.abs(lap.data[..., 0] + np.pi**2 * vals).max() <= 1e-8
    # an odd axis has no Nyquist bin: its highest mode keeps its derivative
    w = 2.0 * np.pi * 3 / 7
    x = np.arange(7)
    vals = np.cos(w * x)[:, None, None] * np.ones((1, 4, 4))
    field = MultivectorField3.from_scalar_field(ScalarField3(_grid3((7, 4, 4)), vals))
    grad = spectral_gradient3(field)
    assert np.abs(grad.data[..., 1] + w * np.sin(w * x)[:, None, None]).max() <= 1e-10
