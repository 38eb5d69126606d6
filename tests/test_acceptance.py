"""Release gate: nine numbered criteria, one PASS/FAIL verdict line each.

Each criterion prints ``ACCEPTANCE <n> PASS`` (or ``FAIL``) on the real
stdout so the verdict survives pytest capture, and asserts its own
wall-clock budget where one applies. Tolerances are pinned here and must
not be loosened; a red criterion means the implementation regressed.
"""

import contextlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from cliffsurf import (
    FilterParams,
    Multivector2,
    Multivector3,
    cft2_forward,
    cft2_inverse,
    cft3_forward,
    cft3_inverse,
    highband_energy,
    lowpass_apply,
    marching_cubes,
    mesh_metrics,
    mode_decompose,
    pack_channels,
    parse_pdb,
    parse_pqr,
    parse_xyzr,
    spectral_gradient2_split,
    spectral_gradient3,
    wedge,
    write_obj,
    write_off,
)
from cliffsurf import volumetrics
from cliffsurf.cft import (
    MultivectorField2,
    MultivectorField3,
    spectral_gradient2_single_sign,
)
from cliffsurf.cli import ENERGY_W2_THRESHOLD, RunConfig, sweep
from cliffsurf.ga import vector_dot
from cliffsurf.grids import GridSpec, GridSpec2, ScalarField3
from cliffsurf.pdefilter import frequency_response
from cliffsurf.surface import TriangleMesh

from conftest import (
    THREE_ATOM_XYZR,
    heat_rk4,
    naive_dft2,
    naive_dft3,
    sphere_distance_field,
)

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(n: int, capture, budget_s: float | None = None):
    """Time a criterion body and print its verdict on the uncaptured stdout."""

    def report(verdict):
        # leading newline: pytest's progress output leaves the cursor mid-line
        with capture.disabled():
            print(f"\nACCEPTANCE {n} {verdict}", flush=True)

    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s:.0f}s"
    except BaseException:
        report("FAIL")
        raise
    report("PASS")


# ---------------------------------------------------------------------------
# 1. algebra invariants


def test_criterion_1_algebra_invariants(capfd):
    with criterion(1, capfd, budget_s=5.0):
        rng = np.random.default_rng(1)

        # generator anticommutativity and unit squares, both signatures
        for cls, names in ((Multivector3, ("e1", "e2", "e3")), (Multivector2, ("e1", "e2"))):
            for a, b in itertools.permutations(names, 2):
                ea, eb = cls.basis(a), cls.basis(b)
                assert (ea * eb).isclose(eb * ea * -1.0, atol=0.0)
            for a in names:
                ea = cls.basis(a)
                assert (ea * ea).isclose(cls.from_scalar(1.0), atol=0.0)

        # inner/outer recovery from the product's symmetric split
        for _ in range(200):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            a, b = Multivector3.from_vector(u), Multivector3.from_vector(v)
            sym = (a * b + b * a) * 0.5
            anti = (a * b + (b * a) * -1.0) * 0.5
            assert abs(sym.scalar - np.dot(u, v)) <= 1e-10 * max(1.0, abs(np.dot(u, v)))
            assert np.abs(sym.coeffs[1:]).max() <= 1e-10
            assert anti.isclose(wedge(a, b), atol=1e-10)
            assert abs(vector_dot(a, b) - np.dot(u, v)) <= 1e-10

        # pseudoscalars square to -1
        i2, i3 = Multivector2.basis("e12"), Multivector3.basis("e123")
        assert (i2 * i2).isclose(Multivector2.from_scalar(-1.0), atol=0.0)
        assert (i3 * i3).isclose(Multivector3.from_scalar(-1.0), atol=0.0)

        # i3 commutes with 1000 random multivectors
        for _ in range(1000):
            m = Multivector3(rng.standard_normal(8) * 10.0)
            left, right = (i3 * m).coeffs, (m * i3).coeffs
            assert np.abs(left - right).max() <= 1e-9 * max(1.0, np.abs(left).max())

        # associativity of the full product
        for cls, k in ((Multivector3, 8), (Multivector2, 4)):
            for _ in range(300):
                a, b, c = (cls(rng.standard_normal(k)) for _ in range(3))
                lhs, rhs = (a * b) * c, a * (b * c)
                scale = max(1.0, np.abs(lhs.coeffs).max())
                assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# 2. transform equivalence with the naive direct-sum DFT


def test_criterion_2_transform_oracle_equivalence(capfd):
    with criterion(2, capfd, budget_s=30.0):
        rng = np.random.default_rng(2)

        # every 3D grid with all dims in 2..8, every packed channel
        for dims in itertools.product(range(2, 9), repeat=3):
            data = rng.standard_normal(dims + (8,))
            g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=dims)
            spec = cft3_forward(MultivectorField3(g, data))
            for got, ch in zip(pack_channels(spec.data), pack_channels(data)):
                want = naive_dft3(ch)
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-10 * scale, dims

        # every 2D grid with all dims in 2..8
        for dims in itertools.product(range(2, 9), repeat=2):
            data = rng.standard_normal(dims + (4,))
            spec = cft2_forward(MultivectorField2(GridSpec2(dims=dims), data))
            for got, ch in zip(pack_channels(spec.data, dim=2), pack_channels(data, dim=2)):
                want = naive_dft2(ch)
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-10 * scale, dims

        # round-trip identity on random 16^3 fields
        g3 = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(16, 16, 16))
        for _ in range(3):
            data = rng.standard_normal((16, 16, 16, 8))
            back = cft3_inverse(cft3_forward(MultivectorField3(g3, data)))
            assert np.abs(back.data - data).max() <= 1e-10
        data2 = rng.standard_normal((16, 16, 4))
        back2 = cft2_inverse(cft2_forward(MultivectorField2(GridSpec2(dims=(16, 16)), data2)))
        assert np.abs(back2.data - data2).max() <= 1e-10

        # Parseval, unnormalized forward convention
        data = rng.standard_normal((16, 12, 10, 8))
        g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(16, 12, 10))
        spec = cft3_forward(MultivectorField3(g, data)).data
        lhs = (data**2).sum()
        rhs = (spec**2).sum() / (16 * 12 * 10)
        assert abs(lhs - rhs) / lhs <= 1e-9
        data2 = rng.standard_normal((14, 9, 4))
        spec2 = cft2_forward(MultivectorField2(GridSpec2(dims=(14, 9)), data2)).data
        assert abs((data2**2).sum() - (spec2**2).sum() / (14 * 9)) / (data2**2).sum() <= 1e-9


# ---------------------------------------------------------------------------
# 3. spectral derivatives


def test_criterion_3_derivative_properties(capfd):
    with criterion(3, capfd, budget_s=10.0):
        # commensurate sinusoid with analytic partial derivatives
        dims, h = (24, 20, 16), 0.5
        g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=h, dims=dims)
        ax = [np.arange(n) * h for n in dims]
        wx, wy, wz = (2.0 * np.pi * m / (n * h) for m, n in zip((2, 3, 1), dims))
        fx, fy, fz = np.sin(wx * ax[0]), np.cos(wy * ax[1]), np.sin(wz * ax[2])
        dfx, dfy, dfz = wx * np.cos(wx * ax[0]), -wy * np.sin(wy * ax[1]), wz * np.cos(wz * ax[2])
        vals = fx[:, None, None] * fy[None, :, None] * fz[None, None, :]
        partials = (
            dfx[:, None, None] * fy[None, :, None] * fz[None, None, :],
            fx[:, None, None] * dfy[None, :, None] * fz[None, None, :],
            fx[:, None, None] * fy[None, :, None] * dfz[None, None, :],
        )
        grad = spectral_gradient3(MultivectorField3.from_scalar_field(ScalarField3(g, vals)))
        for axis in range(3):
            assert np.abs(grad.data[..., 1 + axis] - partials[axis]).max() <= 1e-8
        assert np.abs(np.delete(grad.data, (1, 2, 3), axis=-1)).max() <= 1e-8

        # planar split rule on pure-grade fields: the commuting part takes
        # one kernel sign, the anticommuting part the other
        g2 = GridSpec2(dims=(16, 16))
        x = np.arange(16)[:, None]
        y = np.arange(16)[None, :]
        f = np.sin(2.0 * np.pi * 2 * x / 16) * np.cos(2.0 * np.pi * y / 16)
        com = np.zeros((16, 16, 4))
        com[..., 0], com[..., 3] = f, 0.5 * f
        anti = np.zeros((16, 16, 4))
        anti[..., 1], anti[..., 2] = f, -2.0 * f
        fc, fa = MultivectorField2(g2, com), MultivectorField2(g2, anti)
        assert np.abs(
            spectral_gradient2_single_sign(fc, +1).data - spectral_gradient2_split(fc).data
        ).max() <= 1e-10
        assert np.abs(
            spectral_gradient2_single_sign(fa, -1).data - spectral_gradient2_split(fa).data
        ).max() <= 1e-10

        # mixed-grade witness: no single fixed sign reproduces the split
        mixed = np.zeros((16, 16, 4))
        mixed[..., 0], mixed[..., 1] = f, f
        fm = MultivectorField2(g2, mixed)
        split = spectral_gradient2_split(fm)
        for sign in (+1, -1):
            single = spectral_gradient2_single_sign(fm, sign)
            assert np.abs(single.data - split.data).max() > 1e-3, sign


# ---------------------------------------------------------------------------
# 4. frequency-domain filter


def _bandlimited_field(dims, spacing, kmax, rng, n_modes=10):
    spec = np.zeros(dims, dtype=complex)
    for _ in range(n_modes):
        k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=3))
        spec[k] = rng.standard_normal() + 1j * rng.standard_normal()
        spec[tuple(-v for v in k)] = np.conj(spec[k])
    vals = np.fft.ifftn(spec).real
    g = GridSpec(origin=(0.0, 0.0, 0.0), spacing=spacing, dims=dims)
    return ScalarField3(g, vals)


def test_criterion_4_filter_suite(capfd):
    with criterion(4, capfd, budget_s=60.0):
        rng = np.random.default_rng(4)

        # unit DC gain, bitwise, across orders and fidelity weights
        for m in range(1, 7):
            d = (0.0,) * (m - 1) + (1.0,)
            for eps in (0.0, 0.01, 3.0):
                params = FilterParams(d=d, epsilon=eps, t=7.3)
                assert frequency_response(params, 0.0) == 1.0

        # vanishing propagation time is the identity
        field = _bandlimited_field((16, 16, 16), 1.0, 2, rng)
        params = FilterParams(d=(0.0,) * 5 + (1.0,), epsilon=0.0, t=1e-15)
        out = lowpass_apply(field, params)
        assert np.abs(out.values - field.values).max() <= 1e-6

        # order 2 (m=1) agrees with a time-stepped heat-equation integrator
        field = _bandlimited_field((32, 32, 32), 1.0, 2, rng)
        params = FilterParams(d=(1.0,), epsilon=0.0, t=0.1)
        ours = lowpass_apply(field, params)
        ref = heat_rk4(field.values, 1.0, 0.1, steps=100)
        assert np.abs(ours.values - ref).max() <= 1e-4

        # pure-decay semigroup: filtering 30 then 70 equals filtering 100
        field = _bandlimited_field((16, 16, 16), 0.5, 3, rng)
        d6 = (0.0,) * 5 + (1e-6,)
        step = lambda f, t: lowpass_apply(f, FilterParams(d=d6, epsilon=0.0, t=t))
        twice = step(step(field, 30.0), 70.0)
        once = step(field, 100.0)
        scale = max(1.0, np.abs(once.values).max())
        assert np.abs(twice.values - once.values).max() <= 1e-12 * scale

        # peel-off decomposition reconstructs the input
        field = _bandlimited_field((16, 16, 16), 0.5, 4, rng)
        params = FilterParams(d=(0.1, 0.0, 1.0), epsilon=0.2, t=2.0)
        for passes in (1, 2, 5):
            dec = mode_decompose(field, [params] * passes)
            total = sum(m.values for m in dec.modes) + dec.final_residue.values
            assert np.abs(total - field.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# 5. three-atom reproduction


def test_criterion_5_three_atom_reproduction(capfd):
    with criterion(5, capfd, budget_s=120.0):
        mol = parse_xyzr(THREE_ATOM_XYZR)
        grid = volumetrics.make_grid(mol, spacing=0.25, padding=5.0)
        init = volumetrics.rasterize("piecewise", mol, grid)
        d = (0.0,) * 5 + (1.0,)  # 2m = 12

        filtered = {
            t: lowpass_apply(init, FilterParams(d=d, epsilon=0.0, t=t))
            for t in (1e1, 1e2, 1e3, 1e4, 1e5)
        }

        # reference surface: one closed component of sphere topology
        mesh = marching_cubes(filtered[1e2], 0.9)
        met = mesh_metrics(mesh)
        assert met.component_count == 1
        assert met.euler_characteristic == 2
        assert met.boundary_edge_count == 0

        # the molecule is x-mirror symmetric about x=0 and so is the grid;
        # every vertex must have a mirror partner far below weld distance
        mirrored = mesh.vertices * np.array([-1.0, 1.0, 1.0])
        dist, _ = cKDTree(mirrored).query(mesh.vertices)
        assert dist.max() <= 1e-9

        # longer propagation strictly drains the high-frequency band
        energies = [
            highband_energy(filtered[t], ENERGY_W2_THRESHOLD)
            for t in (1e1, 1e2, 1e3, 1e4, 1e5)
        ]
        for a, b in zip(energies, energies[1:]):
            assert b < a, energies


# ---------------------------------------------------------------------------
# 6. isovalue monotonicity


def test_criterion_6_isovalue_monotonicity(tmp_path, capfd):
    with criterion(6, capfd):
        path = tmp_path / "three.xyzr"
        path.write_text(THREE_ATOM_XYZR)
        # the top-order coefficient is scaled to the gridded band (h^(2m))
        # so every listed level intersects the filtered field's range
        d = (0.0,) * 5 + (0.25**12,)
        base = dict(input_path=str(path), spacing=0.25, d=d, times=(1e2, 1e4))

        combos = sweep(RunConfig(**base, isovalues=(0.4, 0.5, 0.6, 0.7, 0.8, 0.9)))
        for t in (1e2, 1e4):
            vols = [c["metrics"].enclosed_volume for c in combos if c["t"] == t]
            assert all(b >= a for a, b in zip(vols, vols[1:])), (t, vols)

        combos = sweep(
            RunConfig(**base, init_kind="gaussian", isovalues=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0))
        )
        for t in (1e2, 1e4):
            vols = [abs(c["metrics"].enclosed_volume) for c in combos if c["t"] == t]
            assert all(b <= a for a, b in zip(vols, vols[1:])), (t, vols)


# ---------------------------------------------------------------------------
# 7. sphere geometry


def test_criterion_7_sphere_geometry(capfd):
    with criterion(7, capfd):
        r = 1.8
        exact_area = 4.0 * np.pi * r**2
        exact_volume = 4.0 / 3.0 * np.pi * r**3
        errors = {}
        for h in (0.25, 0.125):
            met = mesh_metrics(marching_cubes(sphere_distance_field(r, h), r))
            errors[h] = (
                abs(met.area - exact_area) / exact_area,
                abs(met.enclosed_volume - exact_volume) / exact_volume,
            )
        assert errors[0.125][0] <= 0.02, errors
        assert errors[0.125][1] <= 0.03, errors
        assert errors[0.125][0] < errors[0.25][0]
        assert errors[0.125][1] < errors[0.25][1]


# ---------------------------------------------------------------------------
# 8. golden files and parser fixtures


def test_criterion_8_format_goldens(tmp_path, capfd):
    with criterion(8, capfd):
        # writers against hand-verified bytes
        grid = GridSpec(origin=(0.0, 0.0, 0.0), spacing=0.5, dims=(2, 2, 2))
        ramp = ScalarField3(grid, np.arange(8, dtype=float).reshape(2, 2, 2))
        volumetrics.write_volume(ramp, tmp_path / "ramp.dx")
        assert (tmp_path / "ramp.dx").read_bytes() == (GOLDEN / "unit_ramp.dx").read_bytes()

        mesh = TriangleMesh(
            np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0)]),
            [(0, 1, 2), (1, 3, 2)],
        )
        write_obj(mesh, tmp_path / "mesh.obj")
        write_off(mesh, tmp_path / "mesh.off")
        assert (tmp_path / "mesh.obj").read_bytes() == (GOLDEN / "two_tris.obj").read_bytes()
        assert (tmp_path / "mesh.off").read_bytes() == (GOLDEN / "two_tris.off").read_bytes()

        # embedded-radii path: PQR carries its own radius column
        mol = parse_pqr((GOLDEN / "fixture.pqr").read_text())
        rows = zip(mol.centers.tolist(), mol.radii.tolist(), mol.charges.tolist(), mol.labels)
        got = [(tuple(c), r, q, *label) for c, r, q, label in rows]
        assert got == [
            ((-0.677, -1.230, -0.491), 1.55, -0.30, "1", "N", "ALA"),
            ((0.001, -0.064, -0.491), 1.70, 0.21, "2", "CA", "ALA"),
            ((1.500, 2.250, 0.000), 1.52, -0.55, "3", "O1", "LIG"),
        ]
        assert len(mol.source.warnings) == 1  # the zero-radius record is dropped

        mol = parse_xyzr((GOLDEN / "fixture.xyzr").read_text())
        assert list(zip(map(tuple, mol.centers.tolist()), mol.radii.tolist())) == [
            ((0.0, 0.0, 1.8), 1.8),
            ((0.0, 0.0, -1.8), 1.8),
            ((0.0, 3.12, 0.0), 1.8),
        ]

        # table-radii path: PDB records carry elements, not radii
        mol = parse_pdb((GOLDEN / "fixture.pdb").read_text())
        got = list(zip(map(tuple, mol.centers.tolist()), mol.radii.tolist(), mol.elements))
        assert got == [
            ((-0.677, -1.230, -0.491), 1.55, "N"),
            ((0.001, -0.064, -0.491), 1.70, "C"),
            ((2.000, 2.000, 2.000), 1.50, "ZZ"),  # unknown element, default radius
            ((5.000, 5.000, 5.000), 1.52, "O"),
            ((1.000, 1.000, 1.000), 1.70, "C"),  # element recovered from atom name
        ]
        assert any("ZZ" in w for w in mol.source.warnings)


# ---------------------------------------------------------------------------
# 9. determinism across repeats and thread counts


def test_criterion_9_determinism(tmp_path, capfd):
    with criterion(9, capfd):
        source = tmp_path / "three.xyzr"
        source.write_text(THREE_ATOM_XYZR)

        def run(tag, threads):
            out = tmp_path / tag
            out.mkdir()
            env = dict(os.environ)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            ):
                env[var] = str(threads)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "cliffsurf",
                    "--input", str(source),
                    "--mesh-out", str(out / "m.obj"),
                    "--volume-out", str(out / "v.dx"),
                    "--metrics-out", str(out / "met.txt"),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return tuple((out / name).read_bytes() for name in ("m.obj", "v.dx", "met.txt"))

        first = run("a", 1)
        assert run("b", 1) == first  # identical reruns
        assert run("c", 4) == first  # independent of thread count
