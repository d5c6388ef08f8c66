"""Functionals against closed forms.

The frozen values below are hand-derived integrals of single-mode fields on
the 2pi torus; each comment states the formula so a regression is attributable
to the code, not the constant.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import iv

from thermoelast import (
    ModelParams,
    NonFinite,
    ScalarField,
    SimState,
    StepperConfig,
    TrajectoryRecorder,
    TorusGrid,
    VectorField,
    decomposition_report,
    dissipation_residual,
    entropy,
    entropy_production,
    fisher_functional,
    fisher_identity_residual,
    galerkin_initial_smallness,
    make_initial_data,
    run,
    theta_infinity_prediction,
    total_energy,
)
from thermoelast.diagnostics import (
    _BOTH,
    _ENERGY,
    _FISHER,
    DiagnosticsRecord,
    _entropy_production,
    _split_columns,
    _wave_energies,
    _Weights,
    hessian_inequality_constant,
    sqrt_hessian_integral,
    weighted_log_hessian_integral,
)
from thermoelast.grid import spectral_l2_sq
from thermoelast.operators import elastic_form, longitudinal_part
from thermoelast.scenarios import ScenarioSpec

from conftest import LEDGER_NAN_COLUMNS

MEASURE_2D = (2.0 * math.pi) ** 2


def _state(grid, u=None, v=None, theta=None, t=0.0):
    return SimState(
        t,
        u if u is not None else VectorField.zeros(grid),
        v if v is not None else VectorField.zeros(grid),
        theta if theta is not None else ScalarField(grid, np.ones(grid.shape)),
    )


# Single-mode split data on the 2pi torus, d = 2 or 3, measure M = (2pi)^d:
#   u = (a cos(x1) + b cos(2 x_d)) e1, with chi = a cos(x1) e1 (k = e1,
#   curl-free) and nu = b cos(2 x_d) e1 (k = 2 e_d, divergence-free);
#   v = (c sin(x1) + e sin(x2)) e1, with chi_t = c sin(x1) e1 and
#   nu_t = e sin(x2) e1 (k = e2); theta = 1 + g cos(x1 + ... + xd).
SPLIT_A, SPLIT_B, SPLIT_C, SPLIT_E, SPLIT_G = 0.3, 0.2, 0.5, 0.4, 0.25
SPLIT_OPERATORS = [
    pytest.param(ModelParams(mu=1.0), id="laplacian"),
    pytest.param(ModelParams(mu=1.0, operator="lame", zeta=1.3, lame_lambda=0.4), id="lame"),
]


def _split_state(d):
    grid = TorusGrid((16,) * d)
    x = [np.broadcast_to(m, grid.shape) for m in grid.meshes()]
    zero = np.zeros(grid.shape)
    u = np.stack([SPLIT_A * np.cos(x[0]) + SPLIT_B * np.cos(2 * x[-1])] + [zero] * (d - 1))
    v = np.stack([SPLIT_C * np.sin(x[0]) + SPLIT_E * np.sin(x[1])] + [zero] * (d - 1))
    theta = 1.0 + SPLIT_G * np.cos(sum(x))
    return _state(grid, u=VectorField(grid, u), v=VectorField(grid, v), theta=ScalarField(grid, theta))


def _split_theta_inf(p):
    # (1/2 ||chi_t||^2 + 1/2 a_l |k|^2 ||chi||^2 + int theta) / M
    # = 1 + (c^2 + a_l a^2) / 4, with a_l = 1 (laplacian) or 2 zeta + lam
    a_l = p.wave_speeds_sq[1]
    return 1.0 + (SPLIT_C**2 + a_l * SPLIT_A**2) / 4.0


def _cosine_theta(grid, a, baseline=1.0):
    x1 = grid.meshes()[0]
    vals = np.broadcast_to(baseline + a * np.cos(x1), grid.shape).copy()
    return ScalarField(grid, vals)


class TestEnergy:
    def test_equilibrium(self, grid2d_small):
        s = SimState.equilibrium(grid2d_small, theta_value=2.0)
        # E = int theta = 2 * (2pi)^2
        assert total_energy(s, ModelParams(mu=1.0)) == pytest.approx(2.0 * MEASURE_2D, rel=1e-14)

    def test_kinetic_and_elastic(self, grid2d_small):
        eps = 0.3
        x1 = grid2d_small.meshes()[0]
        u = VectorField.from_functions(
            grid2d_small, [lambda *m: eps * np.sin(m[0]), lambda *m: 0.0 * m[0]]
        )
        v = VectorField.from_functions(
            grid2d_small, [lambda *m: eps * np.cos(m[0]), lambda *m: 0.0 * m[0]]
        )
        s = _state(grid2d_small, u=u, v=v, theta=_cosine_theta(grid2d_small, 0.25))
        # kinetic: (1/2) eps^2 int cos^2 = eps^2 (2pi)^2 / 4; elastic equals it
        # for |k| = 1; heat: int (1 + 0.25 cos) = (2pi)^2
        want = MEASURE_2D * (1.0 + eps**2 / 4.0 + eps**2 / 4.0)
        assert total_energy(s, ModelParams(mu=1.0)) == pytest.approx(want, rel=1e-13)

    def test_lame_elastic_energy(self, grid2d_small):
        eps, zeta, lam = 0.2, 1.0, 0.5
        meshes = grid2d_small.meshes()

        def g1(*m):
            return eps * np.cos(m[0] + m[1])

        u = VectorField.from_functions(grid2d_small, [g1, g1])  # eps * grad sin(x1+x2)
        s = _state(grid2d_small, u=u)
        # curl u = 0, int (div u)^2 = 4 eps^2 int cos^2 = 2 eps^2 (2pi)^2,
        # so elastic = (2 zeta + lam) eps^2 (2pi)^2
        want = MEASURE_2D * (1.0 + (2 * zeta + lam) * eps**2)
        p = ModelParams(mu=1.0, operator="lame", zeta=zeta, lame_lambda=lam)
        assert total_energy(s, p) == pytest.approx(want, rel=1e-13)


class TestEntropyFunctionals:
    """theta = 1 + a cos(x1): all three integrals have elementary closed forms
    via int dx / (1 + a cos x) = 2 pi / sqrt(1 - a^2).

    The production integral differentiates the dealiased log, whose Fourier
    tail decays like (a / (1 + sqrt(1 - a^2)))^k, so the 32-point grid is
    needed to push truncation below the comparison tolerance.
    """

    A = 0.25

    def test_entropy(self, grid2d):
        s = _state(grid2d, theta=_cosine_theta(grid2d, self.A))
        want = (2 * math.pi) ** 2 * math.log((1.0 + math.sqrt(1.0 - self.A**2)) / 2.0)
        assert entropy(s) == pytest.approx(want, abs=1e-12)

    def test_entropy_requires_positive_theta(self, grid2d_small):
        bad = _state(grid2d_small, theta=ScalarField(grid2d_small, np.full(grid2d_small.shape, -1.0)))
        with pytest.raises(ValueError, match="positive temperature"):
            entropy(bad)

    def test_entropy_production(self, grid2d):
        s = _state(grid2d, theta=_cosine_theta(grid2d, self.A))
        want = (2 * math.pi) ** 2 * (1.0 / math.sqrt(1.0 - self.A**2) - 1.0)
        assert entropy_production(s) == pytest.approx(want, rel=1e-12)

    def test_entropy_production_vanishes_at_equilibrium(self, grid2d_small):
        s = SimState.equilibrium(grid2d_small)
        assert entropy_production(s) < 1e-24


class TestHessianIntegrals:
    def test_constant(self):
        assert hessian_inequality_constant(2) == pytest.approx(1 + math.sqrt(2) / 2 + 0.25)
        assert hessian_inequality_constant(3) == pytest.approx(1 + math.sqrt(3) / 2 + 0.375)

    def test_weighted_log_hessian_closed_form(self, grid2d_small):
        # w = exp(b cos x1): log w is band limited, hess log w has the single
        # entry -b cos x1, so the integral is b^2 int e^{b c} c^2 with
        # c = cos x1, which is b^2 (2pi)^2 (I0(b) + I2(b)) / 2
        b = 0.4
        x1 = grid2d_small.meshes()[0]
        w = ScalarField(grid2d_small, np.broadcast_to(np.exp(b * np.cos(x1)), grid2d_small.shape).copy())
        want = b**2 * MEASURE_2D * (iv(0, b) + iv(2, b)) / 2.0
        assert weighted_log_hessian_integral(w) == pytest.approx(want, rel=1e-12)

    def test_sqrt_hessian_closed_form(self, grid2d_small):
        # w = (1 + 0.3 cos x1)^2: sqrt w is exactly band limited and
        # int |hess sqrt w|^2 = 0.09 int cos^2 = 0.045 (2pi)^2
        x1 = grid2d_small.meshes()[0]
        w = ScalarField(
            grid2d_small,
            np.broadcast_to((1.0 + 0.3 * np.cos(x1)) ** 2, grid2d_small.shape).copy(),
        )
        assert sqrt_hessian_integral(w) == pytest.approx(0.045 * MEASURE_2D, rel=1e-10)

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    @pytest.mark.parametrize("a", [1e-2, 1e-3])
    def test_small_amplitude_ratio(self, shape, a):
        # criterion 4's two integrals have the ratio 1/4 - a^2/64 to leading
        # order at w = 1 + a cos x1, since hess sqrt w = sqrt(w) (hess g +
        # grad g grad g^T / 2) / 2 with g = log w.  The next order moved the
        # excess over 1/4 by 5.0e-5 relative at a = 1e-2, rounding by 7.7e-7 at 1e-3
        grid = TorusGrid(shape)
        w = ScalarField(grid, np.broadcast_to(1.0 + a * np.cos(grid.meshes()[0]), shape).copy())
        ratio = sqrt_hessian_integral(w) / weighted_log_hessian_integral(w)
        assert ratio - 0.25 == pytest.approx(-a * a / 64.0, rel=1e-4)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inequality_on_random_weights(self, dim, rng):
        from thermoelast import TorusGrid
        from conftest import random_scalar

        grid = TorusGrid((16,) * dim)
        const = hessian_inequality_constant(dim)
        for _ in range(5):
            bump = random_scalar(grid, rng, band=3)
            w = ScalarField(grid, np.exp(0.5 * bump.values / max(1.0, np.max(np.abs(bump.values)))))
            lhs = sqrt_hessian_integral(w)
            rhs = const * weighted_log_hessian_integral(w)
            assert lhs <= rhs * (1 + 1e-8) + 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("fn", [weighted_log_hessian_integral, sqrt_hessian_integral])
    def test_transform_budget(self, monkeypatch, d, fn):
        # the pointwise log or root goes forward once, is dealiased on its
        # coefficients, and its d(d+1)/2 distinct second partials come back
        # in one inverse call
        grid = TorusGrid((8,) * d)
        w = ScalarField(grid, np.broadcast_to(1.0 + 0.2 * np.cos(grid.meshes()[0]), grid.shape).copy())
        calls = []
        for name in ("to_physical", "to_spectral"):
            def counted(self, arr, name=name, real=getattr(TorusGrid, name)):
                calls.append((name, arr.shape))
                return real(self, arr)

            monkeypatch.setattr(TorusGrid, name, counted)
        fn(w)
        assert calls == [("to_spectral", grid.shape),
                         ("to_physical", (d * (d + 1) // 2,) + grid.spectral_shape)]


class TestFisher:
    def test_functional_closed_form(self, grid2d_small):
        eps, a = 0.3, 0.25
        x1 = grid2d_small.meshes()[0]
        v = VectorField.from_functions(
            grid2d_small, [lambda *m: eps * np.cos(m[0]), lambda *m: 0.0 * m[0]]
        )
        s = _state(grid2d_small, v=v, theta=_cosine_theta(grid2d_small, a))
        # grad-v: eps^2 (2pi)^2 / 2; u = 0; int |grad theta|^2 / theta =
        # a^2 int sin^2 x / (1 + a cos x) = (2pi)^2 (1 - sqrt(1 - a^2))
        want = 0.5 * (
            eps**2 * MEASURE_2D / 2.0 + MEASURE_2D * (1.0 - math.sqrt(1.0 - a**2))
        )
        got = fisher_functional(s, ModelParams(mu=1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_lame_elastic_term_closed_form(self, grid2d_small):
        # u = eps grad sin(x1 + x2) is curl-free with |k|^2 = 2, so the
        # |k|^2-weighted elastic term is a_l |k|^4 int |u|^2 =
        # 4 a_l eps^2 (2pi)^2 and F = 2 (2 zeta + lam) eps^2 (2pi)^2
        zeta, lam, eps = 1.3, 0.4, 0.2

        def g(*m):
            return eps * np.cos(m[0] + m[1])

        s = _state(grid2d_small, u=VectorField.from_functions(grid2d_small, [g, g]))
        p = ModelParams(mu=1.0, operator="lame", zeta=zeta, lame_lambda=lam)
        want = 2.0 * (2.0 * zeta + lam) * eps**2 * MEASURE_2D
        assert fisher_functional(s, p) == pytest.approx(want, rel=1e-12)

    def test_identity_residual_small(self, grid2d_small):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        p = ModelParams(mu=1.0)
        res = fisher_identity_residual(s, p, dt_micro=1e-5)
        assert abs(res) < 1e-8

    def test_identity_residual_second_order(self):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        p = ModelParams(mu=1.0)
        r1 = abs(fisher_identity_residual(s, p, dt_micro=8e-3))
        r2 = abs(fisher_identity_residual(s, p, dt_micro=4e-3))
        assert r1 / r2 > 3.5

    def test_smallness_functional(self, grid2d_small):
        p = ModelParams(mu=1.0)
        s = SimState.equilibrium(grid2d_small)
        assert galerkin_initial_smallness(s, p) < 1e-24
        s2 = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=5e-3))
        assert 0.0 < galerkin_initial_smallness(s2, p) < 1e-2

    @pytest.mark.parametrize("p", SPLIT_OPERATORS)
    def test_smallness_is_twice_laplacian_fisher(self, p):
        # the gate reads the Laplacian speeds whatever the operator of p
        s = make_initial_data(ScenarioSpec("random", n=16, epsilon=0.05, seed=5))
        assert galerkin_initial_smallness(s, p) == 2 * fisher_functional(s, ModelParams(mu=1.0))

    @pytest.mark.parametrize("fn", [fisher_functional, galerkin_initial_smallness, fisher_identity_residual])
    def test_requires_positive_theta(self, grid2d_small, fn):
        theta = np.ones(grid2d_small.shape)
        theta[1, 2] = -0.5
        s = _state(grid2d_small, theta=ScalarField(grid2d_small, theta))
        with pytest.raises(ValueError, match="requires positive temperature, min is -0.5"):
            fn(s, ModelParams(mu=1.0))

    def test_non_finite_state_is_not_blamed_on_the_micro_step(self):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        s.t = 0.5
        s.u.components[0, 3, 4] = math.nan
        with pytest.raises(NonFinite, match=r"^non-finite u at t=0\.5$"):
            fisher_identity_residual(s, ModelParams(mu=1.0))

    def test_micro_step_that_breaks_the_probe_is_named(self):
        # the backward half runs the heat flow backwards: at dt_micro = 1
        # the stepped temperature goes negative, at 10 it overflows
        s = make_initial_data(ScenarioSpec("small-mixed", n=32, epsilon=0.1))
        p = ModelParams(mu=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dt_micro, cause in ((1.0, "requires positive temperature"), (10.0, "non-finite u")):
                with pytest.raises(ValueError, match=f"^dt_micro={dt_micro:g} is too large for the "
                                                     f"identity probe: .*{cause}"):
                    fisher_identity_residual(s, p, dt_micro)

    @pytest.mark.parametrize("dt_micro", [0.0, -1e-5, math.nan, math.inf])
    def test_identity_rejects_bad_micro_step(self, grid2d_small, dt_micro):
        s = SimState.equilibrium(grid2d_small)
        with pytest.raises(ValueError, match="dt_micro must be > 0"):
            fisher_identity_residual(s, ModelParams(mu=1.0), dt_micro)


class TestThetaInfinity:
    def test_gradient_data_prediction(self, grid2d_small):
        eps = 0.1
        meshes = grid2d_small.meshes()

        def g1(*m):
            return eps * np.cos(m[0] + m[1])

        u = VectorField.from_functions(grid2d_small, [g1, g1])
        s = _state(grid2d_small, u=u)
        # curl-free elastic energy eps^2 (2pi)^2 redistributes into heat:
        # theta_inf = 1 + eps^2 for the plain operator
        want = 1.0 + eps**2
        got = theta_infinity_prediction(s, ModelParams(mu=1.0))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", SPLIT_OPERATORS)
    @pytest.mark.parametrize("d", [2, 3], ids=["2D", "3D"])
    def test_split_data_prediction(self, d, p):
        # only chi and chi_t thermalise: theta_inf = 1 + (c^2 + a_l a^2) / 4
        got = theta_infinity_prediction(_split_state(d), p)
        assert got == pytest.approx(_split_theta_inf(p), rel=1e-12)

    def test_divergence_free_data_is_inert(self, grid2d_small):
        s = make_initial_data(ScenarioSpec("small-div-free", n=16, epsilon=0.2))
        got = theta_infinity_prediction(s, ModelParams(mu=1.0))
        assert got == pytest.approx(1.0, rel=1e-12)


class TestDecompositionReport:
    @pytest.mark.parametrize("p", SPLIT_OPERATORS)
    @pytest.mark.parametrize("d", [2, 3], ids=["2D", "3D"])
    def test_single_mode_closed_forms(self, d, p):
        s = _split_state(d)
        measure = (2.0 * math.pi) ** d
        a_t = p.wave_speeds_sq[0]
        theta_inf = _split_theta_inf(p)
        got = decomposition_report(s, s, p)
        # chi_h1^2 = (1 + |k|^2) a^2 M / 2 = a^2 M
        assert got["chi_h1"] == pytest.approx(SPLIT_A * math.sqrt(measure), rel=1e-12)
        # chi_t_l2^2 = c^2 M / 2
        assert got["chi_t_l2"] == pytest.approx(SPLIT_C * math.sqrt(measure / 2.0), rel=1e-12)
        # nu_energy = 1/2 e^2 M / 2 + 1/2 a_t |2|^2 b^2 M / 2 = e^2 M / 4 + a_t b^2 M
        want_nu = SPLIT_E**2 * measure / 4.0 + a_t * SPLIT_B**2 * measure
        assert got["nu_energy"] == pytest.approx(want_nu, rel=1e-12)
        assert got["theta_infinity"] == pytest.approx(theta_inf, rel=1e-12)
        # ||theta - theta_inf||^2 = (theta_inf - 1)^2 M + g^2 M / 2
        want_dist = math.sqrt(measure * ((theta_inf - 1.0) ** 2 + SPLIT_G**2 / 2.0))
        assert got["theta_l2_dist"] == pytest.approx(want_dist, rel=1e-12)

    @pytest.mark.parametrize("d, p", [
        pytest.param(d, param.values[0], id=param.id + ("" if d == 2 else "-3d"))
        for d in (2, 3) for param in SPLIT_OPERATORS
    ])
    def test_recorder_row_is_the_public_functions(self, d, p):
        # the recorder and the public functions share one kernel per column,
        # so a row after the first equals them bit for bit
        states = []
        rec = TrajectoryRecorder(p)

        def sink(s):
            states.append(s.copy())
            rec(s)

        s0 = make_initial_data(ScenarioSpec("random", d=d, n=16 if d == 2 else 8, seed=7))
        run(s0, p, StepperConfig(dt=1e-3, t_end=0.004, record_every=2), sink=sink)
        first, s = states[0], states[1]
        row = rec.records[1]
        assert row.t == s.t > first.t
        assert row.energy == total_energy(s, p)
        assert row.entropy == entropy(s)
        assert row.entropy_production == entropy_production(s)
        assert row.theta_min == float(np.min(s.theta.values))
        assert row.theta_max == float(np.max(s.theta.values))
        assert row.fisher_functional == fisher_functional(s, p)
        report = decomposition_report(s, first, p)
        for key in ("chi_h1", "chi_t_l2", "nu_energy", "theta_l2_dist"):
            assert getattr(row, key) == report[key], key


@pytest.mark.parametrize("n", [(128, 128), (16, 16, 16)])
@pytest.mark.parametrize("p", SPLIT_OPERATORS)
def test_block_sums_are_the_per_column_sums(n, p, rng):
    # each block reduction gives every column the bits of its own
    # spectral_l2_sq / elastic_form call, the per-column form of the kernel
    grid = TorusGrid(n)
    w = _Weights(grid)
    spec = grid.to_spectral(rng.standard_normal((2 * grid.d + 1,) + grid.shape))
    uh, vh, log_spec = spec[:grid.d], spec[grid.d:2 * grid.d], spec[2 * grid.d]
    pair = spec[:2 * grid.d].reshape((2, grid.d) + grid.spectral_shape)
    speeds, k_sq = p.wave_speeds_sq, grid.k_sq
    energy = 0.5 * spectral_l2_sq(grid, vh) + 0.5 * elastic_form(grid, uh, speeds)
    fisher = 0.5 * spectral_l2_sq(grid, vh, k_sq) + 0.5 * elastic_form(grid, uh, speeds, k_sq)
    assert _wave_energies(w, p, pair, _BOTH) == [energy, fisher]
    assert _wave_energies(w, p, pair, _ENERGY) == [energy]
    assert _wave_energies(w, p, pair, _FISHER) == [fisher]
    assert _entropy_production(w, log_spec) == spectral_l2_sq(grid, log_spec * grid.dealias_mask, k_sq)
    chi = longitudinal_part(grid, pair)[1]
    chi_u, chi_v = (longitudinal_part(grid, xh)[1] for xh in (uh, vh))
    assert np.array_equal(chi, np.stack([chi_u, chi_v]))
    report = _split_columns(w, p, pair, chi.copy(), _state(grid), 1.0)
    assert report["chi_h1"] == math.sqrt(spectral_l2_sq(grid, chi_u, 1.0 + k_sq))
    assert report["chi_t_l2"] == math.sqrt(spectral_l2_sq(grid, chi_v))
    assert report["nu_energy"] == (0.5 * spectral_l2_sq(grid, vh - chi_v)
                                   + 0.5 * elastic_form(grid, uh - chi_u, speeds))


# One 3D N=48 record of random data under each operator, frozen as float.hex
# from the per-column reduction the block kernel replaced (NumPy 2.4 and
# SciPy 1.17's pocketfft): the ledger battery's columns are the full one's.
# The entropy production is spectral_l2_sq(grid, log_spec * grid.dealias_mask,
# k_sq) on the 2/3 cube |index| <= 15.
RECORD_48 = {
    "laplacian": {
        "energy": "0x1.f9e4cd8673236p+7", "entropy": "-0x1.2882d21fbe995p-4",
        "entropy_production": "0x1.7576d6e53f6bfp+1", "fisher_functional": "0x1.e8e2eb50b022ap+6",
        "theta_min": "0x1.d495df57e0555p-1", "theta_max": "0x1.199999999999ap+0",
        "chi_h1": "0x1.c8b51374ecaa7p+0", "chi_t_l2": "0x1.9db60b723ccafp-2",
        "nu_energy": "0x1.a664d345b5976p+1", "theta_l2_dist": "0x1.931da99a7d175p-2",
    },
    "lame": {
        "energy": "0x1.00eae0569435ap+8", "entropy": "-0x1.2882d21fbe995p-4",
        "entropy_production": "0x1.7576d6e53f6bfp+1", "fisher_functional": "0x1.ba506dc6b8fa5p+7",
        "theta_min": "0x1.d495df57e0555p-1", "theta_max": "0x1.199999999999ap+0",
        "chi_h1": "0x1.c8b51374ecaa7p+0", "chi_t_l2": "0x1.9db60b723ccafp-2",
        "nu_energy": "0x1.0f61f88e71e8fp+2", "theta_l2_dist": "0x1.ec299d61a0052p-2",
    },
}
LEDGER_COLUMNS = ("energy", "entropy", "entropy_production", "theta_min", "theta_max")


@pytest.fixture(scope="module")
def state_48():
    return make_initial_data(ScenarioSpec("random", d=3, n=48, seed=3, epsilon=0.1))


@pytest.mark.parametrize("battery", ["full", "ledger"])
@pytest.mark.parametrize("p", SPLIT_OPERATORS)
def test_record_48_is_frozen(state_48, p, battery):
    rec = TrajectoryRecorder(p, battery=battery)
    rec(state_48)
    row = vars(rec.records[0])
    want = RECORD_48[p.operator]
    columns = want if battery == "full" else LEDGER_COLUMNS
    assert {key: row[key].hex() for key in columns} == {key: want[key] for key in columns}


class TestDissipationResidual:
    def test_exact_books_balance(self):
        recs = [
            DiagnosticsRecord(
                t=float(i),
                energy=10.0 - 0.5 * i,
                entropy=1.0 + 0.5 * i,
                entropy_production=0.5,
                production_integral=1.0 * i,
                dissipation_residual=math.nan,
                fisher_functional=0.0,
                theta_min=1.0,
                theta_max=1.0,
                chi_h1=0.0,
                chi_t_l2=0.0,
                nu_energy=0.0,
                theta_l2_dist=0.0,
            )
            for i in range(5)
        ]
        assert dissipation_residual(recs) == pytest.approx(0.0, abs=1e-15)

    def test_detects_leak(self):
        recs = [
            DiagnosticsRecord(
                t=float(i), energy=10.0 - 0.1 * i, entropy=1.0, entropy_production=0.0,
                production_integral=0.0, dissipation_residual=math.nan, fisher_functional=0.0,
                theta_min=1.0, theta_max=1.0,
                chi_h1=0.0, chi_t_l2=0.0, nu_energy=0.0, theta_l2_dist=0.0,
            )
            for i in range(3)
        ]
        assert dissipation_residual(recs) == pytest.approx(0.2 / 9.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="record"):
            dissipation_residual([])


@pytest.fixture(scope="module")
def recorded():
    s0 = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
    p = ModelParams(mu=1.0)
    rec = TrajectoryRecorder(p)
    run(s0, p, StepperConfig(dt=1e-3, t_end=0.2, record_every=20), sink=rec)
    return rec


class TestTrajectoryRecorder:

    def test_counts_and_times(self, recorded):
        recs = recorded.records
        # initial + steps 20, 40, ..., 200 (the last is also the final state)
        assert len(recs) == 11
        assert recs[0].t == 0.0
        assert recs[-1].t == pytest.approx(0.2)

    def test_reference_quantities(self, recorded):
        recs = recorded.records
        assert recs[0].production_integral == 0.0
        assert recs[0].chi_h1 > 0.0
        # theta distance to the predicted limit is finite and bounded
        assert all(np.isfinite(r.theta_l2_dist) for r in recs)

    def test_energy_books(self, recorded):
        recs = recorded.records
        res = dissipation_residual(recs)
        # trapezoid error on a coarse cadence, not machine noise
        assert res < 1e-6

    def test_identity_on_demand(self):
        # the residual is a function of a state, applied to the states a
        # run emits
        s0 = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        p = ModelParams(mu=1.0)
        states = []
        run(s0, p, StepperConfig(dt=1e-3, t_end=0.01, record_every=10), sink=states.append)
        assert [s.t for s in states] == pytest.approx([0.0, 0.01])
        assert all(abs(fisher_identity_residual(s, p, dt_micro=1e-4)) < 1e-5 for s in states)

    def test_ledger_battery_matches_full_on_balance_columns(self, recorded):
        s0 = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        p = ModelParams(mu=1.0)
        rec = TrajectoryRecorder(p, battery="ledger")
        run(s0, p, StepperConfig(dt=1e-3, t_end=0.2, record_every=20), sink=rec)
        assert len(rec.records) == len(recorded.records)
        for light, full in zip(rec.records, recorded.records):
            assert light.energy == full.energy
            assert light.entropy == full.entropy
            assert light.entropy_production == full.entropy_production
            assert light.production_integral == full.production_integral
            assert light.theta_min == full.theta_min
            assert light.theta_max == full.theta_max
            assert all(math.isnan(getattr(light, name)) for name in LEDGER_NAN_COLUMNS)
        # the ledger audit itself works on ledger records
        assert dissipation_residual(rec.records) == dissipation_residual(recorded.records)

    def test_grid_is_fixed_by_the_first_state(self):
        # the Parseval weights are built for the first state's grid; a state
        # on another grid is refused, not folded into the same balance
        p = ModelParams(mu=1.0)
        rec = TrajectoryRecorder(p)
        small = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        rec(small)
        big = make_initial_data(ScenarioSpec("small-mixed", n=32, epsilon=0.1))
        with pytest.raises(ValueError, match=r"n_per_axis=\(16, 16\).*n_per_axis=\(32, 32\)"):
            rec(big)
        assert len(rec.records) == 1
        equal = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1, seed=1))
        equal.t = 0.5  # after the first state, which the recorder also requires
        rec(equal)  # an equal grid
        assert len(rec.records) == 2

    @pytest.mark.parametrize("order", [(0.0, 0.005, 0.01, 0.0), (0.01, 0.0)])
    def test_state_not_after_the_last_is_refused(self, order):
        # the production integral runs forward in time: a repeated or earlier
        # state is refused before it is transformed or recorded
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.1))
        rec = TrajectoryRecorder(ModelParams(mu=1.0), battery="ledger")
        for t in order[:-1]:
            s.t = t
            rec(s)
        s.t = order[-1]
        with pytest.raises(ValueError,
                           match=rf"last state is at t={order[-2]}, got a state at t={order[-1]}$"):
            rec(s)
        assert [r.t for r in rec.records] == list(order[:-1])

    def test_battery_validation(self):
        p = ModelParams(mu=1.0)
        with pytest.raises(ValueError, match="battery must be"):
            TrajectoryRecorder(p, battery="everything")
