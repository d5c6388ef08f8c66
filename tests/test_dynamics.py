"""Stepper behavior: exact linear limits, conservation, positivity handling,
the stability bound, determinism, and the Galerkin product-band mode.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft._pocketfft import pypocketfft

from thermoelast import (
    ModelParams,
    NonFinite,
    PositivityLoss,
    ScalarField,
    SimState,
    StepTooLarge,
    StepperConfig,
    TorusGrid,
    TrajectoryRecorder,
    VectorField,
    helmholtz_project,
    make_initial_data,
    run,
)
from thermoelast import dynamics
from thermoelast.dynamics import _floor_certificate
from thermoelast.scenarios import ScenarioSpec

from reference_rhs import evaluate_rhs

TINY_MU = 1e-30  # decouples the fields while keeping mu > 0


class TestParamValidation:
    def test_mu_positive(self):
        with pytest.raises(ValueError, match="mu must be > 0"):
            ModelParams(mu=0.0)

    def test_operator_name(self):
        with pytest.raises(ValueError, match="operator must be one of"):
            ModelParams(mu=1.0, operator="biharmonic")

    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_zeta_positive(self, operator):
        with pytest.raises(ValueError, match=r"zeta must be > 0, got 0\.0"):
            ModelParams(mu=1.0, operator=operator, zeta=0.0)

    @pytest.mark.parametrize("field", ["mu", "zeta", "lame_lambda"])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, operator, bad):
        kwargs = {"mu": 1.0, "operator": operator, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad}"):
            ModelParams(**kwargs)

    def test_dimension_validation_for_lame(self):
        p = ModelParams(mu=1.0, operator="lame", zeta=1.0, lame_lambda=-1.0)
        with pytest.raises(ValueError, match=r"d\*lam"):
            p.validate_for_dimension(2)

    def test_stepper_config_constraints(self):
        with pytest.raises(ValueError, match="dt must be > 0"):
            StepperConfig(dt=0.0)
        with pytest.raises(ValueError, match="t_end must be >= 0"):
            StepperConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError, match="positivity_floor"):
            StepperConfig(dt=0.1, positivity_floor=0.0)
        with pytest.raises(ValueError, match="record_every"):
            StepperConfig(dt=0.1, record_every=0)
        with pytest.raises(ValueError, match="integer multiple"):
            StepperConfig(dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="product_band must be >= 0"):
            StepperConfig(dt=0.1, product_band=-1)
        with pytest.raises(ValueError, match="requires dealias"):
            StepperConfig(dt=0.1, dealias=False, product_band=2)
        assert StepperConfig(dt=0.25, t_end=1.0).n_steps() == 4

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_stepper_config_rejects_non_finite_times(self, value):
        # an infinite t_end has no step count, and dt = inf would pass the
        # lattice check (0 * inf is NaN) and run zero steps
        with pytest.raises(ValueError, match="dt must be > 0 and finite"):
            StepperConfig(dt=value, t_end=1.0)
        with pytest.raises(ValueError, match="t_end must be >= 0 and finite"):
            StepperConfig(dt=1e-3, t_end=value)

    def test_state_grids_must_match(self, grid2d_small, grid2d):
        with pytest.raises(ValueError, match="share one grid"):
            SimState(
                0.0,
                VectorField.zeros(grid2d_small),
                VectorField.zeros(grid2d_small),
                ScalarField.zeros(grid2d),
            )


class TestExactLinearLimits:
    """With the coupling strength at 1e-30 the linear sub-flows are exact."""

    def test_heat_decay(self, grid2d_small):
        x1 = grid2d_small.meshes()[0]
        theta0 = np.broadcast_to(1.0 + 0.3 * np.cos(x1), grid2d_small.shape).copy()
        s0 = SimState(
            0.0,
            VectorField.zeros(grid2d_small),
            VectorField.zeros(grid2d_small),
            ScalarField(grid2d_small, theta0),
        )
        p = ModelParams(mu=TINY_MU)
        final = run(s0, p, StepperConfig(dt=0.01, t_end=1.0))
        want = 1.0 + 0.3 * math.exp(-1.0) * np.cos(x1)
        np.testing.assert_allclose(final.theta.values, np.broadcast_to(want, grid2d_small.shape),
                                   atol=1e-12)

    def test_wave_period_return(self, grid2d_small):
        x1 = grid2d_small.meshes()[0]
        u0 = np.zeros((2,) + grid2d_small.shape)
        u0[0] = np.broadcast_to(np.cos(x1), grid2d_small.shape)
        s0 = SimState(
            0.0,
            VectorField(grid2d_small, u0),
            VectorField.zeros(grid2d_small),
            ScalarField(grid2d_small, np.ones(grid2d_small.shape)),
        )
        dt = 2.0 * math.pi / 256
        final = run(s0, ModelParams(mu=TINY_MU), StepperConfig(dt=dt, t_end=256 * dt))
        np.testing.assert_allclose(final.u.components, u0, atol=1e-12)
        assert np.max(np.abs(final.v.components)) < 1e-12

    @pytest.mark.parametrize(
        "build, zeta, lam, speed_sq, ksq",
        [
            # longitudinal: u parallel to k, speed^2 = 2*zeta + lam
            ("long", 1.0, 0.5, 2.5, 2.0),
            # transverse: u orthogonal to k, speed^2 = zeta
            ("trans", 2.0, -1.5, 2.0, 1.0),
            # 3D: both kinds of mode, one mode carrying both, and a drifting
            # mean, all with nonzero velocity; speeds follow from zeta, lam
            ("mixed3d", 1.5, 0.25, None, None),
        ],
    )
    def test_elastic_wave_speeds(self, grid2d_small, build, zeta, lam, speed_sq, ksq):
        # pieces (|k|^2, speed^2, u direction, v direction, u profile,
        # v profile) that each rotate with omega = sqrt(speed^2 |k|^2)
        if build == "mixed3d":
            grid = TorusGrid((8, 8, 8))
            x, y, z = grid.meshes()
            a_l = 2.0 * zeta + lam
            pieces = [
                (2.0, a_l, (1.0, 1.0, 0.0), (0.5, 0.5, 0.0), np.cos(x + y), np.sin(x + y)),
                (2.0, zeta, (0.7, 0.0, 0.0), (0.0, 0.3, -0.3), np.sin(y + z), np.cos(y + z)),
                (1.0, a_l, (0.0, 0.0, 0.6), (0.0, 0.0, -0.3), np.cos(z), np.sin(z)),
                (1.0, zeta, (0.4, 0.0, 0.0), (0.0, 0.2, 0.0), np.cos(z), np.sin(z)),
                (0.0, zeta, (0.1, -0.2, 0.3), (0.05, 0.0, -0.02), 1.0, 1.0),
            ]
        else:
            grid = grid2d_small
            x, y = grid.meshes()
            u_dir, f = ((1.0, 1.0), np.cos(x + y)) if build == "long" else ((1.0, 0.0), np.sin(y))
            pieces = [(ksq, speed_sq, u_dir, (0.0, 0.0), f, 0.0)]

        def field(direction, profile):
            return np.stack([c * np.broadcast_to(profile, grid.shape) for c in direction])

        t_end = 0.5
        u0 = sum(field(ud, f) for _, _, ud, _, f, _ in pieces)
        v0 = sum(field(vd, g) for _, _, _, vd, _, g in pieces)
        want_u = np.zeros_like(u0)
        want_v = np.zeros_like(v0)
        for k_sq, c_sq, ud, vd, f, g in pieces:
            omega = math.sqrt(c_sq * k_sq)
            cos = math.cos(omega * t_end)
            sinc = math.sin(omega * t_end) / omega if omega else t_end
            want_u += cos * field(ud, f) + sinc * field(vd, g)
            want_v += -omega**2 * sinc * field(ud, f) + cos * field(vd, g)
        s0 = SimState(
            0.0, VectorField(grid, u0), VectorField(grid, v0), ScalarField(grid, np.ones(grid.shape))
        )
        p = ModelParams(mu=TINY_MU, operator="lame", zeta=zeta, lame_lambda=lam)
        final = run(s0, p, StepperConfig(dt=1e-3, t_end=t_end))
        np.testing.assert_allclose(final.u.components, want_u, atol=1e-11)
        np.testing.assert_allclose(final.v.components, want_v, atol=1e-11)


class TestTendencies:
    def test_equilibrium_is_steady(self, grid2d_small):
        s = SimState.equilibrium(grid2d_small, theta_value=2.0)
        du, dv, dth = evaluate_rhs(s, ModelParams(mu=1.0))
        assert np.max(np.abs(du.components)) == 0.0
        assert np.max(np.abs(dv.components)) < 1e-13
        assert np.max(np.abs(dth.values)) < 1e-13

    def test_analytic_tendencies(self, grid2d_small):
        a, mu = 0.2, 2.0
        x1 = grid2d_small.meshes()[0]
        theta = np.broadcast_to(1.0 + a * np.cos(x1), grid2d_small.shape).copy()
        s = SimState(
            0.0,
            VectorField.zeros(grid2d_small),
            VectorField.zeros(grid2d_small),
            ScalarField(grid2d_small, theta),
        )
        du, dv, dth = evaluate_rhs(s, ModelParams(mu=mu))
        want_dv0 = mu * a * np.sin(x1)  # -mu * grad(theta)
        np.testing.assert_allclose(
            dv.components[0], np.broadcast_to(want_dv0, grid2d_small.shape), atol=1e-12
        )
        assert np.max(np.abs(dv.components[1])) < 1e-12
        want_dth = -a * np.cos(x1)  # pure heat flow, div v = 0
        np.testing.assert_allclose(
            dth.values, np.broadcast_to(want_dth, grid2d_small.shape), atol=1e-12
        )

    def test_step_consistent_with_tendencies(self):
        from thermoelast.dynamics import _signed_step

        s = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
        p = ModelParams(mu=1.0)
        dt = 1e-4
        fwd = _signed_step(s, p, dt)
        bwd = _signed_step(s, p, -dt)
        du, dv, dth = evaluate_rhs(s, p)
        for got, want in (
            ((fwd.u.components - bwd.u.components) / (2 * dt), du.components),
            ((fwd.v.components - bwd.v.components) / (2 * dt), dv.components),
            ((fwd.theta.values - bwd.theta.values) / (2 * dt), dth.values),
        ):
            scale = max(float(np.max(np.abs(want))), 1e-12)
            assert np.max(np.abs(got - want)) / scale < 1e-6

    @pytest.mark.parametrize("scenario, operator", [("small-mixed", "laplacian"),
                                                    ("lame-small-mixed", "lame")])
    def test_round_trip_is_fourth_order_not_exact(self, scenario, operator):
        # the explicit midpoint coupling is not self-adjoint, so a step back
        # misses the start by O(h^4): second order, not time-symmetric
        from thermoelast.dynamics import _signed_step

        s = make_initial_data(ScenarioSpec(scenario, epsilon=0.2))
        p = ModelParams(mu=1.0, operator=operator)
        misses = []
        for h in (0.04, 0.02, 0.01):
            back = _signed_step(_signed_step(s, p, h), p, -h)
            misses.append(max(float(np.max(np.abs(x - y))) for x, y in (
                (back.u.components, s.u.components),
                (back.v.components, s.v.components),
                (back.theta.values, s.theta.values),
            )))
        assert misses[0] / misses[1] >= 12.0 and misses[1] / misses[2] >= 12.0
        assert misses[2] > 1e-12


def _shear_state(grid: TorusGrid) -> SimState:
    """Uniform temperature with a compressive velocity: theta decays fast
    where div v > 0."""
    x1 = grid.meshes()[0]
    v = np.zeros((2,) + grid.shape)
    v[0] = np.broadcast_to(np.sin(x1), grid.shape)
    return SimState(
        0.0,
        VectorField.zeros(grid),
        VectorField(grid, v),
        ScalarField(grid, np.ones(grid.shape)),
    )


class TestPositivity:
    def test_loss_raises(self, grid2d_small):
        s0 = _shear_state(grid2d_small)
        cfg = StepperConfig(dt=0.05, t_end=0.5, positivity_floor=0.97)
        with pytest.raises(PositivityLoss) as err:
            run(s0, ModelParams(mu=1.0), cfg)
        assert err.value.t == pytest.approx(0.05)

    def test_initial_state_already_below_floor(self, grid2d_small):
        s0 = _shear_state(grid2d_small)
        cfg = StepperConfig(dt=0.05, t_end=0.5, positivity_floor=2.0)
        with pytest.raises(PositivityLoss):
            run(s0, ModelParams(mu=1.0), cfg)

    def test_single_step_entry_point(self, grid2d_small):
        s0 = _shear_state(grid2d_small)
        cfg = StepperConfig(dt=0.05, t_end=0.05, positivity_floor=0.97)
        with pytest.raises(PositivityLoss):
            run(s0, ModelParams(mu=1.0), cfg)
        out = run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.05, t_end=0.05))
        assert out.t == pytest.approx(0.05)


@st.composite
def _straddling_spectra(draw):
    """(grid, theta^, floor, shift): a Nyquist-free temperature spectrum whose
    zero mode puts the l1 bound a relative shift (|shift| <= 1e-6) above the
    floor.  With aligned phases the minimum, at a grid point, meets the bound."""
    grid = TorusGrid(draw(st.sampled_from([(16, 16), (32, 32), (8, 8, 8)])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    spec = grid.to_spectral(rng.standard_normal(grid.shape)) * grid.nyquist_free_mask
    if draw(st.booleans()):
        point = [ell * rng.integers(m) / m for m, ell in zip(grid.n_per_axis, grid.length_per_axis)]
        phase = sum(k * x for k, x in zip(grid.wavevectors, point))
        spec = -np.abs(spec) * np.exp(-1j * phase)
    spec[(0,) * grid.d] = 0.0
    tail = math.fsum((np.abs(spec) * grid.hermitian_weight).ravel())
    floor = draw(st.floats(min_value=1e-10, max_value=10.0))
    shift = draw(st.floats(min_value=-1e-6, max_value=1e-6))
    spec[(0,) * grid.d] = grid.n_total * floor + tail * (1.0 + shift)
    return grid, spec, floor, shift


class TestFloorCertificate:
    """The spectral half of the positivity rule: it clears a step only when
    the inverse transform, as computed, stays above the floor, and a run
    that uses it is byte-identical to one that transforms every step."""

    @settings(max_examples=200, deadline=None)
    @given(_straddling_spectra())
    def test_clears_only_above_the_floor(self, case):
        grid, spec, floor, shift = case
        clears = _floor_certificate(grid, floor)(spec)
        if clears:
            assert float(np.min(grid.to_physical(spec))) > floor
        # the rounding margin is far below a relative 1e-10 of the bound
        assert clears == (shift > 1e-10) or abs(shift) <= 1e-10

    @pytest.mark.parametrize("zero_mode", [0.0, -1.0, -1e-300, 0.0 + 5.0j, -2.0 + 1e3j])
    def test_declines_without_a_positive_mean(self, grid2d_small, make_scalar, rng, zero_mode):
        spec = make_scalar(grid2d_small, rng, band=3).spectral() * 1e-12
        spec[0, 0] = zero_mode
        assert not _floor_certificate(grid2d_small, 1e-300)(spec)
        spec[:] = 0.0
        spec[0, 0] = zero_mode
        assert not _floor_certificate(grid2d_small, 1e-300)(spec)

    @staticmethod
    def _runs(monkeypatch, s0, p, cfg):
        """{"certified" | "every-step": (emitted states, (t, theta_min) of a
        PositivityLoss or None, inverse transforms)} with the certificate
        and with it declining every step, and the certificate's verdicts."""
        verdicts: list[bool] = []
        inverses = [0]

        def recording(grid, floor):
            clears = _floor_certificate(grid, floor)

            def verdict(th):
                verdicts.append(clears(th))
                return verdicts[-1]

            return verdict

        real_inverse = TorusGrid.to_physical

        def counted(self, spec):
            inverses[0] += 1
            return real_inverse(self, spec)

        monkeypatch.setattr(TorusGrid, "to_physical", counted)
        out = {}
        for name, certificate in (("certified", recording),
                                  ("every-step", lambda grid, floor: lambda th: False)):
            monkeypatch.setattr(dynamics, "_floor_certificate", certificate)
            inverses[0] = 0
            states: list[SimState] = []
            try:
                run(s0, p, cfg, sink=states.append)
                error = None
            except PositivityLoss as exc:
                error = (exc.t, exc.theta_min)
            out[name] = (states, error, inverses[0])
        return out, verdicts

    @staticmethod
    def _assert_same_states(a: list[SimState], b: list[SimState]) -> None:
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.t == y.t
            assert x.u.components.tobytes() == y.u.components.tobytes()
            assert x.v.components.tobytes() == y.v.components.tobytes()
            assert x.theta.values.tobytes() == y.theta.values.tobytes()

    def test_large_run_falls_back_where_the_bound_misses(self, monkeypatch):
        # the l1 bound of `large` drops below zero while min(theta) stays
        # near 0.36, so part of the run needs the inverse transform
        s0 = make_initial_data(ScenarioSpec("large", seed=7))
        cfg = StepperConfig(dt=2e-3, t_end=1.0, record_every=50)
        out, verdicts = self._runs(monkeypatch, s0, ModelParams(mu=1.0), cfg)
        (states, error, inverses), (ref_states, ref_error, ref_inverses) = out.values()
        # built steps (every 50th of 500) take the transform without asking
        assert len(verdicts) == 500 - 10
        fallbacks = verdicts.count(False)
        assert 0 < fallbacks < len(verdicts)
        assert inverses == ref_inverses - (len(verdicts) - fallbacks)
        assert error is ref_error is None
        self._assert_same_states(states, ref_states)

    def test_floor_crossing_run_matches_every_step_check(self, monkeypatch):
        s0 = make_initial_data(ScenarioSpec("large", seed=7))
        cfg = StepperConfig(dt=2e-3, t_end=1.0, record_every=50, positivity_floor=0.45)
        out, verdicts = self._runs(monkeypatch, s0, ModelParams(mu=1.0), cfg)
        (states, error, _), (ref_states, ref_error, _) = out.values()
        assert True in verdicts and False in verdicts
        assert error == ref_error
        assert error is not None
        self._assert_same_states(states, ref_states)


def _poisoned_state(field: str, bad: float) -> SimState:
    """small-mixed at t = 0.25 with one entry of u, v or theta set to bad."""
    s = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
    s.t = 0.25
    {"u": s.u.components[1], "v": s.v.components[1], "theta": s.theta.values}[field][3, 5] = bad
    return s


class TestFailureModes:
    """Typed errors at the initial time or mid-run, with the time and the
    field or minimum they report."""

    def test_positivity_loss_mid_run(self, grid2d_small):
        s0 = _shear_state(grid2d_small)
        cfg = StepperConfig(dt=0.01, t_end=0.5, positivity_floor=0.97)
        with pytest.raises(PositivityLoss) as err:
            run(s0, ModelParams(mu=1.0), cfg)
        assert err.value.t == pytest.approx(0.04, rel=1e-12)
        assert err.value.theta_min == pytest.approx(0.9615686685311381, rel=1e-12)

    @pytest.mark.parametrize(
        "scenario, operator, dt, t_fail",
        [("large", "laplacian", 0.25, 2.5), ("lame-large", "lame", 0.1, 1.5)],
    )
    def test_blowup_mid_run_loses_positivity(self, scenario, operator, dt, t_fail):
        # large data under the stability bound (y = 1.77 and 0.71 at the mean
        # temperature): the step is stable where linearised, yet the
        # nonlinear coupling blows up, and the temperature goes negative
        # before any spectrum overflows
        s0 = make_initial_data(ScenarioSpec(scenario, n=16, epsilon=3.0))
        cfg = StepperConfig(dt=dt, t_end=200 * dt)
        with pytest.raises(PositivityLoss) as err:
            run(s0, ModelParams(mu=1.0, operator=operator), cfg)
        assert err.value.t == pytest.approx(t_fail, rel=1e-12)
        assert err.value.theta_min < 0.0

    @staticmethod
    def _poisoned_run(at_step: int, entries: dict) -> SimState:
        """A 10-step run of small-mixed from t = 0.25 whose step number
        at_step then writes {(field index, flat index): value} into z =
        (a_u, a_v, theta^)."""
        real_step = dynamics._SpectralStepper.step
        calls = [0]

        def poisoned(self):
            real_step(self)
            calls[0] += 1
            if calls[0] == at_step:
                for (index, entry), value in entries.items():
                    self.z[index].flat[entry] = value

        s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
        s0.t = 0.25
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics._SpectralStepper, "step", poisoned)
            return run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.01, t_end=0.1))

    @pytest.mark.parametrize("what", ["u", "v", "theta"])
    def test_non_finite_mid_run(self, what):
        # a NaN or an infinity put into z = (a_u, a_v, theta^) by the third
        # step is reported after that step, under the name of the field it
        # belongs to
        index = ("u", "v", "theta").index(what)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFinite) as err:
                self._poisoned_run(3, {(index, 5): bad})
            assert (err.value.t, err.value.what) == (0.25 + 3 * 0.01, what), bad

    @pytest.mark.parametrize("plus, minus", [(0, 1), (1, 0), (0, 2), (2, 1)])
    def test_opposite_infinities_mid_run(self, plus, minus):
        # +inf in one field and -inf in another, whose plain sum is NaN: the
        # report names the first of them in the order u, v, theta
        with pytest.raises(NonFinite) as err:
            self._poisoned_run(3, {(plus, 5): np.inf, (minus, 7): -np.inf})
        assert (err.value.t, err.value.what) == (0.25 + 3 * 0.01,
                                                 ("u", "v", "theta")[min(plus, minus)])

    def test_finite_overflow_is_not_non_finite(self):
        # two finite entries of 1.5e308 in a_u after the last step overflow
        # any sum over z; the state is finite, so the run carries on and
        # returns it, with no warning
        final = self._poisoned_run(10, {(0, 5): 1.5e308, (0, 6): 1.5e308})
        assert final.t == pytest.approx(0.35, rel=1e-12)
        assert np.isfinite(final.theta.values).all()

    def test_nan_in_initial_displacement(self):
        # a NaN in u is reported at the initial time, not after the first step
        s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
        s0.u.components[1, 3, 5] = np.nan
        with pytest.raises(NonFinite) as err:
            run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.01, t_end=0.1))
        assert (err.value.t, err.value.what) == (s0.t, "u")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_temperature(self, bad):
        # one non-finite entry in u, v or theta is reported at the initial
        # time under its own name by every entry point, before the stability
        # bound and the positivity rule read the state; dt is far past the
        # bound of the finite state, so a late check would refuse the step
        p, cfg = ModelParams(mu=1.0), StepperConfig(dt=10.0, t_end=20.0)
        entries = {
            "run": lambda s: run(s, p, cfg),
            "_signed_step": lambda s: dynamics._signed_step(s, p, 1e-3),
        }
        for field in ("u", "v", "theta"):
            for entry, call in entries.items():
                with pytest.raises(NonFinite) as err:
                    call(_poisoned_state(field, bad))
                assert (err.value.t, err.value.what) == (0.25, field), entry

    @pytest.mark.parametrize("bad", ["nan-theta", "theta-below-floor"])
    def test_step_reports_bad_initial_state_like_run(self, bad):
        # a run of a single step fails at the initial time, as a longer run
        # does, not after the step it takes
        s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
        s0.t = 0.25
        cfg = StepperConfig(dt=0.01, t_end=0.01, positivity_floor=0.5)
        if bad == "nan-theta":
            s0.theta.values[3, 5] = np.nan
            with pytest.raises(NonFinite) as err:
                run(s0, ModelParams(mu=1.0), cfg)
            assert (err.value.t, err.value.what) == (0.25, "theta")
        else:
            s0.theta.values[3, 5] = 0.25
            with pytest.raises(PositivityLoss) as err:
                run(s0, ModelParams(mu=1.0), cfg)
            assert (err.value.t, err.value.theta_min) == (0.25, 0.25)

    def test_initial_checks_in_order(self):
        # one initial state that fails all three initial checks is refused
        # by the first of them, at the initial time and before the sink sees
        # it: NonFinite, then PositivityLoss, then StepTooLarge
        p, cfg = ModelParams(mu=1.0), StepperConfig(dt=0.15, t_end=0.3, positivity_floor=0.5)
        s0, seen = _poisoned_state("theta", np.nan), []
        with pytest.raises(NonFinite) as err:
            run(s0, p, cfg, sink=seen.append)
        assert (err.value.t, err.value.what) == (0.25, "theta")
        s0.theta.values[3, 5] = 0.25
        with pytest.raises(PositivityLoss) as err:
            run(s0, p, cfg, sink=seen.append)
        assert (err.value.t, err.value.theta_min) == (0.25, 0.25)
        s0.theta.values[3, 5] = 1.0
        with pytest.raises(StepTooLarge):
            run(s0, p, cfg, sink=seen.append)
        assert seen == []
        assert run(s0, p, dataclasses.replace(cfg, dt=0.14, t_end=0.28)).t == pytest.approx(0.53)

    @pytest.mark.parametrize("field", ["u", "v", "theta"])
    def test_load_checks_before_any_transform(self, monkeypatch, field):
        # the entry check reads the physical arrays: a non-finite state is
        # refused before a spectrum exists, so no inf * 0 in a mask multiply
        calls = [0]
        real = TorusGrid.to_spectral

        def counted(self, values):
            calls[0] += 1
            return real(self, values)

        monkeypatch.setattr(TorusGrid, "to_spectral", counted)
        s0 = _poisoned_state(field, np.inf)
        stepper = dynamics._SpectralStepper(s0.grid, ModelParams(mu=1.0), 0.01)
        with pytest.raises(NonFinite) as err:
            stepper.load(s0)
        assert (err.value.t, err.value.what, calls[0]) == (0.25, field, 0)
        stepper.load(make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2)))
        assert calls[0] == 3  # u, v and theta; the counter sees a finite load


class TestSolenoidalPart:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_free_transverse_rotation_under_coupling(self, d, operator):
        # the divergence-free parts of u and v (mean included) solve the free
        # wave equation at the transverse speed whatever theta does
        name = "lame-small-mixed" if operator == "lame" else "small-mixed"
        s0 = make_initial_data(ScenarioSpec(name, d=d, epsilon=0.2))
        grid = s0.grid
        x = grid.meshes()
        v0 = s0.v.components
        # a transverse velocity (mixed in 3D) and a drifting mean on top
        v0[0] += 0.1 * np.cos(x[0] + x[d - 1]) + 0.02
        v0[1] -= 0.1 * np.cos(x[0] + x[d - 1]) + 0.05
        p = ModelParams(mu=1.0, operator=operator, zeta=1.3, lame_lambda=0.4)
        states: list[SimState] = []
        run(s0, p, StepperConfig(dt=2e-3, t_end=1.0, record_every=50), sink=states.append)
        assert len(states) == 11

        a_t = p.wave_speeds_sq[0]
        nu_u0 = helmholtz_project(s0.u).div_free.spectral()
        nu_v0 = helmholtz_project(s0.v).div_free.spectral()
        omega = np.sqrt(a_t * grid.k_sq)
        scale = max(np.max(np.abs(nu_u0)), np.max(np.abs(nu_v0)))
        assert np.max(np.abs(nu_v0)) > 0.1 * scale  # the velocity has a solenoidal part
        worst = 0.0
        for s in states:
            cos = np.cos(omega * s.t)
            sinc = s.t * np.sinc(omega * s.t / math.pi)
            want_u = cos * nu_u0 + sinc * nu_v0
            want_v = -(omega**2) * sinc * nu_u0 + cos * nu_v0
            got_u = helmholtz_project(s.u).div_free.spectral()
            got_v = helmholtz_project(s.v).div_free.spectral()
            worst = max(worst, np.max(np.abs(got_u - want_u)), np.max(np.abs(got_v - want_v)))
        assert worst <= 1e-12 * scale


def _step_matrix(mu: float, theta_bar: float, c_sq: float, k: float, dt: float) -> np.ndarray:
    """One split step linearised about a constant temperature theta_bar, on a
    mode of wavenumber |k| = k, as a 3x3 matrix acting on (a_u, a_v, theta^):
    heat half, wave half at speed sqrt(c_sq), explicit midpoint coupling,
    wave half, heat half.  Written out from the equations on purpose, as an
    independent reference for the stepper's stability bound."""
    heat = np.diag([1.0, 1.0, math.exp(-0.5 * k * k * dt)])
    w, h = math.sqrt(c_sq) * k, 0.5 * dt
    wave = np.eye(3)
    wave[:2, :2] = [[math.cos(w * h), math.sin(w * h) / w], [-w * math.sin(w * h), math.cos(w * h)]]
    # d a_v = -mu i|k| theta^, d theta^ = -mu theta_bar i|k| a_v
    f = np.zeros((3, 3), dtype=complex)
    f[1, 2], f[2, 1] = -1j * mu * k, -1j * mu * theta_bar * k
    couple = np.eye(3) + dt * f @ (np.eye(3) + 0.5 * dt * f)
    return heat @ wave @ couple @ wave @ heat


def _radius(mu: float, theta_bar: float, c_sq: float, k: float, y: float) -> float:
    """Spectral radius of the step matrix at y = mu sqrt(theta_bar) k dt."""
    dt = y / (mu * math.sqrt(theta_bar) * k)
    return float(np.max(np.abs(np.linalg.eigvals(_step_matrix(mu, theta_bar, c_sq, k, dt)))))


class TestStabilityBound:
    """run refuses dt with mu sqrt(theta_bar) |k|max dt > 2 before the first step."""

    def test_split_step_is_unstable_past_bound(self):
        # every sampled y > 2 amplifies some vector, whatever mu, theta_bar,
        # the longitudinal speed and |k|
        for mu in (0.1, 1.0, 10.0, 30.0):
            for theta_bar in (0.01, 1.0, 10.0):
                for c_sq in (1.0, 2.5):
                    for k in (1.0, 10 * math.sqrt(2), 200.0):
                        for y in (2.001, 2.1, 3.0, 10.0):
                            assert _radius(mu, theta_bar, c_sq, k, y) > 1.0, (mu, theta_bar,
                                                                               c_sq, k, y)

    def test_bound_is_sharp_on_the_test_grid_but_not_sufficient(self):
        # at the corner of the 2D N=32 dealiased cube, mu = 1, theta_bar = 1,
        # the step is stable just under the bound; at mu = 10 the limit is
        # lower (y* = 1.879), so y <= 2 is necessary, not sufficient
        k = 10 * math.sqrt(2)
        assert _radius(1.0, 1.0, 1.0, k, 1.99) <= 1.0 + 1e-12
        assert _radius(10.0, 1.0, 1.0, k, 1.87) <= 1.0 + 1e-12
        assert _radius(10.0, 1.0, 1.0, k, 1.89) > 1.0

    @pytest.mark.parametrize("dealias, band, corner", [(True, 0, 10), (False, 0, 15), (True, 4, 4)])
    def test_k_max_is_the_product_mask_corner(self, dealias, band, corner):
        # the 2/3 cube, the Nyquist-free cube and the product_band cube
        stepper = dynamics._SpectralStepper(TorusGrid((32, 32)), ModelParams(mu=1.0), 0.01,
                                            dealias, band)
        assert stepper.k_max == pytest.approx(corner * math.sqrt(2), rel=1e-15)

    def test_run_past_bound_is_refused_before_first_step(self, monkeypatch):
        # 2D N=32 small-mixed, mu = 1: the bound is 2 / (sqrt(theta_bar) 10 sqrt 2)
        calls = {"to_physical": 0, "to_spectral": 0, "step": 0}
        for cls, name in ((TorusGrid, "to_physical"), (TorusGrid, "to_spectral"),
                          (dynamics._SpectralStepper, "step")):
            def counted(self, *args, name=name, real=getattr(cls, name)):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(cls, name, counted)
        s0 = make_initial_data(ScenarioSpec("small-mixed", n=32))
        theta_bar = float(np.mean(s0.theta.values))
        seen = []
        with pytest.raises(StepTooLarge) as err:
            run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.15, t_end=60.0), sink=seen.append)
        assert (err.value.dt, seen) == (0.15, [])
        assert err.value.k_max == pytest.approx(10 * math.sqrt(2), rel=1e-15)
        assert err.value.bound == pytest.approx(2 / (math.sqrt(theta_bar) * 10 * math.sqrt(2)),
                                                rel=1e-12)
        # load's three forward transforms and nothing of a step
        assert calls == {"to_physical": 0, "to_spectral": 3, "step": 0}
        out = run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.14, t_end=56.0, record_every=400),
                  sink=seen.append)
        assert calls["step"] == 400 and len(seen) == 2
        assert out.t == pytest.approx(56.0, rel=1e-12)

    def test_bound_reads_mean_theta(self):
        # random data with epsilon = 0.2 at dt = 0.1372: y is 2.06 by max theta
        # but 1.94 by mean theta, and the run finishes its 600 steps
        s0 = make_initial_data(ScenarioSpec("random", n=32, epsilon=0.2))
        y = [math.sqrt(f(s0.theta.values)) * 10 * math.sqrt(2) * 0.1372 for f in (np.max, np.mean)]
        assert y[0] > 2.0 > y[1]
        out = run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.1372, t_end=600 * 0.1372))
        assert out.t == pytest.approx(600 * 0.1372, rel=1e-12)
        assert np.isfinite(out.theta.values).all()

    def test_lame_3d_bound(self):
        # 3D N=16 Lame: the 2/3 cube's corner is |k| = 5 sqrt 3
        s0 = make_initial_data(ScenarioSpec("lame-small-mixed", d=3, n=16))
        p = ModelParams(mu=1.0, operator="lame")
        bound = 2 / (math.sqrt(float(np.mean(s0.theta.values))) * 5 * math.sqrt(3))
        with pytest.raises(StepTooLarge) as err:
            run(s0, p, StepperConfig(dt=1.03 * bound, t_end=10 * 1.03 * bound))
        assert err.value.bound == pytest.approx(bound, rel=1e-12)
        out = run(s0, p, StepperConfig(dt=0.97 * bound, t_end=10 * 0.97 * bound))
        assert out.t == pytest.approx(10 * 0.97 * bound, rel=1e-12)


class TestRunMechanics:
    def test_record_cadence(self):
        s0 = make_initial_data(ScenarioSpec("small-mixed"))
        seen = []
        run(s0, ModelParams(mu=1.0), StepperConfig(dt=0.01, t_end=0.1, record_every=3),
            sink=lambda s: seen.append(s.t))
        np.testing.assert_allclose(seen, [0.0, 0.03, 0.06, 0.09, 0.1], atol=1e-12)

    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_determinism(self, operator):
        s0 = make_initial_data(ScenarioSpec("random", epsilon=0.1, seed=7))
        p = ModelParams(mu=1.0, operator=operator)
        cfg = StepperConfig(dt=1e-3, t_end=0.05, record_every=10)

        def one():
            rec = TrajectoryRecorder(p)
            final = run(s0.copy(), p, cfg, sink=rec)
            return final, rec.records

        f1, r1 = one()
        f2, r2 = one()
        assert f1.u.components.tobytes() == f2.u.components.tobytes()
        assert f1.v.components.tobytes() == f2.v.components.tobytes()
        assert f1.theta.values.tobytes() == f2.theta.values.tobytes()
        assert [r.energy for r in r1] == [r.energy for r in r2]
        assert [r.entropy for r in r1] == [r.entropy for r in r2]

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_restart_is_the_continuation(self, d, n, operator):
        # a run to 0.25 restarted from its final state lands where one run to
        # 0.5 does, to the rounding of re-transforming the state: over seeds
        # 1-10 the largest relative sup gap was 9.3e-16 across the four cells
        s0 = make_initial_data(ScenarioSpec("random", n=n, d=d, epsilon=0.2, seed=1))
        p = ModelParams(mu=1.0, operator=operator, zeta=1.5 if operator == "lame" else 1.0)
        whole = run(s0, p, StepperConfig(dt=1e-3, t_end=0.5))
        half = run(s0, p, StepperConfig(dt=1e-3, t_end=0.25))
        rest = run(half, p, StepperConfig(dt=1e-3, t_end=0.25))
        assert rest.t == whole.t
        for a, b in ((whole.u.components, rest.u.components), (whole.v.components, rest.v.components),
                     (whole.theta.values, rest.theta.values)):
            assert np.max(np.abs(a - b)) <= 4e-15 * np.max(np.abs(a))

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_sink_owns_the_states_it_receives(self, record_every):
        def fields(s):
            return [a.tobytes() for a in (s.u.components, s.v.components, s.theta.values)]

        s0 = make_initial_data(ScenarioSpec("random", epsilon=0.1, seed=7))
        s0_bytes = fields(s0)
        p = ModelParams(mu=1.0)
        cfg = StepperConfig(dt=1e-3, t_end=0.01, record_every=record_every)

        def one(zero: bool):
            rec = TrajectoryRecorder(p)
            kept = []

            def sink(s):
                rec(s)
                kept.append(fields(s))
                if zero:
                    for a in (s.u.components, s.v.components, s.theta.values):
                        a[...] = 0.0

            final = run(s0, p, cfg, sink=sink)
            columns = [np.array(dataclasses.astuple(r), dtype=float).tobytes() for r in rec.records]
            return fields(final), columns, kept

        f_ref, r_ref, k_ref = one(zero=False)
        f_got, r_got, k_got = one(zero=True)
        assert f_got == f_ref
        assert r_got == r_ref
        assert k_got == k_ref
        assert fields(s0) == s0_bytes

    def test_emitted_states_share_no_arrays(self):
        s0 = make_initial_data(ScenarioSpec("random", epsilon=0.1, seed=7))
        held: list[SimState] = []
        final = run(s0, ModelParams(mu=1.0), StepperConfig(dt=1e-3, t_end=0.005), sink=held.append)
        arrays = [a for s in [s0, final, *held]
                  for a in (s.u.components, s.v.components, s.theta.values)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_fine_grid_at_acceptance_amplitude(self, operator):
        # 2D N=128 at epsilon=0.2: transform rounding on this grid once
        # tripped a fixed imaginary-residue threshold within 20 steps
        s0 = make_initial_data(ScenarioSpec("small-mixed", n=128, epsilon=0.2))
        p = ModelParams(mu=1.0, operator=operator)
        rec = TrajectoryRecorder(p, battery="ledger")
        run(s0, p, StepperConfig(dt=1e-3, t_end=0.02), sink=rec)
        assert len(rec.records) == 21
        ledger = ("energy", "entropy", "entropy_production", "production_integral",
                  "dissipation_residual", "theta_min", "theta_max")
        assert all(math.isfinite(getattr(r, name)) for r in rec.records for name in ledger)

    def test_energy_drift_is_second_order(self):
        s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
        p = ModelParams(mu=1.0)

        def drift(dt: float) -> float:
            rec = TrajectoryRecorder(p)
            run(s0.copy(), p, StepperConfig(dt=dt, t_end=1.0, record_every=10), sink=rec)
            e0 = rec.records[0].energy
            return max(abs(r.energy - e0) for r in rec.records) / abs(e0)

        d1, d2 = drift(1e-3), drift(5e-4)
        assert d1 < 1e-6
        assert d1 / d2 > 3.5


def _mapped(s: SimState, vector, scalar) -> SimState:
    def vec(c):
        return VectorField(s.grid, np.ascontiguousarray(vector(c)))

    return SimState(s.t, vec(s.u.components), vec(s.v.components),
                    ScalarField(s.grid, np.ascontiguousarray(scalar(s.theta.values))))


def _swap_first_last(s: SimState) -> SimState:
    # x1 <-> xd: the last axis is the one the real transform halves
    d = s.grid.d
    order = [d - 1, *range(1, d - 1), 0]
    return _mapped(s, lambda c: np.swapaxes(c[order], 1, d), lambda a: np.swapaxes(a, 0, d - 1))


def _flip(a: np.ndarray, axis: int) -> np.ndarray:
    # index j -> -j mod n: the grid point x1 = jh goes to -x1
    return np.roll(np.flip(a, axis), 1, axis)


def _reflect_x1(s: SimState) -> SimState:
    def vector(c):
        out = _flip(c, 1)
        out[0] = -out[0]
        return out

    return _mapped(s, vector, lambda a: _flip(a, 0))


def _shift_5(s: SimState) -> SimState:
    axes = tuple(range(s.grid.d))
    return _mapped(s, lambda c: np.roll(c, 5, tuple(a + 1 for a in axes)),
                   lambda a: np.roll(a, 5, axes))


@functools.cache
def _symmetry_cell(d: int, operator: str):
    s0 = make_initial_data(ScenarioSpec("random", n=32 if d == 2 else 16, d=d, epsilon=0.2, seed=1))
    p = ModelParams(mu=1.0, operator=operator, zeta=1.5 if operator == "lame" else 1.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.1)
    return s0, p, cfg, run(s0, p, cfg)


class TestLatticeSymmetries:
    """`run` commutes with the cubic torus's lattice maps, vector components
    moving with the points.  Over seeds 0-19 the largest relative sup gap at
    t = 0.1 was 2.3e-15 (swap and shift, 2D Laplacian).  Widening the last
    axis's 2/3 cut by one mode moves the swap's gap to 1.4e-6 (2D Laplacian)
    through 1.7e-3 (3D Lame)."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    @pytest.mark.parametrize("lattice_map", [_swap_first_last, _reflect_x1, _shift_5],
                             ids=["swap", "reflect", "shift"])
    def test_run_commutes_with(self, d, operator, lattice_map):
        s0, p, cfg, final = _symmetry_cell(d, operator)
        want, got = lattice_map(final), run(lattice_map(s0), p, cfg)
        for a, b in ((want.u.components, got.u.components), (want.v.components, got.v.components),
                     (want.theta.values, got.theta.values)):
            assert np.max(np.abs(a - b)) <= 5e-15 * np.max(np.abs(a))


class TestTransformBudget:
    """A built state costs two inverse transforms, a ledger record one
    forward transform and a full record one forward and one inverse
    transform, with the bits of one call per field."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_stacked_build_matches_per_field_transforms(self, d, operator):
        s0 = make_initial_data(ScenarioSpec("random", d=d, n=16, seed=7))
        grid, n_steps = s0.grid, 5
        stepper = dynamics._SpectralStepper(grid, ModelParams(mu=1.0, operator=operator), 1e-3)
        nu_u, nu_v = stepper.load(s0)
        got = stepper.state(0.005, nu_u, nu_v, n_steps)
        c, s, m = stepper._rotation(stepper.a_t, n_steps * stepper.dt)
        k = grid.unit_wavevectors
        au, av, th = stepper.z
        want = (grid.to_physical(c * nu_u + s * nu_v + k * au),
                grid.to_physical(m * nu_u + c * nu_v + k * av),
                grid.to_physical(th))
        fields = (got.u.components, got.v.components, got.theta.values)
        for a, b in zip(fields, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert not any(np.shares_memory(a, b) for i, a in enumerate(fields) for b in fields[i + 1:])

    def test_ledger_run_call_counts(self, monkeypatch):
        calls = {"to_physical": 0, "to_spectral": 0}
        for name in calls:
            def counted(self, arr, name=name, real=getattr(TorusGrid, name)):
                calls[name] += 1
                return real(self, arr)

            monkeypatch.setattr(TorusGrid, name, counted)
        s0 = make_initial_data(ScenarioSpec("small-mixed"))
        p = ModelParams(mu=1.0)
        n = 10
        rec = TrajectoryRecorder(p, battery="ledger")
        run(s0, p, StepperConfig(dt=1e-3, t_end=n * 1e-3, record_every=1), sink=rec)
        assert len(rec.records) == n + 1
        # fixed: load transforms u, v and theta forward, and the initial
        # state's record is one forward call; per step: two coupling
        # evaluations of one inverse and one forward call each, two inverse
        # calls to build the state and one forward call to record it
        assert calls == {"to_physical": n * (2 + 2), "to_spectral": 3 + 1 + n * (2 + 1)}

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_record_call_counts(self, monkeypatch, d):
        # a full record forward-transforms (u, v, log theta, theta) in one
        # call and takes only grad theta back
        calls, recording = [], [False]
        for name in ("to_physical", "to_spectral"):
            def counted(self, arr, name=name, real=getattr(TorusGrid, name)):
                if recording[0]:
                    calls.append((name, arr.shape[:arr.ndim - self.d]))
                return real(self, arr)

            monkeypatch.setattr(TorusGrid, name, counted)
        s0 = make_initial_data(ScenarioSpec("small-mixed", d=d, n=8))
        p = ModelParams(mu=1.0)
        n = 4
        rec = TrajectoryRecorder(p)

        def sink(s):
            recording[0] = True
            rec(s)
            recording[0] = False

        run(s0, p, StepperConfig(dt=1e-3, t_end=n * 1e-3, record_every=1), sink=sink)
        assert len(rec.records) == n + 1
        assert calls == [("to_spectral", (2 * d + 2,)), ("to_physical", (d,))] * (n + 1)


# The per-field step, one array per field and a fresh array for every
# product: the reference the stacked in-place step is held to, bit for bit.
def _per_field_wave_half(self, au, av):
    c, s, m = self.long_half[0, 0], self.long_half[0, 1], self.long_half[1, 0]
    return c * au + s * av, m * au + c * av


def _per_field_coupling_rhs(self, av, th):
    grid = self.grid
    # along k^, -mu grad(theta) is -mu i|k| theta^ and div v is i|k| a_v
    dav = self.neg_mu_ik_abs * th
    pair = np.empty((2,) + th.shape, dtype=th.dtype)
    np.multiply(self.ik_abs, av, out=pair[0])
    pair[1] = th
    div_v, theta = grid.to_physical(pair)
    dth = grid.to_spectral(theta * div_v) * self.neg_mu_mask
    return dav, dth


def _per_field_couple(self, av, th):
    dt = self.dt
    k1v, k1t = _per_field_coupling_rhs(self, av, th)
    k2v, k2t = _per_field_coupling_rhs(self, av + 0.5 * dt * k1v, th + 0.5 * dt * k1t)
    return av + dt * k2v, th + dt * k2t


def _per_field_step(self, au, av, th):
    th = self.heat_half * th
    au, av = _per_field_wave_half(self, au, av)
    av, th = _per_field_couple(self, av, th)
    au, av = _per_field_wave_half(self, au, av)
    th = self.heat_half * th
    return au, av, th


class TestStackedStep:
    """The step advances one stacked z = (a_u, a_v, theta^) in place: bit
    for bit the per-field step, and with no allocation of its own."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    @pytest.mark.parametrize("dealias, band", [(True, 0), (False, 0), (True, 3)])
    @pytest.mark.parametrize("dt", [1e-3, -1e-3])
    def test_matches_the_per_field_step(self, d, operator, dealias, band, dt):
        # dt < 0 is the signed step of the centred-difference diagnostics
        s0 = make_initial_data(ScenarioSpec("random", d=d, n=16, seed=7))
        stepper = dynamics._SpectralStepper(s0.grid, ModelParams(mu=1.0, operator=operator), dt,
                                            dealias, band)
        stepper.load(s0)
        fields = tuple(a.copy() for a in stepper.z)
        for _ in range(20):
            stepper.step()
            fields = _per_field_step(stepper, *fields)
            for got, want in zip(stepper.z, fields):
                assert got.tobytes() == want.tobytes()

    def test_step_allocates_nothing_but_transform_outputs(self, monkeypatch):
        s0 = make_initial_data(ScenarioSpec("random", d=3, n=16, seed=7))
        grid = s0.grid
        stepper = dynamics._SpectralStepper(grid, ModelParams(mu=1.0, operator="lame"), 1e-3)
        stepper.load(s0)
        spectrum = np.empty(grid.spectral_shape, dtype=np.complex128).nbytes
        outputs = 2 * grid.n_total * 8 + spectrum
        axes, last = tuple(range(-grid.d, 0)), grid.n_per_axis[-1]

        def growth(steps: int) -> int:
            stepper.step()  # warm-up
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for _ in range(steps):
                    stepper.step()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        # a coupling evaluation's inverse transform returns a (2, *shape)
        # pair, and the forward transform of the product in it a spectrum
        assert growth(10) <= outputs + 4096
        # with the transforms writing into buffers of their own, what is left
        # is below the smallest array a step could make
        buffers = {}

        def into(forward):
            def transform(self, arr):
                key = (forward, arr.shape)
                if key not in buffers:
                    lead = arr.shape[:arr.ndim - grid.d]
                    buffers[key] = (np.empty(lead + grid.spectral_shape, dtype=np.complex128)
                                    if forward else np.empty(lead + grid.shape))
                if forward:
                    return pypocketfft.r2c(arr, axes, True, 0, buffers[key], 1)
                return pypocketfft.c2r(arr, axes, last, False, 2, buffers[key], 1)

            return transform

        monkeypatch.setattr(TorusGrid, "to_spectral", into(True))
        monkeypatch.setattr(TorusGrid, "to_physical", into(False))
        assert growth(10) < np.empty(grid.spectral_shape).nbytes


class TestProductBand:
    def test_grid_too_small_for_band(self):
        s0 = make_initial_data(ScenarioSpec("band-limited", n=8, epsilon=0.05))
        cfg = StepperConfig(dt=1e-3, t_end=0.01, product_band=3)
        with pytest.raises(ValueError, match="needs at least 10"):
            run(s0, ModelParams(mu=1.0), cfg)

    @staticmethod
    def _cube(grid: TorusGrid, values: np.ndarray, band: int) -> np.ndarray:
        """Normalized full-layout coefficients on the mode cube |k|_inf <= band."""
        fh = np.fft.fftn(values, axes=tuple(range(-grid.d, 0))) / grid.n_total
        rows = tuple(np.arange(-band, band + 1) % m for m in grid.n_per_axis)
        if values.ndim > grid.d:
            return np.stack([comp[np.ix_(*rows)] for comp in fh])
        return fh[np.ix_(*rows)]

    def test_band_runs_are_resolution_independent(self):
        # with products truncated to the cube, N=16 and N=32 integrate the
        # same finite ODE system and must agree to rounding
        p = ModelParams(mu=1.0)
        cfg = StepperConfig(dt=1e-3, t_end=0.1, product_band=3)
        cubes = {}
        for n in (16, 32):
            s0 = make_initial_data(ScenarioSpec("band-limited", n=n, epsilon=0.1))
            final = run(s0, p, cfg)
            cubes[n] = (
                self._cube(final.u.grid, final.u.components, 3),
                self._cube(final.v.grid, final.v.components, 3),
                self._cube(final.theta.grid, final.theta.values, 3),
            )
        for a, b in zip(cubes[16], cubes[32]):
            assert np.max(np.abs(a - b)) < 1e-12
