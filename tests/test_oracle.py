"""Truncated-coefficient reference solver: convolution algebra, projection,
reconstruction, tendencies, and the comparison harness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from thermoelast import (
    ModelParams,
    NonFinite,
    PositivityLoss,
    ScalarField,
    SimState,
    StepperConfig,
    TorusGrid,
    VectorField,
    build_galerkin,
    compare_oracle,
    integrate_galerkin,
    make_initial_data,
    run,
    spectral_states_at,
)
from thermoelast import experiments, oracle
from thermoelast.cli import main
from thermoelast.diagnostics import _fisher_ratio
from thermoelast.experiments import run_experiment
from thermoelast.grid import field_norms, quadrature
from thermoelast.oracle import (
    convolve_truncated,
    crosscheck,
    galerkin_rhs,
    sample_times,
)
from thermoelast.scenarios import ScenarioSpec

from conftest import random_scalar
from reference_rhs import evaluate_rhs


class TestConvolution:
    def test_matches_direct_sum(self, rng):
        n, d = 2, 2
        shape = (2 * n + 1,) * d
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = convolve_truncated(a, b, n)
        want = np.zeros(shape, dtype=complex)
        offs = range(-n, n + 1)
        for p1 in offs:
            for p2 in offs:
                for q1 in offs:
                    for q2 in offs:
                        m1, m2 = p1 + q1, p2 + q2
                        if abs(m1) <= n and abs(m2) <= n:
                            want[m1 + n, m2 + n] += a[p1 + n, p2 + n] * b[q1 + n, q2 + n]
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_identity_element(self, rng):
        n = 3
        b = rng.standard_normal((2 * n + 1,) * 2) + 0j
        delta = np.zeros_like(b)
        delta[n, n] = 1.0  # the constant function
        np.testing.assert_allclose(convolve_truncated(delta, b, n), b, atol=1e-15)

    def test_commutes(self, rng):
        n = 2
        a = rng.standard_normal((2 * n + 1,) * 3) + 1j * rng.standard_normal((2 * n + 1,) * 3)
        b = rng.standard_normal((2 * n + 1,) * 3) + 1j * rng.standard_normal((2 * n + 1,) * 3)
        np.testing.assert_allclose(
            convolve_truncated(a, b, n), convolve_truncated(b, a, n), atol=1e-13
        )


class TestProjection:
    def test_band_limited_state_projects_silently(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        assert sys.shift == 0.0

    def test_unresolved_state_warns(self):
        s = make_initial_data(ScenarioSpec("random", n=16, epsilon=0.1, seed=3))
        with pytest.warns(UserWarning, match="not band-limited"):
            build_galerkin(s, ModelParams(mu=1.0), n=3)

    def test_truncation_must_fit_grid(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.1))
        with pytest.raises(ValueError, match="cannot hold truncation"):
            build_galerkin(s, ModelParams(mu=1.0), n=8)
        with pytest.raises(ValueError, match="must be >= 1"):
            build_galerkin(s, ModelParams(mu=1.0), n=0)

    def test_positivity_shift_applied(self, grid2d_small):
        x1 = grid2d_small.meshes()[0]
        theta = ScalarField(
            grid2d_small,
            np.broadcast_to(1.0 + 1.5 * np.cos(3 * x1), grid2d_small.shape).copy(),
        )
        s = SimState(0.0, VectorField.zeros(grid2d_small), VectorField.zeros(grid2d_small), theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        # oversampled min is -0.5, so the shift restores the 1e-6 target
        assert 0.49 < sys.shift < 0.51
        center = sys.coeffs[(-1, 3, 3)]  # theta's mean mode
        assert center.real == pytest.approx(1.0 + sys.shift, rel=1e-12)

    @pytest.mark.parametrize("d, n, modes", [(2, 16, 5), (3, 12, 3)])
    @pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "shifted"])
    def test_block_is_the_per_field_projections(self, d, n, modes, shifted):
        # one transform of the stacked (u, v, theta) keeps each field's own
        # projection bit for bit; the shift lands on theta's mean mode alone
        s = make_initial_data(ScenarioSpec("random", n=n, d=d, epsilon=0.2, seed=1))
        if shifted:  # the zero-mean ripple dips below the floor
            s = replace(s, theta=ScalarField(s.grid, s.theta.values - 1.0))
        grid = s.grid
        rows = tuple(np.arange(-modes, modes + 1) % m for m in grid.n_per_axis)

        def project(values):
            fh = np.fft.fftn(values, axes=tuple(range(-d, 0))) / grid.n_total
            return fh[(Ellipsis,) + np.ix_(*rows)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys = build_galerkin(s, ModelParams(mu=1.0), modes)
        want = np.concatenate((project(s.u.components), project(s.v.components),
                               project(s.theta.values)[None]))
        assert (sys.shift > 0.0) == shifted
        want[(-1,) + (modes,) * d] += sys.shift
        assert sys.coeffs.shape == (2 * d + 1,) + (2 * modes + 1,) * d
        assert sys.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_resolved_state_projects_silently(self, d):
        # `random` keeps |index| <= 4, inside the cube at N = 16: the energy
        # off the cube is summed, not left over from total minus kept, whose
        # rounding warned on 3 of these 12 cases, reading 2.2e-16 or 4.4e-16
        for seed in range(6):
            s = make_initial_data(ScenarioSpec("random", n=16, d=d, epsilon=0.2, seed=seed))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                build_galerkin(s, ModelParams(mu=1.0), n=5)

    @pytest.mark.parametrize("a", [1.5, -1.0], ids=["negative-min", "zero-at-grid-point"])
    def test_shifted_build_is_silent(self, grid2d_small, a):
        # theta = 1 + a cos 3x1 dips below 0, or (a = -1) is exactly 0 on x1 = 0
        x1 = grid2d_small.meshes()[0]
        theta = ScalarField(grid2d_small, np.broadcast_to(1.0 + a * np.cos(3 * x1), grid2d_small.shape).copy())
        assert np.min(theta.values) == min(0.0, 1.0 - abs(a))
        s = SimState(0.0, VectorField.zeros(grid2d_small), VectorField.zeros(grid2d_small), theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        assert sys.shift > 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_shift_cannot_raise_fisher_information(self, d, rng):
        # the property behind the shift, on one grid: adding c > 0 to a
        # positive theta keeps grad theta and lowers |grad theta|^2 / theta
        grid = TorusGrid((16,) * d)
        for _ in range(5):
            bump = random_scalar(grid, rng, band=3).values
            theta = 1.0 + 0.99 * bump / np.max(np.abs(bump))
            before = quadrature(grid, _fisher_ratio(ScalarField(grid, theta), grid.to_spectral(theta)))
            for c in (1e-6, 0.1, 10.0):
                shifted = theta + c
                after = quadrature(grid, _fisher_ratio(ScalarField(grid, shifted), grid.to_spectral(shifted)))
                assert after <= before


def _reconstruct(cube, n, grid):
    """One field's values on grid from its cube: a scalar's, or a vector's components."""
    return grid.to_physical(oracle._embed(cube, n, grid))


class TestReconstruction:
    def test_round_trip_on_source_grid(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.1))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        np.testing.assert_allclose(_reconstruct(sys.coeffs[:2], 3, s.grid), s.u.components, atol=1e-13)
        np.testing.assert_allclose(_reconstruct(sys.coeffs[-1], 3, s.grid), s.theta.values, atol=1e-13)

    def test_refinement_consistency(self):
        # the same cube reconstructed on two grids agrees pointwise where the
        # grids coincide (every other node of the fine one)
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.1))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        coarse = _reconstruct(sys.coeffs[-1], 3, s.grid)
        fine = _reconstruct(sys.coeffs[-1], 3, TorusGrid((32, 32)))
        np.testing.assert_allclose(coarse, fine[::2, ::2], atol=1e-13)

    @pytest.mark.parametrize("d, operator", [(2, "laplacian"), (2, "lame"), (3, "lame")])
    def test_state_is_the_per_field_reconstruction(self, d, operator):
        # u, v and theta embedded and transformed as one block keep each
        # field's own reconstruction bit for bit, on the run's grid and a finer one
        s = make_initial_data(ScenarioSpec("band-limited", n=10, d=d, epsilon=0.04))
        traj = integrate_galerkin(build_galerkin(s, ModelParams(mu=1.0, operator=operator), 3), 0.05)
        for t in (0.0, 0.02, 0.05):
            z = traj.coeffs_at(t)
            for grid in (s.grid, TorusGrid((20,) * d)):
                got = traj.state_at(t, grid)
                assert got.t == t
                assert got.u.components.tobytes() == _reconstruct(z[:d], 3, grid).tobytes()
                assert got.v.components.tobytes() == _reconstruct(z[d:2 * d], 3, grid).tobytes()
                assert got.theta.values.tobytes() == _reconstruct(z[2 * d], 3, grid).tobytes()

    def test_grid_too_small(self):
        traj = integrate_galerkin(build_galerkin(SimState.equilibrium(TorusGrid((8, 8))),
                                                 ModelParams(mu=1.0), 3), 0.0)
        with pytest.raises(ValueError, match="cannot hold truncation"):
            traj.state_at(0.0, TorusGrid((6, 6)))


class TestTendencies:
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_matches_alias_free_grid_rhs(self, operator):
        # on a 32-point grid, products of cube-3 data reach mode 6 and alias
        # nowhere, so projecting the full tendencies recovers the truncated
        # ones exactly
        p = ModelParams(mu=1.0, operator=operator)
        s = make_initial_data(ScenarioSpec("band-limited", n=32, epsilon=0.2))
        sys = build_galerkin(s, p, n=3)
        dz = galerkin_rhs(sys)

        ref_du, ref_dv, ref_dth = evaluate_rhs(s, p, dealias=False)
        grid = s.grid
        rows = tuple(np.arange(-3, 4) % m for m in grid.n_per_axis)

        def cube_of(values):
            fh = np.fft.fftn(values, axes=tuple(range(-grid.d, 0))) / grid.n_total
            if values.ndim > grid.d:
                return np.stack([c[np.ix_(*rows)] for c in fh])
            return fh[np.ix_(*rows)]

        np.testing.assert_allclose(dz[:2], cube_of(ref_du.components), atol=1e-13)
        np.testing.assert_allclose(dz[2:4], cube_of(ref_dv.components), atol=1e-13)
        np.testing.assert_allclose(dz[4], cube_of(ref_dth.values), atol=1e-13)

    def test_builds_the_wavevectors_once(self, monkeypatch):
        # with the coupling zeroed, the temperature tendency is -k_sq theta
        s = make_initial_data(ScenarioSpec("band-limited", n=32, epsilon=0.2))
        sys = build_galerkin(s, ModelParams(mu=1.0, operator="lame"), n=3)
        want_k_sq = sum(k * k for k in sys.wavevectors())
        calls = []
        real = oracle.GalerkinSystem.wavevectors

        def spy(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(oracle.GalerkinSystem, "wavevectors", spy)
        monkeypatch.setattr(oracle, "convolve_truncated", lambda a, b, n: np.zeros_like(a))
        dth = galerkin_rhs(sys)[-1]
        assert calls == [1]
        assert np.array_equal(dth, -want_k_sq * sys.coeffs[-1])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_integration_tendency_is_the_per_field_rhs(self, d, operator, rng):
        # the symbol built once, at random states: bit for bit the tendency
        # that builds everything per call, and the per-field formula
        s0 = make_initial_data(ScenarioSpec("band-limited", n=10, d=d, epsilon=0.04))
        sys = build_galerkin(s0, ModelParams(mu=1.3, operator=operator), 3)
        f = oracle._tendency(sys)
        for t in (0.0, 0.25):
            y = rng.standard_normal(2 * sys.coeffs.size)
            work = replace(sys, t=t, coeffs=oracle._fields(y, sys))
            got = f(t, y)
            assert got.tobytes() == galerkin_rhs(work).tobytes()
            assert got.tobytes() == _per_field_rhs(work).tobytes()

    def test_a_second_call_leaves_the_first_result(self, rng):
        # the integrator keeps a tendency across rejected steps
        s0 = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        sys = build_galerkin(s0, ModelParams(mu=1.0, operator="lame"), 3)
        f = oracle._tendency(sys)
        y1, y2 = (rng.standard_normal(2 * sys.coeffs.size) for _ in range(2))
        first = f(0.0, y1)
        kept = first.copy()
        second = f(0.0, y2)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, y1) and not np.shares_memory(second, y2)

    def test_an_integration_builds_the_symbol_once(self, monkeypatch):
        # the wavevectors once for the tendency, the embedding once for the event
        sys = build_galerkin(make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04)),
                             ModelParams(mu=1.0), 3)
        calls = []
        for name, owner in (("wavevectors", oracle.GalerkinSystem), ("_embedding_rows", oracle)):
            def spy(*args, real=getattr(owner, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, spy)
        integrate_galerkin(sys, 0.2)
        assert sorted(calls) == ["_embedding_rows", "wavevectors"]


def _per_field_rhs(sys):
    """The truncated system's tendencies, each field on its own and the symbol
    built per call, stacked as `sys.coeffs`: the reference the integration's
    tendency is held to."""
    p = sys.p
    k = sys.wavevectors()
    k_sq = sum(ki * ki for ki in k)
    d = sys.d
    u, v, th = sys.coeffs[:d], sys.coeffs[d:2 * d], sys.coeffs[2 * d]
    if p.operator == "laplacian":
        au = k_sq * u
    else:
        ku = sum(k[i] * u[i] for i in range(d))
        au = np.stack(
            [p.zeta * k_sq * u[i] + (p.zeta + p.lame_lambda) * k[i] * ku for i in range(d)]
        )
    dv = -au - np.stack([p.mu * 1j * k[i] * th for i in range(d)])
    div_v = sum(1j * k[i] * v[i] for i in range(d))
    dth = -k_sq * th - p.mu * convolve_truncated(th, div_v, sys.n)
    return np.concatenate((v, dv, dth[None]))


class TestIntegration:
    def test_pure_heat_mode_decay(self, grid2d_small):
        x1 = grid2d_small.meshes()[0]
        theta = ScalarField(
            grid2d_small,
            np.broadcast_to(1.0 + 0.3 * np.cos(x1), grid2d_small.shape).copy(),
        )
        s = SimState(0.0, VectorField.zeros(grid2d_small), VectorField.zeros(grid2d_small), theta)
        sys = build_galerkin(s, ModelParams(mu=1e-30), n=3)
        traj = integrate_galerkin(sys, 1.0)
        got = traj.coeffs_at(1.0)[(-1, 4, 3)]  # theta at offset (+1, 0)
        assert got == pytest.approx(0.15 * math.exp(-1.0), rel=1e-9)

    def test_time_range_enforced(self, grid2d_small):
        s = SimState.equilibrium(grid2d_small)
        sys = build_galerkin(s, ModelParams(mu=1.0), n=2)
        traj = integrate_galerkin(sys, 0.5)
        with pytest.raises(ValueError, match="outside integrated range"):
            traj.coeffs_at(0.6)
        with pytest.raises(ValueError, match="precedes initial time"):
            integrate_galerkin(sys, -1.0)

    def test_positivity_event_terminates(self, grid2d_small):
        with pytest.raises(PositivityLoss):
            integrate_galerkin(_cold_spot(grid2d_small), 1.0, positivity_floor=0.05)


def _cold_spot(grid: TorusGrid):
    # strong compression against a cold spot: theta at x1=0 relaxes toward
    # 0.9/20 = 0.045, crossing a 0.05 floor on the way
    x1 = grid.meshes()[0]
    theta = ScalarField(grid, np.broadcast_to(1.0 - 0.9 * np.cos(x1), grid.shape).copy())
    v = VectorField.from_functions(grid, [lambda *m: 20.0 * np.sin(m[0]), lambda *m: 0.0 * m[0]])
    s = SimState(0.0, VectorField.zeros(grid), v, theta)
    return build_galerkin(s, ModelParams(mu=1.0), n=3)


def _solve_ivp(sys, t_end, events=None):
    """SciPy's RK45 on the oracle's coefficient ODE, at the oracle's tolerances."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return galerkin_rhs(replace(sys, t=t, coeffs=oracle._fields(y, sys))).ravel().view(np.float64)

    return solve_ivp(rhs, (sys.t, t_end), oracle._pack(sys), method="RK45", rtol=1e-10, atol=1e-12,
                     dense_output=True, events=events)


def _blockwise(rhs):
    """A tendency factory, as `oracle._tendency`, from rhs(block) -> block."""
    return lambda sys: lambda t, y: rhs(oracle._fields(y, sys)).ravel().view(np.float64)


class TestDormandPrince:
    """The oracle's own Dormand-Prince 5(4) pair takes SciPy's RK45 steps:
    the same tableau, error norm, step control and dense output.  The match
    is byte-exact on SciPy 1.17; the gate leaves room for SciPy to change
    its step-size selection."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_dense_output_matches_solve_ivp(self, d, operator):
        s0 = make_initial_data(ScenarioSpec("band-limited", n=10, d=d, epsilon=0.04))
        sys = build_galerkin(s0, ModelParams(mu=1.0, operator=operator), 3)
        traj = integrate_galerkin(sys, 0.2)
        ref = _solve_ivp(sys, 0.2).sol
        for t in np.linspace(0.0, 0.2, 11):
            got, want = traj._sol(t), ref(t)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), t

    def test_event_time_matches_solve_ivp(self, grid2d_small):
        sys = _cold_spot(grid2d_small)
        os_grid = TorusGrid((oracle.OVERSAMPLE * (2 * sys.n + 1),) * sys.d, sys.lengths)

        def theta_floor(t, y):
            return float(np.min(_reconstruct(oracle._fields(y, sys)[-1], sys.n, os_grid))) - 0.05

        theta_floor.terminal, theta_floor.direction = True, -1.0
        ref = _solve_ivp(sys, 1.0, events=[theta_floor])
        crossed = ref.sol.interpolants[-1]  # the step the event ended
        with pytest.raises(PositivityLoss) as info:
            integrate_galerkin(sys, 1.0, positivity_floor=0.05)
        assert info.value.t == pytest.approx(ref.t_events[0][0], rel=0, abs=1e-9)
        assert crossed.t_old < info.value.t <= crossed.t

    def test_zero_length_integration_is_the_initial_state(self, grid2d_small):
        sys = _cold_spot(grid2d_small)
        got = integrate_galerkin(sys, sys.t).coeffs_at(sys.t)
        assert np.array_equal(got, sys.coeffs)
        assert not np.shares_memory(got, sys.coeffs)

    @pytest.mark.parametrize("what", ["coefficients", "tendency"])
    def test_non_finite_start_is_refused(self, monkeypatch, grid2d_small, what):
        # a NaN tendency would make the first step NaN, and the step control loop forever
        sys = _cold_spot(grid2d_small)
        if what == "coefficients":
            z = sys.coeffs.copy()
            z[-1, 0, 0] = np.nan
            sys = replace(sys, coeffs=z)
        else:
            monkeypatch.setattr(oracle, "_tendency", _blockwise(lambda z: z * np.nan))
        with pytest.raises(NonFinite, match=f"^non-finite oracle {what} at t=0$"):
            integrate_galerkin(sys, 1.0)

    def test_step_below_the_float_spacing_fails(self, monkeypatch):
        # theta_hat' = theta_hat^2 term by term: the unit mean mode blows up
        # at t = 1, so the step shrinks to 10 ulp(t) short of t_end = 2
        def blow_up(z):
            out = np.zeros_like(z)
            out[-1] = z[-1] * z[-1]
            return out

        monkeypatch.setattr(oracle, "_tendency", _blockwise(blow_up))
        sys = build_galerkin(SimState.equilibrium(TorusGrid((8, 8))), ModelParams(mu=1.0), n=2)
        with pytest.raises(RuntimeError, match="^oracle integration failed: .* at t=0.99999") as info:
            integrate_galerkin(sys, 2.0)
        assert not isinstance(info.value, PositivityLoss)


class TestComparison:
    def test_zero_distance_against_own_states(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        traj = integrate_galerkin(sys, 0.2)
        states = [traj.state_at(t, s.grid) for t in (0.0, 0.1, 0.2)]
        cmp = compare_oracle(traj, states)
        assert cmp.sup_distance < 1e-13
        assert [row[0] for row in cmp.rows()] == [0.0, 0.1, 0.2]

    def test_distances_are_the_field_l2_norms(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        p, cfg = ModelParams(mu=1.0), StepperConfig(dt=2e-3, t_end=0.1)
        traj = integrate_galerkin(build_galerkin(s, p, 3), 0.1)
        states = spectral_states_at(s, p, cfg, [0.0, 0.05, 0.1])
        got = compare_oracle(traj, states).rows()
        for (t, du, dv, dth), st in zip(got, states):
            ref = traj.state_at(st.t, st.grid)
            assert du == field_norms(VectorField(st.grid, st.u.components - ref.u.components))["l2"]
            assert dv == field_norms(VectorField(st.grid, st.v.components - ref.v.components))["l2"]
            assert dth == field_norms(ScalarField(st.grid, st.theta.values - ref.theta.values))["l2"]
        assert min(got[-1][1:]) > 0.0  # the runs differ: no distance is 0 by construction

    def test_empty_states_rejected(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        traj = integrate_galerkin(sys, 0.1)
        with pytest.raises(ValueError, match="no states"):
            compare_oracle(traj, [])

    def test_sampling_requires_lattice_times(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        cfg = StepperConfig(dt=2e-3, t_end=0.1)
        with pytest.raises(ValueError, match="step lattice"):
            spectral_states_at(s, ModelParams(mu=1.0), cfg, [0.0501])

    def test_sampled_states_land_on_times(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        cfg = StepperConfig(dt=2e-3, t_end=0.1)
        states = spectral_states_at(s, ModelParams(mu=1.0), cfg, [0.1, 0.0, 0.05])
        assert [st.t for st in states] == pytest.approx([0.0, 0.05, 0.1])

    def test_sample_time_past_t_end_rejected_before_stepping(self, monkeypatch):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        cfg = StepperConfig(dt=2e-3, t_end=0.1)

        def no_run(*args, **kwargs):
            raise AssertionError("stepped before validating the sample times")

        monkeypatch.setattr(oracle, "run", no_run)
        with pytest.raises(ValueError, match=r"sample time 0\.2 is past t_end"):
            spectral_states_at(s, ModelParams(mu=1.0), cfg, [0.0, 0.2])

    def test_repeated_sample_time_rejected_before_stepping(self, monkeypatch):
        # one state per requested time: a repeat would misalign the result
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        cfg = StepperConfig(dt=2e-3, t_end=0.1)

        def no_run(*args, **kwargs):
            raise AssertionError("stepped before validating the sample times")

        monkeypatch.setattr(oracle, "run", no_run)
        with pytest.raises(ValueError, match=r"sample time 0\.02 is listed twice"):
            spectral_states_at(s, ModelParams(mu=1.0), cfg, [0.1, 0.02, 0.02, 0.0])

    def test_sparse_capture_matches_every_step_capture(self):
        # steps 0, 9, 12 and 30 (= t_end): the run records every 3rd step
        s0 = make_initial_data(ScenarioSpec("band-limited", n=10, epsilon=0.04))
        p = ModelParams(mu=1.0)
        cfg = StepperConfig(dt=2e-3, t_end=0.06)
        steps = [12, 0, 30, 9]
        got = spectral_states_at(s0, p, cfg, [i * cfg.dt for i in steps])

        every: dict[int, SimState] = {}
        run(s0, p, cfg, sink=lambda s: every.setdefault(int(round(s.t / cfg.dt)), s))
        assert len(got) == len(steps)
        for i, s in zip(sorted(steps), got):
            ref = every[i]
            assert s.t == ref.t
            assert s.u.components.tobytes() == ref.u.components.tobytes()
            assert s.v.components.tobytes() == ref.v.components.tobytes()
            assert s.theta.values.tobytes() == ref.theta.values.tobytes()

    def test_capture_transforms_only_the_wanted_states(self, monkeypatch):
        s0 = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        p = ModelParams(mu=1.0)
        calls = [0]
        for name in ("to_spectral", "to_physical"):
            def counted(self, arr, _fn=getattr(TorusGrid, name)):
                calls[0] += 1
                return _fn(self, arr)

            monkeypatch.setattr(TorusGrid, name, counted)

        def count(t_end: float, times: list[float]) -> int:
            calls[0] = 0
            spectral_states_at(s0, p, StepperConfig(dt=2e-3, t_end=t_end), times)
            return calls[0]

        setup = count(0.0, [0.0])
        # the Strang step (the positivity check is certified from the
        # spectrum), plus theta, u and v per capture
        assert count(0.12, [0.0, 0.04, 0.08, 0.12]) - setup <= 4 * 60 + 3 * 3
        # the last step is emitted anyway, so it does not set the cadence:
        # steps 20, 40, 60 and 61 are built
        assert count(0.122, [0.0, 0.04, 0.08, 0.122]) - setup <= 4 * 61 + 3 * 4


class TestSampleTimes:
    """The one sample rule of the oracle verdict: steps 0, s, 2s, ... with
    s = max(1, n_steps // 10), plus the last step."""

    @pytest.mark.parametrize("n_steps, steps", [
        (1, [0, 1]),
        (4, [0, 1, 2, 3, 4]),
        (75, [0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 75]),
        (5000, list(range(0, 5001, 500))),
    ])
    def test_rule(self, n_steps, steps):
        cfg = StepperConfig(dt=2e-4, t_end=n_steps * 2e-4)
        assert cfg.n_steps() == n_steps
        assert sample_times(0.0, cfg) == [i * 2e-4 for i in steps]
        assert sample_times(1.5, cfg) == [1.5 + i * 2e-4 for i in steps]

    def test_both_frontends_capture_the_rule_times(self, monkeypatch, tmp_path):
        # compare-oracle (through crosscheck) and oracle-xcheck, main run and control
        seen = []
        real = oracle.spectral_states_at

        def spy(s0, p, cfg, times):
            seen.append(list(times))
            return real(s0, p, cfg, times)

        monkeypatch.setattr(oracle, "spectral_states_at", spy)
        monkeypatch.setattr(experiments, "spectral_states_at", spy)
        (tmp_path / "oracle.cfg").write_text("scenario = band-limited\nn = 16\nepsilon = 0.04\n"
                                             "dt = 0.002\nt_end = 0.2\n", encoding="utf-8")
        assert main(["compare-oracle", str(tmp_path / "oracle.cfg")]) == 0
        assert seen == [sample_times(0.0, StepperConfig(dt=2e-3, t_end=0.2))]
        seen.clear()
        assert run_experiment("oracle-xcheck", {"t_end": "0.2"}, out_dir=str(tmp_path / "x")).passed
        assert seen == [sample_times(0.0, StepperConfig(dt=2e-4, t_end=0.2))] * 2
        assert len(seen[0]) == 11


class TestCrosscheck:
    """crosscheck is the explicit build, integrate, capture and compare
    pipeline on the default stepper path, at the sample times, with the
    oracle on the cube of the 2/3 rule, the grid's dealias_band; a run that
    is not that truncated system, or that takes no step, is refused before
    the oracle is built or a step is taken."""

    def test_is_the_explicit_pipeline(self):
        s0 = make_initial_data(ScenarioSpec("band-limited", n=10, epsilon=0.04))
        p = ModelParams(mu=1.0)
        cfg = StepperConfig(dt=2e-3, t_end=0.02)
        traj = integrate_galerkin(build_galerkin(s0, p, 3), cfg.t_end)
        want = compare_oracle(traj, spectral_states_at(s0, p, cfg, sample_times(0.0, cfg)))
        got = crosscheck(s0, p, cfg)
        assert got == want and len(got.times) == 11

    def test_distance_is_second_order_in_dt(self):
        # the default path integrates the oracle's semi-discrete system, so
        # the distance is the Strang step's error alone: measured 3.34e-07,
        # 8.34e-08 and 2.08e-08 (ratios 4.003, 4.003)
        s0 = make_initial_data(ScenarioSpec("band-limited", n=10, epsilon=0.04))
        p = ModelParams(mu=1.0)
        dist = [crosscheck(s0, p, StepperConfig(dt=dt, t_end=0.02)).sup_distance
                for dt in (2e-3, 1e-3, 5e-4)]
        assert dist[0] / dist[1] >= 3.9 and dist[1] / dist[2] >= 3.9, dist

    def test_grid_divisible_by_3_is_the_truncated_system(self):
        # at N = 12 the 2/3 cube is |index| <= 3, so no product of kept modes
        # aliases back into it and the distance is the Strang step's error
        # alone: measured 1.180e-07 and 2.948e-08 (ratio 4.00); with the
        # cube at N // 3 = 4 it stays at 1.4e-06
        s0 = make_initial_data(ScenarioSpec("band-limited", n=12, epsilon=0.2))
        p = ModelParams(mu=1.0)
        dist = [crosscheck(s0, p, StepperConfig(dt=dt, t_end=1.0)).sup_distance
                for dt in (2e-4, 1e-4)]
        assert dist[0] / dist[1] >= 3.5, dist

    @pytest.mark.parametrize("shape, cfg, match", [
        ((10, 10), StepperConfig(dt=2e-3, t_end=0.02, dealias=False), r"this run sets dealias = False$"),
        ((10, 10), StepperConfig(dt=2e-3, t_end=0.02, product_band=3),
         r"this run sets product_band = 3$"),
        ((10, 8), StepperConfig(dt=2e-3, t_end=0.02), r"dealias_band = \(3, 2\)$"),
        # a run of no step has no sample time past t0
        ((10, 10), StepperConfig(dt=2e-3, t_end=0.0), r"^the oracle check needs t_end > 0, got t_end=0$"),
    ], ids=["no-dealias", "product-band", "ragged-cube", "no-times"])
    def test_refused_before_building_or_stepping(self, monkeypatch, shape, cfg, match):
        calls = []
        for name in ("build_galerkin", "integrate_galerkin", "run"):
            monkeypatch.setattr(oracle, name, lambda *a, _n=name, **k: calls.append(_n))
        grid = TorusGrid(shape)
        s0 = SimState.equilibrium(grid)
        with pytest.raises(ValueError, match=match):
            crosscheck(s0, ModelParams(mu=1.0), cfg)
        assert calls == []

    def test_oracle_watches_the_config_floor(self, monkeypatch):
        seen = []
        real = oracle.integrate_galerkin

        def spy(sys, t_end, positivity_floor=None):
            seen.append(positivity_floor)
            return real(sys, t_end, positivity_floor)

        monkeypatch.setattr(oracle, "integrate_galerkin", spy)
        s0 = make_initial_data(ScenarioSpec("band-limited", n=10, epsilon=0.04))
        cfg = StepperConfig(dt=2e-3, t_end=0.01, positivity_floor=1e-3)
        crosscheck(s0, ModelParams(mu=1.0), cfg)
        assert seen == [1e-3]


class TestOracleVerdicts:
    """The oracle-xcheck verdict beyond the 2D Laplacian of criterion 13: the
    matched run at n = 10 agrees with the truncated system, the aliased N=8
    control does not."""

    @pytest.mark.parametrize("operator, d", [("lame", 2), ("laplacian", 3), ("lame", 3)])
    def test_matched_run_passes_and_aliased_control_fails(self, operator, d, tmp_path):
        overrides = {"operator": operator, "d": str(d), "n": "10", "control_n": "8",
                     "dt": "2e-4", "t_end": "0.5"}
        report = run_experiment("oracle-xcheck", overrides, out_dir=str(tmp_path))
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts == {"oracle-match": True, "aliased-control-fails": True,
                            "control-separation": True}, report.lines()

    def test_oracle_is_integrated_once(self, monkeypatch, tmp_path):
        # the matched run and the aliased control read one oracle trajectory
        calls = []
        real = oracle.integrate_galerkin

        def spy(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "integrate_galerkin", spy)
        report = run_experiment("oracle-xcheck", {"t_end": "0.2"}, out_dir=str(tmp_path))
        assert calls == [0.2]
        assert report.passed, report.lines()

    def test_control_too_coarse_for_the_cube_refused_before_building_or_stepping(
            self, monkeypatch, tmp_path):
        # at n = 16 the cube is modes 5, which needs 12 points per axis: 11 is
        # refused before anything is built, 12 gets as far as building the oracle
        calls = []

        def reached(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise LookupError(name)
            return call

        for name in ("build_galerkin", "run"):
            monkeypatch.setattr(oracle, name, reached(name))
        overrides = {"n": "16", "t_end": "0.2"}
        with pytest.raises(ValueError, match=r"^control_n=11 cannot hold the oracle's cube at "
                                             r"n=16: truncation 5 needs control_n >= 12$"):
            run_experiment("oracle-xcheck", overrides | {"control_n": "11"}, out_dir=str(tmp_path))
        assert calls == []
        with pytest.raises(LookupError):
            run_experiment("oracle-xcheck", overrides | {"control_n": "12"}, out_dir=str(tmp_path))
        assert calls == ["build_galerkin"]
