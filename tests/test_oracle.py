"""Truncated-coefficient reference solver: convolution algebra, projection,
reconstruction, tendencies, and the comparison harness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from thermoelast import (
    GalerkinSystem,
    ModelParams,
    PositivityLoss,
    ScalarField,
    SimState,
    StepperConfig,
    TorusGrid,
    VectorField,
    build_galerkin,
    compare_oracle,
    evaluate_rhs,
    integrate_galerkin,
    make_initial_data,
    run,
    spectral_states_at,
)
from thermoelast import oracle
from thermoelast.experiments import run_experiment
from thermoelast.oracle import (
    convolve_truncated,
    crosscheck,
    galerkin_rhs,
    reconstruct_scalar,
    reconstruct_vector,
)
from thermoelast.scenarios import ScenarioSpec


def _hermitian_cube(rng, n, d):
    """Random coefficient cube with conjugate symmetry (a real field)."""
    shape = (2 * n + 1,) * d
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flip = np.conj(np.flip(a))
    return (a + flip) / 2.0


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
        assert sys.hermitian_residue() < 1e-14

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
        center = sys.th_hat[(3, 3)]
        assert center.real == pytest.approx(1.0 + sys.shift, rel=1e-12)

    def test_hermitian_residue_detects_corruption(self, rng):
        n = 3
        sys = GalerkinSystem(
            n=n,
            lengths=(2 * math.pi, 2 * math.pi),
            p=ModelParams(mu=1.0),
            t=0.0,
            u_hat=np.stack([_hermitian_cube(rng, n, 2) for _ in range(2)]),
            v_hat=np.stack([_hermitian_cube(rng, n, 2) for _ in range(2)]),
            th_hat=_hermitian_cube(rng, n, 2),
        )
        assert sys.hermitian_residue() < 1e-14
        sys.th_hat[n, n] += 1j  # the self-paired center must stay real
        assert sys.hermitian_residue() > 1.9


class TestReconstruction:
    def test_round_trip_on_source_grid(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.1))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        u = reconstruct_vector(sys.u_hat, 3, s.grid)
        th = reconstruct_scalar(sys.th_hat, 3, s.grid)
        np.testing.assert_allclose(u.components, s.u.components, atol=1e-13)
        np.testing.assert_allclose(th.values, s.theta.values, atol=1e-13)

    def test_refinement_consistency(self):
        # the same cube reconstructed on two grids agrees pointwise where the
        # grids coincide (every other node of the fine one)
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.1))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        coarse = reconstruct_scalar(sys.th_hat, 3, s.grid)
        fine = reconstruct_scalar(sys.th_hat, 3, TorusGrid((32, 32)))
        np.testing.assert_allclose(coarse.values, fine.values[::2, ::2], atol=1e-13)

    def test_grid_too_small(self):
        cube = np.zeros((7, 7), dtype=complex)
        with pytest.raises(ValueError, match="cannot hold truncation"):
            reconstruct_scalar(cube, 3, TorusGrid((6, 6)))


class TestTendencies:
    @pytest.mark.parametrize("operator", ["laplacian", "lame"])
    def test_matches_alias_free_grid_rhs(self, operator):
        # on a 32-point grid, products of cube-3 data reach mode 6 and alias
        # nowhere, so projecting the full tendencies recovers the truncated
        # ones exactly
        p = ModelParams(mu=1.0, operator=operator)
        s = make_initial_data(ScenarioSpec("band-limited", n=32, epsilon=0.2))
        sys = build_galerkin(s, p, n=3)
        du, dv, dth = galerkin_rhs(sys)

        ref_du, ref_dv, ref_dth = evaluate_rhs(s, p, dealias=False)
        grid = s.grid
        rows = tuple(np.arange(-3, 4) % m for m in grid.n_per_axis)

        def cube_of(values):
            fh = np.fft.fftn(values, axes=tuple(range(-grid.d, 0))) / grid.n_total
            if values.ndim > grid.d:
                return np.stack([c[np.ix_(*rows)] for c in fh])
            return fh[np.ix_(*rows)]

        np.testing.assert_allclose(du, cube_of(ref_du.components), atol=1e-13)
        np.testing.assert_allclose(dv, cube_of(ref_dv.components), atol=1e-13)
        np.testing.assert_allclose(dth, cube_of(ref_dth.values), atol=1e-13)


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
        got = traj.coeffs_at(1.0).th_hat[(4, 3)]  # offset (+1, 0)
        assert got == pytest.approx(0.15 * math.exp(-1.0), rel=1e-9)

    def test_entropy_at_closed_form(self, grid2d_small):
        a = 0.25
        x1 = grid2d_small.meshes()[0]
        theta = ScalarField(
            grid2d_small,
            np.broadcast_to(1.0 + a * np.cos(x1), grid2d_small.shape).copy(),
        )
        s = SimState(0.0, VectorField.zeros(grid2d_small), VectorField.zeros(grid2d_small), theta)
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        traj = integrate_galerkin(sys, 0.01)
        want = (2 * math.pi) ** 2 * math.log((1.0 + math.sqrt(1.0 - a**2)) / 2.0)
        assert traj.entropy_at(0.0) == pytest.approx(want, rel=1e-10)

    def test_time_range_enforced(self, grid2d_small):
        s = SimState.equilibrium(grid2d_small)
        sys = build_galerkin(s, ModelParams(mu=1.0), n=2)
        traj = integrate_galerkin(sys, 0.5)
        with pytest.raises(ValueError, match="outside integrated range"):
            traj.coeffs_at(0.6)
        with pytest.raises(ValueError, match="precedes initial time"):
            integrate_galerkin(sys, -1.0)

    def test_positivity_event_terminates(self, grid2d_small):
        # strong compression against a cold spot: theta at x1=0 relaxes
        # toward 0.9/20 = 0.045, crossing the 0.05 floor on the way
        x1 = grid2d_small.meshes()[0]
        theta = ScalarField(
            grid2d_small,
            np.broadcast_to(1.0 - 0.9 * np.cos(x1), grid2d_small.shape).copy(),
        )
        v = VectorField.from_functions(
            grid2d_small, [lambda *m: 20.0 * np.sin(m[0]), lambda *m: 0.0 * m[0]]
        )
        s = SimState(0.0, VectorField.zeros(grid2d_small), v, theta)
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        with pytest.raises(PositivityLoss):
            integrate_galerkin(sys, 1.0, positivity_floor=0.05)


class TestComparison:
    def test_zero_distance_against_own_states(self):
        s = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        sys = build_galerkin(s, ModelParams(mu=1.0), n=3)
        traj = integrate_galerkin(sys, 0.2)
        states = [traj.state_at(t, s.grid) for t in (0.0, 0.1, 0.2)]
        cmp = compare_oracle(traj, states)
        assert cmp.sup_distance < 1e-13
        assert [row[0] for row in cmp.rows()] == [0.0, 0.1, 0.2]

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

    def test_sparse_capture_matches_every_step_capture(self):
        # steps 0, 9, 12 and 30 (= t_end): the run records every 3rd step
        s0 = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        p = ModelParams(mu=1.0)
        cfg = StepperConfig(dt=2e-3, t_end=0.06, product_band=3)
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


class TestCrosscheck:
    """crosscheck is the explicit build, integrate, capture and compare
    pipeline, with the stepper's products matched to the oracle's cube only
    when the config dealiases and pins no band of its own."""

    @pytest.mark.parametrize("dealias, band, runs_as, not_as", [
        (True, 0, {"product_band": 3}, {}),
        (True, 2, {}, {"product_band": 3}),
        (False, 0, {}, {"dealias": True}),
    ])
    def test_is_the_explicit_pipeline(self, dealias, band, runs_as, not_as):
        s0 = make_initial_data(ScenarioSpec("band-limited", n=16, epsilon=0.04))
        p = ModelParams(mu=1.0)
        cfg = StepperConfig(dt=2e-3, t_end=0.02, dealias=dealias, product_band=band)
        times = [0.0, 0.01, 0.02]

        def explicit(stepper: StepperConfig):
            traj = integrate_galerkin(build_galerkin(s0, p, 3), stepper.t_end)
            return compare_oracle(traj, spectral_states_at(s0, p, stepper, times))

        got = crosscheck(s0, p, cfg, 3, times)
        assert got == explicit(replace(cfg, **runs_as))
        assert got != explicit(replace(cfg, **not_as))


class TestOracleVerdicts:
    """The oracle-xcheck verdict beyond the 2D Laplacian of criterion 13: the
    matched run agrees with the truncated system, the aliased N=8 control
    does not."""

    @pytest.mark.parametrize("operator, d", [("lame", 2), ("laplacian", 3), ("lame", 3)])
    def test_matched_run_passes_and_aliased_control_fails(self, operator, d, tmp_path):
        overrides = {"operator": operator, "d": str(d), "n": "16", "control_n": "8",
                     "modes": "3", "dt": "2e-4", "t_end": "0.5", "tolerance": "1e-5"}
        report = run_experiment("oracle-xcheck", overrides, out_dir=str(tmp_path))
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts == {"oracle-match": True, "aliased-control-fails": True,
                            "control-separation": True}, report.lines()
