"""Initial-data families: structure, amplitudes, seeds, and validation."""

import math

import numpy as np
import pytest

from thermoelast import (
    ModelParams,
    StepperConfig,
    curl,
    divergence,
    galerkin_initial_smallness,
    helmholtz_project,
    make_initial_data,
    run,
)
from thermoelast.diagnostics import total_energy
from thermoelast.grid import field_norms
from thermoelast.scenarios import (
    SCENARIO_NAMES,
    ScenarioSpec,
    default_points,
    scenario_default_epsilon,
    scenario_default_operator,
)

from reference_rhs import evaluate_rhs


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("d", [2, 3])
def test_every_scenario_builds(name, d):
    s = make_initial_data(ScenarioSpec(name, d=d, n=8 if d == 3 else 0))
    assert s.t == 0.0
    assert float(np.min(s.theta.values)) > 0.0
    for arr in (s.u.components, s.v.components, s.theta.values):
        assert np.all(np.isfinite(arr))


def test_default_grid_sizes():
    assert default_points(2) == 32
    assert default_points(3) == 16
    assert make_initial_data(ScenarioSpec("equilibrium")).grid.n_per_axis == (32, 32)
    assert make_initial_data(ScenarioSpec("equilibrium", d=3)).grid.n_per_axis == (16, 16, 16)


def test_equilibrium_is_trivial():
    s = make_initial_data(ScenarioSpec("equilibrium", theta_baseline=3.0))
    assert np.all(s.u.components == 0.0)
    assert np.all(s.v.components == 0.0)
    assert np.all(s.theta.values == 3.0)


class TestStructure:
    def test_curl_free_family(self):
        s = make_initial_data(ScenarioSpec("small-curl-free"))
        assert np.max(np.abs(curl(s.u).values)) < 1e-13
        assert np.all(s.v.components == 0.0)
        # the default amplitude shows up in the temperature ripple
        eps = scenario_default_epsilon("small-curl-free")
        assert float(np.max(s.theta.values)) == pytest.approx(1.0 + eps, rel=1e-12)

    def test_div_free_family_is_inert(self):
        s = make_initial_data(ScenarioSpec("small-div-free", epsilon=0.2))
        assert np.max(np.abs(divergence(s.u).values)) < 1e-13
        assert float(np.ptp(s.theta.values)) == 0.0
        # uniform theta contributes no force and solenoidal motion no heating,
        # so the tendencies reduce to the free elastic wave (here laplacian
        # u = -u for the single-mode pattern)
        _, dv, dth = evaluate_rhs(s, ModelParams(mu=1.0))
        np.testing.assert_allclose(dv.components, -s.u.components, atol=1e-13)
        assert np.max(np.abs(dth.values)) < 1e-13

    def test_mixed_family_has_both_parts(self):
        s = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.1))
        parts = helmholtz_project(s.u)
        assert field_norms(parts.div_free)["l2"] > 1e-3
        assert field_norms(parts.curl_free)["l2"] > 1e-3
        assert field_norms(s.v)["l2"] > 1e-3

    def test_large_family_caps_temperature_ripple(self):
        assert scenario_default_epsilon("large") == 1.0
        s = make_initial_data(ScenarioSpec("large", epsilon=4.0, theta_baseline=2.0))
        # ripple saturates at half the baseline regardless of epsilon
        assert float(np.min(s.theta.values)) == pytest.approx(1.0, rel=1e-12)
        assert float(np.max(s.theta.values)) == pytest.approx(3.0, rel=1e-12)


class TestSpectralSupport:
    @staticmethod
    def _max_outside_band(field_values, grid, band):
        spec = np.fft.fftn(field_values, axes=tuple(range(-grid.d, 0)))
        outside = np.zeros(grid.shape, dtype=bool)
        for ax, m in enumerate(grid.n_per_axis):
            idx = np.fft.fftfreq(m, 1.0 / m).reshape([m if a == ax else 1 for a in range(grid.d)])
            outside |= np.abs(idx) > band
        return float(np.max(np.abs(spec[..., outside]))) / grid.n_total

    def test_random_confined_to_band_four(self):
        s = make_initial_data(ScenarioSpec("random", epsilon=0.1, seed=5))
        g = s.grid
        assert self._max_outside_band(s.u.components, g, 4) < 1e-15
        assert self._max_outside_band(s.v.components, g, 4) < 1e-15
        assert self._max_outside_band(s.theta.values, g, 4) < 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_lives_on_the_evolved_subspace(self, d):
        # at N = 8 band four is the Nyquist index, whose unpaired lines the
        # stepper drops: noise there read a one-step relative energy drift
        # of 1.7e-5 (2D) and 3.1e-5 (3D) here; on the Nyquist-free modes it
        # is at most 2.2e-16 over seeds 0-9
        s0 = make_initial_data(ScenarioSpec("random", n=8, d=d, seed=1))
        p = ModelParams(mu=1.0)
        s1 = run(s0, p, StepperConfig(dt=1e-4, t_end=1e-4))
        assert abs(total_energy(s1, p) / total_energy(s0, p) - 1.0) <= 1e-15

    def test_band_limited_confined_to_band_three(self):
        s = make_initial_data(ScenarioSpec("band-limited", epsilon=0.1))
        g = s.grid
        assert self._max_outside_band(s.u.components, g, 3) < 1e-15
        assert self._max_outside_band(s.v.components, g, 3) < 1e-15
        assert self._max_outside_band(s.theta.values, g, 3) < 1e-15


class TestSeeding:
    def test_same_seed_reproduces(self):
        a = make_initial_data(ScenarioSpec("random", seed=11))
        b = make_initial_data(ScenarioSpec("random", seed=11))
        assert a.u.components.tobytes() == b.u.components.tobytes()
        assert a.theta.values.tobytes() == b.theta.values.tobytes()

    def test_different_seeds_differ(self):
        a = make_initial_data(ScenarioSpec("random", seed=11))
        b = make_initial_data(ScenarioSpec("random", seed=12))
        assert np.max(np.abs(a.u.components - b.u.components)) > 1e-3

    def test_seed_ignored_by_deterministic_families(self):
        a = make_initial_data(ScenarioSpec("small-mixed", seed=1))
        b = make_initial_data(ScenarioSpec("small-mixed", seed=2))
        assert a.u.components.tobytes() == b.u.components.tobytes()


class TestLameVariants:
    def test_fields_match_base_family(self):
        base = make_initial_data(ScenarioSpec("small-mixed"))
        lame = make_initial_data(ScenarioSpec("lame-small-mixed"))
        assert base.u.components.tobytes() == lame.u.components.tobytes()
        assert base.theta.values.tobytes() == lame.theta.values.tobytes()

    def test_operator_resolution(self):
        assert scenario_default_operator("small-mixed") == "laplacian"
        assert scenario_default_operator("lame-small-mixed") == "lame"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"name": "vortex"}, "unknown scenario"),
            ({"name": "small-mixed", "d": 4}, "d must be 2 or 3"),
            ({"name": "small-mixed", "n": 5}, "even and >= 4"),
            ({"name": "small-mixed", "n": 2}, "even and >= 4"),
            ({"name": "small-mixed", "length": 0.0}, "length must be positive"),
            ({"name": "small-mixed", "epsilon": -1.0}, "epsilon must be >= 0"),
            ({"name": "small-mixed", "theta_baseline": 0.0}, "theta_baseline must be positive"),
            ({"name": "random", "seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_spec_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("field", ["length", "epsilon", "theta_baseline"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad}"):
            ScenarioSpec("small-mixed", **{field: bad})

    @pytest.mark.parametrize("name", ["band-limited", "lame-band-limited"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [4, 6])
    def test_band_limited_needs_eight_points(self, name, d, n):
        # |k|_inf = 3 is the Nyquist index at n = 6, dropped on load: one
        # step of dt = 1e-4 moved theta by 1.0e-2 there
        spec = ScenarioSpec(name, d=d, n=n)
        with pytest.raises(ValueError, match=f"scenario '{name}' .* needs n >= 8, got {n}"):
            make_initial_data(spec)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError, match="non-positive temperature"):
            make_initial_data(ScenarioSpec("small-curl-free", epsilon=2.0))


def test_small_families_sit_under_decay_gate():
    # the docstring's sizing claim, checked against the functional itself
    p = ModelParams(mu=1.0)
    for name in ("small-curl-free", "small-div-free", "small-mixed"):
        s = make_initial_data(ScenarioSpec(name))
        assert galerkin_initial_smallness(s, p) < 1e-2
