"""Spectral operators against analytic values, finite differences, and
algebraic identities.
"""

import math

import numpy as np
import pytest

from thermoelast import (
    ModelParams,
    ScalarField,
    TorusGrid,
    VectorField,
    curl,
    curl_curl,
    divergence,
    field_norms,
    gradient,
    hessian,
    lame_apply,
    laplacian,
    quadrature,
)
from thermoelast.operators import (
    check_lame_coefficients,
    check_lame_ellipticity,
    elastic_form,
    k_dot,
    longitudinal_part,
)

from thermoelast.grid import spectral_l2_sq

from conftest import random_scalar, random_vector


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


class TestAnalyticModes:
    """Single Fourier modes where every derivative is known in closed form."""

    def test_gradient_2d(self, grid2d):
        f = ScalarField.from_function(grid2d, lambda x, y: np.sin(3 * x + 2 * y))
        g = gradient(f)
        x, y = np.meshgrid(*grid2d.axes(), indexing="ij")
        assert rel_err(g.components[0], 3 * np.cos(3 * x + 2 * y)) < 1e-12
        assert rel_err(g.components[1], 2 * np.cos(3 * x + 2 * y)) < 1e-12

    def test_divergence_2d(self, grid2d):
        v = VectorField.from_functions(
            grid2d, [lambda x, y: np.sin(2 * x), lambda x, y: np.cos(y)]
        )
        d = divergence(v)
        x, y = np.meshgrid(*grid2d.axes(), indexing="ij")
        assert rel_err(d.values, 2 * np.cos(2 * x) - np.sin(y)) < 1e-12

    def test_scalar_curl_2d(self, grid2d):
        v = VectorField.from_functions(
            grid2d, [lambda x, y: np.sin(y), lambda x, y: np.sin(2 * x)]
        )
        c = curl(v)
        x, y = np.meshgrid(*grid2d.axes(), indexing="ij")
        assert rel_err(c.values, 2 * np.cos(2 * x) - np.cos(y)) < 1e-12

    def test_vector_curl_3d(self, grid3d):
        v = VectorField.from_functions(
            grid3d,
            [lambda x, y, z: np.sin(z), lambda x, y, z: np.sin(x), lambda x, y, z: np.sin(y)],
        )
        c = curl(v)
        x, y, z = np.meshgrid(*grid3d.axes(), indexing="ij")
        assert rel_err(c.components[0], np.cos(y)) < 1e-12
        assert rel_err(c.components[1], np.cos(z)) < 1e-12
        assert rel_err(c.components[2], np.cos(x)) < 1e-12

    def test_laplacian_2d(self, grid2d):
        f = ScalarField.from_function(grid2d, lambda x, y: np.sin(3 * x + 2 * y))
        assert rel_err(laplacian(f).values, -13.0 * f.values) < 1e-12

    def test_laplacian_3d(self, grid3d):
        f = ScalarField.from_function(grid3d, lambda x, y, z: np.cos(x + 2 * y + 3 * z))
        assert rel_err(laplacian(f).values, -14.0 * f.values) < 1e-12

    def test_hessian_2d(self, grid2d):
        f = ScalarField.from_function(grid2d, lambda x, y: np.sin(3 * x + 2 * y))
        h = hessian(f)
        assert rel_err(h[0, 0], -9.0 * f.values) < 1e-12
        assert rel_err(h[0, 1], -6.0 * f.values) < 1e-12
        assert rel_err(h[1, 1], -4.0 * f.values) < 1e-12
        np.testing.assert_array_equal(h[0, 1], h[1, 0])

    def test_hessian_trace_is_laplacian(self, grid2d, rng):
        f = random_scalar(grid2d, rng)
        h = hessian(f)
        assert rel_err(h[0, 0] + h[1, 1], laplacian(f).values) < 1e-12

    def test_lame_single_mode_2d(self, grid2d):
        # longitudinal mode u = k sin(k.x): L u = (2 zeta + lam) |k|^2 u
        zeta, lam = 1.0, 0.5
        v = VectorField.from_functions(
            grid2d, [lambda x, y: np.sin(x + y), lambda x, y: np.sin(x + y)]
        )
        out = lame_apply(v, zeta, lam)
        assert rel_err(out.components, (2 * zeta + lam) * 2.0 * v.components) < 1e-12

    def test_lame_transverse_mode_2d(self, grid2d):
        # transverse mode (k . u = 0): L u = zeta |k|^2 u
        zeta, lam = 2.0, -1.5
        v = VectorField.from_functions(
            grid2d, [lambda x, y: np.sin(y), lambda x, y: np.zeros_like(x + y)]
        )
        out = lame_apply(v, zeta, lam)
        assert rel_err(out.components, zeta * v.components) < 1e-12


class TestFiniteDifferenceOracle:
    """Second-order periodic differences converge to the spectral gradient."""

    @staticmethod
    def fd_gradient(grid: TorusGrid, vals: np.ndarray) -> np.ndarray:
        out = []
        for ax in range(grid.d):
            h = grid.length_per_axis[ax] / grid.n_per_axis[ax]
            out.append((np.roll(vals, -1, axis=ax) - np.roll(vals, 1, axis=ax)) / (2 * h))
        return np.stack(out)

    def test_agreement_and_order(self, rng):
        errs = []
        for m in (32, 64):
            grid = TorusGrid((m, m))
            f = ScalarField.from_function(grid, lambda x, y: np.sin(x) + np.cos(y))
            g = gradient(f)
            fd = self.fd_gradient(grid, f.values)
            errs.append(float(np.max(np.abs(g.components - fd))))
        assert errs[0] < 0.01
        # halving h divides the difference by ~4
        assert errs[0] / errs[1] > 3.5


class TestIdentities:
    def test_laplacian_identity_random_2d(self, grid2d, rng):
        for _ in range(20):
            w = random_vector(grid2d, rng)
            lhs = laplacian(w).components
            rhs = gradient(divergence(w)).components - curl_curl(w).components
            assert rel_err(rhs, lhs) < 1e-12

    def test_laplacian_identity_random_3d(self, grid3d, rng):
        for _ in range(10):
            w = random_vector(grid3d, rng)
            lhs = laplacian(w).components
            rhs = gradient(divergence(w)).components - curl_curl(w).components
            assert rel_err(rhs, lhs) < 1e-12

    def test_curl_of_gradient_vanishes(self, grid2d, grid3d, rng):
        for grid in (grid2d, grid3d):
            f = random_scalar(grid, rng)
            c = curl(gradient(f))
            vals = c.values if grid.d == 2 else c.components
            assert np.max(np.abs(vals)) < 1e-12 * max(np.max(np.abs(f.values)), 1.0)

    def test_divergence_of_curl_vanishes_3d(self, grid3d, rng):
        v = random_vector(grid3d, rng)
        d = divergence(curl(v))
        assert np.max(np.abs(d.values)) < 1e-11 * np.max(np.abs(v.components))

    def test_lame_reduces_to_minus_laplacian(self, grid2d, rng):
        w = random_vector(grid2d, rng)
        out = lame_apply(w, 1.0, -1.0)
        assert rel_err(out.components, -laplacian(w).components) < 1e-12

    def test_lame_positive_semidefinite(self, grid2d, rng):
        from thermoelast import quadrature

        for _ in range(5):
            w = random_vector(grid2d, rng)
            e = quadrature(grid2d, np.sum(w.components * lame_apply(w, 1.0, 0.5).components, axis=0))
            assert e >= -1e-10


class TestLongitudinalPart:
    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
    def test_amplitude_and_projection(self, grid_name, request, rng):
        grid = request.getfixturevalue(grid_name)
        vh = random_vector(grid, rng).spectral()
        a, chi = longitudinal_part(grid, vh)
        assert rel_err(a, k_dot(grid, vh) * np.sqrt(grid.inv_k_sq)) < 1e-14
        # the curl-free part is a fixed point of the projection
        again_a, again_chi = longitudinal_part(grid, chi)
        assert rel_err(again_a, a) < 1e-14
        assert rel_err(again_chi, chi) < 1e-14
        zero = (0,) * grid.d
        assert a[zero] == 0.0
        assert np.all(chi[(slice(None),) + zero] == 0.0)


def _l2_sq(f: ScalarField | VectorField) -> float:
    vals = f.values if isinstance(f, ScalarField) else f.components
    return quadrature(f.grid, vals * vals)


class TestElasticForm:
    """The per-mode quadratic form int u . A u against the physical-space
    formulas  (2 zeta + lam) ||div u||^2 + zeta ||curl u||^2  and, with the
    per-mode weight |k|^2,  (2 zeta + lam) ||grad div u||^2
    + zeta ||curl curl u||^2; -laplacian is zeta = 1, lam = -1."""

    @pytest.mark.parametrize("n", [(16, 16), (12, 12, 12)], ids=["2D", "3D"])
    @pytest.mark.parametrize(
        "operator, zeta, lam",
        [("laplacian", 1.0, -1.0), ("lame", 1.3, 0.4), ("lame", 0.7, -0.2)],
    )
    def test_matches_physical_formulas(self, n, operator, zeta, lam, rng):
        grid = TorusGrid(n)
        speeds = ModelParams(mu=1.0, operator=operator, zeta=zeta, lame_lambda=lam).wave_speeds_sq
        for _ in range(3):
            u = random_vector(grid, rng)
            div_u = divergence(u)
            energy = (2 * zeta + lam) * _l2_sq(div_u) + zeta * _l2_sq(curl(u))
            fisher = (2 * zeta + lam) * _l2_sq(gradient(div_u)) + zeta * _l2_sq(curl_curl(u))
            uh = u.spectral()
            assert elastic_form(grid, uh, speeds) == pytest.approx(energy, rel=1e-12)
            assert elastic_form(grid, uh, speeds, grid.k_sq) == pytest.approx(fisher, rel=1e-12)


class TestPoincare:
    def test_gradient_below_laplacian_on_unit_box(self, grid2d, rng):
        # every nonzero integer mode has |k| >= 1, so the bound is exact
        for _ in range(20):
            f = random_scalar(grid2d, rng, zero_mean=True)
            grad_norm = field_norms(f)["h1_semi"]
            lap_norm = field_norms(laplacian(f))["l2"]
            assert grad_norm <= lap_norm * (1 + 1e-12)

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    def test_unit_modes_attain_the_bound(self, shape):
        # criterion 3's relative excess (|grad f| - |lap f|) / |lap f| is 0,
        # to the bit, on every |k| = 1 mode: the bound is sharp
        grid = TorusGrid(shape)
        for x in grid.meshes():
            for fn in (np.cos, np.sin):
                spec = ScalarField(grid, np.broadcast_to(fn(x), shape).copy()).spectral()
                grad = math.sqrt(spectral_l2_sq(grid, spec, weight=grid.k_sq))
                lap = math.sqrt(spectral_l2_sq(grid, spec, weight=grid.k_sq**2))
                assert (grad - lap) / lap == 0.0


class TestCoefficientChecks:
    def test_coefficient_positivity(self):
        check_lame_coefficients(1.0, -1.0)  # boundary case allowed
        with pytest.raises(ValueError, match="zeta must be > 0"):
            check_lame_coefficients(0.0, 1.0)
        with pytest.raises(ValueError, match=r"2\*zeta \+ lam"):
            check_lame_coefficients(1.0, -2.0)

    def test_run_level_ellipticity(self):
        check_lame_ellipticity(1.0, 0.5, 3)
        with pytest.raises(ValueError, match=r"d\*lam"):
            check_lame_ellipticity(1.0, -1.0, 2)

    def test_lame_apply_rejects_bad_coefficients(self, grid2d, rng):
        w = random_vector(grid2d, rng)
        with pytest.raises(ValueError):
            lame_apply(w, -1.0, 0.5)
