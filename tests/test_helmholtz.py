"""Orthogonal splitting into divergence-free and gradient parts."""

import numpy as np
import pytest

from thermoelast import (
    VectorField,
    curl,
    divergence,
    field_norms,
    gradient,
    helmholtz_project,
    quadrature,
)

from conftest import random_vector


@pytest.fixture(params=["grid2d", "grid3d"])
def any_grid(request):
    return request.getfixturevalue(request.param)


def scale_of(v: VectorField) -> float:
    return max(field_norms(v)["linf"], 1e-300)


def test_reconstruction(any_grid, rng):
    v = random_vector(any_grid, rng)
    parts = helmholtz_project(v)
    resid = np.max(np.abs(parts.div_free.components + parts.curl_free.components - v.components))
    assert resid < 1e-12 * scale_of(v)


def test_parts_have_vanishing_div_and_curl(any_grid, rng):
    v = random_vector(any_grid, rng)
    parts = helmholtz_project(v)
    s = scale_of(v)
    assert field_norms(divergence(parts.div_free))["linf"] < 1e-12 * s
    c = curl(parts.curl_free)
    c_linf = field_norms(c)["linf"]
    assert c_linf < 1e-12 * s


def test_orthogonality(any_grid, rng):
    v = random_vector(any_grid, rng)
    parts = helmholtz_project(v)
    cross = quadrature(any_grid, np.sum(parts.div_free.components * parts.curl_free.components, axis=0))
    assert abs(cross) < 1e-12 * scale_of(v) ** 2 * any_grid.measure


def test_idempotence(any_grid, rng):
    v = random_vector(any_grid, rng)
    parts = helmholtz_project(v)
    again = helmholtz_project(parts.div_free)
    s = scale_of(v)
    assert np.max(np.abs(again.div_free.components - parts.div_free.components)) < 1e-12 * s
    assert field_norms(again.curl_free)["linf"] < 1e-12 * s


def test_energy_splits(any_grid, rng):
    v = random_vector(any_grid, rng)
    parts = helmholtz_project(v)
    total = field_norms(v)["l2"] ** 2
    split = field_norms(parts.div_free)["l2"] ** 2 + field_norms(parts.curl_free)["l2"] ** 2
    assert split == pytest.approx(total, rel=1e-12)


def test_potential_generates_curl_free_part(any_grid, rng):
    v = random_vector(any_grid, rng)
    parts = helmholtz_project(v)
    g = gradient(parts.potential)
    assert np.max(np.abs(g.components - parts.curl_free.components)) < 1e-12 * scale_of(v)
    assert abs(np.mean(parts.potential.values)) < 1e-13 * scale_of(v)


def test_constant_field_goes_to_div_free(grid2d):
    v = VectorField(grid2d, np.stack([np.full(grid2d.shape, 2.0), np.full(grid2d.shape, -1.0)]))
    parts = helmholtz_project(v)
    np.testing.assert_allclose(parts.div_free.components, v.components, atol=1e-13)
    assert field_norms(parts.curl_free)["linf"] < 1e-13


def test_pure_gradient_input(grid2d, rng):
    from conftest import random_scalar

    phi = random_scalar(grid2d, rng, zero_mean=True)
    v = gradient(phi)
    parts = helmholtz_project(v)
    assert field_norms(parts.div_free)["linf"] < 1e-12 * scale_of(v)
    np.testing.assert_allclose(parts.curl_free.components, v.components,
                               atol=1e-12 * scale_of(v))
