"""Named initial-data families for runs, experiments, and tests.

Every scenario produces a state with strictly positive temperature on a
default grid of 32 points per axis in 2D and 16 in 3D.  The "small-*"
families are sized so that their smallness functional
(||grad v0||^2 + ||laplacian u0||^2 + int |grad theta0|^2/theta0) sits under
the empirical decay gate of 1e-2 at the default amplitude.

* equilibrium      u = v = 0, uniform theta.
* small-curl-free  u0 = eps * grad sin(x1+...+xd), v0 = 0,
                   theta0 = baseline + eps cos x1.
* small-div-free   a divergence-free velocity-free displacement with uniform
                   theta; the coupling vanishes identically along the flow.
* small-mixed      both parts present plus a curl-free velocity.
* large            the mixed pattern at unit amplitude.
* random           seeded band-limited noise (|k|_inf <= 4, Nyquist-free) in
                   every field.
* band-limited     a fixed low-mode pattern within |k|_inf <= 3, used for
                   oracle cross-checks.
* lame-*           the same fields, intended to run with the elastic operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SimState
from .grid import ScalarField, TorusGrid, TWO_PI, VectorField

__all__ = [
    "ScenarioSpec",
    "SCENARIO_NAMES",
    "scenario_default_epsilon",
    "scenario_default_operator",
    "make_initial_data",
    "default_points",
]

_SMALL_EPS = 5e-3
_RANDOM_BAND = 4


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters selecting and sizing a named initial-data family."""

    name: str
    d: int = 2
    n: int = 0  # 0 means the dimension default (32 in 2D, 16 in 3D)
    length: float = TWO_PI
    epsilon: float = 0.0  # 0 means the scenario default amplitude
    theta_baseline: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}; know {sorted(SCENARIO_NAMES)}")
        if self.d not in (2, 3):
            raise ValueError(f"d must be 2 or 3, got {self.d}")
        if self.n and (self.n < 4 or self.n % 2):
            raise ValueError(f"n must be 0 (auto) or even and >= 4, got {self.n}")
        for name in ("length", "epsilon", "theta_baseline"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.theta_baseline <= 0:
            raise ValueError(f"theta_baseline must be positive, got {self.theta_baseline}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def grid(self) -> TorusGrid:
        n = self.n or default_points(self.d)
        return TorusGrid((n,) * self.d, (self.length,) * self.d)

    def amplitude(self) -> float:
        return self.epsilon or scenario_default_epsilon(self.name)


def default_points(d: int) -> int:
    return 32 if d == 2 else 16


def _base_name(name: str) -> str:
    return name[5:] if name.startswith("lame-") else name


def scenario_default_epsilon(name: str) -> float:
    return 1.0 if _base_name(name) == "large" else _SMALL_EPS


def scenario_default_operator(name: str) -> str:
    return "lame" if name.startswith("lame-") else "laplacian"


def _grad_sin_sum(grid: TorusGrid, eps: float) -> np.ndarray:
    """eps * grad sin(x1 + ... + xd): curl-free, zero mean."""
    meshes = grid.meshes()
    s = sum(meshes)
    comp = eps * np.cos(s)
    return np.stack([np.broadcast_to(comp, grid.shape)] * grid.d)


def _div_free_pattern(grid: TorusGrid, eps: float) -> np.ndarray:
    meshes = grid.meshes()
    if grid.d == 2:
        comps = [-np.sin(meshes[1]), np.sin(meshes[0])]
    else:
        comps = [np.sin(meshes[2]), np.sin(meshes[0]), np.sin(meshes[1])]
    return eps * np.stack([np.broadcast_to(c, grid.shape) for c in comps])


def _band_limited_noise(grid: TorusGrid, rng: np.random.Generator, band: int) -> np.ndarray:
    """Zero-mean real field with modes confined to |k|_inf <= band and to the
    Nyquist-free subspace the stepper evolves, linf ~ 1."""
    white = rng.standard_normal(grid.shape)
    spec = grid.to_spectral(white)
    spec = np.where(grid.mode_cube_mask(band) & grid.nyquist_free_mask, spec, 0.0)
    spec[(0,) * grid.d] = 0.0
    vals = grid.to_physical(spec)
    peak = float(np.max(np.abs(vals)))
    return vals / peak if peak > 0 else vals


def _build_equilibrium(spec: ScenarioSpec, grid: TorusGrid):
    u = np.zeros((grid.d,) + grid.shape)
    return u, u.copy(), np.full(grid.shape, spec.theta_baseline)


def _build_curl_free(spec: ScenarioSpec, grid: TorusGrid):
    eps = spec.amplitude()
    x1 = grid.meshes()[0]
    theta = spec.theta_baseline + eps * np.cos(x1)
    return (
        _grad_sin_sum(grid, eps),
        np.zeros((grid.d,) + grid.shape),
        np.broadcast_to(theta, grid.shape).copy(),
    )


def _build_div_free(spec: ScenarioSpec, grid: TorusGrid):
    eps = spec.amplitude()
    return (
        _div_free_pattern(grid, eps),
        np.zeros((grid.d,) + grid.shape),
        np.full(grid.shape, spec.theta_baseline),
    )


def _build_mixed(spec: ScenarioSpec, grid: TorusGrid):
    eps = spec.amplitude()
    meshes = grid.meshes()
    u = _grad_sin_sum(grid, eps) + _div_free_pattern(grid, eps)
    v = np.zeros((grid.d,) + grid.shape)
    v[0] = eps * np.cos(meshes[0])
    theta = spec.theta_baseline + eps * np.cos(meshes[0])
    return u, v, np.broadcast_to(theta, grid.shape).copy()


def _build_large(spec: ScenarioSpec, grid: TorusGrid):
    eps = spec.amplitude()
    u, v, _ = _build_mixed(spec, grid)
    x1 = grid.meshes()[0]
    ripple = min(0.5 * eps, 0.5)
    theta = spec.theta_baseline * (1.0 + ripple * np.cos(x1))
    return u, v, np.broadcast_to(theta, grid.shape).copy()


def _build_random(spec: ScenarioSpec, grid: TorusGrid):
    eps = spec.amplitude()
    rng = np.random.default_rng(spec.seed)
    u = np.stack([eps * _band_limited_noise(grid, rng, _RANDOM_BAND) for _ in range(grid.d)])
    v = np.stack([eps * _band_limited_noise(grid, rng, _RANDOM_BAND) for _ in range(grid.d)])
    ripple = _band_limited_noise(grid, rng, _RANDOM_BAND)
    amp = min(eps, 0.3) * spec.theta_baseline
    theta = spec.theta_baseline + amp * ripple
    return u, v, theta


def _build_band_limited(spec: ScenarioSpec, grid: TorusGrid):
    """Fixed deterministic pattern with |k|_inf <= 3 for oracle cross-checks.

    Below 8 points per axis the index 3 is the Nyquist line, which the
    stepper drops, so such grids are refused."""
    n = grid.n_per_axis[0]
    if n < 8:
        raise ValueError(f"scenario {spec.name!r} reaches |k|_inf = 3 and needs n >= 8, got {n}")
    eps = spec.amplitude()
    meshes = grid.meshes()
    x1, x2 = meshes[0], meshes[1]
    u = _grad_sin_sum(grid, eps) + _div_free_pattern(grid, eps)
    u[0] = u[0] + eps * np.cos(2 * x1 + x2)
    u[1] = u[1] + 0.5 * eps * np.sin(x1 - 2 * x2)
    v = np.zeros((grid.d,) + grid.shape)
    v[0] = eps * np.cos(x1)
    v[1] = 0.5 * eps * np.sin(2 * x2)
    theta = spec.theta_baseline + 2.0 * eps * np.cos(3 * x1) + eps * np.cos(x1 + x2)
    return u, v, np.broadcast_to(theta, grid.shape).copy()


_BUILDERS = {
    "equilibrium": _build_equilibrium,
    "small-curl-free": _build_curl_free,
    "small-div-free": _build_div_free,
    "small-mixed": _build_mixed,
    "large": _build_large,
    "random": _build_random,
    "band-limited": _build_band_limited,
}

SCENARIO_NAMES = tuple(sorted(list(_BUILDERS) + [f"lame-{k}" for k in _BUILDERS]))


def make_initial_data(spec: ScenarioSpec) -> SimState:
    """Build the named initial state; temperature is verified positive."""
    grid = spec.grid()
    builder = _BUILDERS[_base_name(spec.name)]
    u, v, theta = builder(spec, grid)
    tmin = float(np.min(theta))
    if tmin <= 0.0:
        raise ValueError(
            f"scenario {spec.name!r} produced non-positive temperature (min {tmin:.6g}); "
            "reduce epsilon or raise theta_baseline"
        )
    return SimState(0.0, VectorField(grid, u), VectorField(grid, v), ScalarField(grid, theta))
