"""Balance laws, monotone quantities, and decomposition norms.

The quantities tracked here are the ones the dynamics is supposed to respect:

* total energy        E = 1/2 int |u_t|^2 + (elastic energy of u) + int theta,
  conserved;
* entropy             int log(theta), nondecreasing, with production rate
  int |grad log theta|^2;
* total dissipation   1/2 int |u_t|^2 + (elastic energy) + int (theta - log theta)
  plus the time-integrated production, constant;
* Fisher functional   F = 1/2 ( int |grad u_t|^2 + (second-order elastic term)
  + int |grad theta|^2 / theta ), nonincreasing for small data, with the exact
  derivative  dF/dt = -int theta |hess log theta|^2
  - mu/2 int (|grad theta|^2/theta) div u_t;
* the orthogonal-splitting norms (divergence-free displacement energy,
  curl-free displacement H1 norm, distance of theta to its predicted limit).

The elastic terms are the operator's quadratic form `operators.elastic_form`:
unweighted in the energies, weighted by |k|^2 in F, which is the |k|^2-weighted
wave energy plus half the Fisher information; the smallness gate is 2F at the
Laplacian speeds.
Every quadratic quantity of u and v is read by Parseval from their
coefficients, the curl-free parts from `operators.longitudinal_part`; a
record takes u, v, log theta and theta forward in one stacked transform and
inverts only grad theta.
Pointwise nonlinearities (log, sqrt, quotients) are evaluated in physical
space; where their result is differentiated spectrally it is dealiased by the
2/3 rule first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .dynamics import ModelParams, SimState, _signed_step
from .grid import ScalarField, TorusGrid, quadrature, spectral_l2_sq

__all__ = [
    "DiagnosticsRecord",
    "RECORD_FIELDS",
    "TrajectoryRecorder",
    "total_energy",
    "entropy",
    "entropy_production",
    "dissipation_residual",
    "fisher_functional",
    "fisher_identity_residual",
    "theta_infinity_prediction",
    "decomposition_report",
    "galerkin_initial_smallness",
    "sqrt_hessian_integral",
    "weighted_log_hessian_integral",
    "hessian_inequality_constant",
]


@dataclass
class DiagnosticsRecord:
    """One row of the time series written by `run` + TrajectoryRecorder."""

    t: float
    energy: float
    entropy: float
    entropy_production: float
    production_integral: float
    dissipation_residual: float
    fisher_functional: float
    fisher_identity_residual: float
    theta_min: float
    theta_max: float
    chi_h1: float
    chi_t_l2: float
    nu_energy: float
    theta_l2_dist: float


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))


def _check_positive(theta: ScalarField, what: str) -> float:
    """min(theta); raises ValueError naming `what` unless it is positive."""
    tmin = float(np.min(theta.values))
    if tmin <= 0.0:
        raise ValueError(f"{what} requires positive temperature, min is {tmin:.6g}")
    return tmin


def _log_theta(theta: ScalarField, what: str) -> tuple[np.ndarray, float]:
    """(log theta, min theta): the one positivity check and logarithm behind
    the entropy, its production and the log-hessian integral."""
    tmin = _check_positive(theta, what)
    return np.log(theta.values), tmin


def _entropy_production(grid: TorusGrid, log_spec: np.ndarray) -> float:
    """int |grad log theta|^2 from the coefficients of log theta, dealiased."""
    return spectral_l2_sq(grid, log_spec * grid.dealias_mask, grid.k_sq)


def _wave_energy(
    grid: TorusGrid, p: ModelParams, uh: np.ndarray, vh: np.ndarray, weight: np.ndarray | None = None
) -> float:
    """1/2 ||v||^2 + 1/2 int u . A u from the coefficients of u and v, each
    mode times weight if given (|k|^2 in the Fisher functional)."""
    return 0.5 * spectral_l2_sq(grid, vh, weight) + 0.5 * operators.elastic_form(grid, uh, p.wave_speeds_sq, weight)


def _total_energy(s: SimState, p: ModelParams, uh: np.ndarray, vh: np.ndarray) -> float:
    return _wave_energy(s.grid, p, uh, vh) + quadrature(s.grid, s.theta.values)


def total_energy(s: SimState, p: ModelParams) -> float:
    """Kinetic + elastic + thermal energy; an exact invariant of the flow."""
    return _total_energy(s, p, s.u.spectral(), s.v.spectral())


def entropy(s: SimState) -> float:
    """int log(theta); nondecreasing along the flow."""
    return quadrature(s.grid, _log_theta(s.theta, "entropy")[0])


def entropy_production(s: SimState) -> float:
    """int |grad log theta|^2, the instantaneous entropy production rate."""
    log_theta = _log_theta(s.theta, "entropy production")[0]
    return _entropy_production(s.grid, s.grid.to_spectral(log_theta))


def dissipation_residual(records: list[DiagnosticsRecord]) -> float:
    """Largest relative drift of the total dissipation balance.

    Each record carries energy, entropy and the cumulative (trapezoidal)
    production integral; their combination
    energy - entropy + production_integral must be constant in time.
    """
    if not records:
        raise ValueError("no records")
    base = records[0].energy - records[0].entropy + records[0].production_integral
    if base == 0.0:
        raise ValueError("degenerate dissipation balance baseline")
    worst = 0.0
    for r in records:
        lhs = r.energy - r.entropy + r.production_integral
        worst = max(worst, abs(lhs - base) / abs(base))
    return worst


def _fisher_ratio(theta: ScalarField, th: np.ndarray) -> np.ndarray:
    """|grad theta|^2 / theta on the grid from theta and its coefficients
    th; the caller has checked that theta is positive."""
    grad = theta.grid.to_physical(operators._grad_spec(theta.grid, th))
    return np.sum(grad**2, axis=0) / theta.values


def _fisher_functional(s: SimState, p: ModelParams, uh: np.ndarray, vh: np.ndarray, th: np.ndarray) -> float:
    """The |k|^2-weighted wave energy plus half the Fisher information."""
    return _wave_energy(s.grid, p, uh, vh, s.grid.k_sq) + 0.5 * quadrature(s.grid, _fisher_ratio(s.theta, th))


def fisher_functional(s: SimState, p: ModelParams) -> float:
    """F = 1/2 (int |grad v|^2 + second-order elastic term + int |grad theta|^2/theta)."""
    _check_positive(s.theta, "Fisher functional")
    return _fisher_functional(s, p, s.u.spectral(), s.v.spectral(), s.theta.spectral())


def _hessian_sq(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """|hess f|^2 on the grid, f the values dealiased before differentiation."""
    h = operators._hessian_spec(grid, grid.to_spectral(values) * grid.dealias_mask)
    return np.sum(h * h, axis=(0, 1))


def weighted_log_hessian_integral(w: ScalarField) -> float:
    """int w |hess log w|^2 with the log dealiased before differentiation."""
    log_w = _log_theta(w, "weighted log-hessian integral")[0]
    return quadrature(w.grid, _hessian_sq(w.grid, log_w) * w.values)


def sqrt_hessian_integral(w: ScalarField) -> float:
    """int |hess sqrt(w)|^2 with the root dealiased before differentiation."""
    _check_positive(w, "sqrt-hessian integral")
    return quadrature(w.grid, _hessian_sq(w.grid, np.sqrt(w.values)))


def hessian_inequality_constant(d: int) -> float:
    """Constant in  int |hess sqrt(w)|^2 <= C int w |hess log w|^2."""
    return 1.0 + math.sqrt(d) / 2.0 + d / 8.0


def fisher_identity_residual(s: SimState, p: ModelParams, dt_micro: float = 1e-5) -> float:
    """Mismatch of the exact Fisher derivative identity at state s.

    dF/dt is approximated by a centred difference of F across one signed
    micro-step of the full dynamics; the exact rate is
    -int theta |hess log theta|^2 - mu/2 int (|grad theta|^2/theta) div v.
    Returned as |difference| / (1 + |exact rate|); second-order small in
    dt_micro until the spatial quadrature floor is reached.
    """
    if not 0.0 < dt_micro < math.inf:
        raise ValueError(f"dt_micro must be > 0 and finite, got {dt_micro}")
    grid = s.grid
    hess_term = weighted_log_hessian_integral(s.theta)  # checks theta > 0
    div_v = operators.divergence(s.v)
    ratio = _fisher_ratio(s.theta, s.theta.spectral())
    rhs = -hess_term - 0.5 * p.mu * quadrature(grid, ratio * div_v.values)
    fwd = fisher_functional(_signed_step(s, p, dt_micro), p)
    bwd = fisher_functional(_signed_step(s, p, -dt_micro), p)
    lhs = (fwd - bwd) / (2.0 * dt_micro)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _theta_infinity(s0: SimState, p: ModelParams, uh: np.ndarray, vh: np.ndarray) -> float:
    grid = s0.grid
    chi_u, chi_v = (operators.longitudinal_part(grid, xh)[1] for xh in (uh, vh))
    return _total_energy(s0, p, chi_u, chi_v) / grid.measure


def theta_infinity_prediction(s0: SimState, p: ModelParams) -> float:
    """Predicted uniform temperature limit from the initial data.

    The curl-free displacement energy and the velocity's curl-free kinetic
    energy are eventually converted to heat; the divergence-free part keeps
    oscillating and never thermalises.  The prediction is
    (1/2 int |curl-free v0|^2 + curl-free elastic energy of u0 + int theta0)
    divided by the box measure.
    """
    return _theta_infinity(s0, p, s0.u.spectral(), s0.v.spectral())


def _split_columns(s: SimState, p: ModelParams, uh: np.ndarray, vh: np.ndarray, theta_inf: float) -> dict:
    """||chi||_H1 and ||chi_t|| of the curl-free parts, the wave energy of the
    divergence-free remainders, and ||theta - theta_inf|| (on the grid values)."""
    grid = s.grid
    chi_u, chi_v = (operators.longitudinal_part(grid, xh)[1] for xh in (uh, vh))
    return {
        "chi_h1": math.sqrt(spectral_l2_sq(grid, chi_u, 1.0 + grid.k_sq)),
        "chi_t_l2": math.sqrt(spectral_l2_sq(grid, chi_v)),
        "nu_energy": _wave_energy(grid, p, uh - chi_u, vh - chi_v),
        "theta_l2_dist": math.sqrt(quadrature(grid, (s.theta.values - theta_inf) ** 2)),
    }


def decomposition_report(s: SimState, s0: SimState, p: ModelParams) -> dict[str, float]:
    """Orthogonal-splitting norms of s, with the theta limit predicted from s0."""
    theta_inf = theta_infinity_prediction(s0, p)
    return {**_split_columns(s, p, s.u.spectral(), s.v.spectral(), theta_inf), "theta_infinity": theta_inf}


def galerkin_initial_smallness(s: SimState, p: ModelParams) -> float:
    """The smallness functional gating the decay theory:

    ||grad v||^2 + ||laplacian u||^2 + int |grad theta|^2 / theta,
    that is 2F at the Laplacian speeds whatever the operator of p.
    """
    p.validate_for_dimension(s.grid.d)
    return 2.0 * fisher_functional(s, ModelParams(mu=p.mu))


class TrajectoryRecorder:
    """Accumulates DiagnosticsRecords from the states a run emits.

    The first state received becomes the reference for the dissipation
    baseline and the predicted temperature limit.  Each record checks
    theta > 0 and takes log theta once, forward-transforms u, v, log theta
    and (full battery) theta in one stacked call (byte-identical to one call
    per field, at a fraction of the dispatch cost) and hands the
    coefficients to the same kernels the public functions use, so its
    columns equal theirs bit for bit.  A full record's one other transform
    takes grad theta back for the Fisher term.  The production integral
    is accumulated by the trapezoid rule on the record cadence.  The
    fisher_identity_residual column is always NaN: the residual costs two
    extra micro-steps of the full dynamics, so it is computed on demand by
    `fisher_identity_residual` (as `thermoelast diagnose DIR` does).

    The trapezoid error in the production integral scales with the record
    cadence squared, so ledger audits want record_every=1; at that cadence
    the Fisher and splitting columns add cost without informing the
    audit.  battery="ledger" computes only the balance columns (energy,
    entropy, production, the running integral and residual, temperature
    extremes) and writes NaN in the rest.
    """

    def __init__(self, p: ModelParams, battery: str = "full"):
        if battery not in ("full", "ledger"):
            raise ValueError("battery must be 'full' or 'ledger'")
        self.p = p
        self.battery = battery
        self.records: list[DiagnosticsRecord] = []
        self._theta_inf = math.nan
        self._diss_base = math.nan
        self._prev_t = math.nan
        self._prev_prod = math.nan
        self._prod_integral = 0.0

    def __call__(self, s: SimState) -> None:
        p, grid, d = self.p, s.grid, s.grid.d
        log_theta, theta_min = _log_theta(s.theta, "entropy")
        fields = (s.u.components, s.v.components, log_theta[None])
        if self.battery == "full":
            fields += (s.theta.values[None],)
        spec = grid.to_spectral(np.concatenate(fields))
        uh, vh = spec[:d], spec[d:2 * d]
        if not self.records:
            self._theta_inf = _theta_infinity(s, p, uh, vh)
        e = _total_energy(s, p, uh, vh)
        ent = quadrature(grid, log_theta)
        prod = _entropy_production(grid, spec[2 * d])
        if not math.isnan(self._prev_t):
            self._prod_integral += 0.5 * (prod + self._prev_prod) * (s.t - self._prev_t)
        self._prev_t = s.t
        self._prev_prod = prod
        lhs = e - ent + self._prod_integral
        if math.isnan(self._diss_base):
            self._diss_base = lhs
        diss = abs(lhs - self._diss_base) / abs(self._diss_base) if self._diss_base else math.nan
        if self.battery == "full":
            fisher = _fisher_functional(s, p, uh, vh, spec[2 * d + 1])
            split = _split_columns(s, p, uh, vh, self._theta_inf)
        else:
            fisher = math.nan
            split = dict.fromkeys(("chi_h1", "chi_t_l2", "nu_energy", "theta_l2_dist"), math.nan)
        self.records.append(
            DiagnosticsRecord(
                t=s.t,
                energy=e,
                entropy=ent,
                entropy_production=prod,
                production_integral=self._prod_integral,
                dissipation_residual=diss,
                fisher_functional=fisher,
                fisher_identity_residual=math.nan,
                theta_min=theta_min,
                theta_max=float(np.max(s.theta.values)),
                **split,
            )
        )
