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
unweighted in the energies, weighted by |k|^2 in the Fisher functional.
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
from .grid import ScalarField, VectorField, field_norms, quadrature, spectral_l2_sq
from .helmholtz import helmholtz_project

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
    "dealias_field",
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


def dealias_field(f: ScalarField) -> ScalarField:
    """Project a scalar onto the 2/3-rule band."""
    return ScalarField.from_spectral(f.grid, f.spectral() * f.grid.dealias_mask)


def _check_positive(theta: ScalarField, what: str) -> None:
    tmin = float(np.min(theta.values))
    if tmin <= 0.0:
        raise ValueError(f"{what} requires positive temperature, min is {tmin:.6g}")


def total_energy(s: SimState, p: ModelParams) -> float:
    """Kinetic + elastic + thermal energy; an exact invariant of the flow."""
    kinetic = 0.5 * field_norms(s.v)["l2"] ** 2
    thermal = quadrature(s.grid, s.theta.values)
    return kinetic + 0.5 * operators.elastic_form(s.u, p.wave_speeds_sq) + thermal


def entropy(s: SimState) -> float:
    """int log(theta); nondecreasing along the flow."""
    _check_positive(s.theta, "entropy")
    return quadrature(s.grid, np.log(s.theta.values))


def entropy_production(s: SimState) -> float:
    """int |grad log theta|^2, the instantaneous entropy production rate."""
    _check_positive(s.theta, "entropy production")
    grid = s.grid
    log_spec = grid.to_spectral(np.log(s.theta.values)) * grid.dealias_mask
    return spectral_l2_sq(grid, log_spec, grid.k_sq)


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


def _fisher_theta_term(s: SimState) -> float:
    _check_positive(s.theta, "Fisher functional")
    grad_t = operators.gradient(s.theta)
    integrand = np.sum(grad_t.components**2, axis=0) / s.theta.values
    return quadrature(s.grid, integrand)


def fisher_functional(s: SimState, p: ModelParams) -> float:
    """F = 1/2 (int |grad v|^2 + second-order elastic term + int |grad theta|^2/theta)."""
    grad_v_sq = field_norms(s.v)["h1_semi"] ** 2
    elastic = operators.elastic_form(s.u, p.wave_speeds_sq, s.grid.k_sq)
    return 0.5 * (grad_v_sq + elastic + _fisher_theta_term(s))


def weighted_log_hessian_integral(w: ScalarField) -> float:
    """int w |hess log w|^2 with the log dealiased before differentiation."""
    _check_positive(w, "weighted log-hessian integral")
    log_w = dealias_field(ScalarField(w.grid, np.log(w.values)))
    h = operators.hessian(log_w)
    return quadrature(w.grid, np.sum(h * h, axis=(0, 1)) * w.values)


def sqrt_hessian_integral(w: ScalarField) -> float:
    """int |hess sqrt(w)|^2 with the root dealiased before differentiation."""
    _check_positive(w, "sqrt-hessian integral")
    root = dealias_field(ScalarField(w.grid, np.sqrt(w.values)))
    h = operators.hessian(root)
    return quadrature(w.grid, np.sum(h * h, axis=(0, 1)))


def hessian_inequality_constant(d: int) -> float:
    """Constant in  int |hess sqrt(w)|^2 <= C int w |hess log w|^2."""
    return 1.0 + math.sqrt(d) / 2.0 + d / 8.0


def fisher_identity_residual(
    s: SimState,
    p: ModelParams,
    dt_micro: float = 1e-5,
    dealias: bool = True,
) -> float:
    """Mismatch of the exact Fisher derivative identity at state s.

    dF/dt is approximated by a centred difference of F across one signed
    micro-step of the full dynamics; the exact rate is
    -int theta |hess log theta|^2 - mu/2 int (|grad theta|^2/theta) div v.
    Returned as |difference| / (1 + |exact rate|); second-order small in
    dt_micro until the spatial quadrature floor is reached.
    """
    if dt_micro <= 0.0:
        raise ValueError(f"dt_micro must be > 0, got {dt_micro}")
    grid = s.grid
    hess_term = weighted_log_hessian_integral(s.theta)
    grad_t = operators.gradient(s.theta)
    ratio = np.sum(grad_t.components**2, axis=0) / s.theta.values
    div_v = operators.divergence(s.v)
    rhs = -hess_term - 0.5 * p.mu * quadrature(grid, ratio * div_v.values)
    fwd = fisher_functional(_signed_step(s, p, dt_micro, dealias), p)
    bwd = fisher_functional(_signed_step(s, p, -dt_micro, dealias), p)
    lhs = (fwd - bwd) / (2.0 * dt_micro)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def theta_infinity_prediction(s0: SimState, p: ModelParams) -> float:
    """Predicted uniform temperature limit from the initial data.

    The curl-free displacement energy and the velocity's curl-free kinetic
    energy are eventually converted to heat; the divergence-free part keeps
    oscillating and never thermalises.  The prediction is
    (1/2 int |curl-free v0|^2 + curl-free elastic energy of u0 + int theta0)
    divided by the box measure.
    """
    parts_u = helmholtz_project(s0.u)
    parts_v = helmholtz_project(s0.v)
    kinetic = 0.5 * field_norms(parts_v.curl_free)["l2"] ** 2
    elastic = 0.5 * operators.elastic_form(parts_u.curl_free, p.wave_speeds_sq)
    thermal = quadrature(s0.grid, s0.theta.values)
    return (kinetic + elastic + thermal) / s0.grid.measure


def _nu_energy(nu: VectorField, nu_t: VectorField, p: ModelParams) -> float:
    return 0.5 * field_norms(nu_t)["l2"] ** 2 + 0.5 * operators.elastic_form(nu, p.wave_speeds_sq)


def decomposition_report(s: SimState, s0: SimState, p: ModelParams) -> dict[str, float]:
    """Orthogonal-splitting norms of s, with the theta limit predicted from s0."""
    parts_u = helmholtz_project(s.u)
    parts_v = helmholtz_project(s.v)
    chi = field_norms(parts_u.curl_free)
    theta_inf = theta_infinity_prediction(s0, p)
    dist = field_norms(ScalarField(s.grid, s.theta.values - theta_inf))["l2"]
    return {
        "chi_h1": math.hypot(chi["l2"], chi["h1_semi"]),
        "chi_t_l2": field_norms(parts_v.curl_free)["l2"],
        "nu_energy": _nu_energy(parts_u.div_free, parts_v.div_free, p),
        "theta_infinity": theta_inf,
        "theta_l2_dist": dist,
    }


def galerkin_initial_smallness(s: SimState, p: ModelParams) -> float:
    """The smallness functional gating the decay theory:

    ||grad v||^2 + ||laplacian u||^2 + int |grad theta|^2 / theta.
    """
    p.validate_for_dimension(s.grid.d)
    grad_v_sq = field_norms(s.v)["h1_semi"] ** 2
    lap_u_sq = field_norms(operators.laplacian(s.u))["l2"] ** 2
    return grad_v_sq + lap_u_sq + _fisher_theta_term(s)


class TrajectoryRecorder:
    """Accumulates DiagnosticsRecords from the states a run emits.

    The first state received becomes the reference for the dissipation
    baseline and the predicted temperature limit.  The production integral is
    accumulated by the trapezoid rule on the record cadence.  Computing the
    Fisher identity residual needs two extra micro-steps per record, so it is
    off by default and the column is NaN when disabled.

    The trapezoid error in the production integral scales with the record
    cadence squared, so ledger audits want record_every=1; at that cadence
    the Fisher and Helmholtz columns dominate the cost without informing the
    audit.  battery="ledger" computes only the balance columns (energy,
    entropy, production, the running integral and residual, temperature
    extremes) and writes NaN in the rest.
    """

    def __init__(
        self,
        p: ModelParams,
        compute_identity: bool = False,
        dt_micro: float = 1e-5,
        battery: str = "full",
    ):
        if battery not in ("full", "ledger"):
            raise ValueError("battery must be 'full' or 'ledger'")
        if compute_identity and battery != "full":
            raise ValueError("identity residual needs the full battery")
        self.p = p
        self.compute_identity = compute_identity
        self.dt_micro = dt_micro
        self.battery = battery
        self.records: list[DiagnosticsRecord] = []
        self._reference: SimState | None = None
        self._theta_inf = math.nan
        self._diss_base = math.nan
        self._prev_t = math.nan
        self._prev_prod = math.nan
        self._prod_integral = 0.0

    def __call__(self, s: SimState) -> None:
        p = self.p
        if self._reference is None:
            self._reference = s.copy()
            self._theta_inf = theta_infinity_prediction(s, p)
        e = total_energy(s, p)
        ent = entropy(s)
        prod = entropy_production(s)
        if not math.isnan(self._prev_t):
            self._prod_integral += 0.5 * (prod + self._prev_prod) * (s.t - self._prev_t)
        self._prev_t = s.t
        self._prev_prod = prod
        lhs = e - ent + self._prod_integral
        if math.isnan(self._diss_base):
            self._diss_base = lhs
        diss = abs(lhs - self._diss_base) / abs(self._diss_base) if self._diss_base else math.nan
        if self.battery == "full":
            fisher = fisher_functional(s, p)
            identity = (
                fisher_identity_residual(s, p, self.dt_micro)
                if self.compute_identity
                else math.nan
            )
            parts_u = helmholtz_project(s.u)
            parts_v = helmholtz_project(s.v)
            chi_h1 = math.hypot(*(field_norms(parts_u.curl_free)[k] for k in ("l2", "h1_semi")))
            chi_t = field_norms(parts_v.curl_free)["l2"]
            nu_e = _nu_energy(parts_u.div_free, parts_v.div_free, p)
            dist = field_norms(ScalarField(s.grid, s.theta.values - self._theta_inf))["l2"]
        else:
            fisher = identity = chi_h1 = chi_t = nu_e = dist = math.nan
        self.records.append(
            DiagnosticsRecord(
                t=s.t,
                energy=e,
                entropy=ent,
                entropy_production=prod,
                production_integral=self._prod_integral,
                dissipation_residual=diss,
                fisher_functional=fisher,
                fisher_identity_residual=identity,
                theta_min=float(np.min(s.theta.values)),
                theta_max=float(np.max(s.theta.values)),
                chi_h1=chi_h1,
                chi_t_l2=chi_t,
                nu_energy=nu_e,
                theta_l2_dist=dist,
            )
        )
