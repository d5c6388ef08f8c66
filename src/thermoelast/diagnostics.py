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
Every quadratic quantity of u and v is read by Parseval from one forward
transform of each field, the curl-free parts from `operators.longitudinal_part`.
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


def _wave_energy(grid: TorusGrid, p: ModelParams, uh: np.ndarray, vh: np.ndarray) -> float:
    """1/2 ||v||^2 + 1/2 int u . A u from the coefficients of u and v."""
    return 0.5 * spectral_l2_sq(grid, vh) + 0.5 * operators.elastic_form(grid, uh, p.wave_speeds_sq)


def _total_energy(s: SimState, p: ModelParams, uh: np.ndarray, vh: np.ndarray) -> float:
    return _wave_energy(s.grid, p, uh, vh) + quadrature(s.grid, s.theta.values)


def total_energy(s: SimState, p: ModelParams) -> float:
    """Kinetic + elastic + thermal energy; an exact invariant of the flow."""
    return _total_energy(s, p, s.u.spectral(), s.v.spectral())


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


def _fisher_ratio(theta: ScalarField) -> np.ndarray:
    """|grad theta|^2 / theta on the grid."""
    _check_positive(theta, "Fisher functional")
    return np.sum(operators.gradient(theta).components ** 2, axis=0) / theta.values


def _fisher_functional(s: SimState, p: ModelParams, uh: np.ndarray, vh: np.ndarray) -> float:
    k_sq = s.grid.k_sq
    grad_v_sq = spectral_l2_sq(s.grid, vh, k_sq)
    elastic = operators.elastic_form(s.grid, uh, p.wave_speeds_sq, k_sq)
    return 0.5 * (grad_v_sq + elastic + quadrature(s.grid, _fisher_ratio(s.theta)))


def fisher_functional(s: SimState, p: ModelParams) -> float:
    """F = 1/2 (int |grad v|^2 + second-order elastic term + int |grad theta|^2/theta)."""
    return _fisher_functional(s, p, s.u.spectral(), s.v.spectral())


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
    div_v = operators.divergence(s.v)
    rhs = -hess_term - 0.5 * p.mu * quadrature(grid, _fisher_ratio(s.theta) * div_v.values)
    fwd = fisher_functional(_signed_step(s, p, dt_micro, dealias), p)
    bwd = fisher_functional(_signed_step(s, p, -dt_micro, dealias), p)
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

    ||grad v||^2 + ||laplacian u||^2 + int |grad theta|^2 / theta.
    """
    grid = s.grid
    p.validate_for_dimension(grid.d)
    grad_v_sq = spectral_l2_sq(grid, s.v.spectral(), grid.k_sq)
    lap_u_sq = spectral_l2_sq(grid, s.u.spectral(), grid.k_sq**2)
    return grad_v_sq + lap_u_sq + quadrature(grid, _fisher_ratio(s.theta))


class TrajectoryRecorder:
    """Accumulates DiagnosticsRecords from the states a run emits.

    The first state received becomes the reference for the dissipation
    baseline and the predicted temperature limit.  Each record transforms u
    and v once and hands the coefficients to the same kernels the public
    functions use, so its columns equal theirs bit for bit.  The production integral is
    accumulated by the trapezoid rule on the record cadence.  Computing the
    Fisher identity residual needs two extra micro-steps per record, so it is
    off by default and the column is NaN when disabled.

    The trapezoid error in the production integral scales with the record
    cadence squared, so ledger audits want record_every=1; at that cadence
    the Fisher and splitting columns add cost without informing the
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
        self._theta_inf = math.nan
        self._diss_base = math.nan
        self._prev_t = math.nan
        self._prev_prod = math.nan
        self._prod_integral = 0.0

    def __call__(self, s: SimState) -> None:
        p = self.p
        uh, vh = s.u.spectral(), s.v.spectral()
        if not self.records:
            self._theta_inf = _theta_infinity(s, p, uh, vh)
        e = _total_energy(s, p, uh, vh)
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
            fisher = _fisher_functional(s, p, uh, vh)
            identity = fisher_identity_residual(s, p, self.dt_micro) if self.compute_identity else math.nan
            split = _split_columns(s, p, uh, vh, self._theta_inf)
        else:
            fisher = identity = math.nan
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
                fisher_identity_residual=identity,
                theta_min=float(np.min(s.theta.values)),
                theta_max=float(np.max(s.theta.values)),
                **split,
            )
        )
