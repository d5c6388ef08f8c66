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
The Parseval sums are reduced in blocks (`grid.parseval_sums`): u and v
stacked as one pair, its power |c|^2 built once and multiplied by a stack of
per-mode weights (`_Weights`, hermitian_weight folded in), then summed over
each group's trailing axes in one call.  Each column's formula combines sums
already reduced, in the order of the per-column form, so the public
functions and the recorder share one copy and every column keeps its bits.
Pointwise nonlinearities (log, sqrt, quotients) are evaluated in physical
space; where their result is differentiated spectrally it is dealiased by the
2/3 rule first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators
from .dynamics import ModelParams, NonFinite, SimState, _check_finite, _signed_step
from .grid import ScalarField, TorusGrid, parseval_sums, quadrature

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
    theta_min: float
    theta_max: float
    chi_h1: float
    chi_t_l2: float
    nu_energy: float
    theta_l2_dist: float


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))


def _check_positive(theta: ScalarField, what: str) -> float:
    """min(theta); raises ValueError naming `what` unless it is positive."""
    tmin = float(theta.values.min())
    if tmin <= 0.0:
        raise ValueError(f"{what} requires positive temperature, min is {tmin:.6g}")
    return tmin


def _log_theta(theta: ScalarField, what: str) -> tuple[np.ndarray, float]:
    """(log theta, min theta): the one positivity check and logarithm behind
    the entropy, its production and the log-hessian integral."""
    tmin = _check_positive(theta, what)
    return np.log(theta.values), tmin


class _Weights:
    """The per-mode weights of a record's Parseval sums on one grid, each
    with hermitian_weight folded in (exact: it is 1 or 2) and stacked so
    that one multiply and one reduction serve a block of sums.

    `wave[r]` weights a stacked pair (x, y) of coefficients for the wave
    energy 1/2 ||y||^2 + 1/2 int x . A x: row 0 as is (|k|^2 on x for the
    elastic term), row 1 times |k|^2 (the Fisher functional); `scalar[r]`
    weights k . x the same way.  `chi` weights the curl-free pair for
    ||chi||_H1^2 and ||chi_t||^2, and `production` weights log theta by
    |k|^2 with the 2/3 rule folded in: a mode the rule drops has power 0
    either way."""

    def __init__(self, grid: TorusGrid):
        self.grid = grid

    @cached_property
    def _herm(self) -> np.ndarray:
        return np.broadcast_to(self.grid.hermitian_weight, self.grid.spectral_shape)

    @cached_property
    def wave(self) -> np.ndarray:
        k_sq, h = self.grid.k_sq, self._herm
        h_k_sq = h * k_sq
        return np.array([[h_k_sq, h], [h * (k_sq * k_sq), h_k_sq]])[:, :, None]

    @property
    def scalar(self) -> np.ndarray:
        return self.wave[:, 1, 0]  # the y column: (h, h |k|^2)

    @cached_property
    def chi(self) -> np.ndarray:
        return np.stack([self._herm * (1.0 + self.grid.k_sq), self._herm])[:, None]

    @cached_property
    def production(self) -> np.ndarray:
        return self._herm * self.grid.k_sq * self.grid.dealias_mask


# rows of _Weights.wave: a single row multiplies in place, both share a product
_ENERGY, _FISHER, _BOTH = 0, 1, slice(None)


def _wave_energies(w: _Weights, p: ModelParams, pair: np.ndarray, rows: int | slice) -> list[float]:
    """1/2 ||y||^2 + 1/2 int x . A x of the stacked pair (x, y) of spectral
    vectors, (2, d, *spectral_shape), under the weight rows `rows` (_ENERGY,
    _FISHER or _BOTH): one block reduction, and one more for k . x when the
    operator has two speeds.  A single row multiplies the powers in place."""
    grid, speeds = w.grid, p.wave_speeds_sq
    weight = w.wave[rows]
    sums = parseval_sums(grid, pair, weight, lead=weight.ndim - grid.d - 1).reshape(-1, 2).tolist()
    if speeds[0] != speeds[1]:
        weight = w.scalar[rows]
        k_sums = parseval_sums(grid, operators.k_dot(grid, pair[0]), weight, lead=weight.ndim - grid.d)
        k_sums = k_sums.reshape(-1).tolist()
    else:
        k_sums = [0.0] * len(sums)
    return [0.5 * s_y + 0.5 * operators._elastic_form_of_sums(speeds, s_x, s_kx)
            for (s_x, s_y), s_kx in zip(sums, k_sums)]


def _total_energy(wave_energy: float, s: SimState) -> float:
    return wave_energy + quadrature(s.grid, s.theta.values)


def _entropy_production(w: _Weights, log_spec: np.ndarray) -> float:
    """int |grad log theta|^2 from the coefficients of log theta, dealiased."""
    return float(parseval_sums(w.grid, log_spec, w.production))


def _spectra(s: SimState, *more: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pair, rest): the coefficients of (u, v) stacked as a (2, d, ...)
    pair and of the (1, *shape) scalar fields in `more`, from one forward
    transform."""
    grid, d = s.grid, s.grid.d
    spec = grid.to_spectral(np.concatenate((s.u.components, s.v.components) + more))
    return spec[:2 * d].reshape((2, d) + grid.spectral_shape), spec[2 * d:]


def total_energy(s: SimState, p: ModelParams) -> float:
    """Kinetic + elastic + thermal energy; an exact invariant of the flow."""
    return _total_energy(_wave_energies(_Weights(s.grid), p, _spectra(s)[0], _ENERGY)[0], s)


def entropy(s: SimState) -> float:
    """int log(theta); nondecreasing along the flow."""
    return quadrature(s.grid, _log_theta(s.theta, "entropy")[0])


def entropy_production(s: SimState) -> float:
    """int |grad log theta|^2, the instantaneous entropy production rate."""
    log_theta = _log_theta(s.theta, "entropy production")[0]
    return _entropy_production(_Weights(s.grid), s.grid.to_spectral(log_theta))


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
    return np.square(grad, out=grad).sum(axis=0) / theta.values


def _fisher_functional(wave_energy: float, s: SimState, th: np.ndarray) -> float:
    """The |k|^2-weighted wave energy plus half the Fisher information."""
    return wave_energy + 0.5 * quadrature(s.grid, _fisher_ratio(s.theta, th))


def fisher_functional(s: SimState, p: ModelParams) -> float:
    """F = 1/2 (int |grad v|^2 + second-order elastic term + int |grad theta|^2/theta)."""
    _check_positive(s.theta, "Fisher functional")
    pair, (th,) = _spectra(s, s.theta.values[None])
    return _fisher_functional(_wave_energies(_Weights(s.grid), p, pair, _FISHER)[0], s, th)


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
    _check_finite(s.t, s.u.components, s.v.components, s.theta.values)  # not the probe's fault
    grid = s.grid
    hess_term = weighted_log_hessian_integral(s.theta)  # checks theta > 0
    div_v = operators.divergence(s.v)
    ratio = _fisher_ratio(s.theta, s.theta.spectral())
    rhs = -hess_term - 0.5 * p.mu * quadrature(grid, ratio * div_v.values)
    try:
        # the backward half runs the heat flow backwards: at a large step it
        # overflows, which the finiteness check reports
        with np.errstate(all="ignore"):
            fwd = fisher_functional(_signed_step(s, p, dt_micro), p)
            bwd = fisher_functional(_signed_step(s, p, -dt_micro), p)
    except (ValueError, NonFinite) as exc:
        raise ValueError(f"dt_micro={dt_micro:g} is too large for the identity probe: {exc}") from exc
    lhs = (fwd - bwd) / (2.0 * dt_micro)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _theta_infinity(w: _Weights, p: ModelParams, chi: np.ndarray, s0: SimState) -> float:
    """The temperature limit from the curl-free pair chi of s0."""
    return _total_energy(_wave_energies(w, p, chi, _ENERGY)[0], s0) / s0.grid.measure


def theta_infinity_prediction(s0: SimState, p: ModelParams) -> float:
    """Predicted uniform temperature limit from the initial data.

    The curl-free displacement energy and the velocity's curl-free kinetic
    energy are eventually converted to heat; the divergence-free part keeps
    oscillating and never thermalises.  The prediction is
    (1/2 int |curl-free v0|^2 + curl-free elastic energy of u0 + int theta0)
    divided by the box measure.
    """
    chi = operators.longitudinal_part(s0.grid, _spectra(s0)[0])[1]
    return _theta_infinity(_Weights(s0.grid), p, chi, s0)


def _split_columns(w: _Weights, p: ModelParams, pair: np.ndarray, chi: np.ndarray, s: SimState,
                   theta_inf: float) -> dict:
    """||chi||_H1 and ||chi_t|| of the curl-free pair chi of the pair (u, v),
    the wave energy of the divergence-free remainders, and
    ||theta - theta_inf|| (on the grid values).  The remainders are formed
    in chi's array, so a large grid holds one pair of them at a time."""
    chi_h1_sq, chi_t_sq = parseval_sums(w.grid, chi, w.chi, lead=1).tolist()
    nu = np.subtract(pair, chi, out=chi)
    dist = s.theta.values - theta_inf
    return {
        "chi_h1": math.sqrt(chi_h1_sq),
        "chi_t_l2": math.sqrt(chi_t_sq),
        "nu_energy": _wave_energies(w, p, nu, _ENERGY)[0],
        "theta_l2_dist": math.sqrt(quadrature(s.grid, np.square(dist, out=dist))),
    }


def decomposition_report(s: SimState, s0: SimState, p: ModelParams) -> dict[str, float]:
    """Orthogonal-splitting norms of s, with the theta limit predicted from s0."""
    theta_inf = theta_infinity_prediction(s0, p)
    pair = _spectra(s)[0]
    chi = operators.longitudinal_part(s.grid, pair)[1]
    return {**_split_columns(_Weights(s.grid), p, pair, chi, s, theta_inf), "theta_infinity": theta_inf}


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
    baseline and the predicted temperature limit, and fixes the grid: the
    weights of the Parseval sums are built for it, so a state on another
    grid raises ValueError, as does one not after the last (its production
    would integrate backwards).  Each record checks theta > 0 and takes log
    theta once, forward-transforms u, v, log theta and (full battery) theta
    in one stacked call (byte-identical to one call per field, at a fraction
    of the dispatch cost) and hands the coefficients to the same kernels the
    public functions use, so its columns equal theirs bit for bit.

    The Parseval sums are reduced in blocks, each power |c|^2 built once
    and each block one multiply and one reduction: the (u, v) pair under
    the energy and (full battery) Fisher weights, and log theta under
    |k|^2; a full record adds the curl-free pair chi of (u, v), split in one
    stacked call, under its norm weights and the divergence-free remainder
    pair under the energy weights; the Lame operator adds k . u and
    k . nu_u.  A full record's one other transform takes grad theta back
    for the Fisher term.  The
    production integral is accumulated by the trapezoid rule on the record
    cadence.  F's identity residual costs two micro-steps of the dynamics
    and is left to `fisher_identity_residual`.

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
        self._weights: _Weights | None = None
        self._theta_inf = math.nan
        self._diss_base = math.nan
        self._prev_t = math.nan
        self._prev_prod = math.nan
        self._prod_integral = 0.0

    def _weights_on(self, grid: TorusGrid) -> _Weights:
        w = self._weights
        if w is None:
            w = self._weights = _Weights(grid)
        elif grid is not w.grid and grid != w.grid:
            raise ValueError(f"recorder holds states on {w.grid}, got a state on {grid}")
        return w

    def __call__(self, s: SimState) -> None:
        p, grid, full = self.p, s.grid, self.battery == "full"
        w = self._weights_on(grid)
        if s.t <= self._prev_t:
            raise ValueError(f"recorder's last state is at t={self._prev_t}, got a state at t={s.t}")
        log_theta, theta_min = _log_theta(s.theta, "entropy")
        pair, scalars = _spectra(s, log_theta[None], s.theta.values[None]) if full else _spectra(s, log_theta[None])
        waves = _wave_energies(w, p, pair, _BOTH if full else _ENERGY)
        e = _total_energy(waves[0], s)
        ent = quadrature(grid, log_theta)
        prod = _entropy_production(w, scalars[0])
        if not math.isnan(self._prev_t):
            self._prod_integral += 0.5 * (prod + self._prev_prod) * (s.t - self._prev_t)
        self._prev_t = s.t
        self._prev_prod = prod
        lhs = e - ent + self._prod_integral
        if math.isnan(self._diss_base):
            self._diss_base = lhs
        diss = abs(lhs - self._diss_base) / abs(self._diss_base) if self._diss_base else math.nan
        if full:
            chi = operators.longitudinal_part(grid, pair)[1]
            if not self.records:
                self._theta_inf = _theta_infinity(w, p, chi, s)
            fisher = _fisher_functional(waves[1], s, scalars[1])
            split = _split_columns(w, p, pair, chi, s, self._theta_inf)
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
                theta_min=theta_min,
                theta_max=float(s.theta.values.max()),
                **split,
            )
        )
