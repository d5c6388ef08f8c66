"""Time integration of the coupled wave-heat system

    u_tt + A u = -mu * grad(theta)
    theta_t - laplacian(theta) = -mu * theta * div(u_t)

where A is -laplacian or the elastic (Lame) operator.  The stepper is a
Strang composition: half-step of the exact linear flows (per-mode heat decay
and per-mode wave rotation, in cos/sinc form), a full step of the coupling
integrated with an explicit midpoint rule, then the linear half-steps again.
The two linear sub-flows act on disjoint fields and commute, so the scheme is
time-symmetric and second order.

States are held in physical space at the API boundary; `run` keeps the state
spectral between steps and materialises physical fields on the record cadence.
Products in the coupling are formed pointwise in physical space and dealiased
by the 2/3 rule (unless disabled).  The evolved state is confined to the
Nyquist-free subspace in either mode: the Nyquist modes have no conjugate
partners, and odd derivatives there cannot keep a real field real.
Temperature positivity is enforced by error: a step that drags min(theta) to
the configured floor raises PositivityLoss rather than clamping, unless the
clamp debug flag is set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField
from .operators import check_lame_ellipticity, divergence, elastic_symbol, k_dot, lame_speeds_sq

__all__ = [
    "ModelParams",
    "SimState",
    "StepperConfig",
    "PositivityLoss",
    "NonFinite",
    "evaluate_rhs",
    "step",
    "run",
]

log = logging.getLogger(__name__)

OPERATOR_KINDS = ("laplacian", "lame")


class PositivityLoss(RuntimeError):
    """Temperature reached the positivity floor during a step."""

    def __init__(self, t: float, theta_min: float):
        self.t = t
        self.theta_min = theta_min
        super().__init__(f"temperature positivity lost at t={t:.6g}: min(theta)={theta_min:.6g}")


class NonFinite(RuntimeError):
    """A state field stopped being finite during a step."""

    def __init__(self, t: float, what: str = "state"):
        self.t = t
        self.what = what
        super().__init__(f"non-finite {what} at t={t:.6g}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: coupling strength and elastic operator choice."""

    mu: float
    operator: str = "laplacian"
    zeta: float = 1.0
    lame_lambda: float = 0.5

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.operator not in OPERATOR_KINDS:
            raise ValueError(f"operator must be one of {OPERATOR_KINDS}, got {self.operator!r}")

    def validate_for_dimension(self, d: int) -> None:
        if self.operator == "lame":
            check_lame_ellipticity(self.zeta, self.lame_lambda, d)

    @property
    def wave_speeds_sq(self) -> tuple[float, float]:
        """Squared (transverse, longitudinal) wave speeds of the operator."""
        if self.operator == "lame":
            return lame_speeds_sq(self.zeta, self.lame_lambda)
        return 1.0, 1.0


@dataclass
class SimState:
    """Displacement u, velocity v = u_t, temperature theta at time t."""

    t: float
    u: VectorField
    v: VectorField
    theta: ScalarField

    def __post_init__(self) -> None:
        if not (self.u.grid == self.v.grid == self.theta.grid):
            raise ValueError("state fields must share one grid")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid

    def copy(self) -> "SimState":
        return SimState(self.t, self.u.copy(), self.v.copy(), self.theta.copy())

    @classmethod
    def equilibrium(cls, grid: TorusGrid, theta_value: float = 1.0) -> "SimState":
        theta = ScalarField(grid, np.full(grid.shape, float(theta_value)))
        return cls(0.0, VectorField.zeros(grid), VectorField.zeros(grid), theta)


@dataclass(frozen=True)
class StepperConfig:
    """Stepping controls.  t_end must be an integer multiple of dt."""

    dt: float
    t_end: float = 0.0
    dealias: bool = True
    positivity_floor: float = 1e-10
    record_every: int = 1
    clamp_theta: bool = False
    # > 0 restricts products to the mode cube |k|_inf <= product_band instead
    # of the 2/3 rule, making the run the exact Galerkin truncation of that
    # cube (used when comparing against the truncated-system oracle)
    product_band: int = 0

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if not self.positivity_floor > 0.0:
            raise ValueError(f"positivity_floor must be > 0, got {self.positivity_floor}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.product_band < 0:
            raise ValueError(f"product_band must be >= 0, got {self.product_band}")
        if self.product_band and not self.dealias:
            raise ValueError("product_band requires dealias = true")
        self.n_steps()

    def n_steps(self) -> int:
        ratio = self.t_end / self.dt
        n = int(round(ratio))
        if abs(self.t_end - n * self.dt) > 1e-12 * max(1.0, abs(self.t_end)):
            raise ValueError(
                f"t_end={self.t_end!r} is not an integer multiple of dt={self.dt!r}"
            )
        return n


class _SpectralStepper:
    """One Strang step in spectral variables.  dt may be signed (used by
    centred-difference diagnostics); forward runs always use dt > 0."""

    def __init__(
        self,
        grid: TorusGrid,
        p: ModelParams,
        dt: float,
        dealias: bool = True,
        product_band: int = 0,
    ):
        p.validate_for_dimension(grid.d)
        self.grid = grid
        self.p = p
        self.dt = float(dt)
        self.dealias = bool(dealias)
        if product_band:
            # alias-free collocation products on the cube need m >= 3*band + 1
            short = min(grid.n_per_axis)
            if short < 3 * product_band + 1:
                raise ValueError(
                    f"product_band {product_band} needs at least {3 * product_band + 1} "
                    f"points per axis for alias-free products, grid has {short}"
                )
            self.product_mask = grid.mode_cube_mask(product_band)
        else:
            # products leave the Nyquist lines occupied even when aliasing is
            # tolerated; those modes have no conjugate partner and must stay empty
            self.product_mask = grid.dealias_mask if self.dealias else grid.nyquist_free_mask
        h = 0.5 * self.dt
        k_sq = grid.k_sq
        self.heat_half = np.exp(-k_sq * h)
        self.ik = [1j * k for k in grid.wavevectors]
        self.neg_mu_ik = [-p.mu * ik for ik in self.ik]
        a_t, a_l = p.wave_speeds_sq
        self.c_t, self.s_t = self._rotation(k_sq, a_t, h)
        self.m_t = -a_t * k_sq * self.s_t
        # a faster longitudinal wave differs from the transverse rotation only
        # on the curl-free part k (k . w) / |k|^2, so its correction is a
        # per-mode combination of k . u and k . v along k
        self.long_corr = None
        if a_l != a_t:
            c_l, s_l = self._rotation(k_sq, a_l, h)
            self.long_corr = (
                (c_l - self.c_t) * grid.inv_k_sq,
                (s_l - self.s_t) * grid.inv_k_sq,
                a_t * self.s_t - a_l * s_l,
            )

    @staticmethod
    def _rotation(k_sq: np.ndarray, speed_sq: float, h: float):
        """cos(w h) and sin(w h)/w for w = sqrt(speed_sq * |k|^2)."""
        om = np.sqrt(speed_sq * k_sq)
        c = np.cos(om * h)
        s = h * np.sinc(om * h / math.pi)
        return c, s

    def _wave_half(self, uh: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # every mode rotates at the transverse speed; the zero mode drifts
        new_u = self.c_t * uh + self.s_t * vh
        new_v = self.m_t * uh + self.c_t * vh
        if self.long_corr is not None:
            dc, ds, dm = self.long_corr
            ku = k_dot(self.grid, uh)
            kv = k_dot(self.grid, vh)
            du = dc * ku + ds * kv
            dv = dm * ku + dc * kv
            for i, k in enumerate(self.grid.wavevectors):
                new_u[i] += k * du
                new_v[i] += k * dv
        return new_u, new_v

    def _coupling_rhs(self, vh: np.ndarray, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        dv = np.stack([a * th for a in self.neg_mu_ik])
        div_vh = self.ik[0] * vh[0]
        for i in range(1, grid.d):
            div_vh += self.ik[i] * vh[i]
        div_v, theta = grid.to_physical(np.stack([div_vh, th]))
        dth = -self.p.mu * grid.to_spectral(theta * div_v) * self.product_mask
        return dv, dth

    def _couple(self, vh: np.ndarray, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dt = self.dt
        k1v, k1t = self._coupling_rhs(vh, th)
        k2v, k2t = self._coupling_rhs(vh + 0.5 * dt * k1v, th + 0.5 * dt * k1t)
        return vh + dt * k2v, th + dt * k2t

    def step(self, uh: np.ndarray, vh: np.ndarray, th: np.ndarray):
        th = self.heat_half * th
        uh, vh = self._wave_half(uh, vh)
        vh, th = self._couple(vh, th)
        uh, vh = self._wave_half(uh, vh)
        th = self.heat_half * th
        return uh, vh, th


def evaluate_rhs(s: SimState, p: ModelParams, dealias: bool = True) -> tuple[VectorField, VectorField, ScalarField]:
    """Instantaneous tendencies (du/dt, dv/dt, dtheta/dt) of the full system."""
    grid = s.grid
    p.validate_for_dimension(grid.d)
    nyq = grid.nyquist_free_mask
    uh, vh, th = (f.spectral() * nyq for f in (s.u, s.v, s.theta))
    mu_grad_th = np.stack([p.mu * 1j * k * th for k in grid.wavevectors])
    dv_h = -elastic_symbol(grid, uh, p.wave_speeds_sq) - mu_grad_th
    div_v = grid.to_physical(1j * k_dot(grid, vh))
    coupling = grid.to_spectral(s.theta.values * div_v)
    coupling = coupling * (grid.dealias_mask if dealias else nyq)
    dth_h = -grid.k_sq * th - p.mu * coupling
    return (
        VectorField(grid, s.v.components.copy()),
        VectorField.from_spectral(grid, dv_h),
        ScalarField.from_spectral(grid, dth_h),
    )


def _check_finite(t: float, arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr.view(np.float64) if np.iscomplexobj(arr) else arr)):
            raise NonFinite(t, name)


def _state_mask(grid: TorusGrid, product_band: int) -> np.ndarray:
    """Subspace the evolution lives in: the mode cube in Galerkin mode, else
    everything but the unpaired Nyquist lines."""
    return grid.mode_cube_mask(product_band) if product_band else grid.nyquist_free_mask


def _physical_state(t: float, grid: TorusGrid, uh: np.ndarray, vh: np.ndarray,
                    theta: np.ndarray) -> SimState:
    """A state of fresh arrays: u and v from their coefficients, theta as given."""
    u, v = VectorField.from_spectral(grid, uh), VectorField.from_spectral(grid, vh)
    return SimState(t, u, v, ScalarField(grid, theta))


def _signed_step(
    s: SimState, p: ModelParams, dt: float, dealias: bool = True, product_band: int = 0
) -> SimState:
    """Single Strang step with signed dt; no positivity enforcement.

    Intended for centred-difference diagnostics with |dt| small.
    """
    grid = s.grid
    stepper = _SpectralStepper(grid, p, dt, dealias, product_band)
    nyq = _state_mask(grid, product_band)
    uh, vh, th = stepper.step(s.u.spectral() * nyq, s.v.spectral() * nyq, s.theta.spectral() * nyq)
    t = s.t + dt
    _check_finite(t, {"u": uh, "v": vh, "theta": th})
    return _physical_state(t, grid, uh, vh, grid.to_physical(th))


def _enforce_floor(t: float, theta: np.ndarray, floor: float, clamp: bool) -> int:
    """The positivity rule on physical temperature values at time t.

    Returns 0 while min(theta) stays above the floor.  Otherwise raises
    PositivityLoss or, in clamp mode, raises the offending values to the
    floor in place, logs, and returns how many were clamped.
    """
    tmin = float(np.min(theta))
    if tmin > floor:
        return 0
    if not clamp:
        raise PositivityLoss(t, tmin)
    n_clamped = int(np.sum(theta <= floor))
    log.warning(
        "clamped %d temperature values to %.3e at t=%.6g (min was %.3e)",
        n_clamped, floor, t, tmin,
    )
    np.maximum(theta, floor, out=theta)
    return n_clamped


def step(s: SimState, p: ModelParams, cfg: StepperConfig) -> SimState:
    """Advance one step of cfg.dt, enforcing the positivity floor."""
    out = _signed_step(s, p, cfg.dt, cfg.dealias, cfg.product_band)
    _enforce_floor(out.t, out.theta.values, cfg.positivity_floor, cfg.clamp_theta)
    return out


def _dt_advisory(s: SimState, p: ModelParams, dt: float) -> None:
    div_v = divergence(s.v).values
    scale = p.mu * float(np.max(np.abs(s.theta.values))) * float(np.max(np.abs(div_v)))
    bound = 0.5 / (scale + 1.0)
    if dt > bound:
        log.warning(
            "dt=%.3g exceeds the advisory coupling bound %.3g "
            "(0.5 / (mu * max|theta| * max|div v| + 1)); accuracy may suffer",
            dt, bound,
        )


def run(
    s0: SimState,
    p: ModelParams,
    cfg: StepperConfig,
    sink: Callable[[SimState], None] | None = None,
) -> SimState:
    """Integrate from s0 for cfg.t_end, emitting states on the record cadence.

    The sink receives the initial state, every record_every-th step, and the
    final state, each its own: no other emitted state, no later step and not
    the returned state share its arrays.  Identical inputs produce identical
    outputs bit for bit.
    """
    grid = s0.grid
    p.validate_for_dimension(grid.d)
    n_steps = cfg.n_steps()
    _dt_advisory(s0, p, cfg.dt)
    _enforce_floor(s0.t, s0.theta.values, cfg.positivity_floor, clamp=False)

    stepper = _SpectralStepper(grid, p, cfg.dt, cfg.dealias, cfg.product_band)
    nyq = _state_mask(grid, cfg.product_band)
    uh, vh, th = (f.spectral() * nyq for f in (s0.u, s0.v, s0.theta))
    t0 = s0.t

    if sink is not None:
        sink(s0.copy())
    state = s0.copy()
    clamp_total = 0
    for i in range(1, n_steps + 1):
        uh, vh, th = stepper.step(uh, vh, th)
        t = t0 + i * cfg.dt
        _check_finite(t, {"u": uh, "v": vh, "theta": th})
        theta_phys = grid.to_physical(th)
        n_clamped = _enforce_floor(t, theta_phys, cfg.positivity_floor, cfg.clamp_theta)
        if n_clamped:
            clamp_total += n_clamped
            # clamping is pointwise and repopulates the unpaired Nyquist
            # lines; project back onto the evolution subspace
            th = grid.to_spectral(theta_phys) * nyq
        if i == n_steps or (sink is not None and i % cfg.record_every == 0):
            state = _physical_state(t, grid, uh, vh, theta_phys)
            if sink is not None:
                sink(state.copy() if i == n_steps else state)
    if clamp_total:
        log.warning("run clamped temperature %d times in total", clamp_total)
    return state
