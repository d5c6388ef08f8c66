"""Independent cross-check: a truncated eigenfunction-basis system.

The reference solution keeps every field on the finite set of Fourier modes
with each integer component in [-n, n] and evolves the coefficient ODE

    u_k' = v_k
    v_k' = -(A u)_k - mu * i k theta_k
    theta_k' = -|k|^2 theta_k - mu * (theta * div v)_k

where the product is an exact truncated convolution computed directly in
coefficient space - no grids, no aliasing, no splitting.  Time integration is
an adaptive embedded Runge-Kutta 5(4) pair with tight tolerances.  This is a
genuinely independent discretisation of the same dynamics, which makes it a
meaningful oracle for the pseudo-spectral stepper at matched resolutions.
For the same reason `galerkin_rhs` writes out its own elastic symbol instead
of calling `operators.elastic_symbol`, which the stepper it is compared
against uses.  `scipy.integrate` loads on the first `integrate_galerkin` call.

`crosscheck` is the whole comparison: build, integrate, capture the stepper
at the wanted times, measure.  It checks the path every run takes: the truncated
system on the 2/3 rule's cube of a grid where 3 divides no axis (`matched_oracle`).

The initial temperature is regularised the way the underlying construction
demands: after projection it is shifted by the constant
c = max(0, 1e-6 - min(theta)), the min taken on a 4x oversampled grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dynamics import ModelParams, PositivityLoss, SimState, StepperConfig, run
from .grid import ScalarField, TorusGrid, TWO_PI, VectorField, field_norms

__all__ = [
    "GalerkinSystem",
    "OracleTrajectory",
    "OracleComparison",
    "build_galerkin",
    "galerkin_rhs",
    "integrate_galerkin",
    "reconstruct_scalar",
    "reconstruct_vector",
    "convolve_truncated",
    "spectral_states_at",
    "compare_oracle",
    "matched_oracle",
    "crosscheck",
]

POSITIVITY_SHIFT_TARGET = 1e-6
OVERSAMPLE = 4


def _mode_offsets(n: int) -> np.ndarray:
    return np.arange(-n, n + 1)


@lru_cache(maxsize=None)
def _conv_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables for the truncated convolution on the [-n, n]^d cube."""
    offs = _mode_offsets(n)
    grids = np.meshgrid(*([offs] * d), indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=-1)  # (M, d)
    sums = modes[:, None, :] + modes[None, :, :]
    valid = np.all(np.abs(sums) <= n, axis=-1)
    ii, jj = np.nonzero(valid)
    out = np.ravel_multi_index(tuple((sums[ii, jj] + n).T), (2 * n + 1,) * d)
    return ii, jj, out


def convolve_truncated(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a * b) truncated back to the cube: out_m = sum_{p+q=m} a_p b_q."""
    d = a.ndim
    ii, jj, out_idx = _conv_tables(n, d)
    flat = np.zeros(a.size, dtype=np.complex128)
    np.add.at(flat, out_idx, a.ravel()[ii] * b.ravel()[jj])
    return flat.reshape(a.shape)


@dataclass
class GalerkinSystem:
    """Truncated coefficient state.  Cube axes are modes -n..n (offset by n)."""

    n: int
    lengths: tuple[float, ...]
    p: ModelParams
    t: float
    u_hat: np.ndarray
    v_hat: np.ndarray
    th_hat: np.ndarray
    shift: float = 0.0

    @property
    def d(self) -> int:
        return len(self.lengths)

    def wavevectors(self) -> list[np.ndarray]:
        out = []
        for ax, ell in enumerate(self.lengths):
            shape = [1] * self.d
            shape[ax] = 2 * self.n + 1
            out.append((TWO_PI / ell) * _mode_offsets(self.n).astype(float).reshape(shape))
        return out

    def k_sq(self) -> np.ndarray:
        return sum(k * k for k in self.wavevectors())


def _embedding_rows(n: int, grid: TorusGrid) -> tuple[np.ndarray, ...]:
    if any(m < 2 * n + 2 for m in grid.n_per_axis):
        raise ValueError(
            f"grid {grid.n_per_axis} cannot hold truncation n={n} (needs >= {2 * n + 2} points per axis)"
        )
    return tuple(_mode_offsets(n) % m for m in grid.n_per_axis)


def _embed(cube: np.ndarray, n: int, grid: TorusGrid) -> np.ndarray:
    """The half-spectrum slice of the cube's embedding in the grid spectrum:
    every leading-axis offset, the last-axis offsets 0..n."""
    rows = _embedding_rows(n, grid)
    lead = cube.shape[: cube.ndim - grid.d]
    spec = np.zeros(lead + grid.spectral_shape, dtype=np.complex128)
    spec[(Ellipsis,) + np.ix_(*rows[:-1], rows[-1][n:])] = cube[..., n:]
    return spec * grid.n_total


def reconstruct_scalar(cube: np.ndarray, n: int, grid: TorusGrid) -> ScalarField:
    return ScalarField.from_spectral(grid, _embed(cube, n, grid))


def reconstruct_vector(cubes: np.ndarray, n: int, grid: TorusGrid) -> VectorField:
    return VectorField.from_spectral(grid, _embed(cubes, n, grid))


def _oversample_grid(n: int, lengths: tuple[float, ...]) -> TorusGrid:
    m = OVERSAMPLE * (2 * n + 1)  # even, as OVERSAMPLE is
    return TorusGrid((m,) * len(lengths), lengths)


def build_galerkin(s0: SimState, p: ModelParams, n: int) -> GalerkinSystem:
    """Project a grid state onto the [-n, n]^d mode cube.

    Warns if the state is not band-limited within the truncation, and applies
    the positivity shift to the projected temperature when its oversampled
    reconstruction dips below the target floor.
    """
    if n < 1:
        raise ValueError(f"truncation n must be >= 1, got {n}")
    grid = s0.grid
    p.validate_for_dimension(grid.d)
    rows = _embedding_rows(n, grid)

    def project(values: np.ndarray) -> tuple[np.ndarray, float, float]:
        # full-layout coefficients: the oracle does not share the grid's layout
        fh = np.fft.fftn(values, axes=tuple(range(-grid.d, 0))) / grid.n_total
        cube = fh[(Ellipsis,) + np.ix_(*rows)]
        total = float(np.sum(np.abs(fh) ** 2))
        kept = float(np.sum(np.abs(cube) ** 2))
        return np.ascontiguousarray(cube), total, kept

    u_hat, tot_u, kept_u = project(s0.u.components)
    v_hat, tot_v, kept_v = project(s0.v.components)
    th_hat, tot_t, kept_t = project(s0.theta.values)
    total = tot_u + tot_v + tot_t
    lost = total - (kept_u + kept_v + kept_t)
    if total > 0.0 and lost > (1e-12) ** 2 * total:
        warnings.warn(
            f"initial data is not band-limited within truncation n={n}; "
            f"projected away a relative coefficient energy of {lost / total:.3e}",
            stacklevel=2,
        )

    os_grid = _oversample_grid(n, grid.length_per_axis)
    shift = max(0.0, POSITIVITY_SHIFT_TARGET - float(np.min(reconstruct_scalar(th_hat, n, os_grid).values)))
    if shift > 0.0:
        th_hat[(n,) * grid.d] += shift  # the mean mode; project returns a fresh array
    return GalerkinSystem(
        n=n,
        lengths=grid.length_per_axis,
        p=p,
        t=s0.t,
        u_hat=u_hat,
        v_hat=v_hat,
        th_hat=th_hat,
        shift=shift,
    )


def galerkin_rhs(sys: GalerkinSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient tendencies (du, dv, dtheta) of the truncated system."""
    p = sys.p
    k = sys.wavevectors()
    k_sq = sys.k_sq()
    d = sys.d
    if p.operator == "laplacian":
        au = k_sq * sys.u_hat
    else:
        ku = sum(k[i] * sys.u_hat[i] for i in range(d))
        au = np.stack(
            [p.zeta * k_sq * sys.u_hat[i] + (p.zeta + p.lame_lambda) * k[i] * ku for i in range(d)]
        )
    dv = -au - np.stack([p.mu * 1j * k[i] * sys.th_hat for i in range(d)])
    div_v = sum(1j * k[i] * sys.v_hat[i] for i in range(d))
    coupling = convolve_truncated(sys.th_hat, div_v, sys.n)
    dth = -k_sq * sys.th_hat - p.mu * coupling
    return sys.v_hat.copy(), dv, dth


@dataclass
class OracleTrajectory:
    """Dense-in-time truncated solution, reconstructable on any fine grid."""

    system: GalerkinSystem
    t_end: float
    _sol: object

    def coeffs_at(self, t: float) -> GalerkinSystem:
        lo, hi = sorted((self.system.t, self.t_end))
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise ValueError(f"t={t} outside integrated range [{lo}, {hi}]")
        y = self._sol(t)
        u, v, th = _unpack(y, self.system)
        return replace(self.system, t=t, u_hat=u, v_hat=v, th_hat=th)

    def state_at(self, t: float, grid: TorusGrid) -> SimState:
        sys = self.coeffs_at(t)
        return SimState(
            t,
            reconstruct_vector(sys.u_hat, sys.n, grid),
            reconstruct_vector(sys.v_hat, sys.n, grid),
            reconstruct_scalar(sys.th_hat, sys.n, grid),
        )


def _pack(u: np.ndarray, v: np.ndarray, th: np.ndarray) -> np.ndarray:
    z = np.concatenate([u.ravel(), v.ravel(), th.ravel()])
    return np.ascontiguousarray(z).view(np.float64)


def _unpack(y: np.ndarray, sys: GalerkinSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.ascontiguousarray(y).view(np.complex128)
    m = sys.th_hat.size
    d = sys.d
    u = z[: d * m].reshape(sys.u_hat.shape)
    v = z[d * m : 2 * d * m].reshape(sys.v_hat.shape)
    th = z[2 * d * m :].reshape(sys.th_hat.shape)
    return u, v, th


def integrate_galerkin(
    sys: GalerkinSystem,
    t_end: float,
    positivity_floor: float = 1e-10,
) -> OracleTrajectory:
    """Integrate the coefficient ODE to t_end with an adaptive RK 5(4) pair.

    Temperature positivity is monitored on the oversampled reconstruction at
    every accepted step; a crossing terminates the solve and raises
    PositivityLoss.
    """
    if t_end < sys.t:
        raise ValueError(f"t_end={t_end} precedes initial time {sys.t}")
    os_grid = _oversample_grid(sys.n, sys.lengths)
    n = sys.n

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        u, v, th = _unpack(y, sys)
        work = replace(sys, t=t, u_hat=u, v_hat=v, th_hat=th)
        du, dv, dth = galerkin_rhs(work)
        return _pack(du, dv, dth)

    def theta_floor(t: float, y: np.ndarray) -> float:
        _, _, th = _unpack(y, sys)
        theta = reconstruct_scalar(th, n, os_grid)
        return float(np.min(theta.values)) - positivity_floor

    theta_floor.terminal = True
    theta_floor.direction = -1.0

    # Imported here: scipy.integrate pulls in ~24 MB of SciPy that no other path needs.
    from scipy.integrate import solve_ivp

    y0 = _pack(sys.u_hat, sys.v_hat, sys.th_hat)
    sol = solve_ivp(
        rhs,
        (sys.t, t_end),
        y0,
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
        events=[theta_floor],
    )
    if sol.status == 1 and len(sol.t_events[0]):
        t_hit = float(sol.t_events[0][0])
        raise PositivityLoss(t_hit, positivity_floor)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return OracleTrajectory(system=sys, t_end=t_end, _sol=sol.sol)


def spectral_states_at(
    s0: SimState,
    p: ModelParams,
    cfg: StepperConfig,
    times: Sequence[float],
) -> list[SimState]:
    """Run the pseudo-spectral stepper, capturing states at the given times.

    Every requested time must sit on its own step of the lattice t0 + i*dt,
    at most t_end past t0.  The run records every g-th step only, g the gcd
    of the wanted step indices short of the last step, which it always emits.
    """
    n_steps = cfg.n_steps()
    wanted: dict[int, float] = {}
    for t in times:
        i = int(round((t - s0.t) / cfg.dt))
        if abs((s0.t + i * cfg.dt) - t) > 1e-9 * max(1.0, abs(t)) or i < 0:
            raise ValueError(f"sample time {t} is not on the step lattice (dt={cfg.dt})")
        if i > n_steps:
            raise ValueError(f"sample time {t} is past t_end={cfg.t_end} (from t0={s0.t})")
        if i in wanted:
            raise ValueError(f"sample time {t} is listed twice (step {i}, t={wanted[i]})")
        wanted[i] = t
    captured: dict[int, SimState] = {}

    def sink(s: SimState) -> None:
        i = int(round((s.t - s0.t) / cfg.dt))
        if i in wanted:
            captured[i] = s

    every = math.gcd(*(i for i in wanted if i < n_steps)) or max(n_steps, 1)
    run(s0, p, replace(cfg, record_every=every), sink=sink)
    return [captured[i] for i in sorted(wanted)]


@dataclass
class OracleComparison:
    """Per-time L2 distances between oracle and pseudo-spectral runs."""

    times: list[float]
    u_dist: list[float]
    v_dist: list[float]
    theta_dist: list[float]

    @property
    def sup_distance(self) -> float:
        return max(max(self.u_dist), max(self.v_dist), max(self.theta_dist))

    def rows(self) -> list[tuple[float, float, float, float]]:
        return list(zip(self.times, self.u_dist, self.v_dist, self.theta_dist))


def compare_oracle(traj: OracleTrajectory, states: Sequence[SimState]) -> OracleComparison:
    """L2 distances between the reconstruction of traj and each given state."""
    if not states:
        raise ValueError("no states to compare")

    times, du, dv, dth = [], [], [], []
    for s in states:
        ref = traj.state_at(s.t, s.grid)
        times.append(s.t)
        du.append(field_norms(VectorField(s.grid, s.u.components - ref.u.components))["l2"])
        dv.append(field_norms(VectorField(s.grid, s.v.components - ref.v.components))["l2"])
        dth.append(field_norms(ScalarField(s.grid, s.theta.values - ref.theta.values))["l2"])
    return OracleComparison(times, du, dv, dth)


def matched_oracle(s0: SimState, p: ModelParams, cfg: StepperConfig) -> OracleTrajectory:
    """The oracle on the 2/3 rule's cube, modes = m // 3 on s0's m-point axes; ValueError
    before it is built unless a run from s0 under cfg is that truncated system."""
    # the default path: only the time and recording controls may differ
    default = StepperConfig(cfg.dt, cfg.t_end, positivity_floor=cfg.positivity_floor,
                            record_every=cfg.record_every)
    off = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)
           if getattr(cfg, f.name) != getattr(default, f.name)]
    if off:
        raise ValueError(f"the oracle checks the default stepper path: this run sets {', '.join(off)}")
    sizes = s0.grid.n_per_axis
    if len({m // 3 for m in sizes}) > 1:
        raise ValueError(f"grid {sizes} has a different 2/3 cube per axis: m // 3 = "
                         f"{tuple(m // 3 for m in sizes)}")
    if any(m % 3 == 0 for m in sizes):
        raise ValueError(f"grid {sizes}: 3 divides an axis, so the 2/3 mask aliases products into "
                         f"its outer shell and the run is not the truncated system")
    return integrate_galerkin(build_galerkin(s0, p, sizes[0] // 3), cfg.t_end, cfg.positivity_floor)


def crosscheck(s0: SimState, p: ModelParams, cfg: StepperConfig,
               times: Sequence[float]) -> OracleComparison:
    """`matched_oracle` against the stepper's states from s0 at the given times."""
    return compare_oracle(matched_oracle(s0, p, cfg), spectral_states_at(s0, p, cfg, times))
