"""Independent cross-check: a truncated eigenfunction-basis system.

The reference solution keeps every field on the finite set of Fourier modes
with each integer component in [-n, n], as one (2d+1, *cube) coefficient
block (u's d components, v's d, then theta), and evolves the coefficient ODE

    u_k' = v_k
    v_k' = -(A u)_k - mu * i k theta_k
    theta_k' = -|k|^2 theta_k - mu * (theta * div v)_k

where the product is an exact truncated convolution computed directly in
coefficient space - no grids, no aliasing, no splitting.  Time integration is
the adaptive Dormand-Prince 5(4) pair with tight tolerances, written out here
in NumPy (`_dormand_prince`): it takes the steps of SciPy's `RK45` and loads
no SciPy package.  This is a genuinely independent discretisation of the
same dynamics, a meaningful oracle for the pseudo-spectral stepper at matched
resolutions.  So the tendency (`_tendency`, whose symbol an integration builds
once; `galerkin_rhs` wraps it) writes out its own elastic symbol instead of
calling `operators.elastic_symbol`, which the stepper it checks uses.

`crosscheck` is the whole comparison: build, integrate, capture the stepper
at the sample times, measure.  It checks the path every run takes: the truncated
system on the 2/3 rule's cube, the grid's `dealias_band` (`matched_oracle`).
`compare-oracle` and the `oracle-xcheck` experiment return one verdict, fixed
here: a sup L2 distance over `sample_times` of at most `VERDICT_TOLERANCE`.

The initial temperature is regularised the way the underlying construction
demands: after projection it is shifted by the constant
c = max(0, 1e-6 - min(theta)), the min taken on a 4x oversampled grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dynamics import ModelParams, NonFinite, PositivityLoss, SimState, StepperConfig, run
from .grid import ScalarField, TorusGrid, TWO_PI, VectorField, spectral_l2_sq

__all__ = [
    "GalerkinSystem",
    "OracleTrajectory",
    "OracleComparison",
    "build_galerkin",
    "galerkin_rhs",
    "integrate_galerkin",
    "convolve_truncated",
    "spectral_states_at",
    "compare_oracle",
    "matched_oracle",
    "crosscheck",
    "sample_times",
    "VERDICT_TOLERANCE",
]

VERDICT_TOLERANCE = 1e-5  # the largest sup L2 distance the oracle verdict passes
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
    """Truncated coefficient state: `coeffs` is the (2d+1, *cube) block of u's
    d components, v's d, then theta.  Cube axes are modes -n..n (offset by n)."""

    n: int
    lengths: tuple[float, ...]
    p: ModelParams
    t: float
    coeffs: np.ndarray
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


def _embedding_rows(n: int, grid: TorusGrid) -> tuple[np.ndarray, ...]:
    if any(m < 2 * n + 2 for m in grid.n_per_axis):
        raise ValueError(
            f"grid {grid.n_per_axis} cannot hold truncation n={n} (needs >= {2 * n + 2} points per axis)"
        )
    return tuple(_mode_offsets(n) % m for m in grid.n_per_axis)


def _embedding(n: int, grid: TorusGrid) -> tuple:
    """The cube's half-spectrum slice in the grid spectrum: all leading offsets, last-axis 0..n."""
    rows = _embedding_rows(n, grid)
    return (Ellipsis,) + np.ix_(*rows[:-1], rows[-1][n:])


def _embed(cube: np.ndarray, n: int, grid: TorusGrid) -> np.ndarray:
    spec = np.zeros(cube.shape[: cube.ndim - grid.d] + grid.spectral_shape, dtype=np.complex128)
    spec[_embedding(n, grid)] = cube[..., n:] * grid.n_total
    return spec


def _theta_min(n: int, lengths: tuple[float, ...]) -> Callable[[np.ndarray], float]:
    """theta's minimum, from its cube, on the grid OVERSAMPLE times the cube's
    width; the embedding index and the spectrum buffer are built once, and
    only the index is ever written."""
    m = OVERSAMPLE * (2 * n + 1)  # even, as OVERSAMPLE is
    grid = TorusGrid((m,) * len(lengths), lengths)
    index, spec = _embedding(n, grid), np.zeros(grid.spectral_shape, dtype=np.complex128)

    def minimum(cube: np.ndarray) -> float:
        spec[index] = cube[..., n:] * grid.n_total
        return float(np.min(grid.to_physical(spec)))

    return minimum


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
    values = np.concatenate((s0.u.components, s0.v.components, s0.theta.values[None]))
    # full-layout coefficients: the oracle does not share the grid's layout
    fh = np.fft.fftn(values, axes=tuple(range(-grid.d, 0))) / grid.n_total
    kept = (Ellipsis,) + np.ix_(*rows)
    coeffs = np.ascontiguousarray(fh[kept])
    # the energy off the cube summed directly: total minus kept is rounding on a resolved state
    energy = np.abs(fh) ** 2
    total = float(np.sum(energy))
    energy[kept] = 0.0
    lost = float(np.sum(energy))
    if total > 0.0 and lost > (1e-12) ** 2 * total:
        warnings.warn(
            f"initial data is not band-limited within truncation n={n}; "
            f"projected away a relative coefficient energy of {lost / total:.3e}",
            stacklevel=2,
        )

    shift = max(0.0, POSITIVITY_SHIFT_TARGET - _theta_min(n, grid.length_per_axis)(coeffs[-1]))
    if shift > 0.0:
        coeffs[(-1,) + (n,) * grid.d] += shift  # theta's mean mode
    return GalerkinSystem(n=n, lengths=grid.length_per_axis, p=p, t=s0.t, coeffs=coeffs, shift=shift)


def _tendency(sys: GalerkinSystem) -> Callable[[float, np.ndarray], np.ndarray]:
    """y' = f(t, y) of the truncated system on packed (u, v, theta), the symbol
    built once; each call returns (v, dv, dtheta) packed in a fresh array."""
    p, n, d = sys.p, sys.n, sys.d
    k = np.stack(np.broadcast_arrays(*sys.wavevectors()))  # (d, *cube)
    k_sq = sum(ki * ki for ki in k)
    neg_k_sq, blocks, lame = -k_sq, (2 * d + 1,) + k_sq.shape, p.operator == "lame"
    ik, mu_ik, zeta_k_sq = 1j * k, p.mu * 1j * k, p.zeta * k_sq
    grad_div = (p.zeta + p.lame_lambda) * k

    def f(t: float, y: np.ndarray) -> np.ndarray:
        z = y.view(np.complex128).reshape(blocks)
        u, v, th = z[:d], z[d:2 * d], z[2 * d]
        out = np.empty_like(y)
        w = out.view(np.complex128).reshape(blocks)
        w[:d] = v
        au = zeta_k_sq * u + grad_div * sum(ki * ui for ki, ui in zip(k, u)) if lame else k_sq * u
        np.subtract(-au, mu_ik * th, w[d:2 * d])
        coupling = convolve_truncated(th, sum(iki * vi for iki, vi in zip(ik, v)), n)
        np.subtract(neg_k_sq * th, p.mu * coupling, w[2 * d])
        return out

    return f


def galerkin_rhs(sys: GalerkinSystem) -> np.ndarray:
    """The truncated system's tendency at sys, as a block like `sys.coeffs`."""
    return _fields(_tendency(sys)(sys.t, _pack(sys)), sys)


@dataclass
class OracleTrajectory:
    """Dense-in-time truncated solution, reconstructable on any fine grid."""

    system: GalerkinSystem
    t_end: float
    _sol: object

    def coeffs_at(self, t: float) -> np.ndarray:
        """The coefficient block at t, laid out as `system.coeffs`."""
        lo, hi = sorted((self.system.t, self.t_end))
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise ValueError(f"t={t} outside integrated range [{lo}, {hi}]")
        return _fields(self._sol(t), self.system)

    def state_at(self, t: float, grid: TorusGrid) -> SimState:
        # u, v and theta in one embedding and one inverse transform
        x, d = grid.to_physical(_embed(self.coeffs_at(t), self.system.n, grid)), self.system.d
        return SimState(t, VectorField(grid, x[:d]), VectorField(grid, x[d:2 * d]),
                        ScalarField(grid, x[2 * d]))


def _pack(sys: GalerkinSystem) -> np.ndarray:
    """A fresh flat real copy of sys's coefficient block."""
    return sys.coeffs.flatten().view(np.float64)


def _fields(y: np.ndarray, sys: GalerkinSystem) -> np.ndarray:
    """A packed vector as a block like `sys.coeffs`."""
    return np.ascontiguousarray(y).view(np.complex128).reshape(sys.coeffs.shape)


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980) with Shampine's quartic dense output (Math. Comp. 46, 1986), laid out
# as SciPy's `RK45` lays it out so that the two take the same steps.
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_RTOL, _ATOL = 1e-10, 1e-12
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # the error estimate is 4th order
_EPS = np.finfo(float).eps


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0: float, y0: np.ndarray, f0: np.ndarray, span: float) -> float:
    """The starting step of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4."""
    scale = _ATOL + np.abs(y0) * _RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _rk_step(fun, t: float, y: np.ndarray, f: np.ndarray, h: float,
             k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step from (t, y) with y' = f there; the seven stages land in k's rows."""
    k[0] = f
    for s, (a, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), start=1):
        k[s] = fun(t + c * h, y + np.dot(k[:s].T, a[:s]) * h)
    y_new = y + h * np.dot(k[:-1].T, _DP_B)
    k[-1] = f_new = fun(t + h, y_new)
    return y_new, f_new


def _interpolate(step: tuple, t: float) -> np.ndarray:
    """The quartic dense output of one accepted step (t_old, h, y_old, q) at t."""
    t_old, h, y_old, q = step
    return h * np.dot(q, np.cumprod(np.tile((t - t_old) / h, 4))) + y_old


def _dormand_prince(fun, t0: float, y0: np.ndarray, t_end: float, event):
    """Integrate y' = fun(t, y) from t0 to t_end > t0 at rtol 1e-10, atol 1e-12.

    Returns (dense output, None), or (None, t_hit) when event(t, y) goes from
    >= 0 to <= 0 across an accepted step; t_hit is found by bisection on that
    step's interpolant.  RuntimeError if the step falls below 10 ulp(t),
    NonFinite if the tendency at t0 is not finite.
    """
    f = fun(t0, y0)
    if not np.isfinite(f).all():  # the step size would be NaN, and no step would end
        raise NonFinite(t0, "oracle tendency")
    h_abs = _initial_step(fun, t0, y0, f, t_end - t0)
    k = np.empty((len(_DP_C) + 1, y0.size))
    t, y, g = t0, y0, event(t0, y0)
    steps = []
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"oracle integration failed: required step size is less "
                                   f"than spacing between numbers at t={t:.17g}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, k)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            error_norm = _rms(np.dot(k.T, _DP_E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        steps.append((t, h, y, k.T.dot(_DP_P)))
        g_new = event(t_new, y_new)
        if g >= 0 and g_new <= 0:
            lo, hi = t, t_new
            while hi - lo > 4 * _EPS * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                if event(mid, _interpolate(steps[-1], mid)) > 0:
                    lo = mid
                else:
                    hi = mid
            return None, hi
        t, y, f, g = t_new, y_new, f_new, g_new
    ts = np.array([step[0] for step in steps] + [t])

    def dense(t: float) -> np.ndarray:
        # at a step boundary, the step that ends there (SciPy's OdeSolution picks it too)
        i = int(np.searchsorted(ts, t, side="left")) - 1
        return _interpolate(steps[min(max(i, 0), len(steps) - 1)], t)

    return dense, None


def integrate_galerkin(
    sys: GalerkinSystem,
    t_end: float,
    positivity_floor: float = 1e-10,
) -> OracleTrajectory:
    """Integrate the coefficient ODE to t_end with the Dormand-Prince 5(4) pair.

    Temperature positivity is monitored on the oversampled reconstruction at
    t0 and at every accepted step; a downward crossing of the floor
    terminates the solve and raises PositivityLoss at the crossing time.
    Non-finite coefficients, or tendencies at t0, raise NonFinite.
    """
    if t_end < sys.t:
        raise ValueError(f"t_end={t_end} precedes initial time {sys.t}")
    y0 = _pack(sys)
    if not np.isfinite(y0).all():
        raise NonFinite(sys.t, "oracle coefficients")
    if t_end == sys.t:
        return OracleTrajectory(system=sys, t_end=t_end, _sol=lambda t: y0)
    theta_min = _theta_min(sys.n, sys.lengths)

    def theta_floor(t: float, y: np.ndarray) -> float:
        return theta_min(_fields(y, sys)[-1]) - positivity_floor

    sol, t_hit = _dormand_prince(_tendency(sys), float(sys.t), y0, float(t_end), theta_floor)
    if t_hit is not None:
        raise PositivityLoss(t_hit, positivity_floor)
    return OracleTrajectory(system=sys, t_end=t_end, _sol=sol)


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
    """L2 distances between the reconstruction of traj and each given state,
    each `field_norms`' l2 and nothing else it computes."""
    if not states:
        raise ValueError("no states to compare")

    def l2(grid: TorusGrid, diff: np.ndarray) -> float:
        return math.sqrt(max(spectral_l2_sq(grid, grid.to_spectral(diff)), 0.0))

    times, du, dv, dth = [], [], [], []
    for s in states:
        ref = traj.state_at(s.t, s.grid)
        times.append(s.t)
        du.append(l2(s.grid, s.u.components - ref.u.components))
        dv.append(l2(s.grid, s.v.components - ref.v.components))
        dth.append(l2(s.grid, s.theta.values - ref.theta.values))
    return OracleComparison(times, du, dv, dth)


def matched_oracle(s0: SimState, p: ModelParams, cfg: StepperConfig) -> OracleTrajectory:
    """The oracle on the 2/3 rule's cube, modes = s0.grid.dealias_band; ValueError
    before it is built unless a run from s0 under cfg is that truncated system."""
    # the default path: only the time and recording controls may differ
    default = StepperConfig(cfg.dt, cfg.t_end, positivity_floor=cfg.positivity_floor,
                            record_every=cfg.record_every)
    off = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)
           if getattr(cfg, f.name) != getattr(default, f.name)]
    if off:
        raise ValueError(f"the oracle checks the default stepper path: this run sets {', '.join(off)}")
    bands = s0.grid.dealias_band
    if len(set(bands)) > 1:
        raise ValueError(f"grid {s0.grid.n_per_axis} has a different 2/3 cube per axis: "
                         f"dealias_band = {bands}")
    return integrate_galerkin(build_galerkin(s0, p, bands[0]), cfg.t_end, cfg.positivity_floor)


def sample_times(t0: float, cfg: StepperConfig) -> list[float]:
    """The times of the steps the oracle verdict samples on a run of cfg from
    t0: 0, s, 2s, ... with s = max(1, n_steps // 10), and the last step;
    ValueError unless the run takes a step."""
    n_steps = cfg.n_steps()
    if n_steps < 1:
        raise ValueError(f"the oracle check needs t_end > 0, got t_end={cfg.t_end:g}")
    return [t0 + i * cfg.dt for i in (*range(0, n_steps, max(1, n_steps // 10)), n_steps)]


def crosscheck(s0: SimState, p: ModelParams, cfg: StepperConfig) -> OracleComparison:
    """`matched_oracle` against the stepper's states from s0 at the sample
    times; ValueError before anything is built or stepped when the run takes
    no step."""
    times = sample_times(s0.t, cfg)
    return compare_oracle(matched_oracle(s0, p, cfg), spectral_states_at(s0, p, cfg, times))
