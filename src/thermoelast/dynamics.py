"""Time integration of the coupled wave-heat system

    u_tt + A u = -mu * grad(theta)
    theta_t - laplacian(theta) = -mu * theta * div(u_t)

where A is -laplacian or the elastic (Lame) operator.  Per mode,
`operators.longitudinal_part` splits u into a_u k^ (k^ = k/|k|,
a_u = k^ . u^) and a divergence-free remainder nu, the mean included.
grad(theta) is curl-free and div(u_t) sees only a_v, so nu is a free wave at
the transverse speed and only (a_u, a_v, theta^) are coupled.  The stepper advances those three scalar spectra by a Strang
composition: half-step of the exact linear flows (per-mode heat decay and
wave rotation at the longitudinal speed, in cos/sinc form), a full step of
the coupling integrated with an explicit midpoint rule, then the linear
half-steps again.  The two linear sub-flows act on disjoint fields and
commute, so the scheme is second order.  It is not time-symmetric: the
explicit midpoint rule is not self-adjoint, and a step forward then back
misses its start by O(dt^4).  nu is rotated in closed form from its initial
value whenever a state is built.

States are held in physical space at the API boundary, entering the
stepper through `_SpectralStepper.load` and leaving through `.state`; `run`
keeps them spectral in between, as one stacked array z = (a_u, a_v, theta^)
that the stepper owns and each step advances in place, and builds physical
fields on the record cadence, in two inverse transforms: u stacked with
theta, then v.  The products of a step and the spectra of a build are
written into one work block the stepper owns, and every view of z and of
the block that a step touches is made once, with the stepper; every emitted
state is built in fresh arrays, so none shares memory with the stepper or
with another state.  Products in the coupling are formed pointwise in physical
space and dealiased by the 2/3 rule (unless disabled).  The evolved state is
confined to the Nyquist-free subspace in either mode: the Nyquist modes have
no conjugate partners, and odd derivatives there cannot keep a real field
real.
Temperature positivity is enforced by error: a step that drags min(theta) to
the configured floor raises PositivityLoss.  A step that builds a state
takes min(theta) from the built values.  A step that builds no state checks
positivity from the temperature spectrum by its l1 bound, and makes the
inverse transform to take min(theta) only when that bound cannot clear the
floor.  A state is checked finite once, where it enters: `load` raises
NonFinite(t0, field) for a non-finite u, v or theta before any transform.
After each step `run` tests z in one reduction, and only when that is not
finite does it test field by field to name the field.
Once s0 is found finite and positive, `run` refuses a dt past the step's
stability bound with StepTooLarge: linearised about the mean temperature
theta_bar, a mode's (a_u, a_v, theta^) grows whenever y = mu sqrt(theta_bar)
|k| dt > 2, |k| up to the largest on the product mask (von Neumann analysis;
Strikwerda, Finite Difference Schemes and PDEs, ch. 2).  The bound is
necessary, not sufficient: y* = 1.88 at mu = 10, theta_bar = 1, |k| = 14.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField
from .operators import check_lame_ellipticity, lame_speeds_sq, longitudinal_part

__all__ = [
    "ModelParams",
    "SimState",
    "StepperConfig",
    "PositivityLoss",
    "NonFinite",
    "StepTooLarge",
    "run",
]

OPERATOR_KINDS = ("laplacian", "lame")


class PositivityLoss(RuntimeError):
    """Temperature reached the positivity floor during a step."""

    def __init__(self, t: float, theta_min: float):
        self.t = t
        self.theta_min = theta_min
        super().__init__(f"temperature positivity lost at t={t:.6g}: min(theta)={theta_min:.6g}")


class NonFinite(RuntimeError):
    """A state field is not finite: at the initial time or after a step."""

    def __init__(self, t: float, what: str):
        self.t = t
        self.what = what
        super().__init__(f"non-finite {what} at t={t:.6g}")


class StepTooLarge(ValueError):
    """dt is past the split step's stability bound 2 / (mu sqrt(theta_bar) |k|max)."""

    def __init__(self, dt: float, bound: float, k_max: float):
        self.dt, self.bound, self.k_max = dt, bound, k_max
        super().__init__(f"dt={dt:.6g} is past the split step's stability bound {bound:.6g} "
                         f"= 2 / (mu sqrt(mean theta) |k|max) at |k|max={k_max:.6g}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: coupling strength and elastic operator choice."""

    mu: float
    operator: str = "laplacian"
    zeta: float = 1.0
    lame_lambda: float = 0.5

    def __post_init__(self) -> None:
        for name in ("mu", "zeta", "lame_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.operator not in OPERATOR_KINDS:
            raise ValueError(f"operator must be one of {OPERATOR_KINDS}, got {self.operator!r}")
        if not self.zeta > 0.0:
            raise ValueError(f"zeta must be > 0, got {self.zeta}")

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
    # > 0 restricts products to the mode cube |k|_inf <= product_band instead
    # of the 2/3 rule, making the run the exact Galerkin truncation of that
    # cube; no library path sets it (the oracle checks the 2/3-rule path)
    product_band: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be > 0 and finite, got {self.dt}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be >= 0 and finite, got {self.t_end}")
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
        """t_end / dt as an integer; ValueError unless t_end is on the step
        lattice to 1e-12 relative."""
        n = int(round(self.t_end / self.dt))
        if abs(self.t_end - n * self.dt) > 1e-12 * max(1.0, abs(self.t_end)):
            raise ValueError(f"t_end={self.t_end!r} is not an integer multiple of dt={self.dt!r}")
        return n


class _SpectralStepper:
    """One Strang step of z = (a_u, a_v, theta^), stacked in one spectral
    array that the stepper owns and advances in place, with the one way into
    the spectral variables (`load`) and out of them (`state`).  dt may be
    signed (used by centred-difference diagnostics); forward runs use dt > 0.

    Every product of a step and every spectrum a state build composes is
    written into one work block of 2d+1 spectral arrays owned by the stepper:
    a build needs all of them, the wave half-step's products, the coupling's
    increments and its inverse transform's input four.  The step is one
    method over views of z and of the block made once, here; every ufunc
    takes its output positionally and every multiplier is an array.  On the
    oracle cross-check's small grids a method call, a view, a keyword or a
    Python scalar costs about what the arithmetic does.  A step allocates
    only what its transforms return, and looks them up on the grid at each
    call, so a wrapper put on the grid's class sees every one."""

    def __init__(self, grid: TorusGrid, p: ModelParams, dt: float, dealias: bool = True,
                 product_band: int = 0):
        p.validate_for_dimension(grid.d)
        self.grid = grid
        self.dt = float(dt)
        if product_band:
            # alias-free collocation products on the cube need m >= 3*band + 1
            short = min(grid.n_per_axis)
            if short < 3 * product_band + 1:
                raise ValueError(
                    f"product_band {product_band} needs at least {3 * product_band + 1} "
                    f"points per axis for alias-free products, grid has {short}"
                )
            product_mask = grid.mode_cube_mask(product_band)
        else:
            # products leave the Nyquist lines occupied even when aliasing is
            # tolerated; those modes have no conjugate partner and must stay empty
            product_mask = grid.dealias_mask if dealias else grid.nyquist_free_mask
        # the evolution subspace: the mode cube in Galerkin mode, else
        # everything but the unpaired Nyquist lines
        self.state_mask = product_mask if product_band else grid.nyquist_free_mask
        # the real multipliers of a step are held complex: a real-by-complex
        # multiply casts the real operand exactly, so the products keep their
        # bits, and held complex they need no cast buffer
        self.heat_half = np.exp(-grid.k_sq * (0.5 * self.dt)).astype(np.complex128)
        self.k_abs, self.inv_k_abs = np.sqrt(grid.k_sq), np.sqrt(grid.inv_k_sq)
        # the largest |k| the coupling reaches, for run's stability bound
        self.k_max = float(np.max(self.k_abs[product_mask]))
        self.ik_abs = 1j * self.k_abs
        self.neg_mu_ik_abs = -p.mu * self.ik_abs
        self.neg_mu_mask = (-p.mu * product_mask).astype(np.complex128)
        self.a_t, a_l = p.wave_speeds_sq
        # the longitudinal half-step as a block [[c, s], [m, c]] acting on (a_u, a_v)
        c, s, m = self._rotation(a_l, 0.5 * self.dt)
        self.long_half = np.array([[c, s], [m, c]], dtype=np.complex128)
        self.z = np.empty((3,) + grid.spectral_shape, dtype=np.complex128)
        self.work = np.empty((2 * grid.d + 1,) + grid.spectral_shape, dtype=np.complex128)
        # what `step` unpacks, in order: theta^, (a_u, a_v), the wave products
        # and their two columns, y = (a_v, theta^), the stage pair and the
        # increment k with their rows, and per midpoint stage h and where h k
        # and y + h k go
        products, y = self.work[:4].reshape(self.long_half.shape), self.z[1:]
        pair, k = self.work[:2], self.work[2:4]
        half, full = (np.array(h, dtype=np.complex128) for h in (0.5 * self.dt, self.dt))
        self._views = (self.z[2], self.z[:2], products, products[:, 0], products[:, 1], y, pair,
                       *pair, k, *k, ((half, pair, pair), (full, k, y)))

    def _rotation(self, speed_sq: float, t: float) -> tuple[np.ndarray, ...]:
        """Per-mode (cos wt, sin(wt)/w, -w^2 sin(wt)/w), w = sqrt(speed_sq) |k|,
        advancing (w, w_t) of the free wave by t; the zero mode drifts."""
        phase = (math.sqrt(speed_sq) * t) * self.k_abs
        s = np.sin(phase) * self.inv_k_abs / math.sqrt(speed_sq)
        s[(0,) * self.grid.d] = t
        return np.cos(phase), s, -speed_sq * self.grid.k_sq * s

    def load(self, s: SimState) -> tuple[np.ndarray, np.ndarray]:
        """Fill z with s on the evolution subspace: the curl-free amplitudes
        a_u, a_v and the temperature spectrum; return (nu_u, nu_v), the
        solenoidal remainders.  Raises NonFinite(s.t, field) before any
        transform if s is not finite."""
        _check_finite(s.t, s.u.components, s.v.components, s.theta.values)
        mask = self.state_mask
        nu = []
        for a, w in zip(self.z, (s.u, s.v)):
            # each spectrum becomes its remainder in place, so one vector
            # field's temporaries are alive at a time
            wh = w.spectral()
            wh *= mask
            a[...], chi = longitudinal_part(self.grid, wh)
            wh -= chi
            nu.append(wh)
        np.multiply(s.theta.spectral(), mask, out=self.z[2])
        return nu[0], nu[1]

    def state(self, t: float, nu_u: np.ndarray, nu_v: np.ndarray, n_steps: int) -> SimState:
        """The state at time t from z = (a_u, a_v, theta^) and nu rotated
        n_steps * dt at the transverse speed, in two inverse transforms: u
        with theta in one (d+1)-field call, then v.  The spectra are composed
        in the work block; the fields are fresh arrays.

        A stacked transform is byte-identical to one call per field, and
        each call costs more in dispatch than in arithmetic on small grids.
        v gets its own call so that its spectrum can take the block's first d
        arrays: one (2d+1)-field call would need a block of 3d+1."""
        grid, z = self.grid, self.z
        c, s, m = self._rotation(self.a_t, n_steps * self.dt)
        d = grid.d
        k = grid.unit_wavevectors
        uth, term = self.work[:d + 1], self.work[d + 1:]
        uh = np.multiply(c, nu_u, out=uth[:d])
        uh += np.multiply(s, nu_v, out=term)
        uh += np.multiply(k, z[0], out=term)
        uth[d] = z[2]
        u_theta = grid.to_physical(uth)
        vh = np.multiply(m, nu_u, out=self.work[:d])
        vh += np.multiply(c, nu_v, out=term)
        vh += np.multiply(k, z[1], out=term)
        v = grid.to_physical(vh)
        return SimState(t, VectorField(grid, u_theta[:d]), VectorField(grid, v),
                        ScalarField(grid, u_theta[d]))

    def step(self) -> None:
        """Advance z = (a_u, a_v, theta^) by one Strang step in place: heat and wave half-steps,
        the coupling by the explicit midpoint rule on y = (a_v, theta^), wave and heat again."""
        grid, heat, rotation, mask = self.grid, self.heat_half, self.long_half, self.neg_mu_mask
        theta, waves, products, c_a, c_b, y, pair, av, th, k, dav, dth, stages = self._views
        np.multiply(heat, theta, theta)
        # (a_u, a_v) <- (c a_u + s a_v, m a_u + c a_v)
        np.multiply(rotation, waves, products)
        np.add(c_a, c_b, waves)
        np.copyto(pair, y)
        # k = f(pair), pair <- y + dt/2 k; k = f(pair), y <- y + dt k
        for h, stage, out in stages:
            # along k^, -mu grad(theta) is -mu i|k| theta^ and div v is i|k| a_v
            np.multiply(self.neg_mu_ik_abs, th, dav)
            np.multiply(self.ik_abs, av, av)
            div_v, temperature = grid.to_physical(pair)
            np.multiply(temperature, div_v, div_v)
            np.multiply(grid.to_spectral(div_v), mask, dth)
            # the transform outputs go before the next evaluation makes its own
            del div_v, temperature
            np.multiply(h, k, stage)
            np.add(y, stage, out)
        np.multiply(rotation, waves, products)
        np.add(c_a, c_b, waves)
        np.multiply(heat, theta, theta)


def _check_finite(t: float, u: np.ndarray, v: np.ndarray, theta: np.ndarray) -> None:
    """Raise NonFinite naming the first of u, v, theta with a non-finite entry."""
    for name, arr in (("u", u), ("v", v), ("theta", theta)):
        if not np.isfinite(arr.view(np.float64)).all():
            raise NonFinite(t, name)


def _signed_step(s: SimState, p: ModelParams, dt: float) -> SimState:
    """Single Strang step with signed dt; no positivity enforcement.

    Intended for centred-difference diagnostics with |dt| small.
    """
    stepper = _SpectralStepper(s.grid, p, dt)
    nu_u, nu_v = stepper.load(s)
    stepper.step()
    t = s.t + dt
    _check_finite(t, *stepper.z)
    return stepper.state(t, nu_u, nu_v, 1)


def _enforce_floor(t: float, theta: np.ndarray, floor: float) -> None:
    """The positivity rule on physical temperature values at time t: raise
    PositivityLoss when min(theta) reaches the floor."""
    tmin = float(np.min(theta))
    if tmin <= floor:
        raise PositivityLoss(t, tmin)


def _floor_certificate(grid: TorusGrid, floor: float) -> Callable[[np.ndarray], bool]:
    """The positivity rule on a temperature spectrum: a test that is True
    only when grid.to_physical(theta^), as computed, has min > floor.

    A Fourier sum obeys min(theta) >= (Re theta^_0 - sum_{k!=0} w_k |theta^_k|) / N,
    w the Hermitian weight (the l1, or Wiener-algebra, bound; Katznelson,
    An Introduction to Harmonic Analysis, ch. I).  With l1 = sum w |theta^|
    over every stored mode, 2 Re theta^_0 - l1 is at most that numerator.
    The margin covers the sup-norm rounding of the inverse transform (the
    2-norm FFT bound of Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 24.1, times sqrt(N)) and the rounding of the sum.
    The test writes |theta^| into one buffer of its own, read through a
    flat view made once.
    """
    n = grid.n_total
    weight = np.broadcast_to(grid.hermitian_weight, grid.spectral_shape).ravel()
    margin = (8.0 * math.log2(n) * math.sqrt(n) + n) * np.finfo(np.float64).eps
    magnitude = np.empty(grid.spectral_shape)
    flat_magnitude = magnitude.reshape(-1)
    mean = (0,) * grid.d

    def clears(th: np.ndarray) -> bool:
        np.abs(th, magnitude)
        l1 = float(flat_magnitude @ weight)
        return (2.0 * th[mean].real - l1 - margin * l1) / n > floor

    return clears


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

    After a step that leaves a NaN or an infinity in a_u, a_v or theta^,
    NonFinite(t, field) names the first of them as "u", "v" or "theta".
    One sum over z finds that there is one; only then is z searched field
    by field.
    """
    grid = s0.grid
    stepper = _SpectralStepper(grid, p, cfg.dt, cfg.dealias, cfg.product_band)
    n_steps = cfg.n_steps()
    nu_u, nu_v = stepper.load(s0)
    z = stepper.z
    _enforce_floor(s0.t, s0.theta.values, cfg.positivity_floor)
    rate = p.mu * math.sqrt(z[2][(0,) * grid.d].real / grid.n_total) * stepper.k_max
    if rate * cfg.dt > 2.0:
        raise StepTooLarge(cfg.dt, 2.0 / rate, stepper.k_max)
    certified = _floor_certificate(grid, cfg.positivity_floor)
    theta_hat = z[2]
    # the real and imaginary parts of z in one flat run, for the finiteness
    # guard: a NaN or an infinity in z makes their sum of squares
    # non-finite, and a finite sum that overflows only sends the step to the
    # field-by-field test.  np.vdot reports no floating-point error, where
    # np.add.reduce would warn of an overflow and of inf - inf
    flat = z.view(np.float64).reshape(-1)
    t0 = s0.t

    if sink is not None:
        sink(s0.copy())
    if n_steps == 0:
        return s0.copy()
    for i in range(1, n_steps + 1):
        stepper.step()
        t = t0 + i * cfg.dt
        # nu never enters a step, so the finite load keeps it finite
        if not math.isfinite(np.vdot(flat, flat)):
            _check_finite(t, *z)
        if i == n_steps or (sink is not None and i % cfg.record_every == 0):
            # nu is rotated from its initial value, so a state does not
            # depend on which earlier states were built
            state = stepper.state(t, nu_u, nu_v, i)
            _enforce_floor(t, state.theta.values, cfg.positivity_floor)
            if i < n_steps:
                sink(state)
                # run keeps no emitted state: one the sink lets go is freed
                # before the next build
                state = None
        elif not certified(theta_hat):
            # a certified spectrum cannot raise, and no state reads its
            # values, so only an uncertified one is transformed
            _enforce_floor(t, grid.to_physical(theta_hat), cfg.positivity_floor)
    # the stepper's arrays are freed before the sink's copy of the final state is made
    del stepper, certified, z, theta_hat, flat, nu_u, nu_v
    if sink is not None:
        sink(state.copy())
    return state
