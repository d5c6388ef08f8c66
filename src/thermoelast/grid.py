"""Uniform periodic grids and sampled fields.

Everything in this package lives on a uniform tensor-product grid over a
periodic box [0, L_1) x ... x [0, L_d), d in {2, 3}.  Fields are stored in
physical space as float64 arrays; spectral representations are taken on
demand with scipy's real FFT, in its half-spectrum layout: the leading
axes hold every mode, the last axis only modes 0..m/2, the others being
complex conjugates of these.  Fields coming back from spectral space are
therefore real by construction.  Derivatives of band-limited fields are exact:
transform, multiply by the wavevector lattice, transform back.

The two grid transforms call the pocketfft binding that `scipy.fft.rfftn`
and `irfftn` end in, with the arguments those functions pass (unnormalised
forward, 1/N inverse, one thread), so their output is the public call's bit
for bit without its per-call argument handling.  The forward transform
takes float64 to complex128 and the inverse complex128 to float64; other
inputs are converted first.  `scipy.fft.set_workers` and `set_backend`
contexts do not apply to them.

The binding is loaded from its file in SciPy's `fft/_pocketfft` directory,
found through `importlib` without running `scipy/__init__.py` or
`scipy/fft/__init__.py`: those pull in `scipy._lib._array_api` and
`scipy.special`, which the grid never calls, and would cost most of the
time and resident memory of importing this module.  It is registered under
its dotted name, so a later `import scipy.fft` binds the same module, and
a process that has imported `scipy.fft` first hands the grid SciPy's own.
When the grid loads it first, `from scipy.fft._pocketfft import
pypocketfft` still finds it, but the package `scipy.fft._pocketfft` gets
no `pypocketfft` attribute.

A TorusGrid builds each spectral array (wavevectors, i k, |k|^2, k/|k|, masks),
the scalars every Parseval sum reads (point count, cell volume), and the
dimension and spectral shape every transform checks, on first use and keeps
them.  Every mask is a cube in mode-index space with a per-axis bound:
`dealias_band` (the 2/3 rule), m/2 - 1 (Nyquist-free) or a fixed band.

The default box edge is 2*pi, which makes the wavevector lattice the integer
lattice and keeps the spectral identities used by the verification suite
exact to rounding.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from types import ModuleType
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TWO_PI",
    "TorusGrid",
    "ScalarField",
    "VectorField",
    "quadrature",
    "spectral_l2_sq",
    "parseval_sums",
    "field_norms",
]

TWO_PI = 2.0 * math.pi


def _load_pocketfft() -> ModuleType:
    """SciPy's pocketfft binding, loaded from its file (see the module
    docstring for why) and registered under its dotted name."""
    name = "scipy.fft._pocketfft.pypocketfft"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # locates, does not execute
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    where = os.path.join(scipy_spec.submodule_search_locations[0], "fft", "_pocketfft")
    found = importlib.machinery.PathFinder.find_spec("pypocketfft", [where])
    if found is None:
        raise ImportError(f"scipy's pocketfft binding is not in {where}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


pypocketfft = _load_pocketfft()


def _index_line(m: int, last: bool) -> np.ndarray:
    """Integer FFT frequencies, exact: [0, 1, ..., m/2-1, -m/2, ..., -1] on a
    leading axis, [0, 1, ..., m/2] on the last (half-spectrum) axis."""
    if last:
        return np.arange(m // 2 + 1, dtype=np.float64)
    idx = np.arange(m, dtype=np.float64)
    idx[m // 2:] -= m
    return idx


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on a periodic box together with its wavevector lattice.

    Parameters
    ----------
    n_per_axis:
        Points per axis; each must be even and >= 4.
    length_per_axis:
        Box edge lengths; defaults to 2*pi on every axis.
    """

    n_per_axis: tuple[int, ...]
    length_per_axis: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.n_per_axis) not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {len(self.n_per_axis)}")
        for m in self.n_per_axis:
            if m < 4 or m % 2 != 0:  # before int(): 8.7 is not even, nor is inf
                raise ValueError(f"points per axis must be even and >= 4, got {m}")
        n = tuple(int(m) for m in self.n_per_axis)
        lengths = tuple(float(ell) for ell in self.length_per_axis or (TWO_PI,) * len(n))
        if len(lengths) != len(n):
            raise ValueError("length_per_axis must match n_per_axis in length")
        if not all(math.isfinite(ell) for ell in lengths):
            raise ValueError(f"length_per_axis must be finite, got {lengths}")
        if any(ell <= 0.0 for ell in lengths):
            raise ValueError("box edge lengths must be positive")
        object.__setattr__(self, "n_per_axis", n)
        object.__setattr__(self, "length_per_axis", lengths)

    # -- geometry ---------------------------------------------------------

    @cached_property
    def d(self) -> int:
        return len(self.n_per_axis)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_per_axis

    @cached_property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of a spectral array: the last axis keeps modes 0..m/2."""
        return self.n_per_axis[:-1] + (self.n_per_axis[-1] // 2 + 1,)

    @cached_property
    def n_total(self) -> int:
        return math.prod(self.n_per_axis)

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(ell / m for m, ell in zip(self.n_per_axis, self.length_per_axis))

    @property
    def measure(self) -> float:
        return math.prod(self.length_per_axis)

    def axes(self) -> tuple[np.ndarray, ...]:
        """1D coordinate arrays along each axis."""
        return tuple(
            np.arange(m) * (ell / m)
            for m, ell in zip(self.n_per_axis, self.length_per_axis)
        )

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    # -- spectral machinery: each array is built on first use ---------------

    @cached_property
    def mode_indices(self) -> tuple[np.ndarray, ...]:
        """Broadcastable integer mode index arrays over the spectral shape:
        -m/2..m/2-1 on a leading axis, 0..m/2 on the last axis."""
        d = self.d
        return tuple(
            _index_line(m, last=ax == d - 1).reshape([-1 if a == ax else 1 for a in range(d)])
            for ax, m in enumerate(self.n_per_axis)
        )

    @cached_property
    def wavevectors(self) -> tuple[np.ndarray, ...]:
        """Broadcastable wavevector component arrays (2*pi/L_i times integers)
        over the spectral shape."""
        return tuple((TWO_PI / ell) * idx for ell, idx in zip(self.length_per_axis, self.mode_indices))

    @cached_property
    def k_sq(self) -> np.ndarray:
        return sum(k * k for k in self.wavevectors)

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0."""
        inv = np.zeros_like(self.k_sq)
        np.divide(1.0, self.k_sq, out=inv, where=self.k_sq > 0)
        return inv

    @cached_property
    def gradient_symbol(self) -> tuple[np.ndarray, ...]:
        """Broadcastable components of i k, the gradient's multiplier: 1j
        times each of `wavevectors`, as small as they are."""
        return tuple(1j * k for k in self.wavevectors)

    @cached_property
    def unit_wavevectors(self) -> np.ndarray:
        """k^ = k/|k| stacked over the spectral shape, 0 on the zero mode."""
        inv_k_abs = np.sqrt(self.inv_k_sq)
        return np.stack([k * inv_k_abs for k in self.wavevectors])

    def _cube_mask(self, bounds: Sequence[int]) -> np.ndarray:
        """True where |index| <= bound on every axis."""
        mask = np.ones(self.spectral_shape, dtype=bool)
        for idx, bound in zip(self.mode_indices, bounds):
            mask &= np.abs(idx) <= bound
        return mask

    @cached_property
    def dealias_band(self) -> tuple[int, ...]:
        """The 2/3 rule's per-axis bound K = (m - 1) // 3, the largest with
        3K < m, so no sum of two kept modes wraps back to a kept one
        (Orszag, J. Atmos. Sci. 28, 1971).  It is m // 3 unless 3 divides m."""
        return tuple((m - 1) // 3 for m in self.n_per_axis)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """The 2/3 rule: |index| <= `dealias_band` on every axis."""
        return self._cube_mask(self.dealias_band)

    @cached_property
    def nyquist_free_mask(self) -> np.ndarray:
        """|index| <= m/2 - 1 on every axis: drops index -m/2 on a leading
        axis and the m/2 plane on the last.  Those modes have no conjugate
        partner, so odd derivative multipliers on them break reality."""
        return self._cube_mask([m // 2 - 1 for m in self.n_per_axis])

    def mode_cube_mask(self, band: int) -> np.ndarray:
        """True on the mode cube |index|_inf <= band."""
        if band < 1:
            raise ValueError(f"band must be >= 1, got {band}")
        return self._cube_mask([band] * self.d)

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """Broadcastable count of the full-spectrum modes each stored mode
        stands for: 1 on the last-axis planes 0 and m/2, 2 elsewhere."""
        herm = np.full(self.mode_indices[-1].shape, 2.0)
        herm[..., 0] = 1.0
        herm[..., -1] = 1.0
        return herm

    @cached_property
    def _transform_axes(self) -> tuple[int, ...]:
        return tuple(range(-self.d, 0))

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Real forward FFT over the trailing d axes (leading axes pass
        through); a (..., *shape) float64 array becomes a complex128
        (..., *spectral_shape) array in the half-spectrum layout."""
        values = np.asarray(values, dtype=np.float64)
        # (a, axes, forward, inorm, out, nthreads): unnormalised, as rfftn
        return pypocketfft.r2c(values, self._transform_axes, True, 0, None, 1)

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        """Inverse of `to_spectral`: a complex128 (..., *spectral_shape) array
        in the half-spectrum layout becomes a float64 (..., *shape) array.

        The last-axis planes 0 and m/2 hold their own conjugates; only the
        Hermitian part of their coefficients contributes.
        """
        spec = np.asarray(spec, dtype=np.complex128)
        if spec.shape[spec.ndim - self.d:] != self.spectral_shape:
            raise ValueError(
                f"spectral shape {spec.shape} does not end in {self.spectral_shape}"
            )
        # (a, axes, lastsize, forward, inorm, out, nthreads): 1/N, as irfftn
        return pypocketfft.c2r(
            spec, self._transform_axes, self.n_per_axis[-1], False, 2, None, 1
        )


def _check_values(grid: TorusGrid, values: np.ndarray, lead: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    want = (grid.d,) * lead + grid.shape
    if arr.shape != want:
        raise ValueError(f"field shape {arr.shape} does not match grid shape {want}")
    return arr


@dataclass
class ScalarField:
    """Real scalar field sampled on a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _check_values(self.grid, self.values, lead=0)

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable[..., np.ndarray]) -> "ScalarField":
        return cls(grid, np.broadcast_to(fn(*grid.meshes()), grid.shape).copy())

    @classmethod
    def from_spectral(cls, grid: TorusGrid, spec: np.ndarray) -> "ScalarField":
        return cls(grid, grid.to_physical(spec))

    def spectral(self) -> np.ndarray:
        return self.grid.to_spectral(self.values)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Real d-component vector field; components stacked on the first axis."""

    grid: TorusGrid
    components: np.ndarray

    def __post_init__(self) -> None:
        self.components = _check_values(self.grid, self.components, lead=1)

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "VectorField":
        return cls(grid, np.zeros((grid.d,) + grid.shape))

    @classmethod
    def from_functions(cls, grid: TorusGrid, fns: Sequence[Callable[..., np.ndarray]]) -> "VectorField":
        if len(fns) != grid.d:
            raise ValueError(f"need {grid.d} component functions, got {len(fns)}")
        meshes = grid.meshes()
        comps = np.stack([np.broadcast_to(fn(*meshes), grid.shape) for fn in fns])
        return cls(grid, comps.copy())

    @classmethod
    def from_spectral(cls, grid: TorusGrid, spec: np.ndarray) -> "VectorField":
        return cls(grid, grid.to_physical(spec))

    def spectral(self) -> np.ndarray:
        return self.grid.to_spectral(self.components)

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.components[i].copy())

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.components.copy())


def quadrature(grid: TorusGrid, values: np.ndarray) -> float:
    """Integral over the box by the uniform cell-volume rule.

    Exact for band-limited integrands; spectrally accurate for smooth ones.
    Leading (component) axes, if any, are summed as well.
    """
    return float(values.sum()) * grid.cell_volume


def parseval_sums(grid: TorusGrid, spec: np.ndarray, weight: np.ndarray, lead: int = 0) -> np.ndarray:
    """Squared L2 norms by Parseval of a block of half-spectrum coefficients.

    The power |c|^2 of spec is built once and multiplied by weight, which
    includes `hermitian_weight` and broadcasts against it (in place when it
    adds no axis); the product is summed over every axis after its first
    `lead`, so each of the product.shape[:lead] groups is reduced over its
    trailing contiguous axes in one call, the same bits as a flat sum of
    that group alone.  The sums are scaled as sum * cell_volume / n_total,
    in that order."""
    power = np.square(spec.real)
    power += np.square(spec.imag)
    if weight.ndim > power.ndim:
        block = power * weight
    else:
        block = np.multiply(power, weight, out=power)
    sums = np.add.reduce(block.reshape(block.shape[:lead] + (-1,)), axis=-1)
    return sums * grid.cell_volume / grid.n_total


def spectral_l2_sq(grid: TorusGrid, spec: np.ndarray, weight: np.ndarray | None = None) -> float:
    """Squared L2 norm from half-spectrum coefficients (Parseval), optionally
    weighted per mode; leading component axes are summed.  The one-group
    case of `parseval_sums`: hermitian_weight is 1 or 2, so folding it into
    the weight first keeps |c|^2 * hermitian_weight * weight bit for bit."""
    herm = grid.hermitian_weight
    return float(parseval_sums(grid, spec, herm if weight is None else herm * weight))


def field_norms(f: ScalarField | VectorField) -> dict[str, float]:
    """Norms of a field: keys l2, h1_semi and linf.  A vector field's linf
    is the largest pointwise Euclidean magnitude."""
    grid = f.grid
    if isinstance(f, ScalarField):
        vals = f.values
        point_mag = np.abs(vals)
    else:
        vals = f.components
        point_mag = np.sqrt(np.sum(vals * vals, axis=0))
    spec = grid.to_spectral(vals)
    return {
        "l2": math.sqrt(max(spectral_l2_sq(grid, spec), 0.0)),
        "h1_semi": math.sqrt(max(spectral_l2_sq(grid, spec, grid.k_sq), 0.0)),
        "linf": float(np.max(point_mag)),
    }
