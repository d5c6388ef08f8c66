"""Spectral differential operators, exact for band-limited fields.

This module is the home of the per-mode elastic symbol.  Per Fourier mode
the operator A of the wave equation (-laplacian or Lame) is fixed by two
squared wave speeds (a_t, a_l), transverse and longitudinal:

    A u^ = a_t |k|^2 u^ + (a_l - a_t) k (k . u^),

i.e. a_t |k|^2 on the divergence-free part and a_l |k|^2 on the curl-free
part k^ (k^ . u^), k^ = k/|k|.  The speeds are (1, 1) for -laplacian and
(zeta, 2*zeta + lam) for Lame (`lame_speeds_sq`).  `elastic_symbol` applies A
to spectral coefficients and `elastic_form` evaluates int u . A u from them
by Parseval, optionally with a per-mode weight; both take spectral
coefficients, not fields.  `_elastic_form_of_sums` is the form's one
combination of its two Parseval sums, shared with the diagnostics, which
reduce those sums in blocks.

`longitudinal_part` is the package's one projection onto k: the stepper,
the diagnostics and `helmholtz_project` (a divergence-free part keeping the
mean, plus the gradient of a zero-mean potential) all split vectors with it.

Sign and shape conventions:

* ``curl`` of a 2D vector field is the scalar  d(v2)/dx1 - d(v1)/dx2; in 3D it
  is the usual vector curl.
* ``curl_curl`` in 2D means the rotated gradient of the scalar curl,
  (d/dx2, -d/dx1) applied to it, which makes the identity
  ``laplacian(w) == grad(div w) - curl_curl(w)`` hold in both dimensions.
* ``lame_apply`` is the elastic operator
  ``L w = -(2*zeta + lam) * grad(div w) + zeta * curl_curl(w)``,
  positive semidefinite for zeta > 0 and 2*zeta + d*lam > 0; it reduces to
  ``-laplacian`` at zeta=1, lam=-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField, spectral_l2_sq

__all__ = [
    "gradient",
    "divergence",
    "curl",
    "curl_curl",
    "laplacian",
    "hessian",
    "lame_apply",
    "lame_speeds_sq",
    "k_dot",
    "longitudinal_part",
    "HelmholtzParts",
    "helmholtz_project",
    "elastic_symbol",
    "elastic_form",
    "check_lame_coefficients",
    "check_lame_ellipticity",
]


def _grad_spec(grid: TorusGrid, fh: np.ndarray) -> np.ndarray:
    """Spectral gradient of a spectral scalar: stacked (d, ...) array, each
    component one multiply into it."""
    out = np.empty((grid.d,) + fh.shape, dtype=np.complex128)
    for ik, part in zip(grid.gradient_symbol, out):
        np.multiply(ik, fh, out=part)
    return out


def gradient(f: ScalarField) -> VectorField:
    grid = f.grid
    return VectorField.from_spectral(grid, _grad_spec(grid, f.spectral()))


def divergence(v: VectorField) -> ScalarField:
    grid = v.grid
    return ScalarField.from_spectral(grid, 1j * k_dot(grid, v.spectral()))


def curl(v: VectorField) -> ScalarField | VectorField:
    """Scalar curl in 2D, vector curl in 3D."""
    grid = v.grid
    k = grid.wavevectors
    vh = v.spectral()
    if grid.d == 2:
        return ScalarField.from_spectral(grid, 1j * k[0] * vh[1] - 1j * k[1] * vh[0])
    ch = np.stack(
        [
            1j * k[1] * vh[2] - 1j * k[2] * vh[1],
            1j * k[2] * vh[0] - 1j * k[0] * vh[2],
            1j * k[0] * vh[1] - 1j * k[1] * vh[0],
        ]
    )
    return VectorField.from_spectral(grid, ch)


def curl_curl(v: VectorField) -> VectorField:
    """|k|^2 v^ - k (k . v^) per mode in either dimension: the elastic symbol
    with speeds (1, 0)."""
    grid = v.grid
    return VectorField.from_spectral(grid, elastic_symbol(grid, v.spectral(), (1.0, 0.0)))


def laplacian(f: ScalarField | VectorField) -> ScalarField | VectorField:
    grid = f.grid
    if isinstance(f, ScalarField):
        return ScalarField.from_spectral(grid, -grid.k_sq * f.spectral())
    return VectorField.from_spectral(grid, -grid.k_sq * f.spectral())


def _hessian_spec(grid: TorusGrid, fh: np.ndarray) -> np.ndarray:
    """All second partials of a scalar with coefficients fh, as a
    (d, d, *grid.shape) array, from one inverse transform of the d(d+1)/2
    distinct ones."""
    k = grid.wavevectors
    pairs = [(i, j) for i in range(grid.d) for j in range(i, grid.d)]
    parts = grid.to_physical(np.stack([-(k[i] * k[j]) * fh for i, j in pairs]))
    out = np.empty((grid.d, grid.d) + grid.shape)
    for (i, j), part in zip(pairs, parts):
        out[i, j] = out[j, i] = part
    return out


def hessian(f: ScalarField) -> np.ndarray:
    """All second partials of a scalar as a (d, d, *grid.shape) array."""
    return _hessian_spec(f.grid, f.spectral())


def check_lame_coefficients(zeta: float, lam: float) -> None:
    """Validate per-mode positivity: zeta > 0 and 2*zeta + lam > 0.

    These keep both elastic wave speeds real, and admit the boundary case
    (zeta, lam) = (1, -1) where the operator degenerates to -laplacian.
    """
    if zeta <= 0.0:
        raise ValueError(f"zeta must be > 0, got {zeta}")
    if 2.0 * zeta + lam <= 0.0:
        raise ValueError(f"2*zeta + lame_lambda must be > 0, got {2.0 * zeta + lam}")


def check_lame_ellipticity(zeta: float, lam: float, d: int) -> None:
    """Validate the full run-level constraints zeta > 0, 2*zeta + d*lam > 0."""
    check_lame_coefficients(zeta, lam)
    if 2.0 * zeta + d * lam <= 0.0:
        raise ValueError(
            f"2*zeta + d*lame_lambda must be > 0, got {2.0 * zeta + d * lam} "
            f"(zeta={zeta}, lame_lambda={lam}, d={d})"
        )


def lame_speeds_sq(zeta: float, lam: float) -> tuple[float, float]:
    """Squared (transverse, longitudinal) wave speeds of the Lame operator."""
    return zeta, 2.0 * zeta + lam


def k_dot(grid: TorusGrid, vh: np.ndarray) -> np.ndarray:
    """k . v^ per mode for a stacked spectral vector, accumulated in order
    into the first product."""
    k = grid.wavevectors
    out = k[0] * vh[0]
    for i in range(1, grid.d):
        out += k[i] * vh[i]
    return out


def longitudinal_part(grid: TorusGrid, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, k^ a) with a = k^ . v^, k^ = k/|k|: the amplitude of a spectral
    vector along the wavevector and its curl-free part, both zero on the
    zero mode.  vh may stack vectors on leading axes, (..., d, *spectral
    shape); each is split as if alone."""
    unit_k = grid.unit_wavevectors
    axis = -grid.d - 1
    a = (unit_k * vh).sum(axis=axis, keepdims=True)
    return a.squeeze(axis), unit_k * a


@dataclass
class HelmholtzParts:
    div_free: VectorField
    curl_free: VectorField
    potential: ScalarField


def helmholtz_project(v: VectorField) -> HelmholtzParts:
    """Orthogonal split v = div_free + curl_free, curl_free = grad(potential).

    The physical parts drop the non-Hermitian half of each Nyquist mode, so
    on fields with Nyquist content their norms differ from Parseval sums over
    v^ - chi^ and chi^ (by about 1%, up to 3% on random 16^2 and 8^3 fields)."""
    grid = v.grid
    vh = v.spectral()
    a, curl_free_h = longitudinal_part(grid, vh)
    # laplacian(phi) = div v  =>  phi^ = -i (k . v^) / |k|^2 = -i a / |k|
    pot_h = -1j * a * np.sqrt(grid.inv_k_sq)
    return HelmholtzParts(
        div_free=VectorField.from_spectral(grid, vh - curl_free_h),
        curl_free=VectorField.from_spectral(grid, curl_free_h),
        potential=ScalarField.from_spectral(grid, pot_h),
    )


def elastic_symbol(grid: TorusGrid, vh: np.ndarray, speeds_sq: tuple[float, float]) -> np.ndarray:
    """A v^ = a_t |k|^2 v^ + (a_l - a_t) k (k . v^) for speeds_sq = (a_t, a_l)."""
    a_t, a_l = speeds_sq
    out = a_t * grid.k_sq * vh
    if a_l != a_t:
        kv = (a_l - a_t) * k_dot(grid, vh)
        for i, k in enumerate(grid.wavevectors):
            out[i] += k * kv
    return out


def elastic_form(
    grid: TorusGrid, uh: np.ndarray, speeds_sq: tuple[float, float], weight: np.ndarray | None = None
) -> float:
    """int u . A u by Parseval from the coefficients u^: the sum over modes of
    a_t |k|^2 |u^|^2 + (a_l - a_t) |k . u^|^2, each mode times weight if given."""
    s_u = spectral_l2_sq(grid, uh, grid.k_sq if weight is None else grid.k_sq * weight)
    s_ku = spectral_l2_sq(grid, k_dot(grid, uh), weight) if speeds_sq[0] != speeds_sq[1] else 0.0
    return _elastic_form_of_sums(speeds_sq, s_u, s_ku)


def _elastic_form_of_sums(speeds_sq: tuple[float, float], s_u: float, s_ku: float) -> float:
    """`elastic_form` from its two Parseval sums, s_u of |k|^2 |u^|^2 and s_ku
    of |k . u^|^2 (each weighted alike); s_ku is not read when a_l == a_t."""
    a_t, a_l = speeds_sq
    form = a_t * s_u
    if a_l != a_t:
        form += (a_l - a_t) * s_ku
    return form


def lame_apply(v: VectorField, zeta: float, lam: float) -> VectorField:
    """Apply L w = -(2*zeta+lam) grad(div w) + zeta curl_curl(w)."""
    check_lame_coefficients(zeta, lam)
    return VectorField.from_spectral(
        v.grid, elastic_symbol(v.grid, v.spectral(), lame_speeds_sq(zeta, lam))
    )
