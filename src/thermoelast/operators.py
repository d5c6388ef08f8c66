"""Spectral differential operators, exact for band-limited fields.

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

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField

__all__ = [
    "gradient",
    "divergence",
    "curl",
    "curl_curl",
    "laplacian",
    "hessian",
    "lame_apply",
    "check_lame_coefficients",
    "check_lame_ellipticity",
]


def _grad_spec(grid: TorusGrid, fh: np.ndarray) -> np.ndarray:
    """Spectral gradient of a spectral scalar: stacked (d, ...) array."""
    return np.stack([1j * k * fh for k in grid.wavevectors])


def _div_spec(grid: TorusGrid, vh: np.ndarray) -> np.ndarray:
    out = 1j * grid.wavevectors[0] * vh[0]
    for i in range(1, grid.d):
        out = out + 1j * grid.wavevectors[i] * vh[i]
    return out


def gradient(f: ScalarField) -> VectorField:
    grid = f.grid
    return VectorField.from_spectral(grid, _grad_spec(grid, f.spectral()))


def divergence(v: VectorField) -> ScalarField:
    grid = v.grid
    return ScalarField.from_spectral(grid, _div_spec(grid, v.spectral()))


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


def _curl_curl_spec(grid: TorusGrid, vh: np.ndarray) -> np.ndarray:
    """|k|^2 v - k (k . v), the double curl of either dimension."""
    k = grid.wavevectors
    kv = sum(k[i] * vh[i] for i in range(grid.d))
    return np.stack([grid.k_sq * vh[i] - k[i] * kv for i in range(grid.d)])


def curl_curl(v: VectorField) -> VectorField:
    grid = v.grid
    return VectorField.from_spectral(grid, _curl_curl_spec(grid, v.spectral()))


def laplacian(f: ScalarField | VectorField) -> ScalarField | VectorField:
    grid = f.grid
    if isinstance(f, ScalarField):
        return ScalarField.from_spectral(grid, -grid.k_sq * f.spectral())
    return VectorField.from_spectral(grid, -grid.k_sq * f.spectral())


def hessian(f: ScalarField) -> np.ndarray:
    """All second partials of a scalar as a (d, d, *grid.shape) array."""
    grid = f.grid
    fh = f.spectral()
    k = grid.wavevectors
    pairs = [(i, j) for i in range(grid.d) for j in range(i, grid.d)]
    parts = grid.to_physical(np.stack([-(k[i] * k[j]) * fh for i, j in pairs]))
    out = np.empty((grid.d, grid.d) + grid.shape)
    for (i, j), part in zip(pairs, parts):
        out[i, j] = out[j, i] = part
    return out


def check_lame_coefficients(zeta: float, lam: float) -> None:
    """Validate per-mode positivity: zeta > 0 and 2*zeta + lam > 0.

    These keep both elastic wave speeds real, and admit the boundary case
    (zeta, lam) = (1, -1) where the operator degenerates to -laplacian.
    """
    if zeta <= 0.0:
        raise ValueError(f"zeta must be > 0, got {zeta}")
    if 2.0 * zeta + lam <= 0.0:
        raise ValueError(f"2*zeta + lam must be > 0, got {2.0 * zeta + lam}")


def check_lame_ellipticity(zeta: float, lam: float, d: int) -> None:
    """Validate the full run-level constraints zeta > 0, 2*zeta + d*lam > 0."""
    check_lame_coefficients(zeta, lam)
    if 2.0 * zeta + d * lam <= 0.0:
        raise ValueError(
            f"2*zeta + d*lam must be > 0, got {2.0 * zeta + d * lam} "
            f"(zeta={zeta}, lam={lam}, d={d})"
        )


def lame_apply(v: VectorField, zeta: float, lam: float) -> VectorField:
    """Apply L w = -(2*zeta+lam) grad(div w) + zeta curl_curl(w.

    Diagonal per mode:  L w^ = zeta |k|^2 w^ + (zeta+lam) k (k . w^).
    """
    grid = v.grid
    check_lame_coefficients(zeta, lam)
    k = grid.wavevectors
    vh = v.spectral()
    kv = sum(k[i] * vh[i] for i in range(grid.d))
    out = np.stack(
        [zeta * grid.k_sq * vh[i] + (zeta + lam) * k[i] * kv for i in range(grid.d)]
    )
    return VectorField.from_spectral(grid, out)
