"""Orthogonal splitting of vector fields into divergence-free and
curl-free (gradient) parts.

Per nonzero Fourier mode the curl-free part is the projection onto the
wavevector, ``k (k . v^) / |k|^2``; the remainder is divergence-free.  The
spatial mean (zero mode) is assigned to the divergence-free part, so the
curl-free part is exactly the gradient of a zero-mean potential solving
``laplacian(phi) = div v``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import ScalarField, VectorField
from .operators import longitudinal_part

__all__ = ["HelmholtzParts", "helmholtz_project"]


@dataclass
class HelmholtzParts:
    div_free: VectorField
    curl_free: VectorField
    potential: ScalarField


def helmholtz_project(v: VectorField) -> HelmholtzParts:
    grid = v.grid
    vh = v.spectral()
    kv, curl_free_h = longitudinal_part(grid, vh)
    div_free_h = vh - curl_free_h
    # potential: laplacian(phi) = div v  =>  phi^ = -i (k . v^) / |k|^2
    pot_h = -1j * kv * grid.inv_k_sq
    return HelmholtzParts(
        div_free=VectorField.from_spectral(grid, div_free_h),
        curl_free=VectorField.from_spectral(grid, curl_free_h),
        potential=ScalarField.from_spectral(grid, pot_h),
    )
