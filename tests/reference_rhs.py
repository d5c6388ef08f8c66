"""Pointwise tendencies of the full system on a grid: a reference for the
oracle's coefficient tendencies, the scenarios' steady states and the
stepper's short-time behaviour.  No package code needs them."""

import numpy as np

from thermoelast import ModelParams, ScalarField, SimState, VectorField
from thermoelast.operators import elastic_symbol, k_dot


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
