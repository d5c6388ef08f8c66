"""Shared fixtures: small grids, band-limited random field factories, and a
fresh interpreter on the package under test.

Random fields are always confined to the Nyquist-free subspace (and usually
to a narrower band); raw white noise holds content on the unpaired -m/2
lines, where odd spectral derivatives cannot produce real fields.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoelast
from thermoelast import ScalarField, TorusGrid, VectorField

# the record columns a battery="ledger" TrajectoryRecorder leaves NaN
LEDGER_NAN_COLUMNS = ("fisher_functional", "chi_h1", "chi_t_l2", "nu_energy", "theta_l2_dist")


@pytest.fixture
def grid2d() -> TorusGrid:
    return TorusGrid((32, 32))


@pytest.fixture
def grid2d_small() -> TorusGrid:
    return TorusGrid((16, 16))


@pytest.fixture
def grid3d() -> TorusGrid:
    return TorusGrid((16, 16, 16))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_scalar(grid: TorusGrid, rng: np.random.Generator, band: int | None = None,
                  zero_mean: bool = False) -> ScalarField:
    spec = grid.to_spectral(rng.standard_normal(grid.shape))
    mask = grid.mode_cube_mask(band) if band else grid.nyquist_free_mask
    spec = np.where(mask, spec, 0.0)
    if zero_mean:
        spec[(0,) * grid.d] = 0.0
    return ScalarField.from_spectral(grid, spec)


def random_vector(grid: TorusGrid, rng: np.random.Generator, band: int | None = None) -> VectorField:
    comps = np.stack([random_scalar(grid, rng, band).values for _ in range(grid.d)])
    return VectorField(grid, comps)


@pytest.fixture
def make_scalar():
    return random_scalar


@pytest.fixture
def make_vector():
    return random_vector


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports the package this
    process imported, from a checkout or an installed copy alike."""
    where = str(Path(thermoelast.__file__).parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": where}, timeout=120)
