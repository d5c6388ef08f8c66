"""The plane-wave reduction: data that depend on x1 alone, with u and v along
e1, stay so under the full stepper, in 2D and 3D and under both operators.

That subspace is the one-dimensional thermoelastic model.  Every check is
exact (`==`), and so is the agreement of a run on a thin n x 4^(d-1) grid
with the n^d run on the x1 line: after 1000 steps, both hold to the bit.
"""

import numpy as np
import pytest

from thermoelast import ModelParams, ScalarField, SimState, StepperConfig, TorusGrid, VectorField, run

STEPS = StepperConfig(dt=1e-3, t_end=1.0)  # 1000 steps
N_FOR_DIM = {2: 32, 3: 16}


def _along_e1(grid: TorusGrid, fn) -> VectorField:
    """The vector field fn(x1) e1."""
    return VectorField.from_functions(grid, [fn] + [lambda *_: 0.0] * (grid.d - 1))


def _plane_wave(grid: TorusGrid) -> SimState:
    u = _along_e1(grid, lambda x, *_: 0.2 * np.sin(x) + 0.05 * np.cos(3 * x))
    v = _along_e1(grid, lambda x, *_: 0.1 * np.cos(2 * x))
    theta = ScalarField.from_function(grid, lambda x, *_: 1.0 + 0.2 * np.sin(x + 0.3))
    return SimState(0.0, u, v, theta)


def _fields(s: SimState) -> dict[str, np.ndarray]:
    """Every field as (components, *grid shape)."""
    return {"u": s.u.components, "v": s.v.components, "theta": s.theta.values[None]}


def _x1_line(a: np.ndarray) -> np.ndarray:
    """The x1 line at index 0 of the transverse axes, which keep length 1."""
    return a[(slice(None), slice(None)) + (slice(0, 1),) * (a.ndim - 2)]


@pytest.fixture(scope="module", params=[(d, op) for d in (2, 3) for op in ("laplacian", "lame")],
                ids=lambda c: f"{c[0]}d-{c[1]}")
def runs(request):
    """The final states on the n^d grid and on the thin n x 4^(d-1) grid."""
    d, operator = request.param
    n = N_FOR_DIM[d]
    p = ModelParams(mu=1.0, operator=operator)
    return tuple(run(_plane_wave(TorusGrid(shape)), p, STEPS)
                 for shape in ((n,) * d, (n,) + (4,) * (d - 1)))


def test_thin_grid_matches_on_the_x1_line(runs):
    full, thin = runs
    assert full.t == thin.t == STEPS.t_end
    for name, a in _fields(full).items():
        assert np.array_equal(_x1_line(a), _x1_line(_fields(thin)[name])), name


@pytest.mark.parametrize("which", [0, 1], ids=["full", "thin"])
def test_fields_constant_across_the_transverse_axes(runs, which):
    for name, a in _fields(runs[which]).items():
        assert np.array_equal(a, np.broadcast_to(_x1_line(a), a.shape)), name


@pytest.mark.parametrize("which", [0, 1], ids=["full", "thin"])
def test_transverse_components_stay_zero(runs, which):
    s = runs[which]
    assert np.any(s.u.components[0] != 0.0)
    assert np.all(s.u.components[1:] == 0.0)
    assert np.all(s.v.components[1:] == 0.0)
