"""Pseudo-spectral simulation and verification of coupled wave-heat dynamics
on periodic boxes, with the structural invariants of the continuous system
(energy balance, entropy growth, dissipation ledger, sector decoupling)
checked numerically rather than assumed.

Importing the package loads none of its modules.  `_EXPORTS` maps each
module to the public names it exports here.  The first read of a name, as
`thermoelast.run` or through `from thermoelast import run`, imports that
name's module, binds the name in this namespace and returns it; later reads
are plain attribute reads.  A module name such as `thermoelast.oracle` also
resolves on first read.  So a process pays only for the modules it uses:
a `run` loads `grid`, `operators` and `dynamics`, and never the oracle.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ConfigError", "RunConfig", "load_config", "parse_config", "serialize_config"),
    "diagnostics": ("DiagnosticsRecord", "RECORD_FIELDS", "TrajectoryRecorder",
                    "decomposition_report", "dissipation_residual", "entropy",
                    "entropy_production", "fisher_functional", "fisher_identity_residual",
                    "galerkin_initial_smallness", "theta_infinity_prediction", "total_energy"),
    "dynamics": ("ModelParams", "NonFinite", "PositivityLoss", "SimState", "StepTooLarge",
                 "StepperConfig", "run"),
    "experiments": ("EXPERIMENT_NAMES", "ExperimentReport", "run_experiment"),
    "grid": ("ScalarField", "TorusGrid", "VectorField", "field_norms", "quadrature"),
    "operators": ("HelmholtzParts", "curl", "curl_curl", "divergence", "gradient",
                  "helmholtz_project", "hessian", "lame_apply", "laplacian"),
    "oracle": ("GalerkinSystem", "OracleComparison", "OracleTrajectory", "build_galerkin",
               "compare_oracle", "integrate_galerkin", "spectral_states_at"),
    "scenarios": ("SCENARIO_NAMES", "ScenarioSpec", "make_initial_data"),
    "snapshots": ("SnapshotError", "read_header", "read_snapshot", "read_timeseries",
                  "write_snapshot", "write_timeseries"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
