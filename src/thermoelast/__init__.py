"""Pseudo-spectral simulation and verification of coupled wave-heat dynamics
on periodic boxes, with the structural invariants of the continuous system
(energy balance, entropy growth, dissipation ledger, sector decoupling)
checked numerically rather than assumed.
"""

from .config import ConfigError, RunConfig, load_config, parse_config, serialize_config
from .diagnostics import (
    DiagnosticsRecord,
    RECORD_FIELDS,
    TrajectoryRecorder,
    decomposition_report,
    dissipation_residual,
    entropy,
    entropy_production,
    fisher_functional,
    fisher_identity_residual,
    galerkin_initial_smallness,
    theta_infinity_prediction,
    total_energy,
)
from .dynamics import (
    ModelParams,
    NonFinite,
    PositivityLoss,
    SimState,
    StepTooLarge,
    StepperConfig,
    run,
)
from .experiments import EXPERIMENT_NAMES, ExperimentReport, run_experiment
from .grid import ScalarField, TorusGrid, VectorField, field_norms, quadrature
from .operators import (
    HelmholtzParts,
    curl,
    curl_curl,
    divergence,
    gradient,
    helmholtz_project,
    hessian,
    lame_apply,
    laplacian,
)
from .oracle import (
    GalerkinSystem,
    OracleComparison,
    OracleTrajectory,
    build_galerkin,
    compare_oracle,
    integrate_galerkin,
    spectral_states_at,
)
from .scenarios import SCENARIO_NAMES, ScenarioSpec, make_initial_data
from .snapshots import (
    SnapshotError,
    read_header,
    read_snapshot,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config",
    "serialize_config",
    "DiagnosticsRecord",
    "RECORD_FIELDS",
    "TrajectoryRecorder",
    "decomposition_report",
    "dissipation_residual",
    "entropy",
    "entropy_production",
    "fisher_functional",
    "fisher_identity_residual",
    "galerkin_initial_smallness",
    "theta_infinity_prediction",
    "total_energy",
    "ModelParams",
    "NonFinite",
    "PositivityLoss",
    "SimState",
    "StepTooLarge",
    "StepperConfig",
    "run",
    "EXPERIMENT_NAMES",
    "ExperimentReport",
    "run_experiment",
    "ScalarField",
    "TorusGrid",
    "VectorField",
    "field_norms",
    "quadrature",
    "HelmholtzParts",
    "helmholtz_project",
    "curl",
    "curl_curl",
    "divergence",
    "gradient",
    "hessian",
    "lame_apply",
    "laplacian",
    "GalerkinSystem",
    "OracleComparison",
    "OracleTrajectory",
    "build_galerkin",
    "compare_oracle",
    "integrate_galerkin",
    "spectral_states_at",
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "make_initial_data",
    "SnapshotError",
    "read_header",
    "read_snapshot",
    "read_timeseries",
    "write_snapshot",
    "write_timeseries",
]
