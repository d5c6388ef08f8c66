"""Run configuration: a flat, line-oriented `key = value` format.

Lines are `key = value`, `#` starts a comment (whole-line or trailing), and
blank lines are skipped.  Every key has a default, unknown and duplicate keys
are hard errors, and every parse failure reports the offending line number.
`serialize_config` emits a canonical text that parses back to an equal
config, byte-identical for identical inputs.

Keys and defaults:

    scenario               = small-mixed     initial-data family
    d                      = 2               spatial dimension (2 or 3)
    n                      = 0               grid points per axis (0 = auto)
    length                 = 2*pi            box edge length
    epsilon                = 0               amplitude (0 = scenario default)
    theta_baseline         = 1               background temperature
    seed                   = 0               RNG seed for randomized scenarios
    mu                     = 1               coupling strength (> 0)
    operator               = auto            auto | laplacian | lame
    zeta                   = 1               elastic shear coefficient (> 0)
    lame_lambda            = 0.5             elastic second coefficient
    dt                     = 0.001           time step (> 0)
    t_end                  = 1               final time (multiple of dt)
    dealias                = true            2/3-rule products
    positivity_floor       = 1e-10           abort threshold for min(theta)
    record_every           = 1               diagnostics cadence in steps
    product_band           = 0               0: 2/3-rule products; B > 0:
                                             exact Galerkin truncation to the
                                             mode cube |k|_inf <= B
    out_dir                = out             artifact directory

A key's type is the type of its default: integer, number, `true`/`false`,
or text.  A number must be finite: `nan`, `inf` and `-inf` are rejected on
their line.  `convert_value` does that conversion and `build_config` turns
the typed values into a `RunConfig`; the named experiments use both, so
their `--set` overrides follow the same rules.

`operator = auto` resolves against the scenario name: `lame-*` scenarios get
the elastic operator, everything else the Laplacian.

Value constraints live with the objects the keys build (`ScenarioSpec`,
`ModelParams`, `StepperConfig`); their errors are reported on the line of
the first key the message names that the text sets; `seed >= 0` and
`zeta > 0` (under either operator) among them.  Only what those objects
cannot see is checked here: `operator = auto` and `out_dir`.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields

from .dynamics import ModelParams, StepperConfig, OPERATOR_KINDS
from .scenarios import ScenarioSpec, scenario_default_operator

__all__ = ["ConfigError", "RunConfig", "build_config", "convert_value", "load_config",
           "parse_config", "serialize_config"]


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description: what to simulate, how, and where."""

    scenario: ScenarioSpec
    params: ModelParams
    stepper: StepperConfig
    out_dir: str = "out"


_DEFAULTS: dict[str, object] = {
    "scenario": "small-mixed",
    "d": 2,
    "n": 0,
    "length": 6.283185307179586,
    "epsilon": 0.0,
    "theta_baseline": 1.0,
    "seed": 0,
    "mu": 1.0,
    "operator": "auto",
    "zeta": 1.0,
    "lame_lambda": 0.5,
    "dt": 1e-3,
    "t_end": 1.0,
    "dealias": True,
    "positivity_floor": 1e-10,
    "record_every": 1,
    "product_band": 0,
    "out_dir": "out",
}


def convert_value(key: str, raw: str, default: object, line: int | None = None) -> object:
    """raw as the type of default: an integer, a number, true/false or text."""
    if isinstance(default, bool):
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(f"{key} expects true or false, got {raw!r}", line)
    try:
        value = type(default)(raw)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{key} expects {kind}, got {raw!r}", line) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} expects a finite number, got {raw!r}", line)
    return value


def _scan(text: str) -> tuple[dict[str, object], dict[str, int]]:
    """Parse text into {key: typed value} plus the line each key came from."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        body = raw_line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected `key = value`, got {raw_line.strip()!r}", lineno)
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (first set on line {lines[key]})", lineno)
        values[key] = convert_value(key, raw, _DEFAULTS[key], lineno)
        lines[key] = lineno
    return values, lines


def _require(cond: bool, message: str, key: str, lines: dict[str, int]) -> None:
    if not cond:
        raise ConfigError(message, lines.get(key))


def _named_line(message: str, lines: dict[str, int]) -> int | None:
    """Line of the first key named in message that the text sets."""
    for word in re.findall(r"[a-z_]+", message):
        if word in lines:
            return lines[word]
    return None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; see the module docstring for the grammar."""
    return build_config(*_scan(text))


def _fields_of(cls, cfg: dict[str, object]) -> dict[str, object]:
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


def build_config(values: dict[str, object], lines: dict[str, int] | None = None) -> RunConfig:
    """Typed values for some keys, the rest defaulted, as a checked RunConfig.

    Entries that are not config keys are ignored, so an experiment can pass
    its whole option table.  lines maps keys to the text lines they came
    from, for error reports.
    """
    lines = lines or {}
    cfg = {**_DEFAULTS, **values}
    _require(cfg["operator"] in ("auto",) + OPERATOR_KINDS,
             f"operator must be auto, laplacian, or lame, got {cfg['operator']!r}", "operator", lines)
    _require(bool(cfg["out_dir"]), "out_dir must be non-empty", "out_dir", lines)
    if cfg["operator"] == "auto":
        cfg["operator"] = scenario_default_operator(cfg["scenario"])
    try:
        scenario = ScenarioSpec(name=cfg["scenario"], **_fields_of(ScenarioSpec, cfg))
        params = ModelParams(**_fields_of(ModelParams, cfg))
        params.validate_for_dimension(scenario.d)
        stepper = StepperConfig(**_fields_of(StepperConfig, cfg))
    except ValueError as exc:
        raise ConfigError(str(exc), _named_line(str(exc), lines)) from exc
    return RunConfig(scenario=scenario, params=params, stepper=stepper, out_dir=cfg["out_dir"])


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) equals c."""
    flat = {**asdict(cfg.scenario), **asdict(cfg.params), **asdict(cfg.stepper),
            "scenario": cfg.scenario.name, "out_dir": cfg.out_dir}
    return "".join(f"{key} = {_fmt(flat[key])}\n" for key in _DEFAULTS)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
