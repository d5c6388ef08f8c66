"""Config grammar: defaults, typed conversion, line-attributed errors, and
the serialize/parse round trip."""

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from thermoelast import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
    serialize_config,
)
from thermoelast.config import _DEFAULTS, _fmt, build_config, convert_value, unread_keys
from thermoelast.scenarios import SCENARIO_NAMES

NUMBER_KEYS = tuple(key for key, value in _DEFAULTS.items() if isinstance(value, float))


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.scenario.name == "small-mixed"
        assert cfg.scenario.d == 2
        assert cfg.scenario.n == 0
        assert cfg.params.mu == 1.0
        assert cfg.params.operator == "laplacian"  # auto resolved
        assert cfg.stepper.dt == 1e-3
        assert cfg.stepper.t_end == 1.0
        assert cfg.stepper.dealias is True
        assert cfg.stepper.product_band == 0
        assert cfg.out_dir == "out"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(
            "\n"
            "# full-line comment\n"
            "mu = 2.5   # trailing comment\n"
            "\n"
            "n = 16\n"
        )
        assert cfg.params.mu == 2.5
        assert cfg.scenario.n == 16

    def test_auto_operator_follows_scenario(self):
        assert parse_config("scenario = lame-small-mixed\n").params.operator == "lame"
        assert parse_config("scenario = small-mixed\n").params.operator == "laplacian"

    def test_explicit_operator_wins(self):
        cfg = parse_config("scenario = lame-small-mixed\noperator = laplacian\n")
        assert cfg.params.operator == "laplacian"


class TestScanErrors:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'colour'"):
            parse_config("mu = 1\ncolour = red\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'mu' \(first set on line 1\)"):
            parse_config("mu = 1\nseed = 0\nmu = 2\n")

    @pytest.mark.parametrize("key", ["deterministic_reduction", "clamp_theta"])
    def test_retired_key_is_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"line 1: unknown key '{key}'"):
            parse_config(f"{key} = true\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"line 1: expected `key = value`"):
            parse_config("just some words\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("d = 2.5\n", "d expects an integer"),
            ("mu = banana\n", "mu expects a number"),
            ("dealias = yes\n", "dealias expects true or false"),
        ],
    )
    def test_conversion_errors(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_non_finite_numbers_rejected(self, key, raw):
        with pytest.raises(ConfigError) as err:
            parse_config(f"seed = 0\n{key} = {raw}\n")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: {key} expects a finite number, got {raw!r}"

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_override_rejected(self, raw):
        # the experiments convert --set values with the same function,
        # including keys that are not config keys
        with pytest.raises(ConfigError, match=f"tolerance expects a finite number, got '{raw}'"):
            convert_value("tolerance", raw, 1e-5)

    def test_error_carries_line_attribute(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 0\nmu = -1\n")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: mu must be > 0")


class TestConstraints:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("scenario = vortex\n", "unknown scenario"),
            ("d = 4\n", "d must be 2 or 3"),
            ("n = 5\n", "n must be 0 .auto. or even"),
            ("length = -1\n", "length must be positive"),
            ("epsilon = -0.5\n", "epsilon must be >= 0"),
            ("theta_baseline = 0\n", "theta_baseline must be positive"),
            ("seed = -1\n", "seed must be >= 0"),
            ("mu = 0\n", "mu must be > 0"),
            ("operator = spectral\n", "operator must be auto, laplacian, or lame"),
            ("zeta = 0\n", "zeta must be > 0"),
            ("dt = 0\n", "dt must be > 0"),
            ("t_end = -1\n", "t_end must be >= 0"),
            ("positivity_floor = 0\n", "positivity_floor must be > 0"),
            ("record_every = 0\n", "record_every must be >= 1"),
            ("product_band = -1\n", "product_band must be >= 0"),
            ("product_band = 2\ndealias = false\n", "product_band requires dealias = true"),
            ("out_dir =\n", "out_dir must be non-empty"),
        ],
    )
    def test_rejected_values(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_time_lattice(self):
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_config("dt = 0.3\nt_end = 1.0\n")
        # a clean multiple parses
        assert parse_config("dt = 0.25\nt_end = 1.0\n").stepper.n_steps() == 4

    def test_lame_ellipticity_at_parse_time(self):
        text = "scenario = lame-small-mixed\nzeta = 1\nlame_lambda = -1\n"
        with pytest.raises(ConfigError, match=r"2\*zeta \+ d\*lame_lambda must be > 0"):
            parse_config(text)
        # the bound depends on d: 2 - 2*0.8 > 0 holds, 2 - 3*0.8 > 0 does not
        text = "scenario = lame-small-mixed\nzeta = 1\nlame_lambda = -0.8\n"
        assert parse_config(text).params.lame_lambda == -0.8
        with pytest.raises(ConfigError, match=r"line 2: 2\*zeta \+ d\*lame_lambda must be > 0"):
            parse_config(text + "d = 3\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            # ModelParams: reported on the first named key the text sets
            ("scenario = lame-small-mixed\nseed = 1\nzeta = 1\nlame_lambda = -1\n", 3),
            ("scenario = lame-small-mixed\nlame_lambda = -1\n", 2),
            # StepperConfig: the lattice names t_end before dt
            ("dt = 0.3\nseed = 1\nt_end = 1.0\n", 3),
            ("seed = 1\ndt = 0.3\n", 2),
        ],
    )
    def test_dataclass_errors_carry_line(self, text, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    def test_shear_only_bound(self):
        # 2*zeta + lam can fail while 2*zeta + d*lam passes (lam > 0 mirror is
        # impossible, so drive lam very negative with d=3 ... both fail there;
        # instead check the message for a d=2 case where only the d-form holds)
        text = "scenario = lame-small-mixed\nd = 3\nzeta = 1\nlame_lambda = -0.65\n"
        cfg = parse_config(text)  # 2 - 1.95 > 0 and 2 - 0.65 > 0
        assert cfg.params.operator == "lame"


class TestSerialization:
    def test_default_text_is_pinned(self):
        assert serialize_config(parse_config("")) == (
            "scenario = small-mixed\n"
            "d = 2\n"
            "n = 0\n"
            "length = 6.283185307179586\n"
            "epsilon = 0.0\n"
            "theta_baseline = 1.0\n"
            "mu = 1.0\n"
            "operator = laplacian\n"
            "dt = 0.001\n"
            "t_end = 1.0\n"
            "dealias = true\n"
            "positivity_floor = 1e-10\n"
            "record_every = 1\n"
            "product_band = 0\n"
            "out_dir = out\n"
        )

    def test_round_trip_defaults(self):
        cfg = parse_config("")
        text = serialize_config(cfg)
        assert parse_config(text) == cfg

    def test_canonical_and_stable(self):
        cfg = parse_config("scenario = random\nmu = 2\nseed = 3\n")
        a = serialize_config(cfg)
        b = serialize_config(parse_config(a))
        assert a == b
        assert a.splitlines()[0].startswith("scenario = ")

    def test_floats_round_trip_exactly(self):
        cfg = parse_config("dt = 0.0001\nt_end = 0.0123\nmu = 3.141592653589793\n")
        again = parse_config(serialize_config(cfg))
        assert again.stepper.dt == cfg.stepper.dt
        assert again.stepper.t_end == cfg.stepper.t_end
        assert again.params.mu == cfg.params.mu

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = band-limited\nepsilon = 0.04\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.scenario.name == "band-limited"
        assert cfg.scenario.epsilon == 0.04


# a value other than its default for each key some runs do not read
OFF_DEFAULT = {"seed": 5, "epsilon": 0.25, "zeta": 2.0, "lame_lambda": 0.25}


def _every_key_text(cfg: RunConfig) -> str:
    """cfg with all 18 keys written, as run-config.txt was before the keys a
    run does not read were left out."""
    flat = {**asdict(cfg.scenario), **asdict(cfg.params), **asdict(cfg.stepper),
            "scenario": cfg.scenario.name, "out_dir": cfg.out_dir}
    return "".join(f"{key} = {_fmt(flat[key])}\n" for key in _DEFAULTS)


class TestUnreadKeys:
    @pytest.mark.parametrize("operator", ["auto", "laplacian", "lame"])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_rule(self, scenario, operator):
        # seed is read only by the random families, epsilon by every family
        # but equilibrium, zeta and lame_lambda only by the Lame operator
        family = scenario.removeprefix("lame-")
        lame = operator == "lame" or (operator == "auto" and scenario != family)
        want = ({"seed"} if family != "random" else set()) | (
            {"epsilon"} if family == "equilibrium" else set()) | (
            set() if lame else {"zeta", "lame_lambda"})
        cfg = parse_config(f"scenario = {scenario}\noperator = {operator}\n")
        assert unread_keys(cfg) == want
        for key, value in OFF_DEFAULT.items():
            text = f"scenario = {scenario}\n{key} = {{}}\noperator = {operator}\n"
            if key in want:
                with pytest.raises(ConfigError) as err:
                    parse_config(text.format(value))
                assert str(err.value) == (f"line 2: {key} is not read by scenario {scenario} "
                                          f"under the {cfg.params.operator} operator; leave it out")
                assert parse_config(text.format(_DEFAULTS[key])) == cfg
            else:  # the run reads it
                assert parse_config(text.format(value)) != cfg
        assert parse_config(_every_key_text(cfg)) == cfg

    @pytest.mark.parametrize("text, n_lines", [
        ("", 15), ("scenario = random\n", 16), ("scenario = lame-small-mixed\n", 17),
        ("scenario = equilibrium\n", 14),
    ])
    def test_written_text_holds_only_read_keys(self, text, n_lines):
        cfg = parse_config(text)
        written = serialize_config(cfg)
        assert len(written.splitlines()) == n_lines
        assert {line.split(" = ")[0] for line in written.splitlines()} == set(_DEFAULTS) - unread_keys(cfg)

    def test_library_config_drops_its_dead_values(self):
        # build_config keeps an unread value it is given; the text leaves it out
        cfg = build_config({"seed": 7, "zeta": 2.0})
        assert (cfg.scenario.seed, cfg.params.zeta) == (7, 2.0)
        assert parse_config(serialize_config(cfg)) == build_config({})


def _configs() -> st.SearchStrategy[tuple[str, int]]:
    safe_floats = dict(allow_nan=False, allow_infinity=False)

    @st.composite
    def build(draw):
        product_band = draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
        dt = draw(st.floats(min_value=1e-4, max_value=0.5, **safe_floats))
        steps = draw(st.integers(min_value=0, max_value=50))
        lines = {
            "scenario": draw(st.sampled_from(SCENARIO_NAMES)),
            "d": draw(st.sampled_from([2, 3])),
            "n": draw(st.sampled_from([0, 4, 8, 16, 32])),
            "length": draw(st.floats(min_value=0.1, max_value=100.0, **safe_floats)),
            "epsilon": draw(st.floats(min_value=0.0, max_value=2.0, **safe_floats)),
            "theta_baseline": draw(st.floats(min_value=0.1, max_value=10.0, **safe_floats)),
            "seed": draw(st.integers(min_value=0, max_value=2**31)),
            "mu": draw(st.floats(min_value=1e-3, max_value=10.0, **safe_floats)),
            "operator": draw(st.sampled_from(["auto", "laplacian", "lame"])),
            "zeta": draw(st.floats(min_value=0.1, max_value=5.0, **safe_floats)),
            # nonnegative keeps every elastic constraint satisfied in any d
            "lame_lambda": draw(st.floats(min_value=0.0, max_value=5.0, **safe_floats)),
            "dt": dt,
            "t_end": steps * dt,
            "dealias": True if product_band else draw(st.booleans()),
            "positivity_floor": draw(st.floats(min_value=1e-12, max_value=1e-6, **safe_floats)),
            "record_every": draw(st.integers(min_value=1, max_value=100)),
            "product_band": product_band,
            "out_dir": draw(st.text(alphabet="abcdefghij-_/.0123456789", min_size=1, max_size=12)),
        }
        # only the keys the drawn run reads; the scenario and operator decide which
        unread = unread_keys(parse_config(f"scenario = {lines['scenario']}\n"
                                          f"operator = {lines['operator']}\n"))
        text = "".join(
            f"{k} = {'true' if v is True else 'false' if v is False else repr(v) if isinstance(v, float) else v}\n"
            for k, v in lines.items() if k not in unread
        )
        return text, len(lines) - len(unread)

    return build()


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_round_trip_property(drawn):
    text, n_keys = drawn
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        # the strategy can still produce a t_end/dt pair that misses the
        # lattice after float rounding; those inputs are out of scope here
        assert "is not an integer multiple of dt" in str(exc)
        return
    written = serialize_config(cfg)
    assert parse_config(written) == cfg
    assert len(written.splitlines()) == n_keys
    assert math.isfinite(cfg.stepper.t_end)
