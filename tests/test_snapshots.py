"""Field snapshot and time-series files: bit-exact round trips and strict
error reporting on malformed input."""

import math
import os
import re

import numpy as np
import pytest

from thermoelast import (
    DiagnosticsRecord,
    RECORD_FIELDS,
    ScalarField,
    SimState,
    SnapshotError,
    TorusGrid,
    VectorField,
    read_header,
    read_snapshot,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)
from thermoelast.snapshots import MAGIC, atomic_write_bytes, read_state, write_state, write_table


@pytest.fixture
def grid8():
    return TorusGrid((8, 8))


def _awkward_values(shape, rng):
    vals = rng.standard_normal(shape)
    flat = vals.reshape(-1)
    flat[0] = math.nan
    flat[1] = -0.0
    flat[2] = 5e-324  # smallest subnormal
    flat[3] = 1.7e308
    flat[4] = -1.2345678901234567e-10
    return vals


class TestFieldRoundTrip:
    def test_scalar_bit_exact(self, grid8, rng, tmp_path):
        f = ScalarField(grid8, _awkward_values(grid8.shape, rng))
        path = str(tmp_path / "f.tefld")
        write_snapshot(f, path, t=0.125)
        g = read_snapshot(path)
        assert isinstance(g, ScalarField)
        assert g.grid == grid8
        assert g.values.tobytes() == f.values.tobytes()

    def test_vector_bit_exact(self, grid8, rng, tmp_path):
        f = VectorField(grid8, _awkward_values((2,) + grid8.shape, rng))
        path = str(tmp_path / "v.tefld")
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert isinstance(g, VectorField)
        assert g.components.tobytes() == f.components.tobytes()

    def test_rewrite_is_byte_stable(self, grid8, rng, tmp_path):
        f = ScalarField(grid8, _awkward_values(grid8.shape, rng))
        p1, p2 = str(tmp_path / "a.tefld"), str(tmp_path / "b.tefld")
        write_snapshot(f, p1, t=1.0 / 3.0)
        write_snapshot(read_snapshot(p1), p2, t=read_header(p1).t)
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_3d_vector(self, rng, tmp_path):
        grid = TorusGrid((4, 6, 8), (1.0, 2.0, 3.0))
        f = VectorField(grid, rng.standard_normal((3,) + grid.shape))
        path = str(tmp_path / "v3.tefld")
        write_snapshot(f, path, t=2.5)
        g = read_snapshot(path, grid=grid)
        assert np.array_equal(g.components, f.components)

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError, match="expected ScalarField or VectorField"):
            write_snapshot(np.zeros((8, 8)), str(tmp_path / "x.tefld"))


class TestHeader:
    def test_exact_bytes(self, grid8, tmp_path):
        f = ScalarField(grid8, np.zeros(grid8.shape))
        path = str(tmp_path / "f.tefld")
        write_snapshot(f, path, t=0.5)
        with open(path, "rb") as fh:
            line = fh.readline()
            payload = fh.read()
        assert line == (
            b"TEFLD1 d=2 n=8,8 len=6.2831853071795862,6.2831853071795862 "
            b"t=0.5 kind=scalar comps=1\n"
        )
        assert len(payload) == 8 * 8 * 8

    def test_fields_round_trip(self, tmp_path):
        grid = TorusGrid((4, 6, 8), (1.0, 0.1, 3.5))
        f = VectorField(grid, np.zeros((3,) + grid.shape))
        path = str(tmp_path / "v.tefld")
        write_snapshot(f, path, t=0.1)
        h = read_header(path)
        assert (h.d, h.n, h.kind, h.comps) == (3, (4, 6, 8), "vector", 3)
        assert h.lengths == (1.0, 0.1, 3.5)
        assert h.t == 0.1
        assert h.grid() == grid


def _write_raw(tmp_path, name, data: bytes) -> str:
    path = str(tmp_path / name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = _write_raw(tmp_path, "x", b"HELLO d=2\n" + b"\0" * 16)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_header(path)

    def test_unterminated_header(self, tmp_path):
        path = _write_raw(tmp_path, "x", MAGIC + b" d=2 n=8,8")
        with pytest.raises(SnapshotError, match="unterminated header"):
            read_header(path)

    def test_missing_tokens(self, tmp_path):
        path = _write_raw(tmp_path, "x", MAGIC + b" d=2 n=8,8\n")
        with pytest.raises(SnapshotError, match="malformed header"):
            read_header(path)

    def test_unparseable_value(self, tmp_path):
        path = _write_raw(
            tmp_path, "x", MAGIC + b" d=two n=8,8 len=1,1 t=0 kind=scalar comps=1\n"
        )
        with pytest.raises(SnapshotError, match="bad header value"):
            read_header(path)

    def test_unknown_kind(self, tmp_path):
        path = _write_raw(
            tmp_path, "x", MAGIC + b" d=2 n=8,8 len=1,1 t=0 kind=matrix comps=1\n"
        )
        with pytest.raises(SnapshotError, match="kind must be scalar or vector"):
            read_header(path)

    def test_dimension_mismatch(self, tmp_path):
        path = _write_raw(
            tmp_path, "x", MAGIC + b" d=3 n=8,8 len=1,1 t=0 kind=scalar comps=1\n"
        )
        with pytest.raises(SnapshotError, match="lists 2 sizes"):
            read_header(path)

    def test_comps_inconsistent(self, tmp_path):
        path = _write_raw(
            tmp_path, "x", MAGIC + b" d=2 n=8,8 len=1,1 t=0 kind=scalar comps=2\n"
        )
        with pytest.raises(SnapshotError, match="cannot have comps=2"):
            read_header(path)

    def test_invalid_grid_in_header(self, tmp_path):
        path = _write_raw(
            tmp_path, "x",
            MAGIC + b" d=2 n=7,7 len=1,1 t=0 kind=scalar comps=1\n" + b"\0" * (49 * 8),
        )
        with pytest.raises(SnapshotError, match="invalid grid"):
            read_snapshot(path)

    def test_truncated_payload(self, grid8, tmp_path):
        f = ScalarField(grid8, np.zeros(grid8.shape))
        path = str(tmp_path / "f.tefld")
        write_snapshot(f, path)
        with open(path, "rb") as fh:
            data = fh.read()
        path2 = _write_raw(tmp_path, "cut", data[:-8])
        with pytest.raises(SnapshotError, match="payload holds 504 bytes, expected 512"):
            read_snapshot(path2)

    def test_grid_context_mismatch(self, grid8, tmp_path):
        f = ScalarField(grid8, np.zeros(grid8.shape))
        path = str(tmp_path / "f.tefld")
        write_snapshot(f, path)
        with pytest.raises(SnapshotError, match="does not match context"):
            read_snapshot(path, grid=TorusGrid((16, 16)))


def _record(i: float) -> DiagnosticsRecord:
    vals = {name: i + 0.01 * j for j, name in enumerate(RECORD_FIELDS)}
    vals["fisher_identity_residual"] = math.nan
    if i == 2.0:
        vals["dissipation_residual"] = math.inf
    return DiagnosticsRecord(**vals)


class TestTimeseries:
    def test_round_trip_with_nan_and_inf(self, tmp_path):
        recs = [_record(float(i)) for i in range(4)]
        path = str(tmp_path / "ts.csv")
        write_timeseries(recs, path)
        back = read_timeseries(path)
        assert len(back) == 4
        for a, b in zip(recs, back):
            for name in RECORD_FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                assert (x == y) or (math.isnan(x) and math.isnan(y))
        # a second write of what was read is byte-identical
        path2 = str(tmp_path / "ts2.csv")
        write_timeseries(back, path2)
        with open(path, "rb") as fa, open(path2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_header_only_when_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_timeseries([], path)
        with open(path, "r", encoding="ascii") as fh:
            assert fh.read() == ",".join(RECORD_FIELDS) + "\n"
        assert read_timeseries(path) == []

    def test_unexpected_header(self, tmp_path):
        path = _write_raw(tmp_path, "bad.csv", b"a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_timeseries(path)

    def test_short_row(self, tmp_path):
        text = ",".join(RECORD_FIELDS) + "\n1,2,3\n"
        path = _write_raw(tmp_path, "short.csv", text.encode("ascii"))
        with pytest.raises(ValueError, match="row 2 has 3 fields"):
            read_timeseries(path)

    def test_non_numeric_cell(self, tmp_path):
        row = ["1"] * len(RECORD_FIELDS)
        row[2] = "abc"
        lines = [",".join(RECORD_FIELDS), ",".join(["0"] * len(RECORD_FIELDS)), ",".join(row)]
        text = "\n".join(lines) + "\n"
        path = _write_raw(tmp_path, "nan.csv", text.encode("ascii"))
        want = f"row 3, column {RECORD_FIELDS[2]}: not a number: 'abc'"
        with pytest.raises(ValueError, match=re.escape(want)) as info:
            read_timeseries(path)
        assert str(info.value).startswith(path)

    def test_empty_file(self, tmp_path):
        path = _write_raw(tmp_path, "zero.csv", b"")
        with pytest.raises(ValueError, match="empty time series"):
            read_timeseries(path)


def _state(grid: TorusGrid, rng, t: float) -> SimState:
    u, v = (VectorField(grid, _awkward_values((grid.d,) + grid.shape, rng)) for _ in range(2))
    return SimState(t, u, v, ScalarField(grid, _awkward_values(grid.shape, rng)))


def _same_bits(a: SimState, b: SimState) -> bool:
    return a.t == b.t and all(
        x.tobytes() == y.tobytes()
        for x, y in ((a.u.components, b.u.components), (a.v.components, b.v.components),
                     (a.theta.values, b.theta.values))
    )


class TestState:
    def test_round_trip_bit_exact(self, grid8, rng, tmp_path):
        s = _state(grid8, rng, t=0.30000000000000004)
        paths = write_state(s, str(tmp_path / "run"))
        assert paths == [str(tmp_path / "run" / f"final_{k}.tefld") for k in ("u", "v", "theta")]
        assert all(read_header(p).t == s.t for p in paths)
        assert _same_bits(read_state(str(tmp_path / "run")), s)

    def test_bare_layout_accepted(self, grid8, rng, tmp_path):
        s = _state(grid8, rng, t=1.25)
        for name, f in (("u", s.u), ("v", s.v), ("theta", s.theta)):
            write_snapshot(f, str(tmp_path / f"{name}.tefld"), t=s.t)
        assert _same_bits(read_state(str(tmp_path)), s)

    def test_final_layout_wins_over_bare(self, grid8, rng, tmp_path):
        final, bare = _state(grid8, rng, t=1.0), _state(grid8, rng, t=2.0)
        write_state(final, str(tmp_path))
        for name, f in (("u", bare.u), ("v", bare.v), ("theta", bare.theta)):
            write_snapshot(f, str(tmp_path / f"{name}.tefld"), t=bare.t)
        assert _same_bits(read_state(str(tmp_path)), final)

    def test_incomplete_triple(self, grid8, rng, tmp_path):
        paths = write_state(_state(grid8, rng, t=0.0), str(tmp_path))
        os.unlink(paths[1])
        with pytest.raises(SnapshotError, match="no u/v/theta snapshot triple"):
            read_state(str(tmp_path))

    def test_wrong_field_kinds(self, grid8, rng, tmp_path):
        s = _state(grid8, rng, t=0.0)
        write_state(s, str(tmp_path))
        write_snapshot(s.u, str(tmp_path / "final_theta.tefld"))
        with pytest.raises(SnapshotError, match="triple has wrong field kinds"):
            read_state(str(tmp_path))

    def test_grids_must_match(self, grid8, rng, tmp_path):
        s = _state(grid8, rng, t=0.0)
        write_state(s, str(tmp_path))
        other = TorusGrid((8, 10))
        write_snapshot(ScalarField(other, np.ones(other.shape)), str(tmp_path / "final_theta.tefld"))
        with pytest.raises(SnapshotError, match="does not match context") as info:
            read_state(str(tmp_path))
        assert str(info.value).startswith(str(tmp_path / "final_theta.tefld"))


class TestTable:
    def test_header_and_rows_read_back_exactly(self, tmp_path):
        rows = [(0.1, 1.0 / 3.0, -math.pi), (2.0**-1074, math.nan, math.inf), (1e300, -0.0, 5e-324)]
        path = str(tmp_path / "t.csv")
        write_table(path, ("a", "b", "c"), rows)
        text = (tmp_path / "t.csv").read_bytes().decode("ascii")
        assert text.endswith("\n") and "\r" not in text
        header, *body = text[:-1].split("\n")
        assert header == "a,b,c"
        back = [tuple(float(x) for x in line.split(",")) for line in body]
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(got, want))
            assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, y) for y in want]

    def test_timeseries_is_the_record_table(self, tmp_path):
        recs = [_record(float(i)) for i in range(3)]
        write_timeseries(recs, str(tmp_path / "ts.csv"))
        write_table(str(tmp_path / "t.csv"), RECORD_FIELDS,
                    [[getattr(r, name) for name in RECORD_FIELDS] for r in recs])
        assert (tmp_path / "ts.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()


class TestAtomicity:
    def test_no_temp_files_left(self, grid8, tmp_path):
        f = ScalarField(grid8, np.zeros(grid8.shape))
        for i in range(5):
            write_snapshot(f, str(tmp_path / f"f{i}.tefld"))
        write_timeseries([], str(tmp_path / "ts.csv"))
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []

    def test_creates_missing_directories(self, grid8, tmp_path):
        nested = tmp_path / "a" / "b" / "c.tefld"
        write_snapshot(ScalarField(grid8, np.ones(grid8.shape)), str(nested))
        assert nested.exists()

    def test_overwrite_replaces_whole_file(self, grid8, tmp_path):
        path = str(tmp_path / "f.tefld")
        atomic_write_bytes(path, b"garbage that is longer than the real file" * 100)
        f = ScalarField(grid8, np.zeros(grid8.shape))
        write_snapshot(f, path)
        assert read_snapshot(path).values.tobytes() == f.values.tobytes()
