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
from thermoelast import snapshots
from thermoelast.snapshots import MAGIC, atomic_write_bytes, read_state, write_state, write_table

from conftest import LEDGER_NAN_COLUMNS


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_stamp_refused(self, grid8, tmp_path, t):
        with pytest.raises(ValueError, match=f"time stamp must be finite, got t={t}"):
            write_snapshot(ScalarField(grid8, np.zeros(grid8.shape)), str(tmp_path / "f.tefld"), t=t)
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_time_stamp(self, tmp_path, stamp):
        path = _write_raw(
            tmp_path, "x",
            MAGIC + f" d=2 n=8,8 len=1,1 t={stamp} kind=scalar comps=1\n".encode() + b"\0" * 512,
        )
        for read in (read_header, read_snapshot):
            with pytest.raises(SnapshotError) as info:
                read(path)
            assert str(info.value) == f"{path}: time stamp must be finite, got {stamp}"

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
    if i == 1.0:  # a ledger record
        vals.update(dict.fromkeys(LEDGER_NAN_COLUMNS, math.nan))
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
            assert fh.read() == ("t,energy,entropy,entropy_production,production_integral,"
                                 "dissipation_residual,fisher_functional,theta_min,theta_max,"
                                 "chi_h1,chi_t_l2,nu_energy,theta_l2_dist\n")
        assert read_timeseries(path) == []

    def test_unexpected_header(self, tmp_path):
        path = _write_raw(tmp_path, "bad.csv", b"a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_timeseries(path)

    def test_identity_residual_column_refused(self, tmp_path):
        # the 14-column layout of files written while records held the identity residual
        header = ("t,energy,entropy,entropy_production,production_integral,dissipation_residual,"
                  "fisher_functional,fisher_identity_residual,theta_min,theta_max,"
                  "chi_h1,chi_t_l2,nu_energy,theta_l2_dist")
        text = header + "\n" + ",".join(["1"] * 14) + "\n"
        path = _write_raw(tmp_path, "old.csv", text.encode("ascii"))
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


def _write_bare(s: SimState, directory) -> None:
    for name, f in (("u", s.u), ("v", s.v), ("theta", s.theta)):
        write_snapshot(f, str(directory / f"{name}.tefld"), t=s.t)


class TestState:
    def test_round_trip_bit_exact(self, grid8, rng, tmp_path):
        s = _state(grid8, rng, t=0.30000000000000004)
        paths = write_state(s, str(tmp_path / "run"))
        assert paths == [str(tmp_path / "run" / f"final_{k}.tefld") for k in ("u", "v", "theta")]
        assert all(read_header(p).t == s.t for p in paths)
        assert _same_bits(read_state(str(tmp_path / "run")), s)

    def test_each_file_is_opened_once(self, grid8, rng, tmp_path, monkeypatch):
        # the header and the field of a snapshot come from one read
        s = _state(grid8, rng, t=0.5)
        write_state(s, str(tmp_path))
        opened = []

        def counted(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(snapshots, "open", counted, raising=False)
        assert _same_bits(read_state(str(tmp_path)), s)
        assert opened == ["final_u.tefld", "final_v.tefld", "final_theta.tefld"]

    def test_bare_names_refused(self, grid8, rng, tmp_path):
        # write_state names its files final_*; {u,v,theta}.tefld is not a state
        _write_bare(_state(grid8, rng, t=1.25), tmp_path)
        with pytest.raises(SnapshotError) as info:
            read_state(str(tmp_path))
        assert str(info.value) == (f"{tmp_path}: no u/v/theta snapshot triple "
                                   "(expected final_u.tefld, final_v.tefld, final_theta.tefld)")

    def test_incomplete_final_triple_not_filled_from_bare_names(self, grid8, rng, tmp_path):
        # a bare triple from another time must not stand in for a broken final_* one
        write_state(_state(grid8, rng, t=1.0), str(tmp_path))
        _write_bare(_state(grid8, rng, t=2.0), tmp_path)
        os.unlink(tmp_path / "final_theta.tefld")
        with pytest.raises(SnapshotError, match="no u/v/theta snapshot triple"):
            read_state(str(tmp_path))

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

    @pytest.mark.parametrize("other", ["v", "theta"])
    def test_mixed_time_stamps_refused(self, grid8, rng, tmp_path, other):
        # a field from another run on the same grid does not make one state
        s = _state(grid8, rng, t=0.5)
        write_state(s, str(tmp_path))
        path = str(tmp_path / f"final_{other}.tefld")
        write_snapshot(getattr(s, other), path, t=0.75)
        with pytest.raises(SnapshotError) as info:
            read_state(str(tmp_path))
        assert str(info.value) == (f"{path}: time stamp t=0.75 differs from t=0.5 on "
                                   f"{tmp_path / 'final_u.tefld'}")

    @pytest.mark.parametrize("stamp", [b"nan", b"inf"])
    def test_non_finite_stamped_triple_refused(self, grid8, rng, tmp_path, stamp):
        # one stamp on all three files: refused as non-finite, not as differing
        for path in write_state(_state(grid8, rng, t=0.5), str(tmp_path)):
            with open(path, "rb") as fh:
                data = fh.read()
            _write_raw(tmp_path, os.path.basename(path), data.replace(b" t=0.5 ", b" t=" + stamp + b" ", 1))
        with pytest.raises(SnapshotError) as info:
            read_state(str(tmp_path))
        assert str(info.value) == (f"{tmp_path / 'final_u.tefld'}: time stamp must be finite, "
                                   f"got {stamp.decode()}")

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

    @pytest.mark.parametrize("rows, line, width", [
        ([(1.0,), (1.0, 2.0, 3.0)], 2, 1),
        ([(1.0, 2.0), (1.0, 2.0, 3.0)], 3, 3),
    ])
    def test_ragged_row_refused_before_writing(self, rows, line, width, tmp_path):
        path = str(tmp_path / "t.csv")
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: row {line} has {width} fields, expected 2$"):
            write_table(path, ("t", "x"), rows)
        assert os.listdir(tmp_path) == []

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
