"""Bit-exact serialization of fields and diagnostics time series.

Snapshot format (single file, magic "TEFLD1"):

    TEFLD1 d=<d> n=<n1,..> len=<l1,..> t=<t> kind=<scalar|vector> comps=<c>\n
    <payload>

The header is one ASCII line; floats are printed with 17 significant digits
so they re-read exactly.  The payload is comps * prod(n) little-endian
float64 values, row-major within a component, components stored whole one
after another.  read(write(f)) reproduces f bit for bit.

A run's state is the snapshot triple final_{u,v,theta}.tefld in one
directory, each stamped with the state's time; `read_state` also accepts the
bare names {u,v,theta}.tefld.

Tables go to CSV (`write_table`): a header row, one row per item, every value
at 17 significant digits, LF line endings; a time series has one column per
diagnostics field.

All writes go through a temp file in the target directory followed by an
atomic rename, so readers never observe partial files.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import RECORD_FIELDS, DiagnosticsRecord
from .dynamics import SimState
from .grid import ScalarField, TorusGrid, VectorField

__all__ = [
    "SnapshotError",
    "SnapshotHeader",
    "write_snapshot",
    "read_snapshot",
    "read_header",
    "write_state",
    "read_state",
    "write_table",
    "write_timeseries",
    "read_timeseries",
    "atomic_write_bytes",
    "atomic_write_text",
]

MAGIC = b"TEFLD1"


class SnapshotError(ValueError):
    """Malformed snapshot file or grid mismatch."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via temp-file-then-rename in the destination directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _g17(x: float) -> str:
    return "%.17g" % float(x)


@dataclass(frozen=True)
class SnapshotHeader:
    d: int
    n: tuple[int, ...]
    lengths: tuple[float, ...]
    t: float
    kind: str
    comps: int

    def grid(self) -> TorusGrid:
        return TorusGrid(self.n, self.lengths)


def _header_line(grid: TorusGrid, t: float, kind: str, comps: int) -> bytes:
    fields = (
        f"d={grid.d}",
        "n=" + ",".join(str(m) for m in grid.n_per_axis),
        "len=" + ",".join(_g17(l) for l in grid.length_per_axis),
        f"t={_g17(t)}",
        f"kind={kind}",
        f"comps={comps}",
    )
    return MAGIC + b" " + " ".join(fields).encode("ascii") + b"\n"


def write_snapshot(field: ScalarField | VectorField, path: str, t: float = 0.0) -> None:
    """Serialize one field; the time stamp rides in the header."""
    if isinstance(field, ScalarField):
        kind, comps = "scalar", 1
        payload = np.ascontiguousarray(field.values, dtype="<f8")
    elif isinstance(field, VectorField):
        kind, comps = "vector", field.grid.d
        payload = np.ascontiguousarray(field.components, dtype="<f8")
    else:
        raise TypeError(f"expected ScalarField or VectorField, got {type(field).__name__}")
    atomic_write_bytes(path, _header_line(field.grid, t, kind, comps) + payload.tobytes())


def _parse_header(line: bytes, path: str) -> SnapshotHeader:
    try:
        tokens = line.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"{path}: header is not ASCII") from exc
    keys = ("d", "n", "len", "t", "kind", "comps")
    if len(tokens) != len(keys) or any(not tok.startswith(k + "=") for tok, k in zip(tokens, keys)):
        raise SnapshotError(f"{path}: malformed header {line!r}")
    vals = dict(tok.split("=", 1) for tok in tokens)
    try:
        d = int(vals["d"])
        n = tuple(int(s) for s in vals["n"].split(","))
        lengths = tuple(float(s) for s in vals["len"].split(","))
        t = float(vals["t"])
        comps = int(vals["comps"])
    except ValueError as exc:
        raise SnapshotError(f"{path}: bad header value ({exc})") from exc
    kind = vals["kind"]
    if kind not in ("scalar", "vector"):
        raise SnapshotError(f"{path}: kind must be scalar or vector, got {kind!r}")
    if len(n) != d or len(lengths) != d:
        raise SnapshotError(f"{path}: header says d={d} but lists {len(n)} sizes, {len(lengths)} lengths")
    if comps != (1 if kind == "scalar" else d):
        raise SnapshotError(f"{path}: {kind} field cannot have comps={comps} in dimension {d}")
    return SnapshotHeader(d=d, n=n, lengths=lengths, t=t, kind=kind, comps=comps)


def _read_header(fh, path: str) -> SnapshotHeader:
    """Read and parse the header line, leaving fh at the payload."""
    head = fh.readline(4096)
    if not head.startswith(MAGIC + b" "):
        raise SnapshotError(f"{path}: not a TEFLD1 snapshot (bad magic)")
    if not head.endswith(b"\n"):
        raise SnapshotError(f"{path}: unterminated header")
    return _parse_header(head[len(MAGIC) + 1 : -1], path)


def read_header(path: str) -> SnapshotHeader:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_snapshot(path: str, grid: TorusGrid | None = None) -> ScalarField | VectorField:
    """Read a field back; pass grid to insist it matches the current context."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = fh.read()
    try:
        target = header.grid()
    except ValueError as exc:
        raise SnapshotError(f"{path}: header describes an invalid grid ({exc})") from exc
    if grid is not None and grid != target:
        raise SnapshotError(
            f"{path}: snapshot grid n={header.n} len={header.lengths} "
            f"does not match context n={grid.n_per_axis} len={grid.length_per_axis}"
        )
    expected = header.comps * target.n_total * 8
    if len(payload) != expected:
        raise SnapshotError(f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=True)
    if header.kind == "scalar":
        return ScalarField(target, flat.reshape(target.shape))
    return VectorField(target, flat.reshape((header.comps,) + target.shape))


_STATE_LAYOUTS = ("final_{}.tefld", "{}.tefld")


def write_state(s: SimState, directory: str) -> list[str]:
    """Write the final_{u,v,theta}.tefld triple stamped with s.t; returns the paths."""
    paths = []
    for name, f in (("u", s.u), ("v", s.v), ("theta", s.theta)):
        paths.append(os.path.join(directory, _STATE_LAYOUTS[0].format(name)))
        write_snapshot(f, paths[-1], t=s.t)
    return paths


def read_state(directory: str) -> SimState:
    """The u/v/theta triple under directory, at the time stamped on u."""
    for layout in _STATE_LAYOUTS:
        paths = [os.path.join(directory, layout.format(k)) for k in ("u", "v", "theta")]
        if all(os.path.exists(p) for p in paths):
            break
    else:
        raise SnapshotError(f"{directory}: no u/v/theta snapshot triple "
                            "(expected final_u.tefld, final_v.tefld, final_theta.tefld)")
    u = read_snapshot(paths[0])
    v, theta = (read_snapshot(p, grid=u.grid) for p in paths[1:])
    if not isinstance(u, VectorField) or not isinstance(v, VectorField) \
            or not isinstance(theta, ScalarField):
        raise SnapshotError(f"{directory}: triple has wrong field kinds")
    return SimState(read_header(paths[0]).t, u, v, theta)


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """CSV: the header row, then each row's values at 17 significant digits."""
    lines = [",".join(header)] + [",".join(_g17(x) for x in row) for row in rows]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_timeseries(records: list[DiagnosticsRecord], path: str) -> None:
    """CSV with the full diagnostics schema; header-only when records is empty."""
    write_table(path, RECORD_FIELDS, ([getattr(r, name) for name in RECORD_FIELDS] for r in records))


def read_timeseries(path: str) -> list[DiagnosticsRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty time series file")
    header = lines[0].split(",")
    if header != list(RECORD_FIELDS):
        raise ValueError(f"{path}: unexpected header {header!r}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(RECORD_FIELDS):
            raise ValueError(f"{path}: row {i} has {len(parts)} fields, expected {len(RECORD_FIELDS)}")
        values = []
        for name, p in zip(RECORD_FIELDS, parts):
            try:
                values.append(float(p))
            except ValueError:
                raise ValueError(f"{path}: row {i}, column {name}: not a number: {p!r}") from None
        records.append(DiagnosticsRecord(*values))
    return records
