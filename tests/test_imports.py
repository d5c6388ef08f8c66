"""Every name a package module imports is referenced in that module, and
importing the package loads no SciPy beyond `scipy.fft`.

The package's `__init__.py` imports names only to re-export them, so it is
left out; elsewhere a name listed in `__all__` counts as referenced.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermoelast

MODULES = sorted(
    p for p in Path(thermoelast.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_sees_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


# Runs in a fresh interpreter: the test process has imported everything already.
LAZY_PROBE = """
import contextlib, io, json, sys
import numpy, scipy.fft
before = {m for m in sys.modules if m.startswith("scipy")}
import thermoelast
from thermoelast.cli import main
from thermoelast.oracle import build_galerkin, integrate_galerkin
loaded = sorted({m for m in sys.modules if m.startswith("scipy")} - before)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["run", sys.argv[1]])
after_run = "scipy.integrate" in sys.modules
s = thermoelast.make_initial_data(thermoelast.ScenarioSpec("band-limited", n=16, epsilon=0.1))
integrate_galerkin(build_galerkin(s, thermoelast.ModelParams(mu=1.0), n=2), 0.01)
print(json.dumps({"loaded": loaded, "code": code, "after_run": after_run,
                  "after_oracle": "scipy.integrate" in sys.modules}))
"""


@pytest.fixture(scope="module")
def lazy_probe(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")
    cfg = tmp / "run.cfg"
    cfg.write_text(f"scenario = small-mixed\ndt = 0.01\nt_end = 0.02\nout_dir = {tmp / 'out'}\n")
    src = str(Path(thermoelast.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, str(cfg)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyIntegrator:
    def test_import_loads_no_scipy_beyond_fft(self, lazy_probe):
        assert lazy_probe["loaded"] == []

    def test_run_leaves_integrator_unloaded(self, lazy_probe):
        assert lazy_probe["code"] == 0
        assert not lazy_probe["after_run"]

    def test_oracle_integration_loads_it(self, lazy_probe):
        assert lazy_probe["after_oracle"]
