"""Every name a package module imports is referenced in that module, and
importing the package runs no SciPy package code.

A name listed in `__all__` counts as referenced.

`import thermoelast` loads none of the package's modules: each public name
loads its home module on first read.  The grid loads SciPy's pocketfft
binding from its file, so using it leaves `scipy`, `scipy.fft` and
`scipy.special` unloaded; a later `import scipy.fft` binds the same module
object, and the grid transforms give the bytes of `rfftn`/`irfftn` in either
import order.  The oracle integrates with its own Dormand-Prince pair, so a
`run` followed by an oracle integration still leaves the binding the only
SciPy module loaded.  All three are checked in fresh interpreters, because the
test process has imported everything already.
"""

import ast
import importlib.machinery
import json
import os
import sys
from pathlib import Path

import pytest

import thermoelast
from thermoelast.grid import _load_pocketfft, pypocketfft

from conftest import fresh_python

BINDING = "scipy.fft._pocketfft.pypocketfft"
MODULES = sorted(Path(thermoelast.__file__).parent.glob("*.py"))


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
            used.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_sees_modules():
    assert len(MODULES) >= 11
    assert MODULES[0].name == "__init__.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


# argv[1] is "thermoelast-first" or "scipy-first".
BINDING_PROBE = """
import json, os, sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.fft
import thermoelast
from thermoelast.grid import TorusGrid, pypocketfft
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
rng = np.random.default_rng(7)
cases = []
for shape, lead in (((8, 6), ()), ((4, 6, 8), (2,))):
    grid = TorusGrid(shape)
    x = rng.standard_normal(lead + shape)
    xh = grid.to_spectral(x)
    cases.append((grid, x, xh, grid.to_physical(xh)))
import scipy.fft
from scipy.fft._pocketfft import basic, pypocketfft as theirs
same_bytes = all(
    xh.tobytes() == scipy.fft.rfftn(x, axes=grid._transform_axes).tobytes()
    and y.tobytes() == scipy.fft.irfftn(
        xh, s=grid.n_per_axis, axes=grid._transform_axes).tobytes()
    for grid, x, xh, y in cases
)
print(json.dumps({"loaded": loaded, "same_bytes": same_bytes,
                  "shared": theirs is pypocketfft and basic.pfft is pypocketfft,
                  "scipy_dir": os.path.dirname(pypocketfft.__file__) == os.path.dirname(basic.__file__)}))
"""

LAZY_PROBE = """
import contextlib, io, json, sys
import thermoelast
from thermoelast.cli import main
from thermoelast.oracle import build_galerkin, integrate_galerkin
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["run", sys.argv[1]])
after_run = "scipy.integrate" in sys.modules
s = thermoelast.make_initial_data(thermoelast.ScenarioSpec("band-limited", n=16, epsilon=0.1))
integrate_galerkin(build_galerkin(s, thermoelast.ModelParams(mu=1.0), n=2), 0.01)
print(json.dumps({"code": code, "after_run": after_run,
                  "after_oracle": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def _probe(code: str, arg: str) -> dict:
    proc = fresh_python("-c", code, arg)
    proc.check_returncode()
    return json.loads(proc.stdout.splitlines()[-1])


ORDERS = ["thermoelast-first", "scipy-first"]


@pytest.fixture(scope="module")
def binding_probes():
    return {order: _probe(BINDING_PROBE, order) for order in ORDERS}


class TestPocketfftBinding:
    def test_import_runs_no_scipy_package(self, binding_probes):
        assert binding_probes["thermoelast-first"]["loaded"] == [BINDING]

    @pytest.mark.parametrize("order", ORDERS)
    def test_one_module_from_scipys_file(self, binding_probes, order):
        assert binding_probes[order]["shared"]
        assert binding_probes[order]["scipy_dir"]

    @pytest.mark.parametrize("order", ORDERS)
    def test_transforms_are_the_public_call(self, binding_probes, order):
        assert binding_probes[order]["same_bytes"]

    def test_loaded_binding_is_reused(self):
        assert _load_pocketfft() is sys.modules[BINDING] is pypocketfft

    def test_missing_binding_names_the_directory(self, monkeypatch):
        import scipy

        monkeypatch.delitem(sys.modules, BINDING)
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, name, path=None, target=None: None))
        where = os.path.join(os.path.dirname(scipy.__file__), "fft", "_pocketfft")
        with pytest.raises(ImportError) as info:
            _load_pocketfft()
        assert str(info.value) == f"scipy's pocketfft binding is not in {where}"


@pytest.fixture(scope="module")
def lazy_probe(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")
    cfg = tmp / "run.cfg"
    cfg.write_text(f"scenario = small-mixed\ndt = 0.01\nt_end = 0.02\nout_dir = {tmp / 'out'}\n")
    return _probe(LAZY_PROBE, str(cfg))


class TestLazyIntegrator:
    def test_run_leaves_integrator_unloaded(self, lazy_probe):
        assert lazy_probe["code"] == 0
        assert not lazy_probe["after_run"]

    def test_oracle_integration_loads_no_scipy_package(self, lazy_probe):
        assert lazy_probe["after_oracle"] == [BINDING]


NAMESPACE_PROBE = """
import importlib, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith(("thermoelast.", "scipy")))
import thermoelast as te
out = {"after_import": loaded(), "dir_has_all": set(te.__all__) <= set(dir(te))}
te.run
out["after_run"] = [m for m in loaded() if m.startswith("thermoelast.")]
out["oracle_is_module"] = te.oracle is sys.modules["thermoelast.oracle"]
try:
    te.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
star = {}
exec("from thermoelast import *", star)
out["star_missing"] = [n for n in te.__all__ if n not in star]
out["listed"] = sorted(n for names in te._EXPORTS.values() for n in names) == sorted(te.__all__[1:])
out["not_home"] = [n for m, names in te._EXPORTS.items() for n in names
                   if not (star[n] is getattr(importlib.import_module("thermoelast." + m), n)
                           and n in sys.modules["thermoelast." + m].__all__)]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def namespace_probe():
    return _probe(NAMESPACE_PROBE, "")


class TestLazyNamespace:
    def test_import_loads_no_module(self, namespace_probe):
        assert namespace_probe["after_import"] == []

    def test_run_loads_its_modules_only(self, namespace_probe):
        assert namespace_probe["after_run"] == [
            "thermoelast.dynamics", "thermoelast.grid", "thermoelast.operators"]

    def test_names_are_their_home_modules_exports(self, namespace_probe):
        assert namespace_probe["listed"]
        assert namespace_probe["not_home"] == []

    def test_star_import_binds_every_name(self, namespace_probe):
        assert namespace_probe["star_missing"] == []

    def test_submodule_resolves(self, namespace_probe):
        assert namespace_probe["oracle_is_module"]

    def test_unknown_name_is_an_attribute_error(self, namespace_probe):
        assert namespace_probe["unknown"] == "module 'thermoelast' has no attribute 'no_such_name'"

    def test_dir_lists_all(self, namespace_probe):
        assert namespace_probe["dir_has_all"]
