"""The repository's pytest settings report a failing hypothesis test as one
failure: the warnings-as-errors setting must not turn the plugin's own
reporting into an internal error that ends the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def _pytest(tmp_path, body: str) -> subprocess.CompletedProcess:
    (tmp_path / "test_scratch.py").write_text(body, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_hypothesis_test_is_one_failure(tmp_path):
    proc = _pytest(tmp_path, _TESTS)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def test_other_deprecation_warnings_stay_errors(tmp_path):
    body = _TESTS + '''

def test_warns():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''
    proc = _pytest(tmp_path, body)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
