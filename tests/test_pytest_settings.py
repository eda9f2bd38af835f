"""The pytest settings of pyproject.toml keep a failing test an ordinary failure
and let an uninstalled checkout run its tests."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis reports a failing example through libcst, whose import warns
    # inside a pytest hook; were that warning an error, pytest would stop with
    # INTERNALERROR (exit 3) before test_after ran
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]


def test_an_uninstalled_checkout_imports_qsu2_from_src():
    # pythonpath = ["src"] puts the sources on sys.path, so plain pytest runs
    # in a checkout with no install and no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "tests/test_lattice.py"],
        cwd=PYPROJECT.parent, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
