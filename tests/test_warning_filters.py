"""The suite's warning filters (``pyproject.toml``) on a failing run:
a falsified property still prints its example, and an in-tree
deprecation still fails its test."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 5


def test_deprecated_call():
    warnings.warn("an old spelling", DeprecationWarning)
'''


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_failing.py"),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "DeprecationWarning: an old spelling" in out, out
    assert "2 failed" in out, out
