"""The repo's pytest configuration keeps a session going past a failing
hypothesis test: its warning filters must not turn the warnings that
hypothesis's failure report raises into an INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "-q", "test_sample.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr
