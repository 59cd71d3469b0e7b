"""The pytest settings in pyproject.toml: warnings are errors, except the one
that hypothesis raises while it reports a failing property test."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

INI = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_pytest(tmp_path, source: str) -> str:
    """Run a test file under the repository's pytest settings; its summary."""
    (tmp_path / "test_case.py").write_text(textwrap.dedent(source))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(INI), "--rootdir", str(tmp_path), "test_case.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    return proc.stdout + proc.stderr


def test_failing_property_test_does_not_end_the_session(tmp_path):
    out = run_pytest(tmp_path, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after_it():
            pass
        """)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out


def test_numpy_overflow_still_fails_its_test(tmp_path):
    out = run_pytest(tmp_path, """
        import numpy as np

        def test_overflows():
            np.float32(3e38) * np.float32(10)

        def test_invalid():
            np.sqrt(np.float64(-1))
        """)
    assert "2 failed" in out, out
    assert "RuntimeWarning: overflow" in out and "RuntimeWarning: invalid value" in out
