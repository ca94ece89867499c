"""Tests for the gate's own plumbing in the rootdir ``conftest.py``: the
stdlib hang guard that stands in for pytest-timeout, the active-core line,
and the refusal to run when the compiled core is requested but missing."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _native

ROOT = Path(__file__).resolve().parents[1]


def run_pytest_in(
    tmp_path: Path, test_body: str, ini: str, **environ: str
) -> subprocess.CompletedProcess:
    """A child pytest over one throw-away test file, with the repo's
    rootdir conftest loaded as a plugin (the child's rootdir is
    ``tmp_path``)."""
    (tmp_path / "pytest.ini").write_text(f"[pytest]\n{ini}\n")
    (tmp_path / "test_child.py").write_text(test_body)
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "test_child.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_timeout") is not None,
    reason="pytest-timeout owns the ini key when installed",
)
class TestHangGuardFallback:
    def test_hung_test_is_killed_with_a_traceback(self, tmp_path):
        proc = run_pytest_in(
            tmp_path,
            "import time\n\ndef test_hangs():\n    time.sleep(60)\n",
            "timeout = 1",
        )
        assert proc.returncode != 0
        assert "Timeout (0:00:01)!" in proc.stderr
        assert "test_hangs" in proc.stderr

    def test_guard_is_cancelled_between_tests(self, tmp_path):
        body = (
            "import time\n\n"
            "def test_a():\n    time.sleep(0.7)\n\n"
            "def test_b():\n    time.sleep(0.7)\n"
        )
        proc = run_pytest_in(tmp_path, body, "timeout = 1")
        assert proc.returncode == 0, proc.stderr
        assert "Unknown config option" not in proc.stdout + proc.stderr


def test_quiet_run_still_names_the_core(tmp_path):
    proc = run_pytest_in(tmp_path, "def test_ok():\n    pass\n", "")
    assert proc.returncode == 0, proc.stderr
    assert "repro core: {'variant':" in proc.stdout


@pytest.mark.skipif(_native.available(), reason="the extension is built here")
def test_compiled_core_requested_but_missing_is_a_usage_error(tmp_path):
    proc = run_pytest_in(
        tmp_path, "def test_ok():\n    pass\n", "", DSSOC_CORE="compiled"
    )
    assert proc.returncode == pytest.ExitCode.USAGE_ERROR, proc.stdout
    assert "DSSOC_CORE=compiled" in proc.stderr
    assert "python -m repro._native.build" in proc.stderr
    assert "passed" not in proc.stdout


def test_rootdir_conftest_serves_every_suite():
    """``pytest benchmarks/spine/tests`` used to run without the ini key,
    the hang guard and the core line: they lived in ``tests/conftest.py``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/spine/tests/test_spec.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Unknown config option" not in proc.stdout + proc.stderr
    assert "repro core: {'variant':" in proc.stdout

