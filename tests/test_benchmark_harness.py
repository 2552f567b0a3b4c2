"""The pytest-benchmark harness under ``benchmarks/`` still runs.

The test paths of ``pytest`` cover ``tests/`` only, so a benchmark that
still reads an attribute since removed from the library would fail
nowhere else.  With timing switched off the whole harness runs in a few
seconds: every ``bench_*.py`` file, its assertions included.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_runs():
    pytest.importorskip("pytest_benchmark")
    files = sorted(str(path) for path in (ROOT / "benchmarks").glob("bench_*.py"))
    assert files
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
            *files,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-2000:]
