"""The benchmark's self-test runs against this tree.

The benchmark wraps names inside the package (``sepnet.optim._evaluate``,
``backward``, ``train`` and others); a refactor that moves one of them
should fail here, not at the next benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
