"""The benchmark's own self-test, run as part of the suite.

perfbench traces statent's public functions by name; a refactor that renames
or drops one of them would otherwise only lose a per-layer metric quietly.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout
