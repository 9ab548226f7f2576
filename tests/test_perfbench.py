"""The benchmark's own self-test, run as part of the suite.

perfbench traces statent's public functions by name; a refactor that renames
or drops one of them would otherwise only lose a per-layer metric quietly.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout


def test_traced_pass_sees_every_sector_layer():
    # the tracer replaces module attributes, so a layer the program reaches
    # only through a stored function object would silently read zero calls
    code = textwrap.dedent("""
        import json, sys
        sys.path[:0] = ["perfbench", "src"]
        import worker
        from tracer import Tracer
        items = [
            {"op": "report", "family": "tl", "N": 3, "L": 64, "L_A": 32, "backend": "exact"},
            {"op": "report", "family": "pf", "N": 3, "L": 1024, "L_A": 512, "backend": "log"},
            {"op": "report", "family": "sun", "N": 3, "L": 96, "L_A": 48, "backend": "exact"},
        ]
        with Tracer() as tr:
            for item in items:
                worker.run_item(item)
        print(json.dumps(tr.calls))
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    for span in ("exactnum.q_int_exact", "exactnum.sum_ratio_terms",
                 "commutants.enumerate_sectors", "commutants.sector_log_arrays",
                 "commutants.log_pf_sector_dims", "commutants.commutant_dimension",
                 "commutants.max_log_degeneracy"):
        assert calls.get(span, 0) > 0, span
