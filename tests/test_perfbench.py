"""The benchmark's own self-test, run as part of the suite.

perfbench traces statent's public functions by name; a refactor that renames
or drops one of them would otherwise only lose a per-layer metric quietly.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

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


# perfbench's item generator, loaded from its file rather than put on sys.path
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
HAAR_ITEM = {"op": "cli", "config": "fig3_haar_crossings", "shift": 0}


def _sha256_matches_reference(config, tmp_path, shift=0):
    # runs the benchmark's own command line for this cli item; bytes are
    # pinned at one BLAS thread
    item = workloads.with_cli_argv({"op": "cli", "config": config, "shift": shift},
                                   ROOT, str(tmp_path))
    code = "import sys; from statent.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code, *item["argv"]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        want = json.load(fh)[workloads.item_key(item)]["sha256"]
    with open(item["out"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == want


def test_dynamics_bytes_match_reference(tmp_path):
    # dynamics runs the full-space sweep's GEMMs on the reachable block only,
    # which keeps the summation order the pinned output depends on
    _sha256_matches_reference("fig7_dynamics_tl3", tmp_path)


def test_dynamics_su3_bytes_match_reference(tmp_path):
    # N^L = 729: each sweep runs on the 90 reachable states, and its PT and
    # rho spectra and its S_OP come from many small blocks, except at sweep 0,
    # a product state whose S_OP is one full SVD
    _sha256_matches_reference("fig7_dynamics_su3", tmp_path)


def test_haar_bytes_match_reference(tmp_path):
    # all draws of one lambda_max are evaluated together and must keep each
    # draw's float operations
    _sha256_matches_reference("fig3_haar_crossings", tmp_path)


@pytest.mark.parametrize(
    "shift", [v["shift"] for v in workloads.item_variants(HAAR_ITEM) if v["shift"]])
def test_haar_shifted_seed_bytes_match_reference(tmp_path, shift):
    # the other Haar seeds the benchmark can draw
    _sha256_matches_reference("fig3_haar_crossings", tmp_path, shift)


SCAN_ITEMS = [v for config, (sub, _) in workloads.CLI_CONFIGS.items() if sub == "scan"
              for v in workloads.item_variants({"op": "cli", "config": config, "shift": 0})]


@pytest.mark.parametrize("item", SCAN_ITEMS, ids=workloads.item_key)
def test_scan_bytes_match_reference(tmp_path, item):
    # every scan grid the benchmark can draw; the log-backend points (L >= 1024)
    # sum each quantity over its own window of sectors
    _sha256_matches_reference(item["config"], tmp_path, item["shift"])


def test_closed_forms_match_reference_to_1e_11():
    # 100x tighter than the benchmark's REF_TOL: a change in summation order may
    # move the last bits of a sum, never more
    code = textwrap.dedent("""
        import json, math, sys
        sys.path[:0] = ["perfbench", "src"]
        import checks, worker, workloads
        worst = []
        for item in workloads.nominal("closed_forms"):
            for v in workloads.item_variants(item):
                key = workloads.item_key(v)
                got = dict(checks._leaves(worker.run_item(v)))
                for name, want in checks._leaves(checks.reference()[key]):
                    if not math.isclose(got[name], want, rel_tol=1e-11, abs_tol=1e-11):
                        worst.append([key, name, got[name], want])
        print(json.dumps(worst))
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
