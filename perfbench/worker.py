"""One workload pass in a fresh interpreter.

Reads {"items": [...], "trace": bool} as JSON on stdin, runs
every item through statent's public API, then checks every item's output.
Prints one JSON object on stdout:

  wall_s, cpu_s   wall and user+system CPU time of the pass, import excluded
  peak_rss_mb     this process's peak resident set, from its own rusage
  results         per item: ok, reason for a failure, digest of the outputs
  trace           per-layer metrics of a traced pass (null when untraced)

Checking happens after the timed region, so it costs the pass nothing.
Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

import statent.cli as cli
import statent.commutants as com
import statent.entanglement as ent
import statent.oracle as orc

from checks import check_item
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"statent was imported from {cli.__file__}, not from this checkout's src/")


def _spec(item: dict) -> com.CommutantSpec:
    return com.CommutantSpec(com.Family(item["family"]), item["N"], item["L"], item["L_A"])


def run_report(item: dict) -> dict:
    rep = ent.compute_report(_spec(item), backend=item["backend"])
    return {
        "E_N": rep.E_N,
        "R": {str(n): v for n, v in rep.R.items()},
        "R_tilde": {repr(n): v for n, v in rep.R_tilde.items()},
        "S_OP": rep.S_OP,
        "log_dim_c_min": rep.dim_C_min.log_value(),
        "bound_e_n": rep.bounds.e_n,
        "bound_s_op": rep.bounds.s_op,
        "log_max_d": rep.bounds.log_max_d,
    }


def run_sun_r3(item: dict) -> dict:
    return {"R3": ent.sun_renyi3_half_chain(item["N"], item["L"])}


def run_oracle(item: dict) -> dict:
    spec, cut = _spec(item), item["L_A"]
    st = orc.stationary_state(spec)
    secs, D0 = com.enumerate_sectors(spec), com.singlet_dimension(spec)
    closed = {
        "en": ent.log_negativity(secs, D0),
        "r3": ent.renyi_negativity(secs, D0, 3),
        "r4": ent.renyi_negativity(secs, D0, 4),
        "rt1.5": ent.generalized_renyi(secs, D0, 1.5),
        "sop": ent.operator_space_entanglement(secs, D0),
    }
    dense = {
        "en": orc.dense_log_negativity(st, cut),
        "r3": orc.dense_renyi_negativity(st, cut, 3),
        "r4": orc.dense_renyi_negativity(st, cut, 4),
        "rt1.5": orc.dense_generalized_renyi(st, cut, 1.5),
        "sop": orc.dense_ose(st, cut),
    }
    return {"closed": closed, "dense": dense}


def run_cli(item: dict) -> dict:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(item["argv"])
    with open(item["out"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"rc": rc, "sha256": digest}


def run_item(item: dict) -> dict:
    op = item["op"]
    if op == "report":
        return run_report(item)
    if op == "sun_r3":
        return run_sun_r3(item)
    if op == "oracle":
        return run_oracle(item)
    if op == "cli":
        return run_cli(item)
    raise KeyError(op)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.load(sys.stdin)
    items = job["items"]
    tracer = Tracer() if job["trace"] else None
    outputs: list = []
    errors: dict[int, str] = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        c0, t0 = _cpu(), time.perf_counter()
        for i, item in enumerate(items):
            try:
                outputs.append(run_item(item))
            except Exception as exc:  # a failed item is a failed operation, not a crash
                outputs.append(None)
                errors[i] = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            ok, reason = False, errors[i]
        else:
            try:
                ok, reason = check_item(item, out)
            except Exception as exc:  # a gate that cannot run has not passed
                ok, reason = False, f"check raised {type(exc).__name__}: {exc}"
        results.append({"ok": ok, "reason": reason,
                        "digest": json.dumps(out, sort_keys=True)})
    json.dump({
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb, "results": results,
        "trace": tracer.metrics() if tracer is not None else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
