"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, on small inputs of every item kind, that
  * tracing changes no output (traced and untraced digests are identical);
  * the tracer restores every module attribute it replaced;
  * a traced function the program no longer has is reported absent, and the
    rest of the trace still works;
  * every per-layer metric of a present function is reported;
  * every variant any seed can draw has a reference, and an SU(2)
    log-backend item passes its gate.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import SRC, WORKDIR

sys.path.insert(0, SRC)

import tracer  # noqa: E402
import worker  # noqa: E402
from checks import check_item, reference  # noqa: E402
from workloads import WORKLOADS, item_key, item_variants, nominal, with_cli_argv  # noqa: E402

SMALL = [
    {"op": "report", "family": "tl", "N": 3, "L": 64, "L_A": 32, "backend": "auto"},
    {"op": "report", "family": "pf", "N": 3, "L": 1024, "L_A": 512, "backend": "log"},
    {"op": "report", "family": "sun", "N": 2, "L": 1024, "L_A": 512, "backend": "log"},
    {"op": "sun_r3", "N": 3, "L": 600},
    {"op": "oracle", "family": "tl", "N": 3, "L": 4, "L_A": 2},
    {"op": "cli", "config": "fig7_dynamics_tl3", "shift": 0},
]


def _snapshot() -> dict:
    return {(m, k): v for m in tracer.MODULES if m in sys.modules
            for k, v in vars(sys.modules[m]).items()}


def _digests(items: list[dict]) -> list[str]:
    return [json.dumps(worker.run_item(it), sort_keys=True) for it in items]


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    os.makedirs(WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        items = [with_cli_argv(it, worker.ROOT, workdir) if it["op"] == "cli" else it
                 for it in SMALL]
        before = _snapshot()
        plain = _digests(items)
        with tracer.Tracer() as tr:
            traced = _digests(items)
        check(plain == traced, "tracing changes no output")
        after = _snapshot()
        check(all(after.get(k) is v for k, v in before.items()), "tracer restores every attribute")
        got = tr.metrics()
        check(set(got) == set(tracer.METRICS), "every per-layer metric reported")
        check(got["oracle.apply_sweep.calls"] > 0 and got["oracle.sweep_bytes"] > 0
              and got["cli.main.s"] >= got["cli.self.s"] > 0, "spans and counters recorded")

        saved = list(tracer.TARGETS), dict(tracer.METRICS)
        try:
            tracer.TARGETS.append(("exactnum", "renamed_away", "exactnum.renamed_away", None, None))
            tracer.METRICS["exactnum.renamed_away.s"] = ("s", "self", "exactnum.renamed_away")
            with tracer.Tracer() as tr:
                worker.run_item(items[0])
            got = tr.metrics()
            check("exactnum.renamed_away.s" not in got and got["exactnum.q_int_exact.calls"] > 0,
                  "a missing function is reported absent")
        finally:
            tracer.TARGETS[:], tracer.METRICS = saved[0], saved[1]

    missing = [item_key(v) for w in WORKLOADS for it in nominal(w) if it["op"] != "oracle"
               for v in item_variants(it) if item_key(v) not in reference()]
    check(not missing, f"every drawable variant has a reference ({len(missing)} missing)")
    ok, reason = check_item(SMALL[2], worker.run_item(SMALL[2]))
    check(ok, f"SU(2) log-backend item passes its gate {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
