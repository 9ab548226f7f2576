"""statent benchmark: one run of one workload.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; statent is imported from its src/.  A run
first times SETUP_REPS fresh interpreters importing statent and statent.cli,
then runs workload passes, each in a fresh interpreter (cold lru_caches,
per-pass peak RSS) with BLAS/OpenMP pinned to one thread, until --seconds is
used up.  Every item of every pass is checked (see checks.py).

--trace 0 reports the end-to-end metrics as medians over the run's passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (see tracer.py) plus tracing.overhead_s; it also fails any item whose
traced output differs from its untraced output.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give each metric's median, quartiles and pass
count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, generate, with_cli_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPS = 7
RUN_LIMIT_S = 170  # a run, hung child included, ends within this
STARTED = time.perf_counter()

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}

IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import statent, statent.cli
dt = time.perf_counter() - t0
info = {"import_s": dt}
if sys.argv[1] == "env":
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update(python=platform.python_version(), numpy=np.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}")
print(json.dumps(info))
"""


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from bytecode, as installed
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every pass
    return env


def _child(args: list[str], stdin: str | None = None) -> str:
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED))
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup() -> tuple[list[float], dict]:
    """Import times of fresh interpreters; the first (untimed) writes bytecode."""
    env_info = json.loads(_child(["-c", IMPORT_PROBE, "env"]))
    times = [json.loads(_child(["-c", IMPORT_PROBE, "time"]))["import_s"]
             for _ in range(SETUP_REPS)]
    return times, env_info


def run_pass(items: list[dict], trace: bool) -> dict:
    job = json.dumps({"items": items, "trace": trace})
    return json.loads(_child([os.path.join(HERE, "worker.py")], stdin=job))


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); a count that repeats stays exact."""
    if len(set(values)) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "statent", "__init__.py")):
        print(f"no statent package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        items = [with_cli_argv(it, ROOT, WORKDIR) if it["op"] == "cli" else it
                 for it in generate(args.workload, args.seed)]
        setup, env_info = measure_setup()
        passes, traced = [], []
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while True:  # start another pass only if the slowest so far would still fit
            t0 = time.perf_counter()
            passes.append(run_pass(items, trace=False))
            if args.trace:
                traced.append(run_pass(items, trace=True))
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() + longest > deadline:
                break
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = failed = 0
    for p in passes + traced:
        for item, res in zip(items, p["results"]):
            attempted += 1
            if not res["ok"]:
                failed += 1
                print(f"FAIL {item}: {res['reason']}")
    for p in traced:  # self-test: tracing must not change any output
        for item, a, b in zip(items, passes[0]["results"], p["results"]):
            if a["digest"] != b["digest"]:
                failed += 1
                print(f"FAIL {item}: traced output differs from untraced")

    if args.trace:
        from tracer import METRICS

        units = {name: unit for name, (unit, _, _) in METRICS.items()}
        series = {name: [p["trace"][name] for p in traced] for name in METRICS
                  if name in traced[0]["trace"]}
        absent = [name for name in METRICS if name not in series]
        if absent:
            print(f"absent (no such function in this program): {', '.join(absent)}")
    else:
        units = END_TO_END
        series = {
            "setup_s": setup,
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }

    env_info.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                    threads=THREADS, machine=platform.machine())
    with open(BENCHMARK) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    print(f"workload {args.workload} seed {args.seed}: {why[args.workload]}")
    print(f"env {json.dumps(env_info, sort_keys=True)}")
    metrics = {}
    for name, vals in series.items():
        med, q1, q3 = summary(vals)
        print(f"{name:40s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(vals)}")
        metrics[name] = {"value": med, "unit": units[name]}
    if args.trace:
        plain = statistics.median(p["wall_s"] for p in passes)
        with_trace = statistics.median(p["wall_s"] for p in traced)
        print(f"{'tracing.overhead_s':40s} {with_trace - plain:.6g} s  (wall_s traced "
              f"{with_trace:.6g} s, untraced {plain:.6g} s, n={len(traced)})")
        metrics["tracing.overhead_s"] = {"value": with_trace - plain, "unit": "s"}
    else:
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "frac"}
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
