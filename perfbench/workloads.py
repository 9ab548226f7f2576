"""Seeded workload generation.

A workload is a list of items, each a small JSON-able dict the pass worker
knows how to run against the public API.  The seed moves every item by at
most two steps of its family's admissible lattice (and never by more than
1% of L), so two seeds do the same work to within a few percent while the
program still sees different inputs.  Every variant a seed can draw is
listed by item_variants, which is what lets reference.json cover them all.
"""

from __future__ import annotations

import json
import os
import random

# the reason for each one is its "why" line in BENCHMARK.json
WORKLOADS = ("closed_forms", "oracle_certify", "cli_configs")

MAX_SHIFT = 2        # lattice steps either way
MAX_REL_SHIFT = 0.01  # and never more than this share of L


def lattice_step(family: str, N: int) -> int:
    """Step in L that keeps a half-chain cut admissible."""
    if family == "u1":
        return 2
    if family == "sun":
        return 2 * N
    return 4  # tl, pf: even L_A and L_B


def shifts(L: int, step: int, down_only: bool = False) -> list[int]:
    """Admissible shifts k*step for one item, in increasing order."""
    k = min(MAX_SHIFT, int(MAX_REL_SHIFT * L) // step)
    lo, hi = -k, (0 if down_only else k)
    return [i * step for i in range(lo, hi + 1)]


def _report(family: str, N: int, L: int, backend: str) -> dict:
    return {"op": "report", "family": family, "N": N, "L": L, "L_A": L // 2,
            "backend": backend}


def _geometric(lo: int, hi: int) -> list[int]:
    out = []
    while lo <= hi:
        out.append(lo)
        lo *= 2
    return out


def nominal(workload: str) -> list[dict]:
    """The unshifted item grid of one workload."""
    if workload == "closed_forms":
        # exact grid first, so its lru_caches are as cold as in a run of its own;
        # the log grid needs far larger tables, which it builds either way
        items = []
        for fam, N in (("u1", 2), ("sun", 2), ("tl", 3), ("tl", 4), ("pf", 3), ("pf", 4)):
            items += [_report(fam, N, L, "auto") for L in _geometric(64, 512)]
        items += [_report("sun", 3, L, "auto") for L in (96, 192, 288)]
        items += [_report("sun", 4, L, "auto") for L in (64, 96, 128)]
        items += [_report("u1", 2, L, "log") for L in (2**14, 2**17, 10**6)]
        for fam, N in (("sun", 2), ("tl", 3), ("pf", 3)):
            items += [_report(fam, N, L, "log") for L in _geometric(1024, 8192)]
        items += [_report("sun", 3, L, "log") for L in (576, 768)]
        items += [{"op": "sun_r3", "N": N, "L": 3000 * N} for N in (3, 4, 5)]
        return items
    if workload == "oracle_certify":
        configs = [
            ("sun", 2, 4, 2), ("sun", 2, 8, 4),
            ("u1", 2, 4, 2), ("u1", 2, 6, 3), ("u1", 2, 8, 4),
            ("pf", 3, 4, 2), ("pf", 3, 6, 2),
            ("tl", 3, 4, 2), ("tl", 3, 6, 2),
            ("tl", 4, 4, 2),
            ("sun", 3, 6, 3),
        ]
        return [{"op": "oracle", "family": f, "N": N, "L": L, "L_A": LA}
                for f, N, L, LA in configs]
    if workload == "cli_configs":
        return [{"op": "cli", "config": name, "shift": 0} for name in CLI_CONFIGS]
    raise KeyError(workload)


# shipped config -> (subcommand, lattice step of its scan grid)
CLI_CONFIGS = {
    "fig2_su2_scaling": ("scan", 4),
    "fig2_u1_scaling": ("scan", 2),
    "fig3_haar_crossings": ("haar", None),
    "fig4_sun3_r3": ("scan", 6),
    "fig5_tl3_scaling": ("scan", 4),
    "fig6_tl3_rtilde": ("scan", 4),
    "fig7_dynamics_su3": ("dynamics", None),
    "fig7_dynamics_tl3": ("dynamics", None),
}


def oracle_cuts(family: str, N: int, L: int) -> list[int]:
    """Every admissible cut of a dense-oracle chain."""
    step = {"u1": 1, "sun": N}.get(family, 2)
    return [c for c in range(step, L, step) if (L - c) % step == 0]


def item_variants(item: dict) -> list[dict]:
    """Every input the seed can turn this nominal item into."""
    op = item["op"]
    if op == "report":
        step = lattice_step(item["family"], item["N"])
        down = item["backend"] == "auto"  # stay on the exact side of the switch
        return [dict(item, L=item["L"] + s, L_A=(item["L"] + s) // 2)
                for s in shifts(item["L"], step, down_only=down)]
    if op == "sun_r3":
        return [dict(item, L=item["L"] + s) for s in shifts(item["L"], 2 * item["N"])]
    if op == "oracle":
        cuts = oracle_cuts(item["family"], item["N"], item["L"])
        i = cuts.index(item["L_A"])
        near = cuts[max(0, i - 1): i + 2]
        return [dict(item, L_A=c) for c in near]
    if op == "cli":
        if CLI_CONFIGS[item["config"]][0] == "dynamics":
            return [item]
        return [dict(item, shift=k) for k in range(-MAX_SHIFT, MAX_SHIFT + 1)]
    raise KeyError(op)


def generate(workload: str, seed: int) -> list[dict]:
    """The items one run of `workload` executes for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(item_variants(it)) for it in nominal(workload)]


def item_key(item: dict) -> str:
    """Stable name of an item, used to look up its reference values."""
    op = item["op"]
    if op == "report":
        return f"report/{item['family']}/{item['N']}/{item['L']}/{item['L_A']}/{item['backend']}"
    if op == "sun_r3":
        return f"sun_r3/{item['N']}/{item['L']}"
    if op == "oracle":
        return f"oracle/{item['family']}/{item['N']}/{item['L']}/{item['L_A']}"
    return f"cli/{item['config']}/{item['shift']}"


def with_cli_argv(item: dict, root: str, workdir: str) -> dict:
    """A cli item plus the statent CLI arguments it runs and its output path.

    A shift of k moves every point of a scan grid by k lattice steps (passed
    as an explicit --L-list, which the CLI prefers over the config's range)
    and adds k to the Haar seed; shift 0 runs the config as shipped.
    """
    sub, step = CLI_CONFIGS[item["config"]]
    path = os.path.join(root, "configs", item["config"] + ".json")
    out = os.path.join(workdir, item["config"] + ".csv")
    argv = [sub, "--config", path, "--output", out]
    k = item["shift"]
    if k:
        with open(path) as fh:
            cfg = json.load(fh)
        if sub == "scan":
            grid = _geometric(cfg["L_min"], cfg["L_max"])
            argv += ["--L-list", ",".join(str(L + k * step) for L in grid)]
        elif sub == "haar":
            argv += ["--seed", str(cfg["seed"] + k)]
    return dict(item, argv=argv, out=out)
