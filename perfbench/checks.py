"""Correctness gate: one verdict per item, run after the timed region.

Closed-form items (`report`, `sun_r3`):
  * the paper's universal bounds E_N <= log dim C_min and S_OP <= log dim C_min;
  * SU(2) half chains against su2_log_negativity_closed / su2_renyi3_closed;
  * SU(3) R_3 from compute_report against sun_renyi3_half_chain;
  * every output against reference.json, recorded by make_reference.py.
Oracle items: closed form against the dense fixed point, criterion 01's 1e-8.
CLI items: exit code 0 and an output file byte-identical to the reference.
"""

from __future__ import annotations

import functools
import json
import math
import os

import statent.entanglement as ent

from workloads import item_key

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

ORACLE_TOL = 1e-8   # acceptance criterion 01
SU2_TOL = 1e-12     # acceptance criterion 02
SUN_R3_TOL = 1e-9   # two independent float routes to the same R_3
BOUND_SLACK = 1e-9  # float rounding on either side of an inequality
# A reference value is matched to 1e-9 relative (or absolute near 0): tight
# enough to catch any change in meaning, loose enough for a refactor that
# reorders the same float sums.
REF_TOL = 1e-9


@functools.cache
def reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _leaves(doc, prefix=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), doc


def _match_reference(item: dict, out: dict) -> str:
    ref = reference().get(item_key(item))
    if ref is None:
        return f"no reference for {item_key(item)}"
    got = dict(_leaves(out))
    for name, want in _leaves(ref):
        have = got.get(name)
        if isinstance(want, str):
            if have != want:
                return f"{name} = {have!r}, reference {want!r}"
        elif have is None or not math.isclose(have, want, rel_tol=REF_TOL, abs_tol=REF_TOL):
            return f"{name} = {have!r}, reference {want!r}"
    return ""


def _check_report(item: dict, out: dict) -> str:
    for q, b in (("E_N", "bound_e_n"), ("S_OP", "bound_s_op")):
        if out[q] > out[b] + BOUND_SLACK:
            return f"{q} = {out[q]!r} exceeds its bound {out[b]!r}"
    fam, N, L = item["family"], item["N"], item["L"]
    if fam == "sun" and item["L_A"] * 2 == L:
        if N == 2 and L % 4 == 0:
            for q, have, want in (("E_N", out["E_N"], ent.su2_log_negativity_closed(L)),
                                  ("R.3", out["R"]["3"], ent.su2_renyi3_closed(L))):
                if abs(have - want) > SU2_TOL:
                    return f"{q} = {have!r}, SU(2) closed form {want!r}"
        if N == 3:
            want = ent.sun_renyi3_half_chain(3, L)
            if abs(out["R"]["3"] - want) > SUN_R3_TOL:
                return f"R.3 = {out['R']['3']!r}, convolution route {want!r}"
    return _match_reference(item, out)


def check_item(item: dict, out: dict) -> tuple[bool, str]:
    """(passed, reason for a failure)."""
    op = item["op"]
    if op == "report":
        reason = _check_report(item, out)
    elif op == "sun_r3":
        reason = _match_reference(item, out)
    elif op == "oracle":
        worst = max(abs(out["closed"][q] - out["dense"][q]) for q in out["closed"])
        reason = "" if worst < ORACLE_TOL else f"|closed - dense| = {worst:.3e}"
    elif op == "cli":
        reason = f"exit code {out['rc']}" if out["rc"] != 0 else \
            _match_reference(item, {"sha256": out["sha256"]})
    else:
        raise KeyError(op)
    return not reason, reason
