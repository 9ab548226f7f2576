"""Per-layer spans around statent's public functions, from outside the program.

Each target function is wrapped where its callers bind it: every statent
module attribute that is the original function object is replaced by the
wrapper, so `from .exactnum import sum_ratio_terms` in entanglement is traced
as well as `exactnum.sum_ratio_terms`.  No source file changes.  A target the
program no longer has (deleted or renamed in a refactor) is skipped and its
metrics are reported as absent.  `restore()` puts every original back.

A span's self time is its duration minus the durations of the traced spans it
directly contains.  Counters marked "computed" are derived from arguments or
results (bit lengths, array sizes), not measured.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

MODULES = ("statent", "statent.exactnum", "statent.commutants", "statent.entanglement",
           "statent.oracle", "statent.su2cg", "statent.cli", "statent.asymptotics")


def _den_bits(args, kwargs, out) -> int:
    terms = args[0] if args else kwargs["terms"]
    return sum(int(d).bit_length() for _, d in terms)


def _sweep_bytes(args, kwargs, out) -> int:
    rho, kraus = args[0], args[1]
    # the sweep plan merges neighbouring channels that share their sites
    sites = [ch.sites for ch in kraus.channels]
    plan_len = sum(1 for prev, cur in zip([None] + sites, sites) if prev != cur)
    return plan_len * 2 * rho.size * rho.itemsize


# (module, function, span, counter: (args, kwargs, result) -> increment, its metric)
TARGETS: list[tuple[str, str, str, Callable | None, str | None]] = [
    ("exactnum", "sum_ratio_terms", "exactnum.sum_ratio_terms", _den_bits,
     "exactnum.sum_ratio_terms.den_bits"),
    ("exactnum", "q_int_exact", "exactnum.q_int_exact", None, None),
    ("commutants", "commutant_dimension", "commutants.commutant_dimension", None, None),
    ("commutants", "max_log_degeneracy", "commutants.max_log_degeneracy", None, None),
    ("commutants", "sector_log_arrays", "commutants.sector_log_arrays",
     lambda a, k, out: len(out.log_d), "commutants.log_sectors"),
    ("commutants", "enumerate_sectors", "commutants.enumerate_sectors",
     lambda a, k, out: len(out), "commutants.sectors"),
    ("commutants", "singlet_dimension", "commutants.singlet_dimension", None, None),
    ("commutants", "log_pf_sector_dims", "commutants.log_pf_sector_dims", None, None),
    ("entanglement", "compute_report", "entanglement.compute_report",
     lambda a, k, out: int(out.mode == "exact"), "entanglement.exact_reports"),
    ("entanglement", "log_negativity", "entanglement.exact_eval", None, None),
    ("entanglement", "renyi_negativity", "entanglement.exact_eval", None, None),
    ("entanglement", "generalized_renyi", "entanglement.exact_eval", None, None),
    ("entanglement", "operator_space_entanglement", "entanglement.exact_eval", None, None),
    ("entanglement", "log_negativity_logdomain", "entanglement.log_eval", None, None),
    ("entanglement", "renyi_negativity_logdomain", "entanglement.log_eval", None, None),
    ("entanglement", "generalized_renyi_logdomain", "entanglement.log_eval", None, None),
    ("entanglement", "operator_space_entanglement_logdomain", "entanglement.log_eval",
     None, None),
    ("entanglement", "upper_bounds", "entanglement.upper_bounds", None, None),
    ("entanglement", "sun_renyi3_half_chain", "entanglement.sun_renyi3_half_chain",
     None, None),
    ("oracle", "build_kraus", "oracle.build_kraus", None, None),
    ("oracle", "channel_fixed_point", "oracle.channel_fixed_point", None, None),
    ("oracle", "apply_sweep", "oracle.apply_sweep", _sweep_bytes, "oracle.sweep_bytes"),
    ("oracle", "pt_eigenvalues", "oracle.pt_eigenvalues", None, None),
    ("oracle", "dense_ose", "oracle.dense_ose", None, None),
    ("oracle", "iterate_with_trajectory", "oracle.iterate_with_trajectory", None, None),
    ("su2cg", "haar_average_negativity", "su2cg.haar_average_negativity", None, None),
    ("su2cg", "negativity_fixed_lambda", "su2cg.negativity_fixed_lambda", None, None),
    ("su2cg", "cg_coefficient", "su2cg.cg_coefficient", None, None),
    ("cli", "main", "cli.main", None, None),
]

# per-layer metric -> (unit, kind, span or counter)
#   self: span self time; total: span duration; calls: span entries;
#   count: a counter from TARGETS
METRICS: dict[str, tuple[str, str, str]] = {
    "exactnum.sum_ratio_terms.s": ("s", "self", "exactnum.sum_ratio_terms"),
    "exactnum.sum_ratio_terms.calls": ("count", "calls", "exactnum.sum_ratio_terms"),
    "exactnum.sum_ratio_terms.den_bits": ("bits", "count", "exactnum.sum_ratio_terms.den_bits"),
    "exactnum.q_int_exact.s": ("s", "self", "exactnum.q_int_exact"),
    "exactnum.q_int_exact.calls": ("count", "calls", "exactnum.q_int_exact"),
    "commutants.commutant_dimension.s": ("s", "self", "commutants.commutant_dimension"),
    "commutants.commutant_dimension.calls": ("count", "calls", "commutants.commutant_dimension"),
    "commutants.max_log_degeneracy.s": ("s", "self", "commutants.max_log_degeneracy"),
    "commutants.max_log_degeneracy.calls": ("count", "calls", "commutants.max_log_degeneracy"),
    "commutants.sector_log_arrays.s": ("s", "self", "commutants.sector_log_arrays"),
    "commutants.log_sectors": ("count", "count", "commutants.log_sectors"),
    "commutants.enumerate_sectors.s": ("s", "self", "commutants.enumerate_sectors"),
    "commutants.sectors": ("count", "count", "commutants.sectors"),
    "commutants.singlet_dimension.s": ("s", "self", "commutants.singlet_dimension"),
    "commutants.log_pf_sector_dims.s": ("s", "self", "commutants.log_pf_sector_dims"),
    "entanglement.compute_report.s": ("s", "self", "entanglement.compute_report"),
    "entanglement.compute_report.calls": ("count", "calls", "entanglement.compute_report"),
    "entanglement.exact_eval.s": ("s", "self", "entanglement.exact_eval"),
    "entanglement.log_eval.s": ("s", "self", "entanglement.log_eval"),
    "entanglement.upper_bounds.s": ("s", "self", "entanglement.upper_bounds"),
    "entanglement.sun_renyi3_half_chain.s": ("s", "self", "entanglement.sun_renyi3_half_chain"),
    "entanglement.exact_reports": ("count", "count", "entanglement.exact_reports"),
    "oracle.build_kraus.s": ("s", "self", "oracle.build_kraus"),
    "oracle.channel_fixed_point.s": ("s", "self", "oracle.channel_fixed_point"),
    "oracle.apply_sweep.s": ("s", "self", "oracle.apply_sweep"),
    "oracle.apply_sweep.calls": ("count", "calls", "oracle.apply_sweep"),
    "oracle.sweep_bytes": ("bytes", "count", "oracle.sweep_bytes"),
    "oracle.pt_eigenvalues.s": ("s", "self", "oracle.pt_eigenvalues"),
    "oracle.pt_eigenvalues.calls": ("count", "calls", "oracle.pt_eigenvalues"),
    "oracle.dense_ose.s": ("s", "self", "oracle.dense_ose"),
    "oracle.iterate_with_trajectory.s": ("s", "self", "oracle.iterate_with_trajectory"),
    "su2cg.haar_average_negativity.s": ("s", "self", "su2cg.haar_average_negativity"),
    "su2cg.negativity_fixed_lambda.s": ("s", "self", "su2cg.negativity_fixed_lambda"),
    "su2cg.negativity_fixed_lambda.calls": ("count", "calls", "su2cg.negativity_fixed_lambda"),
    "su2cg.cg_coefficient.s": ("s", "self", "su2cg.cg_coefficient"),
    "su2cg.cg_coefficient.calls": ("count", "calls", "su2cg.cg_coefficient"),
    "cli.main.s": ("s", "total", "cli.main"),
    "cli.self.s": ("s", "self", "cli.main"),
}


class Tracer:
    """Installs the wrappers; collects self time, duration and calls per span."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()  # spans and counters that could be recorded
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for mod_name, fn_name, span, counter, counter_name in TARGETS:
            owner = sys.modules.get(f"statent.{mod_name}")
            orig = getattr(owner, fn_name, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(span, orig, counter, counter_name)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
            self.present.add(span)
            if counter_name:
                self.present.add(counter_name)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, span: str, orig, counter, counter_name):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[span] += dt - frame[0]
                self.total_s[span] += dt
                self.calls[span] += 1
                if stack:
                    stack[-1][0] += dt
            if counter is not None and counter_name in self.present:
                try:
                    self.count[counter_name] += counter(args, kwargs, out)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the program changed shape under the counter: report it absent
                    self.present.discard(counter_name)
            return out

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", span)
        return traced

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric whose span or counter exists in the program."""
        out = {}
        for name, (_, kind, src) in METRICS.items():
            if src not in self.present:
                continue
            out[name] = {"self": self.self_s, "total": self.total_s, "calls": self.calls,
                         "count": self.count}[kind][src]
        return out
