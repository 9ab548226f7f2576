"""Command line front end.

Every subcommand is a one-shot, reproducible run: identical config (and
seed) produces byte-identical output files.  Values are printed in nats with
12 significant digits; --log2 rescales the display only.  Exit codes:
0 success, 2 inadmissible configuration, 3 verification failure, 4 resource
cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import asymptotics, oracle
from .commutants import CommutantSpec, Family, Inadmissible, TooManySectors
from .entanglement import NAtTwo, compute_report, sun_renyi3_half_chain
from .su2cg import (
    HaarEnsembleSpec,
    MultipleCrossings,
    NoCrossing,
    crossing_point,
    haar_average_negativity,
)

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_VERIFY_FAIL = 3
EXIT_RESOURCE = 4

LN2 = math.log(2.0)
Backend = typing.Literal["exact", "log", "auto"]
Format = typing.Literal["csv", "json"]


class EmptyScan(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a run needs; round-trips losslessly through JSON."""

    subcommand: str
    family: str = "su2"
    N: int = 2
    L: int | None = None
    L_list: list[int] = field(default_factory=list)
    L_min: int | None = None
    L_max: int | None = None
    L_step: int = 2
    geometric: bool = False
    cut: int | None = None  # L_A; default half chain
    quantities: list[str] = field(default_factory=lambda: ["en", "r3", "sop"])
    n_grid: list[float] = field(default_factory=lambda: [0.5, 1.0, 1.5, 3.0, 4.0, 6.0])
    fmt: Format = "json"
    output: str | None = None
    seed: int = 12345
    samples: int = 100
    lambda_max: int | None = None
    backend: Backend = "auto"
    tol: float = 1e-12
    max_sweeps: int = 1_000_000
    dim_cap: int = oracle.DEFAULT_DIM_CAP
    log2: bool = False
    timing: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        return RunConfig(**json.loads(text))


def resolve_family(name: str) -> tuple[Family, int | None]:
    """CLI family token -> (Family, forced N)."""
    name = name.lower()
    if name == "u1":
        return Family.U1, 2
    if name == "su2":
        return Family.SUN, 2
    if name == "sun":
        return Family.SUN, None
    if name == "pf":
        return Family.PF, None
    if name == "tl":
        return Family.TL, None
    raise Inadmissible(f"unknown family {name!r} (u1 | su2 | sun | pf | tl)")


def make_spec(cfg: RunConfig, L: int) -> CommutantSpec:
    fam, forced_N = resolve_family(cfg.family)
    N = forced_N if forced_N is not None else cfg.N
    cut = cfg.cut if cfg.cut is not None else L // 2
    return CommutantSpec(fam, N, L, cut)


def _scale(cfg: RunConfig) -> float:
    return 1.0 / LN2 if cfg.log2 else 1.0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _order(tok: str, text, kind: type) -> float:
    """The index of a quantity token: an int >= 1 for r<n>, a float > 0 for rt<n>."""
    try:
        n = kind(text)
    except ValueError:
        n = 0
    if not (math.isfinite(n) and n > 0):
        raise Inadmissible(f"bad quantity {tok!r}: need a positive {kind.__name__} index")
    return n


def _parse_quantities(cfg: RunConfig) -> tuple[bool, list[int], list[float], bool]:
    """-> (want_en, renyi orders, rtilde orders, want_sop)."""
    want_en = want_sop = False
    renyi: list[int] = []
    rtilde: list[float] = []
    for tok in cfg.quantities:
        t = tok.strip().lower()
        if t == "en":
            want_en = True
        elif t == "sop":
            want_sop = True
        elif t == "rtilde":
            rtilde.extend(_order(f"rtilde n={n}", n, float) for n in cfg.n_grid)
        elif t.startswith("rt"):
            rtilde.append(_order(tok, t[2:], float))
        elif t.startswith("r"):
            renyi.append(_order(tok, t[1:], int))
        else:
            raise Inadmissible(f"unknown quantity {tok!r}")
    return want_en, sorted(set(renyi)), sorted(set(rtilde)), want_sop


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(cfg: RunConfig) -> int:
    if cfg.L is None:
        raise Inadmissible("compute needs --L")
    t0 = time.perf_counter()
    spec = make_spec(cfg, cfg.L)
    want_en, renyi, rtilde, want_sop = _parse_quantities(cfg)
    rep = compute_report(spec, renyi_orders=renyi, rtilde_orders=rtilde,
                         backend=cfg.backend)
    wall = time.perf_counter() - t0
    s = _scale(cfg)
    quantities: dict = {}
    if want_en:
        quantities["en"] = rep.E_N * s
    if renyi:
        quantities["r"] = {str(n): rep.R[n] * s for n in renyi}
    if rtilde:
        quantities["rtilde"] = {_fmt(n): rep.R_tilde[n] * s for n in rtilde}
    if want_sop:
        quantities["sop"] = rep.S_OP * s
    doc = {
        "spec": {
            "family": spec.family.value, "N": spec.N, "L": spec.L,
            "L_A": spec.L_A, "L_B": spec.L_B,
        },
        "mode": rep.mode,
        "log_base": "2" if cfg.log2 else "e",
        "quantities": quantities,
        "bounds": {
            "en": rep.bounds.e_n * s,
            "sop": rep.bounds.s_op * s,
            "log_dim_c_min": rep.bounds.log_dim_c_min * s,
            "log_max_d": rep.bounds.log_max_d * s,
            "rtilde": {_fmt(n): rep.rtilde_bounds[n] * s for n in rtilde},
        },
        "log_dim_c_min": rep.dim_C_min.log_value() * s,
    }
    if cfg.timing:
        doc["wall_time_s"] = round(wall, 3)
    print(f"computed in {wall:.3f} s", file=sys.stderr)
    if cfg.fmt == "csv":
        rows = [
            [k, _fmt(v) if isinstance(v, float) else v]
            for k, v in sorted(_flatten(doc).items())
        ]
        _emit(cfg, _csv_text(["key", "value"], rows))
    else:
        _emit(cfg, json.dumps(_round12(doc), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _round12(x):
    """Round every float to 12 significant digits for deterministic output."""
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_round12(v) for v in x]
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


def _flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _L_grid(cfg: RunConfig) -> list[int]:
    if cfg.L_list:
        return list(cfg.L_list)
    if cfg.L is not None and cfg.L_min is None:
        return [cfg.L]
    if cfg.L_min is None or cfg.L_max is None:
        raise Inadmissible("scan needs --L-min and --L-max (or --L-list)")
    if cfg.geometric and cfg.L_min < 1:
        raise Inadmissible(f"--geometric needs --L-min >= 1, got {cfg.L_min}")
    if not cfg.geometric and cfg.L_step < 1:
        raise Inadmissible(f"need --L-step >= 1, got {cfg.L_step}")
    out = []
    L = cfg.L_min
    while L <= cfg.L_max:
        out.append(L)
        L = L * 2 if cfg.geometric else L + cfg.L_step
    return out


def cmd_scan(cfg: RunConfig) -> int:
    want_en, renyi, rtilde, want_sop = _parse_quantities(cfg)
    specs = []
    for L in _L_grid(cfg):
        try:
            specs.append(make_spec(cfg, L))
        except Inadmissible:
            continue  # silently drop grid points the formulas do not cover
    if not specs:
        raise EmptyScan("no admissible L in the scan range")

    def one(spec: CommutantSpec) -> list[tuple[int, str, float]]:
        # SU(N>2) R3/R4-only scans at half chain skip sector enumeration
        # entirely: the convolution evaluator is exact and O((NL)^2)
        r34_only = (
            spec.family == Family.SUN and spec.N > 2
            and not (want_en or want_sop or rtilde)
            and renyi and set(renyi) <= {3, 4}
            and spec.L_A == spec.L // 2
        )
        if r34_only and spec.L > 64:
            val = sun_renyi3_half_chain(spec.N, spec.L)
            return [(spec.L, f"r{n}", val) for n in renyi]
        rep = compute_report(spec, renyi_orders=renyi, rtilde_orders=rtilde,
                             backend=cfg.backend)
        rows = []
        if want_en:
            rows.append((spec.L, "en", rep.E_N))
        rows.extend((spec.L, f"r{n}", rep.R[n]) for n in renyi)
        rows.extend((spec.L, f"rt{_fmt(n)}", rep.R_tilde[n]) for n in rtilde)
        if want_sop:
            rows.append((spec.L, "sop", rep.S_OP))
        return rows

    s = _scale(cfg)
    rows = sorted((L, q, v) for sp in specs for L, q, v in one(sp))
    table = [[L, q, _fmt(v * s)] for L, q, v in rows]
    _emit(cfg, _csv_text(["L", "quantity", "value"], table))
    return EXIT_OK


ORACLE_QUANTITIES = ("en", "r3", "r4", "rt1.5", "sop")


def cmd_oracle(cfg: RunConfig) -> int:
    if cfg.L is None:
        raise Inadmissible("oracle needs --L")
    spec = make_spec(cfg, cfg.L)
    ks = oracle.build_kraus(spec.family, spec.N, spec.L, dim_cap=cfg.dim_cap)
    rho0 = oracle.singlet_product_state(spec.family, spec.N, spec.L)
    st = oracle.channel_fixed_point(ks, rho0, tol=cfg.tol, max_sweeps=cfg.max_sweeps)
    rep = compute_report(spec, renyi_orders=(3, 4), rtilde_orders=(1.5,), backend="exact")
    cut = spec.L_A
    closed = {"en": rep.E_N, "r3": rep.R[3], "r4": rep.R[4], "rt1.5": rep.R_tilde[1.5],
              "sop": rep.S_OP}
    dense = {
        "en": oracle.dense_log_negativity(st, cut),
        "r3": oracle.dense_renyi_negativity(st, cut, 3),
        "r4": oracle.dense_renyi_negativity(st, cut, 4),
        "rt1.5": oracle.dense_generalized_renyi(st, cut, 1.5),
        "sop": oracle.dense_ose(st, cut),
    }
    s = _scale(cfg)
    rows, ok = [], True
    for q in ORACLE_QUANTITIES:
        delta = abs(closed[q] - dense[q])
        good = delta < 1e-8
        ok &= good
        rows.append([q, _fmt(closed[q] * s), _fmt(dense[q] * s), f"{delta:.3e}",
                     "PASS" if good else "FAIL"])
    _emit(cfg, _csv_text(["quantity", "closed_form", "dense", "abs_delta", "status"], rows))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_haar(cfg: RunConfig) -> int:
    Ls = cfg.L_list or ([cfg.L] if cfg.L is not None else None)
    if not Ls:
        raise Inadmissible("haar needs --L or --L-list")
    tops = [HaarEnsembleSpec(L=L, samples=cfg.samples, seed=cfg.seed,
                             lambda_max=L // 2 if cfg.lambda_max is None else cfg.lambda_max)
            for L in Ls]
    for top in tops:
        top.validate()
    point_rows = []
    curves: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for top in tops:
        L = top.L
        fs, ms = [], []
        for lam in range(0, top.lambda_max + 1):
            mean, stderr = haar_average_negativity(replace(top, lambda_max=lam))
            fs.append(lam / L)
            ms.append(mean)
            point_rows.append(
                ["point", L, "", _fmt(lam / L), _fmt(mean), _fmt(stderr),
                 cfg.samples, cfg.seed, ""]
            )
        curves[L] = (np.array(fs), np.array(ms))
    cross_rows = []
    shared = np.linspace(0.0, 0.5, 201)
    for a, b in zip(Ls, Ls[1:]):
        ca = np.interp(shared, *curves[a])
        cb = np.interp(shared, *curves[b])
        try:
            x = crossing_point(shared, cb, ca)
            cross_rows.append(["crossing", a, b, "", "", "", cfg.samples, cfg.seed, _fmt(x)])
        except (NoCrossing, MultipleCrossings) as exc:  # report, don't fail
            cross_rows.append(["crossing", a, b, "", "", "", cfg.samples, cfg.seed,
                               f"error:{type(exc).__name__}"])
    header = ["row", "L", "L2", "lambda_frac", "mean", "stderr", "samples", "seed", "crossing"]
    _emit(cfg, _csv_text(header, point_rows + cross_rows))
    return EXIT_OK


def cmd_dynamics(cfg: RunConfig) -> int:
    if cfg.L is None:
        raise Inadmissible("dynamics needs --L")
    spec = make_spec(cfg, cfg.L)
    ks = oracle.build_kraus(spec.family, spec.N, spec.L, dim_cap=cfg.dim_cap)
    rho0 = oracle.singlet_product_state(spec.family, spec.N, spec.L)
    st, rows = oracle.iterate_with_trajectory(
        ks, rho0, spec.L_A, tol=cfg.tol, max_sweeps=min(cfg.max_sweeps, 100_000)
    )
    s = _scale(cfg)
    table = [
        [r["sweep"], _fmt(r["E_N"] * s), _fmt(r["R3"] * s), _fmt(r["S_OP"] * s),
         "" if math.isnan(r["defect"]) else f"{r['defect']:.6e}"]
        for r in rows
    ]
    _emit(cfg, _csv_text(["sweep", "E_N", "R3", "S_OP", "defect"], table))
    rep = compute_report(spec, renyi_orders=(), rtilde_orders=(), backend="exact")
    print(f"final E_N deviation from closed form: {abs(rows[-1]['E_N'] - rep.E_N):.3e}",
          file=sys.stderr)
    return EXIT_OK


def cmd_asymptote(cfg: RunConfig) -> int:
    fam, forced_N = resolve_family(cfg.family)
    N = forced_N if forced_N is not None else cfg.N
    want_en, renyi, rtilde, want_sop = _parse_quantities(cfg)
    renyi = [3] if 3 in renyi else []  # R_3 is the only Renyi order with a law
    jobs = []  # (row label, scaling law, the value read off a report)
    if want_en:
        jobs.append(("en", asymptotics.predicted_law(fam, N, "en"), lambda r: r.E_N))
    if renyi:
        jobs.append(("r3", asymptotics.predicted_law(fam, N, "r3"), lambda r: r.R[3]))
    jobs.extend((f"rt{_fmt(n)}", asymptotics.predicted_law(fam, N, "rtilde", n=n),
                 lambda r, n=n: r.R_tilde[n]) for n in rtilde)
    if want_sop:
        jobs.append(("sop", asymptotics.predicted_law(fam, N, "sop"), lambda r: r.S_OP))
    if not jobs:
        raise Inadmissible("asymptote needs at least one of en, r3, rtilde, sop")

    grid = _L_grid(cfg) if (cfg.L_min is not None or cfg.L_list) else \
        [2**k for k in range(6, 13)]
    reports = []
    for L in grid:
        try:
            spec = make_spec(cfg, L)
        except Inadmissible:
            continue
        reports.append(compute_report(spec, renyi_orders=renyi, rtilde_orders=rtilde,
                                      backend=cfg.backend))
    if len(reports) < 4:
        raise EmptyScan("fewer than 4 admissible scan points")
    rows = []
    for label, law, value in jobs:
        pts = [(rep.spec.L, value(rep)) for rep in reports]
        fit = asymptotics.fit_scaling(pts, law.form if law.form != "const" else "log")
        rows.append([
            label, law.form, law.kind,
            "" if law.coefficient is None else _fmt(law.coefficient),
            _fmt(fit.slope), _fmt(fit.intercept), f"{fit.residual:.3e}",
            int(fit.window[0]), int(fit.window[1]),
        ])
    header = ["quantity", "form", "kind", "predicted_coefficient",
              "fitted_slope", "fitted_intercept", "rms_residual", "L_lo", "L_hi"]
    _emit(cfg, _csv_text(header, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="statent",
        description="Exact stationary-state entanglement for strongly symmetric channels.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, fn in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        sp.add_argument("--family", help="u1 | su2 | sun | pf | tl")
        sp.add_argument("--N", type=int, help="local dimension (sun/pf/tl)")
        sp.add_argument("--L", type=int, help="chain length")
        sp.add_argument("--L-list", dest="L_list", help="comma-separated lengths")
        sp.add_argument("--L-min", dest="L_min", type=int)
        sp.add_argument("--L-max", dest="L_max", type=int)
        sp.add_argument("--L-step", dest="L_step", type=int)
        sp.add_argument("--geometric", action="store_const", const=True,
                        help="double L between scan points")
        sp.add_argument("--cut", type=int, help="L_A (default: half chain)")
        sp.add_argument("--quantities", help="comma list: en,r3,r4,rt1.5,rtilde,sop")
        sp.add_argument("--n-grid", dest="n_grid", help="comma list of rtilde indices")
        sp.add_argument("--format", dest="fmt", choices=typing.get_args(Format))
        sp.add_argument("--output", help="output path (default stdout)")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--lambda-max", dest="lambda_max", type=int)
        sp.add_argument("--backend", choices=typing.get_args(Backend))
        sp.add_argument("--tol", type=float)
        sp.add_argument("--max-sweeps", dest="max_sweeps", type=int)
        sp.add_argument("--dim-cap", dest="dim_cap", type=int)
        sp.add_argument("--log2", action="store_const", const=True,
                        help="display in bits instead of nats")
        sp.add_argument("--timing", action="store_const", const=True,
                        help="include wall_time_s in JSON output")
    return p


def _numbers(key: str, text: str, kind: type) -> list:
    """A comma-separated list of numbers; anything else is Inadmissible."""
    try:
        return [kind(x) for x in text.split(",") if x]
    except ValueError:
        raise Inadmissible(f"bad --{key.replace('_', '-')} {text!r}: need comma-separated "
                           f"{kind.__name__}s") from None


def _fits(value, hint) -> bool:
    """value has the RunConfig field type hint; ints pass for floats, bools only for bools."""
    if typing.get_origin(hint) is typing.Literal:
        return value in typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def build_config(argv) -> RunConfig:
    args = vars(_build_parser().parse_args(argv))
    sub = args.pop("subcommand")
    path = args.pop("config", None)
    base: dict = {}
    if path:
        try:
            with open(path) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise Inadmissible(f"cannot read config {path}: {exc}") from None
        if not isinstance(base, dict):
            raise Inadmissible(f"config {path} must hold a JSON object")
    base.pop("subcommand", None)
    unknown = sorted(set(base) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise Inadmissible(f"unknown config key(s): {', '.join(unknown)}")
    for k, v in args.items():
        if v is not None:
            base[k] = v
    for key, kind in (("L_list", int), ("n_grid", float)):
        if isinstance(base.get(key), str):
            base[key] = _numbers(key, base[key], kind)
    if isinstance(base.get("quantities"), str):
        base["quantities"] = [x for x in base["quantities"].split(",") if x]
    hints = typing.get_type_hints(RunConfig)
    for key, value in base.items():
        if not _fits(value, hint := hints[key]):
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise Inadmissible(f"config key {key}: {value!r} is not {kind}")
    return RunConfig(subcommand=sub, **base)


SUBCOMMANDS = {
    "compute": cmd_compute,
    "scan": cmd_scan,
    "oracle": cmd_oracle,
    "haar": cmd_haar,
    "dynamics": cmd_dynamics,
    "asymptote": cmd_asymptote,
}


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
        return SUBCOMMANDS[cfg.subcommand](cfg)
    except (Inadmissible, EmptyScan, NAtTwo, asymptotics.Unsupported) as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (oracle.TooLarge, TooManySectors) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except oracle.NoConvergence as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
