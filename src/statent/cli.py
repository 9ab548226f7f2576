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
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, oracle
from .commutants import (CommutantSpec, Family, Inadmissible, SUNIrreps, TooManySectors,
                         check_local_dimension)
from .entanglement import EntanglementReport, compute_report, sun_renyi3_half_chain
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


@dataclass
class RunConfig:
    """Everything a run needs: the parsed flags over the --config file."""

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
    max_sweeps: int = 100_000
    dim_cap: int = oracle.DEFAULT_DIM_CAP
    log2: bool = False
    timing: bool = False


# CLI family name -> (Family, the N the name fixes, if any)
FAMILIES: dict[str, tuple[Family, int | None]] = {
    "u1": (Family.U1, 2), "su2": (Family.SUN, 2), "sun": (Family.SUN, None),
    "pf": (Family.PF, None), "tl": (Family.TL, None),
}


def resolve_family(cfg: RunConfig) -> Family:
    """The config's Family; a name that fixes N refuses a different --N."""
    name = cfg.family.lower()
    if name not in FAMILIES:
        raise Inadmissible(f"unknown family {name!r} ({' | '.join(FAMILIES)})")
    fam, fixed_N = FAMILIES[name]
    if fixed_N not in (None, cfg.N):
        raise Inadmissible(f"family {name} fixes N = {fixed_N}, got N={cfg.N}")
    return fam


def make_spec(cfg: RunConfig, L: int | None) -> CommutantSpec:
    if L is None:
        raise Inadmissible(f"{cfg.subcommand} needs --L")
    cut = cfg.cut if cfg.cut is not None else L // 2
    return CommutantSpec(resolve_family(cfg), cfg.N, L, cut)


def _scale(cfg: RunConfig) -> float:
    return 1.0 / LN2 if cfg.log2 else 1.0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        try:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise Inadmissible(f"cannot write output {cfg.output}: {exc.strerror}") from None
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


class Quantity(typing.NamedTuple):
    """One requested quantity: its row label (en, r3, rt1.5, sop), its place in
    compute's document (a group, and a key in it unless the group is the
    value), its index n, and the value it reads off a report."""

    label: str
    group: str
    key: str | None
    n: float | None
    value: typing.Callable[[EntanglementReport], float]


def _parse_quantities(cfg: RunConfig) -> list[Quantity]:
    """The requested quantities once each, in output order: en, r<n> and rt<n> by index, sop."""
    want_en = want_sop = False
    renyi: set[int] = set()
    rtilde: set[float] = set()
    for tok in cfg.quantities:
        t = tok.strip().lower()
        if t == "en":
            want_en = True
        elif t == "sop":
            want_sop = True
        elif t == "rtilde":
            rtilde.update(_order(f"rtilde n={n}", n, float) for n in cfg.n_grid)
        elif t.startswith("rt"):
            rtilde.add(_order(tok, t[2:], float))
        elif t.startswith("r"):
            renyi.add(_order(tok, t[1:], int))
        else:
            raise Inadmissible(f"unknown quantity {tok!r}")
    qs = [Quantity("en", "en", None, None, lambda r: r.E_N)] if want_en else []
    qs += [Quantity(f"r{n}", "r", str(n), n, lambda r, n=n: r.R[n]) for n in sorted(renyi)]
    qs += [Quantity(f"rt{_fmt(n)}", "rtilde", _fmt(n), n, lambda r, n=n: r.R_tilde[n])
           for n in sorted(rtilde)]
    if want_sop:
        qs.append(Quantity("sop", "sop", None, None, lambda r: r.S_OP))
    return qs


def _report(spec: CommutantSpec, qs: list[Quantity], backend: Backend) -> EntanglementReport:
    """compute_report at the Renyi and rtilde orders the quantities read."""
    return compute_report(spec, renyi_orders=[q.n for q in qs if q.group == "r"],
                          rtilde_orders=[q.n for q in qs if q.group == "rtilde"],
                          backend=backend)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = make_spec(cfg, cfg.L)
    qs = _parse_quantities(cfg)
    rep = _report(spec, qs, cfg.backend)
    wall = time.perf_counter() - t0
    s = _scale(cfg)
    quantities: dict = {}
    for q in qs:
        if q.key is None:
            quantities[q.group] = q.value(rep) * s
        else:
            quantities.setdefault(q.group, {})[q.key] = q.value(rep) * s
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
            "rtilde": {_fmt(n): b * s for n, b in rep.rtilde_bounds.items()},
        },
        "log_dim_c_min": rep.dim_C_min.log_value() * s,
    }
    if cfg.timing:
        doc["wall_time_s"] = round(wall, 3)
    if cfg.fmt == "csv":
        rows = [
            [k, _fmt(v) if isinstance(v, float) else v]
            for k, v in sorted(_flatten(doc).items())
        ]
        _emit(cfg, _csv_text(["key", "value"], rows))
    else:
        _emit(cfg, json.dumps(_round12(doc), sort_keys=True, indent=2) + "\n")
    print(f"computed in {wall:.3f} s", file=sys.stderr)
    return EXIT_OK


def _round12(x):
    """Round every float to 12 significant digits for deterministic output."""
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
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


def _admissible_specs(cfg: RunConfig, grid: list[int]) -> list[CommutantSpec]:
    """The specs of the grid's lengths, silently dropping those the formulas do not cover;
    a family or N refused at every length is refused first, as compute refuses it."""
    check_local_dimension(resolve_family(cfg), cfg.N)
    specs = []
    for L in grid:
        try:
            spec = make_spec(cfg, L)
        except Inadmissible:
            continue
        specs.append(spec)
    return specs


def cmd_scan(cfg: RunConfig) -> int:
    qs = _parse_quantities(cfg)
    specs = _admissible_specs(cfg, _L_grid(cfg))
    if not specs:
        raise Inadmissible("no admissible L in the scan range")
    r34_only = bool(qs) and {q.label for q in qs} <= {"r3", "r4"}

    def one(spec: CommutantSpec) -> list[tuple[int, str, float]]:
        # SU(N>2) R3/R4-only scans at half chain skip sector enumeration
        # entirely: the convolution evaluator is exact and O((NL)^2)
        if (r34_only and isinstance(spec.irreps, SUNIrreps)
                and spec.L_A == spec.L // 2 and spec.L > 64):
            val = sun_renyi3_half_chain(spec.N, spec.L)
            return [(spec.L, q.label, val) for q in qs]
        rep = _report(spec, qs, cfg.backend)
        return [(spec.L, q.label, q.value(rep)) for q in qs]

    s = _scale(cfg)
    rows = sorted((L, q, v) for sp in specs for L, q, v in one(sp))
    table = [[L, q, _fmt(v * s)] for L, q, v in rows]
    _emit(cfg, _csv_text(["L", "quantity", "value"], table))
    return EXIT_OK


ORACLE_QUANTITIES = ("en", "r3", "r4", "rt1.5", "sop")


def cmd_oracle(cfg: RunConfig) -> int:
    spec = make_spec(cfg, cfg.L)
    ks = oracle.build_kraus(spec.family, spec.N, spec.L, dim_cap=cfg.dim_cap)
    rho0 = oracle.singlet_product_state(spec.family, spec.N, spec.L)
    st = oracle.orbit_state(ks, rho0, tol=cfg.tol)
    rep = compute_report(spec, renyi_orders=(3, 4), rtilde_orders=(1.5,), backend="exact")
    cut = spec.L_A
    closed = {"en": rep.E_N, "r3": rep.R[3], "r4": rep.R[4], "rt1.5": rep.R_tilde[1.5],
              "sop": rep.S_OP}
    w, lam = oracle.pt_eigenvalues(st, cut), oracle.rho_spectrum(st)
    dense = {
        "en": oracle.log_negativity_from(w),
        "r3": oracle.renyi_negativity_from(w, lam, 3),
        "r4": oracle.renyi_negativity_from(w, lam, 4),
        "rt1.5": oracle.generalized_renyi_from(w, lam, 1.5),
        "sop": oracle.dense_ose(st, cut),
    }
    s = _scale(cfg)
    rows, ok = [], True
    for q in ORACLE_QUANTITIES:
        delta = abs(closed[q] - dense[q])
        good = delta < 1e-8
        ok &= good
        # + 0.0 turns a -0.0 (a dense R_n of exactly zero) into the closed form's 0
        rows.append([q, _fmt(closed[q] * s + 0.0), _fmt(dense[q] * s + 0.0), f"{delta:.3e}",
                     "PASS" if good else "FAIL"])
    _emit(cfg, _csv_text(["quantity", "closed_form", "dense", "abs_delta", "status"], rows))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_haar(cfg: RunConfig) -> int:
    if (resolve_family(cfg), cfg.N) != (Family.SUN, 2):
        raise Inadmissible(f"haar needs su2 (or sun --N 2), got {cfg.family} --N {cfg.N}")
    Ls = cfg.L_list or ([cfg.L] if cfg.L is not None else None)
    if not Ls:
        raise Inadmissible("haar needs --L or --L-list")
    tops = [HaarEnsembleSpec(L=L, samples=cfg.samples, seed=cfg.seed, L_A=cfg.cut,
                             lambda_max=L // 2 if cfg.lambda_max is None else cfg.lambda_max)
            for L in Ls]
    for top in tops:
        top.validate()
    point_rows = []
    curves: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for top in tops:
        L = top.L
        curve = haar_average_negativity(top)
        for lam, (mean, stderr) in enumerate(curve):
            point_rows.append(
                ["point", L, "", _fmt(lam / L), _fmt(mean), _fmt(stderr),
                 cfg.samples, cfg.seed, ""]
            )
        curves[L] = (np.arange(len(curve)) / L, np.array([mean for mean, _ in curve]))
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
    fam = resolve_family(cfg)
    # R_3 is the only Renyi order with a law
    qs = [q for q in _parse_quantities(cfg) if q.group != "r" or q.n == 3]
    if not qs:
        raise Inadmissible("asymptote needs at least one of en, r3, rtilde, sop")
    laws = [asymptotics.predicted_law(fam, cfg.N, "rtilde" if q.group == "rtilde" else q.label,
                                      n=q.n) for q in qs]

    grid = _L_grid(cfg) if (cfg.L_min is not None or cfg.L_list) else \
        [2**k for k in range(6, 13)]
    specs = _admissible_specs(cfg, grid)
    Ls = [spec.L for spec in specs]
    if repeated := sorted({L for L in Ls if Ls.count(L) > 1}):
        raise Inadmissible(f"repeated L={repeated[0]}: asymptote fits need distinct lengths")
    if len(specs) < 4:
        raise Inadmissible("fewer than 4 admissible scan points")
    reports = [_report(spec, qs, cfg.backend) for spec in specs]
    rows = []
    for q, law in zip(qs, laws):
        pts = [(rep.spec.L, q.value(rep)) for rep in reports]
        fit = asymptotics.fit_scaling(pts, law.form if law.form != "const" else "log")
        rows.append([
            q.label, law.form, law.kind,
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main's one stderr line and exit 2, not a usage block
        raise Inadmissible(message)


_ON = dict(action="store_const", const=True)
# RunConfig field -> (its flag, add_argument keywords)
OPTIONS: dict[str, tuple[str, dict]] = {
    "family": ("--family", dict(help="u1 | su2 | sun | pf | tl")),
    "N": ("--N", dict(type=int, help="local dimension (sun/pf/tl)")),
    "L": ("--L", dict(type=int, help="chain length")),
    "L_list": ("--L-list", dict(help="comma-separated lengths")),
    "L_min": ("--L-min", dict(type=int)),
    "L_max": ("--L-max", dict(type=int)),
    "L_step": ("--L-step", dict(type=int)),
    "geometric": ("--geometric", dict(_ON, help="double L between scan points")),
    "cut": ("--cut", dict(type=int, help="L_A (default: half chain)")),
    "quantities": ("--quantities", dict(help="comma list: en,r3,r4,rt1.5,rtilde,sop")),
    "n_grid": ("--n-grid", dict(help="comma list of rtilde indices")),
    "fmt": ("--format", dict(choices=typing.get_args(Format))),
    "output": ("--output", dict(help="output path (default stdout)")),
    "seed": ("--seed", dict(type=int)),
    "samples": ("--samples", dict(type=int)),
    "lambda_max": ("--lambda-max", dict(type=int)),
    "backend": ("--backend", dict(choices=typing.get_args(Backend))),
    "tol": ("--tol", dict(type=float, help="defect bound of oracle's check, dynamics' stop")),
    "max_sweeps": ("--max-sweeps", dict(type=int, help="sweep limit, at most 100000")),
    "dim_cap": ("--dim-cap", dict(type=int)),
    "log2": ("--log2", dict(_ON, help="display in bits instead of nats")),
    "timing": ("--timing", dict(_ON, help="include wall_time_s in JSON output")),
}


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="statent",
        description="Exact stationary-state entanglement for strongly symmetric channels.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (fn, reads) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        for key in reads:
            sp.add_argument(OPTIONS[key][0], dest=key, **OPTIONS[key][1])
    return p


def _split(key: str, text: str, kind: type) -> list:
    """A comma-separated list of kind; text that kind refuses is Inadmissible."""
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
    unknown = sorted(set(base) - set(SUBCOMMANDS[sub][1]))
    if unknown:
        raise Inadmissible(f"unknown config key(s) for {sub}: {', '.join(unknown)}")
    for k, v in args.items():
        if v is not None:
            base[k] = v
    for key, kind in (("L_list", int), ("n_grid", float), ("quantities", str)):
        if isinstance(base.get(key), str):
            base[key] = _split(key, base[key], kind)
    hints = typing.get_type_hints(RunConfig)
    for key, value in base.items():
        if not _fits(value, hint := hints[key]):
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise Inadmissible(f"config key {key}: {value!r} is not {kind}")
    cfg = RunConfig(subcommand=sub, **base)
    if not (math.isfinite(cfg.tol) and cfg.tol >= 0):
        raise Inadmissible(f"need a finite --tol >= 0, got {cfg.tol!r}")
    if cfg.max_sweeps < 1:
        raise Inadmissible(f"need --max-sweeps >= 1, got {cfg.max_sweeps}")
    if cfg.dim_cap < 1:
        raise Inadmissible(f"need --dim-cap >= 1, got {cfg.dim_cap}")
    return cfg


# subcommand -> (runner, the RunConfig fields it reads, which are its flags and config keys:
# family, N, cut, output and the listed ones)
SUBCOMMANDS: dict[str, tuple[typing.Callable[[RunConfig], int], list[str]]] = {
    name: (fn, ["family", "N", "cut", "output", *reads.split()]) for name, (fn, reads) in {
        "compute": (cmd_compute, "L quantities n_grid backend fmt log2 timing"),
        "scan": (cmd_scan, "L L_list L_min L_max L_step geometric quantities n_grid backend log2"),
        "oracle": (cmd_oracle, "L tol dim_cap log2"),
        "haar": (cmd_haar, "L L_list seed samples lambda_max"),
        "dynamics": (cmd_dynamics, "L tol max_sweeps dim_cap log2"),
        "asymptote": (cmd_asymptote,
                      "L_list L_min L_max L_step geometric quantities n_grid backend"),
    }.items()
}


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
        return SUBCOMMANDS[cfg.subcommand][0](cfg)
    except Inadmissible as exc:
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
