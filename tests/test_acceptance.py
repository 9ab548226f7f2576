"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass;
tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

import statent.oracle as orc
from statent.asymptotics import (
    fit_scaling,
    tl_linear_coefficient,
    tl_sqrt_coefficient,
)
from statent.commutants import (
    CommutantSpec,
    Family,
    enumerate_sectors,
    pf_pattern_count,
    pf_sector_dimension,
    sector_log_arrays,
    singlet_dimension,
)
from statent.entanglement import (
    compute_report,
    generalized_renyi,
    log_negativity,
    operator_space_entanglement,
    operator_space_entanglement_logdomain,
    renyi_negativity,
    su2_log_negativity_closed,
    su2_renyi3_closed,
)
from statent.su2cg import (
    HaarEnsembleSpec,
    cg_coefficient,
    crossing_point,
    haar_average_negativity,
)

from conftest import cg_singlet, exact_sum, fit_general, pf_pattern_census, sun_r3_derivatives


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


ORACLE_CONFIGS = [
    (Family.SUN, 2, 4, 2), (Family.SUN, 2, 8, 4),
    (Family.U1, 2, 4, 2), (Family.U1, 2, 6, 3), (Family.U1, 2, 8, 4),
    (Family.PF, 3, 4, 2), (Family.PF, 3, 6, 2),
    (Family.TL, 3, 4, 2), (Family.TL, 3, 6, 2),
    (Family.TL, 4, 4, 2),
    (Family.SUN, 3, 6, 3),
]


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    for fam, N, L, LA in ORACLE_CONFIGS:
        spec = CommutantSpec(fam, N, L, LA)
        st = orc.stationary_state(spec)
        secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
        pairs = [
            (log_negativity(secs, D0), orc.dense_log_negativity(st, LA)),
            (renyi_negativity(secs, D0, 3), orc.dense_renyi_negativity(st, LA, 3)),
            (renyi_negativity(secs, D0, 4), orc.dense_renyi_negativity(st, LA, 4)),
            (generalized_renyi(secs, D0, 1.5), orc.dense_generalized_renyi(st, LA, 1.5)),
            (operator_space_entanglement(secs, D0), orc.dense_ose(st, LA)),
        ]
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    report(1, "oracle equivalence (E_N, R3, R4, Rt1.5, S_OP)", worst < 1e-8,
           f"worst |closed - dense| = {worst:.2e} over {len(ORACLE_CONFIGS)} configs")


def test_criterion_02_su2_closed_forms_and_fits():
    worst = 0.0
    for L in range(4, 257, 4):
        secs = enumerate_sectors(CommutantSpec(Family.SUN, 2, L, L // 2))
        D0 = singlet_dimension(CommutantSpec(Family.SUN, 2, L, L // 2))
        worst = max(worst, abs(log_negativity(secs, D0) - su2_log_negativity_closed(L)))
        worst = max(worst, abs(renyi_negativity(secs, D0, 3) - su2_renyi3_closed(L)))
    pts = {q: [] for q in ("en", "r3", "sop")}
    for k in range(6, 13):
        L = 2**k
        rep = compute_report(CommutantSpec(Family.SUN, 2, L, L // 2), renyi_orders=(3,),
                             rtilde_orders=(), backend="log")
        pts["en"].append((L, rep.E_N))
        pts["r3"].append((L, rep.R[3]))
        pts["sop"].append((L, rep.S_OP))
    s_en = fit_scaling(pts["en"], "log").slope
    s_r3 = fit_scaling(pts["r3"], "log").slope
    s_sop = fit_scaling(pts["sop"], "log").slope
    ok = (worst <= 1e-12 and abs(s_en - 0.5) <= 0.02 and abs(s_r3 - 1.0) <= 0.02
          and abs(s_sop - 1.5) <= 0.03)
    report(2, "SU(2) closed forms + log fits", ok,
           f"max closed-form dev {worst:.1e}; slopes en={s_en:.4f} r3={s_r3:.4f} sop={s_sop:.4f}")


def test_criterion_03_u1():
    exact_zero = True
    for L in range(4, 41, 2):
        spec = CommutantSpec(Family.U1, 2, L, L // 2)
        secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
        exact_zero &= log_negativity(secs, D0) == 0.0
        exact_zero &= all(renyi_negativity(secs, D0, n) == 0.0 for n in (1, 2, 3, 4, 5))
    pts = []
    for k in range(6, 13):
        L = 2**k
        ls = sector_log_arrays(CommutantSpec(Family.U1, 2, L, L // 2))
        pts.append((L, operator_space_entanglement_logdomain(ls)))
    fit = fit_scaling(pts, "log")
    pred_intercept = 0.5 + math.log(math.sqrt(2 * math.pi) / 4)
    ok = (exact_zero and abs(fit.slope - 0.5) <= 0.02
          and abs(fit.intercept - pred_intercept) <= 0.05)
    report(3, "U(1): zero negativities, S_OP ~ (1/2) log L", ok,
           f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} (pred {pred_intercept:.4f})")


def test_criterion_04_sun_r3_bracket():
    details, ok = [], True
    for N in (3, 4, 5):
        derivs = sun_r3_derivatives(N, 3000 * N, decades=1.0, points=8)
        ds = [d for _, d in derivs]
        lo, hi = N * (N - 1) / 2.0, (N * N - 1) / 2.0
        last = ds[-1]
        contained = lo - 0.1 <= last <= hi + 0.1
        gaps = [abs(d - lo) for d in ds]
        converging = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok &= contained and converging
        details.append(f"N={N}: d={last:.3f} in [{lo - 0.1},{hi + 0.1}], gap monotone={converging}")
    report(4, "SU(N) R3 slope bracket at L = 3000 N", ok, "; ".join(details))


def test_criterion_05_tl3_volume_law():
    en_pts, r3_pts, sop_pts = [], [], []
    for k in range(6, 13):
        L = 2**k
        rep = compute_report(CommutantSpec(Family.TL, 3, L, L // 2), renyi_orders=(3,),
                             rtilde_orders=(), backend="log")
        if k >= 8:
            en_pts.append((L, rep.E_N))
            r3_pts.append((L, rep.R[3]))
        sop_pts.append((L, rep.S_OP))
    c_lin = fit_scaling(en_pts, "linear").slope
    c_log = fit_scaling(r3_pts, "log").slope
    # S_OP = c sqrt(L) + O(log L): three-term fit isolates the sqrt part
    c_sqrt = fit_general(sop_pts, [np.sqrt, np.log, np.ones_like])[0]
    target = tl_sqrt_coefficient(3)
    ok = (c_lin >= 0.1116 - 0.005 and c_log <= 1.5 + 0.05
          and abs(c_sqrt - target) <= 0.02)
    report(5, "TL(3): E_N volume law, R3 log bound, S_OP sqrt law", ok,
           f"c_lin={c_lin:.5f} (>= {0.1116 - 0.005}); c_log={c_log:.4f} (<= 1.55); "
           f"c_sqrt={c_sqrt:.4f} (target {target:.4f} +- 0.02)")


def test_criterion_06_rtilde_transition():
    Ls = [2**k for k in range(8, 13)]
    reports = {L: compute_report(CommutantSpec(Family.TL, 3, L, L // 2), renyi_orders=(),
                                 rtilde_orders=(0.5, 1.0, 1.5, 3.0, 4.0, 6.0), backend="log")
               for L in Ls}
    details, ok = [], True
    for n in (0.5, 1.0, 1.5):
        pts = [(L, reports[L].R_tilde[n]) for L in Ls]
        slope = fit_scaling(pts, "linear").slope
        ref = tl_linear_coefficient(3, n)
        good = slope >= ref - 0.01
        ok &= good
        details.append(f"n={n}: lin {slope:.4f}>={ref - 0.01:.4f}")
    for n in (3.0, 4.0, 6.0):
        pts = [(L, reports[L].R_tilde[n]) for L in Ls]
        slope = fit_scaling(pts, "log").slope
        ref = 1.5 / (n - 2.0)
        good = slope <= ref + 0.05
        ok &= good
        details.append(f"n={n}: log {slope:.4f}<={ref + 0.05:.4f}")
    report(6, "TL(3) generalized-Renyi transition at n = 2", ok, "; ".join(details))


def test_criterion_07_pf_certification():
    checked = 0
    ok = True
    for N in (2, 3, 4, 5):
        L = 2
        while N**L <= 10**6:
            census = pf_pattern_census(N, L)
            by_len: dict[int, set] = {}
            for pat, cnt in census.items():
                by_len.setdefault(len(pat), set()).add(cnt)
            for M, counts in by_len.items():
                ok &= len(counts) == 1 and counts.pop() == pf_sector_dimension(N, L, M)
                ok &= sum(1 for p in census if len(p) == M) == pf_pattern_count(N, M)
                checked += 1
            L += 1
    for L in range(4, 41, 4):
        spec = CommutantSpec(Family.PF, 3, L, L // 2)
        secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
        ok &= log_negativity(secs, D0) == 0.0
        ok &= renyi_negativity(secs, D0, 3) == 0.0
    ratios = []
    for k in range(6, 21):
        L = 2**k
        ls = sector_log_arrays(CommutantSpec(Family.PF, 3, L, L // 2))
        ratios.append(operator_space_entanglement_logdomain(ls) / math.sqrt(L))
    steps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    settling = all(b < a for a, b in zip(steps, steps[1:])) and all(r > 0 for r in ratios)
    ok &= settling
    report(7, "PF: closed form certified by census; separable; S_OP/sqrt(L) settles", ok,
           f"{checked} (N,L,M) census sectors; S_OP/sqrt(L) -> {ratios[-1]:.4f}")


def test_criterion_08_haar_ensemble():
    curves, ok, details = {}, True, []
    for L in (12, 16, 20):
        curve = haar_average_negativity(
            HaarEnsembleSpec(L=L, lambda_max=L // 2, samples=100, seed=20240814)
        )
        fs = [lam / L for lam in range(len(curve))]
        ms = [m for m, _ in curve]
        ses = [se for _, se in curve]
        curves[L] = (np.array(fs), np.array(ms))
        mono = all(
            ms[i + 1] < ms[i] + 2 * (ses[i] + ses[i + 1]) for i in range(len(ms) - 1)
        )
        ok &= mono
        details.append(f"L={L} decreasing={mono}")
    shared = np.linspace(0.0, 0.5, 201)
    interp = {L: np.interp(shared, *curves[L]) for L in curves}
    x1 = crossing_point(shared, interp[16], interp[12])
    x2 = crossing_point(shared, interp[20], interp[16])
    ok &= x2 < x1
    details.append(f"crossings {x1:.4f} > {x2:.4f}")
    m_half = curves[20][1][-1]
    m_zero = curves[20][1][0]
    ok &= m_half < 0.25 * m_zero
    details.append(f"L=20: mean(lam=L/2)={m_half:.4f} < 25% of {m_zero:.4f}")
    report(8, "Haar mixtures: decreasing E_N, shrinking crossings", ok, "; ".join(details))


DYNAMICS_CONFIGS = [
    (Family.SUN, 2, 4, 2), (Family.SUN, 3, 6, 3),
    (Family.TL, 2, 4, 2), (Family.TL, 3, 4, 2), (Family.TL, 4, 4, 2),
]


def test_criterion_09_dynamics_saturation():
    ok, details = True, []
    for fam, N, L, LA in DYNAMICS_CONFIGS:
        spec = CommutantSpec(fam, N, L, LA)
        ks = orc.build_kraus(fam, N, L)
        rho0 = orc.singlet_product_state(fam, N, L)
        _, rows = orc.iterate_with_trajectory(ks, rho0, LA, tol=1e-10)
        secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
        targets = {
            "E_N": log_negativity(secs, D0),
            "R3": renyi_negativity(secs, D0, 3),
            "S_OP": operator_space_entanglement(secs, D0),
        }
        for key, target in targets.items():
            dev = [abs(r[key] - target) for r in rows]
            transient = min(10, len(dev) // 4)
            tail = dev[transient:]
            mono = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
            good = mono and dev[-1] <= 1e-6
            ok &= good
            if not good:
                details.append(f"{fam.value}{N} L={L} {key}: final {dev[-1]:.1e} mono={mono}")
        details.append(f"{fam.value}{N} L={L}: {len(rows) - 1} sweeps")
    report(9, "dynamics saturate to the closed forms", ok, "; ".join(details))


def test_criterion_10_cg_suite():
    ok = True
    for la in range(0, 7):
        for lb in range(0, 7):
            mm = min(la, lb)
            for m in range(-mm, mm + 1):
                for mp in range(-mm, mm + 1):
                    prods = [
                        cg_coefficient(t, la, lb, m) * cg_coefficient(t, la, lb, mp)
                        for t in range(abs(la - lb), la + lb + 1)
                    ]
                    total = exact_sum(prods)
                    from fractions import Fraction

                    want = {1: Fraction(1)} if m == mp else {}
                    ok &= total == want
    for lam in range(0, 21):
        for m in range(-lam, lam + 1):
            ok &= cg_coefficient(0, lam, lam, m) == cg_singlet(lam, m)
    report(10, "CG orthonormality and singlet specialization, exact", ok)
