import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import statent
import statent.commutants as com
from statent.commutants import (
    CommutantSpec,
    Family,
    IrrepRecord,
    commutant_dimension,
    enumerate_sectors,
    singlet_dimension,
)
from statent.entanglement import (
    EXACT_L_THRESHOLD,
    EmptySectorList,
    NAtTwo,
    compute_report,
    generalized_renyi,
    log_negativity,
    operator_space_entanglement,
    pick_backend,
    renyi_negativity,
    su2_log_negativity_closed,
    su2_renyi3_closed,
    sun_renyi3_half_chain,
    upper_bounds,
)
from statent.exactnum import binomial, exact_log


def sectors_of(fam, N, L, LA=None):
    spec = CommutantSpec(fam, N, L, L // 2 if LA is None else LA)
    return spec, enumerate_sectors(spec), singlet_dimension(spec)


def test_su2_L8_values():
    _, secs, D0 = sectors_of(Family.SUN, 2, 8)
    assert log_negativity(secs, D0) == pytest.approx(math.log(18 / 7), abs=1e-14)
    assert renyi_negativity(secs, D0, 3) == pytest.approx(math.log(25 / 9), abs=1e-14)


def test_su2_closed_forms_exact_up_to_256():
    for L in range(4, 257, 4):
        _, secs, D0 = sectors_of(Family.SUN, 2, L)
        assert abs(log_negativity(secs, D0) - su2_log_negativity_closed(L)) <= 1e-12
        assert abs(renyi_negativity(secs, D0, 3) - su2_renyi3_closed(L)) <= 1e-12


def test_abelian_zero_exact():
    for L in range(4, 25, 2):
        _, secs, D0 = sectors_of(Family.U1, 2, L)
        assert log_negativity(secs, D0) == 0.0
        for n in (1, 2, 3, 4, 5, 7):
            assert renyi_negativity(secs, D0, n) == 0.0
    for L in range(4, 21, 4):
        for LA in (2, L // 2):
            _, secs, D0 = sectors_of(Family.PF, 3, L, LA)
            assert log_negativity(secs, D0) == 0.0
            assert renyi_negativity(secs, D0, 3) == 0.0


def test_abelian_reports_read_exactly_zero():
    # all d = 1 makes M(k) = 1 at every real k; a non-integer k summed as a float
    # log-sum-exp against the exact log D_0 would leave up to 1.4e-14 either sign
    cases = [(Family.U1, 2, L, LA) for L in range(4, 513, 2) for LA in {L // 2, L // 4}]
    cases += [(Family.PF, N, L, LA) for N in (3, 4) for L in range(4, 513, 4)
              for LA in {L // 2, L // 4} if LA % 2 == 0]
    for fam, N, L, LA in cases:
        rep = compute_report(CommutantSpec(fam, N, L, LA), renyi_orders=(1, 2, 3, 4, 5),
                             rtilde_orders=(0.5, 1.5, 2.5, 3.0, 6.0), backend="exact")
        for v in (rep.E_N, *rep.R.values(), *rep.R_tilde.values()):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, (fam, N, L, LA)


def test_renyi_n1_always_zero():
    for fam, N in [(Family.SUN, 2), (Family.TL, 3), (Family.SUN, 3)]:
        L = 12 if fam == Family.SUN and N == 3 else 8
        _, secs, D0 = sectors_of(fam, N, L)
        assert renyi_negativity(secs, D0, 1) == 0.0


def test_tl3_L4_values():
    _, secs, D0 = sectors_of(Family.TL, 3, 4)
    assert log_negativity(secs, D0) == pytest.approx(math.log(9 / 2), abs=1e-14)
    assert renyi_negativity(secs, D0, 3) == pytest.approx(math.log(128 / 65), abs=1e-14)
    assert generalized_renyi(secs, D0, 4.0) == pytest.approx(
        renyi_negativity(secs, D0, 4) / 2, abs=1e-14
    )


def test_ose_values():
    _, secs, D0 = sectors_of(Family.SUN, 2, 4)
    assert operator_space_entanglement(secs, D0) == pytest.approx(math.log(6), abs=1e-13)
    # value computed by the dense vectorized-state SVD oracle (test_oracle)
    _, secs, D0 = sectors_of(Family.U1, 2, 8)
    assert operator_space_entanglement(secs, D0) == pytest.approx(1.1380735149623171, abs=1e-12)


def test_ose_single_sector_zero():
    recs = [IrrepRecord(label=0, d=1, D_A=3, D_B=5)]
    assert operator_space_entanglement(recs, 15) == pytest.approx(0.0, abs=1e-15)


def test_empty_sector_list():
    with pytest.raises(EmptySectorList):
        log_negativity([], 1)


def test_n_at_two_rejected():
    _, secs, D0 = sectors_of(Family.TL, 3, 8)
    with pytest.raises(NAtTwo):
        generalized_renyi(secs, D0, 2.0)
    with pytest.raises(NAtTwo):
        generalized_renyi(secs, D0, 2.0000001)
    # fine just outside the guard band
    generalized_renyi(secs, D0, 2.001)


def test_even_step_identity_exact():
    for fam, N in [(Family.SUN, 2), (Family.TL, 3), (Family.TL, 4)]:
        for L in (8, 16, 24):
            _, secs, D0 = sectors_of(fam, N, L)
            for n in (2, 4, 6, 8):
                assert renyi_negativity(secs, D0, n) == renyi_negativity(secs, D0, n - 1)


def test_generalized_consistency():
    for fam, N in [(Family.SUN, 2), (Family.TL, 3)]:
        for L in (8, 16, 32):
            _, secs, D0 = sectors_of(fam, N, L)
            en = log_negativity(secs, D0)
            assert generalized_renyi(secs, D0, 1.0) == pytest.approx(en, rel=1e-12, abs=1e-14)
            for n in (4, 6, 8):
                assert (n - 2) * generalized_renyi(secs, D0, float(n)) == pytest.approx(
                    renyi_negativity(secs, D0, n), rel=1e-12, abs=1e-13
                )


def test_rtilde_monotone_above_two():
    for L in range(8, 65, 8):
        _, secs, D0 = sectors_of(Family.TL, 3, L)
        seq = [(n - 2) * generalized_renyi(secs, D0, float(n)) for n in (3, 4, 5, 6, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


def test_tl_renyi_below_r_infinity():
    for L in range(8, 65, 8):
        spec, secs, D0 = sectors_of(Family.TL, 3, L)
        half = CommutantSpec(Family.TL, 3, L // 2, L // 4 if (L // 4) % 2 == 0 else 2)
        r_inf = -math.log(singlet_dimension(half) ** 2 / D0)
        for n in (3, 5, 7, 9):
            assert renyi_negativity(secs, D0, n) < r_inf


def test_bound_examples():
    assert upper_bounds(CommutantSpec(Family.U1, 2, 8, 4)).e_n == pytest.approx(math.log(5))
    assert upper_bounds(CommutantSpec(Family.SUN, 2, 4, 2)).e_n == pytest.approx(math.log(10))
    b = upper_bounds(CommutantSpec(Family.PF, 3, 8, 4))
    assert b.log_max_d == 0.0  # Abelian: the max-degeneracy form is tighter
    assert b.rtilde(3.0) == 0.0 < 0.5 * b.log_dim_c_min


def test_bound_saturation():
    cases = []
    for L in range(4, 65, 4):
        cases.append(CommutantSpec(Family.SUN, 2, L, L // 2))
        cases.append(CommutantSpec(Family.U1, 2, L, L // 2))
        if (L // 2) % 2 == 0:
            cases.append(CommutantSpec(Family.TL, 3, L, L // 2))
            cases.append(CommutantSpec(Family.PF, 3, L, L // 2))
        if L % 6 == 0 and (L // 2) % 3 == 0:
            cases.append(CommutantSpec(Family.SUN, 3, L, L // 2))
    for spec in cases:
        secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
        b = upper_bounds(spec)
        assert log_negativity(secs, D0) <= b.e_n + 1e-10, spec
        assert operator_space_entanglement(secs, D0) <= b.s_op + 1e-10, spec
        for n in (0.5, 1.5, 3.0, 4.0):
            assert generalized_renyi(secs, D0, n) <= b.rtilde(n) + 1e-10, (spec, n)


def test_log_backend_matches_exact():
    for spec in [
        CommutantSpec(Family.SUN, 2, 32, 16),
        CommutantSpec(Family.TL, 3, 32, 16),
        CommutantSpec(Family.TL, 4, 24, 12),
        CommutantSpec(Family.PF, 3, 24, 12),
        CommutantSpec(Family.U1, 2, 30, 15),
        CommutantSpec(Family.SUN, 3, 24, 12),
    ]:
        secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
        rep = compute_report(spec, renyi_orders=(3,), rtilde_orders=(1.5,), backend="log")
        assert rep.E_N == pytest.approx(log_negativity(secs, D0), rel=1e-10, abs=1e-10)
        assert rep.R[3] == pytest.approx(renyi_negativity(secs, D0, 3), rel=1e-10, abs=1e-10)
        assert rep.R_tilde[1.5] == pytest.approx(
            generalized_renyi(secs, D0, 1.5), rel=1e-10, abs=1e-10
        )
        assert rep.S_OP == pytest.approx(
            operator_space_entanglement(secs, D0), rel=1e-10, abs=1e-10
        )


def test_zero_quotient_sign_per_backend():
    # over exact rows M(k) == 1 reads +0.0 at every order; the log backend keeps
    # the plain quotient, whose -0.0 the pinned U(1) scaling output records
    for spec in [CommutantSpec(Family.U1, 2, 16, 8), CommutantSpec(Family.PF, 3, 12, 6)]:
        rep = compute_report(spec, renyi_orders=(3,), rtilde_orders=(3.0,), backend="exact")
        assert math.copysign(1.0, rep.R[3]) == math.copysign(1.0, rep.R_tilde[3.0]) == 1.0
        assert rep.R[3] == rep.R_tilde[3.0] == 0.0
    rep = compute_report(CommutantSpec(Family.U1, 2, 2048, 1024), renyi_orders=(3,),
                         rtilde_orders=(), backend="log")
    assert rep.R[3] == 0.0 and math.copysign(1.0, rep.R[3]) == -1.0


def test_unit_d_log_report_searches_one_window(monkeypatch):
    # with every d = 1 each moment is 1 exactly, so a U(1) log report searches the
    # weight's window alone, not one more per moment order (7 searches in all)
    calls = []
    window = com._window
    monkeypatch.setattr(com, "_window", lambda spec, k: calls.append(k) or window(spec, k))
    rep = compute_report(CommutantSpec(Family.U1, 2, 10**6, 5 * 10**5), backend="log")
    assert len(calls) == 1
    assert rep.E_N == 0.0 and not any([*rep.R.values(), *rep.R_tilde.values()])


def test_sun_r3_convolution_matches_enumeration():
    for N, L in [(3, 12), (3, 30), (4, 16), (4, 32), (5, 20)]:
        spec, secs, D0 = sectors_of(Family.SUN, N, L)
        assert sun_renyi3_half_chain(N, L) == pytest.approx(
            renyi_negativity(secs, D0, 3), rel=1e-10, abs=1e-10
        )


def _per_element_sun_r3(N: int, L: int) -> float:
    """sun_renyi3_half_chain with one math.lgamma per binomial: the reference."""
    LA, a = L // 2, L // N + N - 1
    M = LA + N * (N - 1) // 2
    log_g = np.array([math.lgamma(a + 1) - math.lgamma(x + 1) - math.lgamma(a - x + 1)
                      for x in range(a + 1)])
    shift = float(np.max(log_g))
    g = np.exp(log_g - shift)
    ps = []
    for i in range(1, N + 1):
        p = np.zeros(i * a + 1)
        p[::i] = g**i
        ps.append(p)
    es = [np.ones(1)]
    for k in range(1, N + 1):
        acc = np.zeros(k * a + 1)
        for i in range(1, k + 1):
            term = np.convolve(es[k - i], ps[i - 1])
            acc[: term.size] += (1.0 if (i - 1) % 2 == 0 else -1.0) * term
        es.append(acc / k)
    lsf = math.log(com._superfactorial(N))
    log_sum = 2 * math.lgamma(LA + 1) + 2 * lsf - N * math.lgamma(a + 1) \
        + N * shift + math.log(float(es[N][M]))
    log_D0 = math.lgamma(L + 1) + lsf
    for i in range(N):
        log_D0 -= math.lgamma(L // N + i + 1)
    return -(log_sum - log_D0)


# the fig4_sun3_r3 scan grid, shifted by up to two lattice steps of 6, and the
# closed_forms benchmark's sun_r3 items with their seed shifts of 2N and 4N
_SUN_R3_PINNED = ([(3, 96 * 2**j + 6 * s) for j in range(7) for s in (-2, -1, 0, 1, 2)]
                  + [(N, 3000 * N + s * N) for N in (3, 4, 5) for s in (-4, -2, 0, 2, 4)])


@pytest.mark.parametrize("N, L", [(3, 6), (3, 12), (3, 60), (4, 8), (4, 24), (5, 10), (5, 30)]
                         + _SUN_R3_PINNED)
def test_sun_r3_reads_the_per_element_lgamma_formula(N, L):
    # the reference forms all of e_N; the evaluator only its coefficient M, bit for bit
    assert sun_renyi3_half_chain(N, L) == _per_element_sun_r3(N, L)


def _lcm_sum_ratio_terms(terms):
    """Every term scaled onto the lcm of all denominators: the reference sum."""
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


@pytest.mark.parametrize("N, L", [(3, 508), (3, 512), (4, 508), (4, 512)])
def test_exact_negative_moments_read_the_lcm_sum(monkeypatch, N, L):
    spec = CommutantSpec(Family.TL, N, L, L // 2)
    orders = dict(renyi_orders=(3, 5, 9), rtilde_orders=(0.5, 3.0, 4.0, 6.0), backend="exact")
    rep = compute_report(spec, **orders)
    monkeypatch.setattr(statent.entanglement, "sum_ratio_terms", _lcm_sum_ratio_terms)
    ref = compute_report(spec, **orders)
    assert rep.R == ref.R and rep.R_tilde == ref.R_tilde


def test_compute_report_backends():
    spec = CommutantSpec(Family.TL, 3, 16, 8)
    rep_e = compute_report(spec, backend="exact")
    rep_l = compute_report(spec, backend="log")
    assert rep_e.mode == "exact" and rep_l.mode == "log_domain"
    assert rep_l.E_N == pytest.approx(rep_e.E_N, rel=1e-10)
    assert rep_l.S_OP == pytest.approx(rep_e.S_OP, rel=1e-10)
    big = compute_report(CommutantSpec(Family.TL, 3, 2048, 1024))
    assert big.mode == "log_domain"
    assert big.E_N > 100  # volume law well developed by L = 2048
    # every field agrees across the backends at the default switch point
    L = EXACT_L_THRESHOLD
    for spec in [
        CommutantSpec(Family.U1, 2, L, L // 2),
        CommutantSpec(Family.SUN, 2, L, L // 2),
        CommutantSpec(Family.TL, 3, L, L // 2),
        CommutantSpec(Family.PF, 3, L, L // 2),
        CommutantSpec(Family.SUN, 3, 96, 48),
        # exact backend at the top of the SU(N >= 3) sizes it is chosen for
        CommutantSpec(Family.SUN, 3, 510, 255),
        CommutantSpec(Family.SUN, 4, 256, 128),
    ]:
        rep_e = compute_report(spec, backend="exact")
        rep_l = compute_report(spec, backend="log")
        for name, have, want in [
            ("E_N", rep_l.E_N, rep_e.E_N),
            ("S_OP", rep_l.S_OP, rep_e.S_OP),
            ("log_dim_C_min", rep_l.dim_C_min.log_value(), rep_e.dim_C_min.log_value()),
            ("log_dim_c_min", rep_l.bounds.log_dim_c_min, rep_e.bounds.log_dim_c_min),
            ("log_max_d", rep_l.bounds.log_max_d, rep_e.bounds.log_max_d),
            *((f"R_{n}", rep_l.R[n], rep_e.R[n]) for n in rep_e.R),
            *((f"Rt_{n}", rep_l.R_tilde[n], rep_e.R_tilde[n]) for n in rep_e.R_tilde),
            *((f"Rt_bound_{n}", rep_l.rtilde_bounds[n], rep_e.rtilde_bounds[n])
              for n in rep_e.rtilde_bounds),
        ]:
            assert have == pytest.approx(want, rel=1e-10), (spec, name)
        assert rep_l.R.keys() == rep_e.R.keys() and rep_l.R_tilde.keys() == rep_e.R_tilde.keys()


def test_mirror_cuts_pick_same_backend():
    # the same paired sectors on either side of the chain: 8037 for SU(4), L = 400
    a = CommutantSpec(Family.SUN, 4, 400, 100)
    b = CommutantSpec(Family.SUN, 4, 400, 300)
    assert pick_backend(a) == pick_backend(b) == "exact"
    ra, rb = compute_report(a), compute_report(b)
    assert ra.mode == rb.mode
    for name, x, y in [
        ("E_N", ra.E_N, rb.E_N),
        ("S_OP", ra.S_OP, rb.S_OP),
        ("log_dim_C_min", ra.dim_C_min.log_value(), rb.dim_C_min.log_value()),
        ("log_dim_c_min", ra.bounds.log_dim_c_min, rb.bounds.log_dim_c_min),
        ("log_max_d", ra.bounds.log_max_d, rb.bounds.log_max_d),
        *((f"R_{n}", ra.R[n], rb.R[n]) for n in ra.R),
        *((f"Rt_{n}", ra.R_tilde[n], rb.R_tilde[n]) for n in ra.R_tilde),
        *((f"Rt_bound_{n}", ra.rtilde_bounds[n], rb.rtilde_bounds[n]) for n in ra.rtilde_bounds),
    ]:
        assert x == pytest.approx(y, rel=1e-12, abs=1e-12), name


def test_estimate_counts_labels_without_building_them():
    for fam, N in ((Family.U1, 2), (Family.SUN, 2), (Family.TL, 3), (Family.PF, 3)):
        irreps = CommutantSpec(fam, N, 4, 2).irreps
        for ell in (1, 2, 7, 64, 1001):
            assert irreps.estimate(N, ell) == len(irreps.labels(N, ell)), (fam, ell)


def test_explicit_exact_backend_stops_at_its_sector_cap():
    # every size the tests run on the exact backend, and each family's last size under the cap
    for spec in [CommutantSpec(Family.TL, 3, 4096, 2048), CommutantSpec(Family.SUN, 3, 510, 255),
                 CommutantSpec(Family.SUN, 4, 256, 128), CommutantSpec(Family.SUN, 4, 400, 100),
                 CommutantSpec(Family.SUN, 2, 799_996, 399_998),
                 CommutantSpec(Family.U1, 2, 400_000, 199_999)]:
        assert pick_backend(spec, "exact") == "exact", spec
    for spec in [CommutantSpec(Family.SUN, 2, 800_000, 400_000),
                 CommutantSpec(Family.U1, 2, 400_000, 200_000),
                 CommutantSpec(Family.SUN, 5, 10_000, 5000)]:
        with pytest.raises(com.TooManySectors, match="EXACT_SECTOR_CAP"):
            pick_backend(spec, "exact")
        assert pick_backend(spec) == pick_backend(spec, "log") == "log"


def test_sun_partition_estimate_covers_large_N():
    irreps = CommutantSpec(Family.SUN, 3, 6, 3).irreps
    # the binomial estimate reads 1 at N = ell; the counts are p(30), p(50), p(100)
    assert [irreps.estimate(N, N) for N in (30, 50, 100)] == [5604, 204226, 190569292]
    for N, ell in [(3, 12), (4, 9), (5, 20), (8, 8), (12, 10)]:
        assert irreps.estimate(N, ell) >= len(irreps.labels(N, ell)), (N, ell)
    # the SU(3)/SU(4) grid of the closed_forms benchmark keeps its exact backend
    grid = [(3, 96), (3, 192), (3, 288), (4, 64), (4, 96), (4, 128)]
    assert {pick_backend(CommutantSpec(Family.SUN, N, L, L // 2)) for N, L in grid} == {"exact"}
    assert pick_backend(CommutantSpec(Family.SUN, 3, 576, 288)) == "log"


def _partition_count_loop(N, ell):
    """SUNIrreps.estimate as the O(N ell) integer loop over p(n, k)."""
    p = [1] + [0] * ell
    for k in range(1, min(N, ell) + 1):
        for n in range(k, ell + 1):
            p[n] += p[n - k]
    return max(p[ell], math.comb(ell + N - 1, N - 1) // math.factorial(N - 1))


def test_sun_partition_estimate_reads_the_integer_loop():
    irreps = com.IRREPS[Family.SUN]
    for N, ell in [(30, 30), (50, 50), (100, 100), (5, 5000), (5, 900), (3, 2829), (4, 416),
                   (3, 12), (4, 9), (5, 20), (8, 8), (12, 10), (3, 0), (3, 1), (7, 3)]:
        assert irreps.estimate(N, ell) == _partition_count_loop(N, ell), (N, ell)
    # the binomial term wins past the float count; a count past the float range
    # reads as the largest float, where the binomial term alone reads 0
    assert irreps.estimate(50, 10**6) == math.comb(10**6 + 49, 49) // math.factorial(49)
    assert irreps.estimate(1000, 10**5) == int(np.finfo(float).max) > com.SECTOR_ENUM_CAP


def test_log_backend_reach_one_million():
    # the README's reach, in a fresh interpreter; VmHWM (peak RSS) restarts at
    # exec, where ru_maxrss would carry over the pytest process's own peak
    code = textwrap.dedent("""
        import json, time
        from statent import CommutantSpec, Family, compute_report
        t0 = time.perf_counter()
        reps = {f"{f.value}{N}": compute_report(CommutantSpec(f, N, 10**6, 5 * 10**5))
                for f, N in ((Family.U1, 2), (Family.SUN, 2), (Family.TL, 3), (Family.PF, 3))}
        E_N = {k: r.E_N for k, r in reps.items()}
        pf = reps["pf3"]
        with open("/proc/self/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM:"))
        print(json.dumps({"E_N": E_N, "pf_S_OP": [pf.S_OP, pf.bounds.s_op],
                          "wall_s": time.perf_counter() - t0,
                          "maxrss_mb": int(hwm.split()[1]) / 1024}))
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["wall_s"] < 30 and got["maxrss_mb"] < 400, got
    assert got["E_N"]["u12"] == 0.0
    assert got["E_N"]["sun2"] == pytest.approx(0.5 * math.log(10**6), abs=0.5)
    assert got["E_N"]["tl3"] / 10**6 == pytest.approx(0.1116, abs=1e-3)  # Read-Saleur volume law
    assert got["E_N"]["pf3"] == 0.0
    assert got["pf_S_OP"][0] <= got["pf_S_OP"][1]


def _million_report_peak(family: Family, N: int,
                         call: str = 'compute_report(spec, backend="log")', L: int = 10**6) -> int:
    """tracemalloc's peak over one half-chain log report (or call) at L, by default
    10^6, in a fresh interpreter."""
    code = textwrap.dedent(f"""
        import tracemalloc
        from statent import CommutantSpec, Family, compute_report, upper_bounds
        spec = CommutantSpec(Family("{family.value}"), {N}, {L}, {L // 2})
        tracemalloc.start()
        {call}
        print(tracemalloc.get_traced_memory()[1])
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


def test_u1_million_report_memory():
    # the sums read a 19,311-label window, not all 500,001 sectors, and the bounds
    # are closed forms, so the window tables set the peak (1.9 MiB); a table over
    # every sector would peak at 22.9
    assert _million_report_peak(Family.U1, 2) <= 4 * 2**20


@pytest.mark.parametrize("family, N", [(Family.SUN, 2), (Family.TL, 3)])
def test_ballot_million_report_memory(family, N):
    # each summand's window holds at most about 19k of 250,001 labels, and those
    # window tables set the peak (1.4 and 2.5 MiB)
    assert _million_report_peak(family, N) <= 4 * 2**20


@pytest.mark.parametrize("family, N", [(Family.U1, 2), (Family.SUN, 2), (Family.TL, 3),
                                       (Family.PF, 3)])
def test_million_bounds_walk_no_label(family, N):
    # one closed form per entry: no array over the 250,001-500,001 labels of the
    # smaller half (a walk over them peaks at 7.6-11.5 MiB)
    assert _million_report_peak(family, N, "upper_bounds(spec)") <= 64 * 2**10


@pytest.mark.parametrize("N, L, cap_mib", [(3, 5652, 1), (4, 824, 4)])
def test_sun_bounds_walk_only_an_empty_last_row(N, L, cap_mib):
    # dim C is one binomial and max d walks the partitions into N - 1 rows (0.13 and
    # 1.4 MiB); a walk over every partition of the smaller half peaks at 66.2 and 54.1
    assert _million_report_peak(Family.SUN, N, "upper_bounds(spec)", L) <= cap_mib * 2**20


@pytest.mark.parametrize("family, N", [(Family.U1, 2), (Family.SUN, 2), (Family.TL, 3)])
def test_million_report_orders_are_independent(family, N):
    # every summand has a window of its own, so a value does not depend on which
    # other orders a report asks for (one union window would change its sum)
    spec = CommutantSpec(family, N, 10**6, 5 * 10**5)
    rep = compute_report(spec, backend="log")
    for n, v in rep.R.items():
        assert compute_report(spec, renyi_orders=(n,), rtilde_orders=(),
                              backend="log").R[n] == v, n
    for n, v in rep.R_tilde.items():
        assert compute_report(spec, renyi_orders=(), rtilde_orders=(n,),
                              backend="log").R_tilde[n] == v, n


def test_sun_report_refuses_too_many_partitions():
    # in a child interpreter with a timeout, as below; the off-half cut walks
    # its 100-site table and is refused at the capped walk of L_A = 900
    code = textwrap.dedent("""
        from statent.commutants import CommutantSpec, Family, TooManySectors
        from statent.entanglement import compute_report
        for L_A in (5000, 900):
            for backend in ("exact", "log"):
                try:
                    compute_report(CommutantSpec(Family.SUN, 5, 10000 if L_A == 5000 else 1000,
                                                 L_A), backend=backend)
                except TooManySectors as exc:
                    print(str(exc).split()[0])
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    half = f"~{com.IRREPS[Family.SUN].estimate(5, 5000)}"
    off = f"~{com.IRREPS[Family.SUN].estimate(5, 900)}"
    assert out.stdout.split() == [half, half, off, off]


def test_sun_bounds_refuse_too_many_partitions():
    # every SU(N) partition walk is capped, max d's too, and dim C walks none; a
    # child interpreter with a timeout, since an uncapped walk never returns
    code = textwrap.dedent("""
        from statent.commutants import (CommutantSpec, Family, TooManySectors,
                                        commutant_dimension, max_log_degeneracy)
        from statent.entanglement import upper_bounds
        spec = CommutantSpec(Family.SUN, 5, 10000, 5000)
        for fn in (upper_bounds, commutant_dimension, max_log_degeneracy):
            try:
                fn(spec)
            except TooManySectors as exc:
                print(fn.__name__, exc)
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["upper_bounds", "max_log_degeneracy"]
    # the refusal names the group and the partitions into N - 1 rows it would walk
    assert f"~{com.IRREPS[Family.SUN].estimate(4, 5000)} SU(5) partitions" in lines[1]
    spec = CommutantSpec(Family.SUN, 5, 10000, 5000)
    assert commutant_dimension(spec).log_value() == exact_log(binomial(5024, 24))


def test_large_orders_finish_on_the_exact_backend():
    # exact moments at these orders would sum d^|k| as Python ints with millions of
    # bits (or 10^20 of them); past EXACT_MOMENT_BITS the exact backend takes the
    # log-sum-exp, in a child interpreter with a timeout in case it does not
    code = textwrap.dedent("""
        import json
        from statent import CommutantSpec, Family, compute_report
        out = []
        for fam, L, renyi, rtilde in ((Family.SUN, 8, [1000001], [1e20]),
                                      (Family.SUN, 64, [100001], []),
                                      (Family.U1, 8, [1000001], [1e20])):
            for backend in ("exact", "log"):
                rep = compute_report(CommutantSpec(fam, 2, L, L // 2), renyi_orders=renyi,
                                     rtilde_orders=rtilde, backend=backend)
                out.append([rep.mode, *rep.R.values(), *rep.R_tilde.values()])
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    for exact, log in zip(runs[0::2], runs[1::2]):
        assert exact[0] == "exact" and log[0] == "log_domain"
        assert exact[1:] == pytest.approx(log[1:], rel=1e-12, abs=0.0)
    assert runs[4][1:] == [0.0, 0.0]  # U(1) still sums exactly, to exactly 0
