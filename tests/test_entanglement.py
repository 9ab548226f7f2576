import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import statent
from statent.commutants import (
    CommutantSpec,
    Family,
    IrrepRecord,
    enumerate_sectors,
    sector_log_arrays,
    singlet_dimension,
)
from statent.entanglement import (
    EXACT_L_THRESHOLD,
    EmptySectorList,
    NAtTwo,
    compute_report,
    generalized_renyi,
    generalized_renyi_logdomain,
    log_negativity,
    log_negativity_logdomain,
    operator_space_entanglement,
    operator_space_entanglement_logdomain,
    renyi_negativity,
    renyi_negativity_logdomain,
    su2_log_negativity_closed,
    su2_renyi3_closed,
    sun_renyi3_half_chain,
    upper_bounds,
)


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
        ls = sector_log_arrays(spec)
        assert log_negativity_logdomain(ls) == pytest.approx(
            log_negativity(secs, D0), rel=1e-10, abs=1e-10
        )
        assert renyi_negativity_logdomain(ls, 3) == pytest.approx(
            renyi_negativity(secs, D0, 3), rel=1e-10, abs=1e-10
        )
        assert generalized_renyi_logdomain(ls, 1.5) == pytest.approx(
            generalized_renyi(secs, D0, 1.5), rel=1e-10, abs=1e-10
        )
        assert operator_space_entanglement_logdomain(ls) == pytest.approx(
            operator_space_entanglement(secs, D0), rel=1e-10, abs=1e-10
        )


def test_sun_r3_convolution_matches_enumeration():
    for N, L in [(3, 12), (3, 30), (4, 16), (4, 32), (5, 20)]:
        spec, secs, D0 = sectors_of(Family.SUN, N, L)
        assert sun_renyi3_half_chain(N, L) == pytest.approx(
            renyi_negativity(secs, D0, 3), rel=1e-10, abs=1e-10
        )


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


def test_log_backend_reach_one_million():
    # the README's reach, in a fresh interpreter so the peak RSS is this run's own
    code = textwrap.dedent("""
        import json, resource, time
        from statent import CommutantSpec, Family, compute_report
        t0 = time.perf_counter()
        E_N = {f"{f.value}{N}": compute_report(CommutantSpec(f, N, 10**6, 5 * 10**5)).E_N
               for f, N in ((Family.U1, 2), (Family.SUN, 2), (Family.TL, 3))}
        print(json.dumps({"E_N": E_N, "wall_s": time.perf_counter() - t0,
                          "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
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


def test_sun_bounds_refuse_too_many_partitions():
    # every reader of the SU(N) partition table is capped, the bounds too; a
    # child interpreter with a timeout, since an uncapped walk never returns
    code = textwrap.dedent("""
        from statent.commutants import (CommutantSpec, Family, TooManySectors,
                                        commutant_dimension, max_log_degeneracy)
        from statent.entanglement import upper_bounds
        spec = CommutantSpec(Family.SUN, 5, 10000, 5000)
        for fn in (upper_bounds, commutant_dimension, max_log_degeneracy):
            try:
                fn(spec)
            except TooManySectors:
                print(fn.__name__)
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["upper_bounds", "commutant_dimension", "max_log_degeneracy"]
