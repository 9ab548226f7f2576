import math
from fractions import Fraction

import numpy as np
import pytest

import statent.commutants as com
from statent.commutants import (
    IRREPS,
    CommutantSpec,
    Family,
    Inadmissible,
    OneLabelIrreps,
    ParityError,
    TooManySectors,
    commutant_dimension,
    enumerate_sectors,
    irreps_of,
    iter_sectors,
    log_factorials,
    log_pf_sector_dims,
    max_log_degeneracy,
    pf_pattern_count,
    pf_sector_dimension,
    sector_log_arrays,
    singlet_dimension,
    su2_sector_dim,
    sun_irrep_dims,
    sun_partitions,
    check_admissible,
)
from statent.commutants import _lse
from statent.exactnum import factorial

from conftest import pf_pattern_census, spin_half_total_spin_squared, walk_bounds


def test_su2_singlet_dimension_against_nullspace():
    for L in (4, 6, 8):
        w = np.linalg.eigvalsh(spin_half_total_spin_squared(L))
        null = int(np.sum(np.abs(w) < 1e-9))
        assert singlet_dimension(CommutantSpec(Family.SUN, 2, L, 2)) == null


def test_enumerate_su2_L4():
    recs = enumerate_sectors(CommutantSpec(Family.SUN, 2, 4, 2))
    assert [(r.label, r.d, r.D_A, r.D_B) for r in recs] == [(0, 1, 1, 1), (1, 3, 1, 1)]


def test_enumerate_tl3_L4():
    recs = enumerate_sectors(CommutantSpec(Family.TL, 3, 4, 2))
    assert [(r.label, r.d, r.D_A, r.D_B) for r in recs] == [(0, 1, 1, 1), (1, 8, 1, 1)]


def test_sun_inadmissible_cut():
    with pytest.raises(Inadmissible):
        enumerate_sectors(CommutantSpec(Family.SUN, 3, 6, 2))
    with pytest.raises(Inadmissible):
        check_admissible(CommutantSpec(Family.TL, 3, 6, 3))
    with pytest.raises(Inadmissible):
        check_admissible(CommutantSpec(Family.U1, 2, 7, 3))


def test_spec_refuses_inadmissible_on_construction():
    with pytest.raises(Inadmissible):
        CommutantSpec(Family.TL, 3, 6, 3)
    with pytest.raises(Inadmissible):
        CommutantSpec(Family.SUN, 3, 7, 3)


def test_sun3_L6_closed_form():
    # 6! 2! 1! / (4! 3! 2!) = 5
    assert singlet_dimension(CommutantSpec(Family.SUN, 3, 6, 3)) == 5


def test_tl3_L4_singlet_dimension():
    assert singlet_dimension(CommutantSpec(Family.TL, 3, 4, 2)) == 2


def test_pf_sector_dimensions_small():
    assert pf_sector_dimension(3, 2, 0) == 3
    assert pf_sector_dimension(3, 2, 2) == 1
    for N in (2, 3, 5):
        for L in (2, 4, 6):
            assert pf_sector_dimension(N, L, L) == 1
    with pytest.raises(ParityError):
        pf_sector_dimension(3, 4, 1)
    with pytest.raises(ParityError):  # the log flavour reads even-L ballot numbers
        log_pf_sector_dims(3, 7)


def test_pf_dp_certified_by_census():
    # full brute-force enumeration oracle, all patterns of each length agree
    for N, L in [(2, 6), (2, 8), (3, 4), (3, 6), (4, 4), (3, 7)]:
        census = pf_pattern_census(N, L)
        by_len = {}
        for pat, cnt in census.items():
            by_len.setdefault(len(pat), set()).add(cnt)
        for M, counts in by_len.items():
            assert len(counts) == 1, "count must not depend on the pattern"
            assert counts.pop() == pf_sector_dimension(N, L, M)
            assert len([p for p in census if len(p) == M]) == pf_pattern_count(N, M)


def _pf_walk_counts(N, L):
    """W[M] = number of length-L color words whose stack reduction has depth M.

    Reading a word drives a walk on the rooted (N-1)-ary tree of irreducible
    words: a symbol equal to the stack top pops (1 choice), anything else
    pushes (N-1 choices off the root, N at the root).
    """
    w = [1] + [0] * L
    for _ in range(L):
        nxt = [0] * (L + 1)
        for h, c in enumerate(w[:L]):
            if h > 0:
                nxt[h - 1] += c
            nxt[h + 1] += c * (N if h == 0 else N - 1)
        w = nxt
    return w


def test_pf_closed_form_matches_walk_dp():
    for N in (2, 3, 4, 5, 7):
        for L in range(41):
            walks = _pf_walk_counts(N, L)
            for M in range(L % 2, L + 1, 2):
                D, rem = divmod(walks[M], pf_pattern_count(N, M))
                assert rem == 0 and pf_sector_dimension(N, L, M) == D, (N, L, M)


def test_pf_census_totals():
    for N in (2, 3, 4):
        for L in [*range(2, 13, 2), 64, 257, 1000]:
            tot = sum(
                pf_pattern_count(N, M) * pf_sector_dimension(N, L, M)
                for M in range(L % 2, L + 1, 2)
            )
            assert tot == N**L, (N, L)


def test_commutant_dimension_examples():
    assert commutant_dimension(CommutantSpec(Family.U1, 2, 8, 4)).to_float() == pytest.approx(5.0, abs=1e-9)
    assert commutant_dimension(CommutantSpec(Family.SUN, 2, 4, 2)).to_float() == pytest.approx(10.0, abs=1e-9)
    assert commutant_dimension(CommutantSpec(Family.PF, 3, 4, 2)).to_float() == pytest.approx(7.0, abs=1e-9)


def test_pf_commutant_dimension_against_pattern_census():
    # sectors on the 2-site sub-chain: one per dot pattern, all d = 1
    census = pf_pattern_census(3, 2)
    assert len(census) == 7
    assert commutant_dimension(CommutantSpec(Family.PF, 3, 4, 2)).to_float() == pytest.approx(7.0)


@pytest.mark.parametrize("family, N", [
    (Family.U1, 2), (Family.SUN, 2), *((Family.TL, N) for N in range(3, 8)),
    *((Family.PF, N) for N in (2, 3, 4, 5, 9)),
])
def test_closed_form_bounds_match_the_walk(family, N):
    irr = irreps_of(family, N)
    for ell in [*range(1, 65), 512, 8192, 5 * 10**5]:
        log_c, log_max_d = walk_bounds(irr, N, ell)
        x = irr.log_dim_commutant(N, ell)
        # abs: at ell = 1 the ballot and PF dim C is 1, and both read round-off about 0
        assert x == pytest.approx(log_c, rel=1e-14, abs=1e-15), ell
        assert irr.log_max_d(N, ell) == log_max_d, ell
        if ell <= 40:
            exact = sum(pc * d * d for pc, d in (irr.pc_d(N, lab)
                                                 for lab in irr.labels(N, ell).tolist()))
            # a log good to 1e-14 relative gives exp good to about x * 1e-14
            assert math.exp(x) == pytest.approx(exact, rel=1e-14 * max(x, 1.0)), ell


@pytest.mark.parametrize("spec", [
    CommutantSpec(Family.U1, 2, 20, 3), CommutantSpec(Family.U1, 2, 20, 8),
    CommutantSpec(Family.U1, 2, 20, 17), CommutantSpec(Family.U1, 2, 22, 11),
    CommutantSpec(Family.SUN, 2, 20, 6), CommutantSpec(Family.TL, 3, 20, 16),
    CommutantSpec(Family.PF, 3, 20, 14),
])
def test_bounds_read_the_smaller_half(spec):
    log_c, log_max_d = walk_bounds(spec.irreps, spec.N, spec.L_min)
    assert commutant_dimension(spec).log_value() == pytest.approx(log_c, rel=1e-14)
    assert max_log_degeneracy(spec) == log_max_d


def closed_form_singlet_dimension(spec: CommutantSpec) -> int:
    """D_0 per family: C(L, L/2), the SU(N) hook-length count, ballot, PF walk."""
    f, N, L = spec.family, spec.N, spec.L
    if f == Family.U1:
        return math.comb(L, L // 2)
    if f == Family.SUN:
        num = factorial(L)
        for k in range(1, N):
            num *= factorial(k)
        den = 1
        for i in range(N):
            den *= factorial(L // N + i)
        assert num % den == 0
        return num // den
    if f == Family.TL:
        return su2_sector_dim(L, 0)
    return pf_sector_dimension(N, L, 0)


def test_completeness_identity_all_families():
    cases = []
    for L in range(4, 41, 4):
        cases.append(CommutantSpec(Family.U1, 2, L, L // 2))
        cases.append(CommutantSpec(Family.U1, 2, L + 2, (L + 2) // 2))
        cases.append(CommutantSpec(Family.SUN, 2, L, L // 2))
        cases.append(CommutantSpec(Family.SUN, 2, L, 2))  # asymmetric cut
        cases.append(CommutantSpec(Family.TL, 3, L, L // 2 if (L // 2) % 2 == 0 else L // 2 - 1))
        cases.append(CommutantSpec(Family.PF, 3, L, 2))
    for L in (6, 12, 18, 24, 30, 36):
        cases.append(CommutantSpec(Family.SUN, 3, L, L // 2 if (L // 2) % 3 == 0 else 3))
    for spec in cases:
        total = sum(r.pattern_count * r.D_A * r.D_B for r in iter_sectors(spec))
        assert total == singlet_dimension(spec) == closed_form_singlet_dimension(spec), spec


def test_total_dimension_identity():
    for N, fam in [(2, Family.SUN), (3, Family.SUN), (3, Family.TL), (4, Family.TL)]:
        for ell in range(2, 13, 2):
            if fam == Family.SUN and ell % N:
                continue
            if fam == Family.SUN and N == 2:
                total = sum(
                    (2 * lam + 1) * su2_sector_dim(ell, lam) for lam in range(ell // 2 + 1)
                )
            elif fam == Family.SUN:
                total = 0
                for lam in sun_partitions(ell, N, ell).tolist():
                    d, D = sun_irrep_dims(N, ell, lam)
                    total += d * D
            else:
                from statent.exactnum import q_int_exact

                total = sum(
                    q_int_exact(2 * lam + 1, N) * su2_sector_dim(ell, lam)
                    for lam in range(ell // 2 + 1)
                )
            assert total == N**ell, (fam, N, ell)


def test_tl2_matches_su2():
    for L in range(4, 65, 4):
        tl = enumerate_sectors(CommutantSpec(Family.TL, 2, L, L // 2))
        su = enumerate_sectors(CommutantSpec(Family.SUN, 2, L, L // 2))
        assert [(r.d, r.D_A, r.D_B) for r in tl] == [(r.d, r.D_A, r.D_B) for r in su]


def test_su2_sector_dims_nonnegative_and_complete():
    for L in range(2, 33, 2):
        dims = [su2_sector_dim(L, lam) for lam in range(L // 2 + 1)]
        assert all(D >= 0 for D in dims)
        assert sum((2 * lam + 1) * D for lam, D in enumerate(dims)) == 2**L
        # binomial-difference form agrees with the ballot shortcut
        for lam, D in enumerate(dims):
            assert D == math.comb(L, L // 2 + lam) - math.comb(L, L // 2 + lam + 1)


def test_su2_partition_path_matches_ballot():
    for L in (4, 8, 12):
        ell = L // 2
        for lam_int in range(ell // 2 + 1):
            part = (ell // 2 + lam_int, ell // 2 - lam_int)
            d, D = sun_irrep_dims(2, ell, part)
            assert d == 2 * lam_int + 1
            assert D == su2_sector_dim(ell, lam_int)


def test_u1_half_integer_labels():
    recs = enumerate_sectors(CommutantSpec(Family.U1, 2, 6, 3))
    labels = [r.label for r in recs]
    assert Fraction(3, 2) in labels and Fraction(-3, 2) in labels
    assert all(r.d == 1 for r in recs)


def test_log_arrays_match_exact():
    for spec in [
        CommutantSpec(Family.SUN, 2, 16, 8),
        CommutantSpec(Family.TL, 3, 16, 8),
        CommutantSpec(Family.PF, 3, 16, 8),
        CommutantSpec(Family.U1, 2, 14, 7),
        CommutantSpec(Family.SUN, 3, 12, 6),
    ]:
        ls = sector_log_arrays(spec)
        recs = enumerate_sectors(spec)
        assert len(ls.log_DA) == len(recs)
        for i, r in enumerate(recs):
            assert ls.log_DA[i] == pytest.approx(math.log(r.D_A), abs=1e-10)
            assert ls.log_DB[i] == pytest.approx(math.log(r.D_B), abs=1e-10)
            assert ls.log_d[i] == pytest.approx(math.log(r.d), abs=1e-10)
            assert ls.log_pc[i] == pytest.approx(math.log(r.pattern_count), abs=1e-10)
        assert ls.log_D0 == pytest.approx(math.log(singlet_dimension(spec)), rel=1e-12)


def test_log_pf_dims_large_consistent():
    logs = log_pf_sector_dims(3, 64)
    exact = [pf_sector_dimension(3, 64, M) for M in range(0, 65, 2)]
    for M, e in zip(range(0, 65, 2), exact):
        assert logs[M] == pytest.approx(math.log(e), rel=1e-10)


@pytest.mark.parametrize("N", [3, 4])
def test_pf_dims_accurate_at_4096(N):
    # exact logs of the running integer prefix sum D_M = sum_{i <= (L-M)/2} q^i B_i,
    # with the ballot numbers B_i = C(L, i) - C(L, i-1) from running binomials
    L, q = 4096, N - 1
    logs = log_pf_sector_dims(N, L)
    D, prefix, prev, c = 0, {}, 0, 1
    for i in range(L // 2 + 1):
        D += q**i * (c - prev)
        prev, c = c, c * (L - i) // (i + 1)
        prefix[L - 2 * i] = D
        want = math.log(D)
        assert abs(logs[L - 2 * i] - want) <= 1e-12 * want, (N, L - 2 * i)
    assert np.all(np.isneginf(logs[L - 1::-2]))
    for M in (0, 2048, 4096):
        assert pf_sector_dimension(N, L, M) == prefix[M]


def test_log_factorials_is_math_lgamma_bit_for_bit():
    for n in (0, 1, 2, 70_000):
        got = log_factorials(n)
        assert got.shape == (n + 1,) and got.dtype == np.float64
        assert got.tolist() == [math.lgamma(j + 1) for j in range(n + 1)]


def _lg(x) -> np.ndarray:
    x = np.asarray(x)
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _per_element_log_D(family: Family, N: int, ell: int, lab: np.ndarray) -> np.ndarray:
    """log D with one math.lgamma per element: the formulas the table replaced."""
    if family == Family.U1:
        return _lg(ell + 1) - _lg(lab + 1) - _lg(ell - lab + 1)
    if family == Family.TL or (family, N) == (Family.SUN, 2):
        k = ell // 2 + lab
        return (math.lgamma(ell + 1) - _lg(k + 1) - _lg(ell - k + 1)
                + np.log(2 * lab + 1.0) - np.log(ell // 2 + lab + 1.0))
    if family == Family.PF:
        i = np.arange(ell // 2 + 1)
        out = np.full(ell + 1, -np.inf)
        out[ell::-2] = np.logaddexp.accumulate(
            i * math.log(N - 1) + _per_element_log_D(Family.TL, N, ell, ell // 2 - i))
        return out[lab]
    t, lv = IRREPS[Family.SUN].log_vandermonde(lab)
    return math.lgamma(ell + 1) + lv - sum(_lg(col + 1) for col in t.T)


@pytest.mark.parametrize("family, N, L, L_A", [
    # small chains, the closed_forms benchmark's sizes, and asymmetric cuts
    # (both ways round for SU(3), whose pairing walks L_A when it is the larger half)
    (Family.U1, 2, 14, 7), (Family.U1, 2, 10**6, 5 * 10**5), (Family.U1, 2, 1000, 300),
    (Family.SUN, 2, 16, 8), (Family.SUN, 2, 8192, 4096), (Family.SUN, 2, 1000, 200),
    (Family.TL, 3, 16, 8), (Family.TL, 3, 8192, 4096), (Family.TL, 3, 1000, 300),
    (Family.PF, 3, 16, 8), (Family.PF, 3, 8192, 4096), (Family.PF, 3, 1000, 300),
    (Family.SUN, 3, 12, 6), (Family.SUN, 3, 768, 384), (Family.SUN, 3, 300, 90),
    (Family.SUN, 3, 300, 210),
    (Family.SUN, 4, 16, 8), (Family.SUN, 4, 128, 64), (Family.SUN, 4, 128, 32),
])
def test_log_D_is_the_per_element_lgamma_formula(family, N, L, L_A):
    spec = CommutantSpec(family, N, L, L_A)
    lab_A, lab_B = spec.irreps.pair(spec)
    ls = sector_log_arrays(spec)
    full_A = _per_element_log_D(family, N, L_A, lab_A)
    full_B = _per_element_log_D(family, N, L - L_A, lab_B)
    if not isinstance(spec.irreps, OneLabelIrreps):
        for got, want in ((ls.log_DA, full_A), (ls.log_DB, full_B)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ls.log_D0 == _lse(ls.log_pc + full_A + full_B)
        return
    # a windowed table: the weight's window and each moment's hold every label whose
    # summand is nonzero in float64, each with its per-element log D
    log_pc, log_d = spec.irreps.log_pc_d(N, lab_A)

    def kept_by(t):
        kept = np.zeros(len(lab_A), dtype=bool)
        kept[t.labels.start - lab_A[0]: t.labels.stop - lab_A[0]] = True
        return kept

    p = kept_by(ls)
    assert ls.log_D0 == _lse(log_pc[p] + full_A[p] + full_B[p])
    for k in (0.0, 1.0, 1.5, 0.5, -1.0, -2.0, -4.0):
        t = ls.at(k)
        kept = kept_by(t)
        for got, want in ((t.log_DA, full_A), (t.log_DB, full_B), (t.log_d, log_d)):
            assert got.dtype == want.dtype and np.array_equal(got, want[kept]), k
        x = log_pc + full_A + full_B + k * log_d
        assert np.all(np.exp(x[~kept] - x.max()) == 0.0), k


def _full_summand(spec: CommutantSpec, k: float) -> np.ndarray:
    """log(p d^k) + log D_0 on every paired label, one math.lgamma per element."""
    lab_A, lab_B = spec.irreps.pair(spec)
    log_pc, log_d = spec.irreps.log_pc_d(spec.N, lab_A)
    return (log_pc + _per_element_log_D(spec.family, spec.N, spec.L_A, lab_A)
            + _per_element_log_D(spec.family, spec.N, spec.L_B, lab_B) + k * log_d)


@pytest.mark.parametrize("family, N", [(Family.U1, 2), (Family.SUN, 2), (Family.TL, 3),
                                       (Family.TL, 4)])
@pytest.mark.parametrize("L, L_A", [(64, 32), (1000, 300), (8192, 4096)])
def test_windowed_summands_have_one_peak(family, N, L, L_A):
    # the window search is complete only if every summand rises to one maximum and
    # then falls: once a step goes down, none goes up again
    spec = CommutantSpec(family, N, L, L_A)
    for k in (1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -2.0, -4.0, -10.0):
        step = np.diff(_full_summand(spec, k))
        down = np.flatnonzero(step < 0)
        assert down.size == 0 or not np.any(step[down[0]:] > 0), k


@pytest.mark.parametrize("family, N", [(Family.U1, 2), (Family.SUN, 2), (Family.TL, 3),
                                       (Family.PF, 3), (Family.SUN, 3)])
def test_log_table_cap_refuses_at_the_same_size(monkeypatch, family, N):
    # windowed families read no log_factorials table, yet refuse where one would
    # pass LOG_TABLE_CAP: max(L_A, L_B) + N - 1 entries, before any label
    monkeypatch.setattr(com, "LOG_TABLE_CAP", 12 + N - 1)
    sector_log_arrays(CommutantSpec(family, N, 24, 12))
    with pytest.raises(TooManySectors, match="LOG_TABLE_CAP"):
        sector_log_arrays(CommutantSpec(family, N, 36, 18))


def test_lse_leaves_its_argument_unchanged():
    for x in (np.array([0.5, -1.0, 3.0, -np.inf]), np.full(3, -np.inf)):
        kept = x.copy()
        m = float(np.max(x))
        want = m if m == -np.inf else m + math.log(sum(math.exp(v - m) for v in x.tolist()))
        assert _lse(x) == pytest.approx(want, rel=1e-15)
        assert np.array_equal(x, kept)


def _reference_sun_partitions(ell: int, N: int, cap: int):
    """The recursive generator sun_partitions replaced: tuples, lexicographically descending."""

    def rec(remaining, acc, hi, slots):
        if slots == 1:
            if remaining <= hi:
                yield tuple(acc + [remaining])
            return
        lo = -(-remaining // slots)  # smallest admissible leading part (ceil)
        for p in range(min(hi, remaining), lo - 1, -1):
            yield from rec(remaining - p, acc + [p], p, slots - 1)

    yield from rec(ell, [], cap, N)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_sun_partitions_are_the_recursive_walk(N):
    for ell in range(41):
        # caps below, at and above ell; one below ceil(ell / N) leaves no partition
        for cap in sorted({0, max(ell // N - 1, 0), -(-ell // N), ell // 2, max(ell - 1, 0),
                           ell, ell + 3}):
            want = list(_reference_sun_partitions(ell, N, cap))
            got = sun_partitions(ell, N, cap)
            assert got.dtype == np.int64 and got.shape == (len(want), N), (ell, cap)
            assert [tuple(row) for row in got.tolist()] == want, (ell, cap)


@pytest.mark.parametrize("N, L, L_A", [
    # the cap L/N against L_A: below (half cuts), at, and above it; and
    # L_A > L_B, where the pairing walks the larger half
    (3, 48, 24), (4, 64, 32), (5, 60, 30), (3, 18, 6), (4, 16, 4), (3, 30, 6), (4, 40, 8),
    (3, 30, 24), (4, 64, 48),
])
def test_pair_is_the_capped_walk_of_L_A(N, L, L_A):
    spec = CommutantSpec(Family.SUN, N, L, L_A)
    c = L // N
    want = np.array(list(_reference_sun_partitions(L_A, N, c)), dtype=np.int64).reshape(-1, N)
    lam_A, lam_B = spec.irreps.pair(spec)
    assert lam_A.dtype == lam_B.dtype == np.int64
    assert np.array_equal(lam_A, want)  # order included
    assert np.array_equal(lam_B, c - want[:, ::-1])
    assert [r.label for r in enumerate_sectors(spec)] == [tuple(row) for row in want.tolist()]
