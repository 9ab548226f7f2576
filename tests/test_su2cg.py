import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import statent
from statent import su2cg
from statent.commutants import Inadmissible, su2_sector_dim
from statent.su2cg import (
    HaarEnsembleSpec,
    InvalidSpin,
    MultipleCrossings,
    NoCrossing,
    SqrtRational,
    WeightError,
    cg_coefficient,
    crossing_point,
    haar_average_negativity,
    negativity_fixed_lambda,
)

from conftest import cg_singlet, exact_sum


def test_singlet_cg_half_spin():
    up = cg_coefficient(0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    dn = cg_coefficient(0, Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    assert up == SqrtRational(1, Fraction(1, 2))
    assert dn == SqrtRational(-1, Fraction(1, 2))
    assert up.sign == -dn.sign  # relative minus sign of the singlet


def test_singlet_cg_eq21_exact():
    for lam in range(0, 21):
        for m in range(-lam, lam + 1):
            assert cg_coefficient(0, lam, lam, m) == cg_singlet(lam, m)


def _racah(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int) -> SqrtRational:
    """<j1 m1; j2 m2 | J m1+m2> from the Racah single sum (doubled spins)."""
    tM = tm1 + tm2
    f = lambda tx: math.factorial(tx // 2)  # noqa: E731
    pref = Fraction((tJ + 1) * f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(tj2 - tj1 + tJ)
                    * f(tJ + tM) * f(tJ - tM) * f(tj1 + tm1) * f(tj1 - tm1)
                    * f(tj2 + tm2) * f(tj2 - tm2), f(tj1 + tj2 + tJ + 2))
    s = Fraction(0)
    for k in range(tj1 + tj2 + 1):
        args = (tj1 + tj2 - tJ - 2 * k, tj1 - tm1 - 2 * k, tj2 + tm2 - 2 * k,
                tJ - tj2 + tm1 + 2 * k, tJ - tj1 - tm2 + 2 * k)
        if min(args) >= 0:
            s += Fraction(-1 if k % 2 else 1, math.factorial(k) * math.prod(map(f, args)))
    if s == 0:  # e.g. <1 0; 1 0 | 1 0>
        return SqrtRational.zero()
    return SqrtRational(1 if s > 0 else -1, s * s * pref)


def test_singlet_shortcut_matches_the_racah_sum():
    # J = 0 returns the closed form directly; it is the value the sum reduces to
    for tj in range(0, 61):
        for tm in range(-tj, tj + 1, 2):
            assert su2cg._cg_two_j(tj, tm, tj, -tm, 0, 0) == _racah(tj, tm, tj, -tm, 0), (tj, tm)
    # the local sum is the one cg_coefficient evaluates at J > 0
    assert cg_coefficient(1, 1, 1, 1) == _racah(2, 2, 2, -2, 2)
    assert cg_coefficient(2, 3, 2, 1) == _racah(6, 2, 4, -2, 4)
    assert cg_coefficient(3, Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)) == _racah(5, 1, 3, -1, 6)


def test_integer_series_matches_the_racah_sum():
    # every coupling of doubled spins up to 8, half-integers included, then
    # J = 1..3 near j = 250, where the radicands run to thousands of bits
    for tj1 in range(9):
        for tj2 in range(9):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        if abs(tm1 + tm2) <= tJ:
                            got = su2cg._cg_two_j(tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
                            ref = _racah(tj1, tm1, tj2, tm2, tJ)
                            assert got == ref, (tj1, tm1, tj2, tm2, tJ)
    for j in (249, 250):
        for jb in (j - 1, j, j + 1):
            for J in (1, 2, 3):
                for m in (-j, -j + 1, -100, -1, 0, 1, 37, 200, j - 1, j):
                    if abs(m) <= jb:
                        got = cg_coefficient(J, j, jb, m)
                        ref = _racah(2 * j, 2 * m, 2 * jb, -2 * m, 2 * J)
                        assert got == ref and got.to_float() == ref.to_float(), (j, jb, J, m)


def test_integer_spins_take_the_same_path_as_other_spin_types():
    assert su2cg._as_two_j(3) == 6 and su2cg._as_two_j(-2) == -4
    assert cg_coefficient(2, 3, 2, 1) == cg_coefficient(2.0, Fraction(3), np.int64(2), 1.0)


def test_cg_selection_rules():
    assert cg_coefficient(3, 1, 1, 0).sign == 0
    assert cg_coefficient(0, 2, 1, 0).sign == 0
    with pytest.raises(InvalidSpin):
        cg_coefficient(0, 0.3, 0.3, 0.3)


def test_orthonormality_exact():
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
                    if m == mp:
                        assert total == {1: Fraction(1)}, (la, lb, m)
                    else:
                        assert total == {}, (la, lb, m, mp)


def test_singlet_weight_reproduces_singlet_negativity():
    from statent.commutants import CommutantSpec, Family, enumerate_sectors, singlet_dimension
    from statent.entanglement import log_negativity

    for L in (8, 12, 16):
        spec = CommutantSpec(Family.SUN, 2, L, L // 2)
        ref = log_negativity(enumerate_sectors(spec), singlet_dimension(spec))
        assert negativity_fixed_lambda(L, L // 2, {0: 1.0}) == pytest.approx(ref, abs=1e-12)


def test_stretched_sector_closed_form():
    # lambda_tot = L/2 state is the equal m=0 superposition: E_N = S_1/2
    for L in (8, 12, 16):
        val = negativity_fixed_lambda(L, L // 2, {L // 2: 1.0})
        ref = math.log(sum(math.comb(L // 2, k) for k in range(L // 2 + 1)) ** 2
                       / math.comb(L, L // 2))
        assert val == pytest.approx(ref, abs=1e-10)


def test_dirichlet_mean_recovers_u1_separable():
    for L in (8, 12, 16):
        dims = [su2_sector_dim(L, t) for t in range(L // 2 + 1)]
        D = sum(dims)
        p = {t: dims[t] / D for t in range(L // 2 + 1)}
        assert negativity_fixed_lambda(L, L // 2, p) == pytest.approx(0.0, abs=1e-12)


def test_weight_error():
    with pytest.raises(WeightError):
        negativity_fixed_lambda(8, 4, {0: 0.7, 1: 0.2})


@pytest.mark.parametrize("p", [{0: math.nan}, {0: 1.0, 1: math.nan}], ids=["alone", "mixed"])
def test_nan_weight_is_a_weight_error(p):
    # the weights' sum is NaN, which no tolerance comparison reads as close to 1
    with pytest.raises(WeightError, match="nan"):
        negativity_fixed_lambda(8, 4, p)


def test_negative_weight_is_a_weight_error():
    # the weights sum to 1, but rho would have negative eigenvalues
    with pytest.raises(WeightError, match=">= 0, got -0.5"):
        negativity_fixed_lambda(8, 4, {0: 1.5, 1: -0.5})
    assert negativity_fixed_lambda(8, 4, {0: 1.0, 1: 0.0}) == negativity_fixed_lambda(8, 4, {0: 1.0})


@pytest.mark.parametrize("L_A", [-2, 10])
def test_cut_outside_the_chain_is_refused(L_A):
    with pytest.raises(ValueError, match=f"cut L_A = {L_A} is outside"):
        negativity_fixed_lambda(8, L_A, {0: 1.0})


@pytest.mark.parametrize("t", [5, -1])
def test_out_of_range_sector_is_an_invalid_spin(t):
    with pytest.raises(InvalidSpin, match=r"0 <= lambda_tot <= L/2 = 4, got "):
        negativity_fixed_lambda(8, 4, {t: 1.0})


def test_haar_fixed_seed_bit_identical():
    spec = HaarEnsembleSpec(L=12, lambda_max=4, samples=25, seed=99)
    assert haar_average_negativity(spec) == haar_average_negativity(spec)


def _per_draw_reference(spec):
    # one lambda_max as one negativity_fixed_lambda call per draw, each draw
    # over the ensemble's own sectors
    L, L_A = spec.L, spec.cut()
    if spec.lambda_max == 0:
        return negativity_fixed_lambda(L, L_A, {0: 1.0}), 0.0
    lams = list(range(spec.lambda_max + 1))
    dims = np.array([float(su2_sector_dim(L, t)) for t in lams])
    vals = np.empty(spec.samples)
    for i in range(spec.samples):
        gam = su2cg._draw_gammas(spec, i, dims)
        w = gam / gam.sum()
        vals[i] = negativity_fixed_lambda(L, L_A, {t: float(w[j]) for j, t in enumerate(lams)})
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(spec.samples)) if spec.samples > 1 else 0.0
    return mean, stderr


@pytest.mark.parametrize("L, L_A", [(12, None), (16, None), (20, None), (20, 8)])
def test_haar_batch_bit_identical_to_per_draw_loop(L, L_A):
    # every point of the curve is its own lambda_max's per-draw loop, and a
    # shorter curve is a prefix of a longer one
    for samples in (1, 2, 37):
        spec = HaarEnsembleSpec(L=L, lambda_max=L // 2, samples=samples, seed=L + samples,
                                L_A=L_A)
        curve = haar_average_negativity(spec)
        assert len(curve) == L // 2 + 1
        for lam, point in enumerate(curve):
            assert point == _per_draw_reference(replace(spec, lambda_max=lam)), (lam, samples)
        for lam in (0, 3):
            assert haar_average_negativity(replace(spec, lambda_max=lam)) == curve[:lam + 1]


@pytest.mark.parametrize("L, lambda_max", [(12, 6), (1030, 12)])
def test_gamma_draw_is_prefix_stable(L, lambda_max):
    # the numpy property the curve relies on: Generator.gamma draws element
    # by element, so a draw over fewer sectors is a prefix of the longer draw
    dims = np.array([float(su2_sector_dim(L, t)) for t in range(lambda_max + 1)])
    for seed in (0, 7, 20240814):
        spec = HaarEnsembleSpec(L=L, lambda_max=lambda_max, samples=10, seed=seed)
        for i in range(spec.samples):
            full = su2cg._draw_gammas(spec, i, dims)
            for lam in range(lambda_max):
                part = su2cg._draw_gammas(spec, i, dims[:lam + 1])
                assert part.tobytes() == full[:lam + 1].tobytes(), (seed, i, lam)


def test_haar_zero_weight_draw_keeps_its_bits(monkeypatch):
    # a zero-weight sector keeps its place, and the blocks only it opens, in
    # negativity_fixed_lambda's block order, as on the batched path
    spec = HaarEnsembleSpec(L=16, lambda_max=3, samples=3, seed=1)
    rows = [np.array([0.0, 0.3, 0.3, 0.4]), np.array([0.1, 0.2, 0.3, 0.4]),
            np.array([0.5, 0.0, 0.5, 0.0])]
    monkeypatch.setattr(su2cg, "_draw_gammas", lambda spec, i, dims: rows[i][:len(dims)])
    curve = haar_average_negativity(spec)
    assert curve == [_per_draw_reference(replace(spec, lambda_max=lam)) for lam in range(4)]


def test_haar_weight_check_fires_on_batched_path(monkeypatch):
    # Gamma draws whose sum overflows leave weights that do not sum to 1
    monkeypatch.setattr(su2cg, "_draw_gammas", lambda spec, i, dims: np.full(len(dims), 1e308))
    with pytest.raises(WeightError), np.errstate(over="ignore"):
        haar_average_negativity(HaarEnsembleSpec(L=12, lambda_max=3, samples=1, seed=0))


def test_haar_degenerate_ensemble():
    [(mean, stderr)] = haar_average_negativity(
        HaarEnsembleSpec(L=12, lambda_max=0, samples=10, seed=5))
    ref = negativity_fixed_lambda(12, 6, {0: 1.0})
    assert mean == ref and stderr == 0.0


def test_haar_mean_decreases_with_lambda_max():
    curve = haar_average_negativity(HaarEnsembleSpec(L=16, lambda_max=8, samples=60, seed=11))
    assert curve[0][0] > curve[4][0] > curve[8][0]


def test_haar_refuses_sector_dims_past_the_float_range():
    # D(1040, 0) and D(1040, 1) overflow a float; at L = 1036 each D(L, t <= 2) fits,
    # but the Gamma draws of lambda_max = 2 sum past the float range
    with pytest.raises(Inadmissible, match="float range"):
        haar_average_negativity(HaarEnsembleSpec(L=1040, lambda_max=1, samples=2, seed=0))
    with pytest.raises(Inadmissible, match="float range"):
        HaarEnsembleSpec(L=1036, lambda_max=2, samples=2, seed=0).validate()
    HaarEnsembleSpec(L=1036, lambda_max=0, samples=2, seed=0).validate()
    HaarEnsembleSpec(L=1032, lambda_max=5, samples=2, seed=0, L_A=2).validate()


def test_haar_cg_table_grows_with_rows_not_blocks():
    # the table keeps each block's CG row c, so the L = 400 run adds about
    # 21 MB of peak RSS over the import; a table of c c^T blocks adds 62 MB.
    # VmHWM restarts at exec, where ru_maxrss would carry over pytest's peak
    code = textwrap.dedent("""
        import contextlib, io, json
        from statent.cli import main

        def hwm_mb():
            with open("/proc/self/status") as fh:
                line = next(line for line in fh if line.startswith("VmHWM:"))
            return int(line.split()[1]) / 1024

        base = hwm_mb()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["haar", "--family", "su2", "--L", "400", "--samples", "2",
                         "--lambda-max", "1"])
        print(json.dumps({"code": code, "import_mb": base, "rise_mb": hwm_mb() - base}))
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["code"] == 0 and got["rise_mb"] < 40, got


def test_crossing_point_examples():
    assert crossing_point([0, 1], [1, 2], [2, 1]) == pytest.approx(0.5)
    with pytest.raises(NoCrossing):
        crossing_point([0, 1], [1, 2], [1, 2])
    with pytest.raises(MultipleCrossings):
        crossing_point([0, 1, 2, 3], [1, -1, 1, -1], [0, 0, 0, 0])
