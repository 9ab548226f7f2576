import math
from fractions import Fraction

import numpy as np
import pytest

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
    cg_singlet,
    crossing_point,
    exact_sum,
    haar_average_negativity,
    negativity_fixed_lambda,
)


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


def test_haar_fixed_seed_bit_identical():
    spec = HaarEnsembleSpec(L=12, lambda_max=4, samples=25, seed=99)
    assert haar_average_negativity(spec) == haar_average_negativity(spec)


def _per_draw_reference(spec):
    # the ensemble as one negativity_fixed_lambda call per draw
    lams = list(range(spec.lambda_max + 1))
    dims = np.array([float(su2_sector_dim(spec.L, t)) for t in lams])
    vals = np.empty(spec.samples)
    for i in range(spec.samples):
        w = su2cg._draw_weights(spec, i, dims)
        vals[i] = negativity_fixed_lambda(
            spec.L, spec.cut(), {t: float(w[j]) for j, t in enumerate(lams)}
        )
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(spec.samples)) if spec.samples > 1 else 0.0
    return mean, stderr


@pytest.mark.parametrize("L, L_A", [(12, None), (16, None), (20, None), (20, 8)])
def test_haar_batch_bit_identical_to_per_draw_loop(L, L_A):
    # lambda_max = 0 is the degenerate ensemble, see test_haar_degenerate_ensemble
    for lam in range(1, L // 2 + 1):
        for samples in (1, 2, 37):
            spec = HaarEnsembleSpec(L=L, lambda_max=lam, samples=samples, seed=lam, L_A=L_A)
            assert haar_average_negativity(spec) == _per_draw_reference(spec), (lam, samples)


def test_haar_zero_weight_draw_keeps_its_bits(monkeypatch):
    # a zero-weight sector keeps its place, and the blocks only it opens, in
    # negativity_fixed_lambda's block order, as on the batched path
    spec = HaarEnsembleSpec(L=16, lambda_max=3, samples=3, seed=1)
    rows = [np.array([0.0, 0.3, 0.3, 0.4]), np.array([0.1, 0.2, 0.3, 0.4]),
            np.array([0.5, 0.0, 0.5, 0.0])]
    monkeypatch.setattr(su2cg, "_draw_weights", lambda spec, i, dims: rows[i])
    assert haar_average_negativity(spec) == _per_draw_reference(spec)


def test_haar_weight_check_fires_on_batched_path(monkeypatch):
    monkeypatch.setattr(su2cg, "_draw_weights",
                        lambda spec, i, dims: np.full(len(dims), 0.9 / len(dims)))
    with pytest.raises(WeightError):
        haar_average_negativity(HaarEnsembleSpec(L=12, lambda_max=3, samples=1, seed=0))


def test_haar_degenerate_ensemble():
    mean, stderr = haar_average_negativity(HaarEnsembleSpec(L=12, lambda_max=0, samples=10, seed=5))
    ref = negativity_fixed_lambda(12, 6, {0: 1.0})
    assert mean == ref and stderr == 0.0


def test_haar_mean_decreases_with_lambda_max():
    means = [
        haar_average_negativity(HaarEnsembleSpec(L=16, lambda_max=lm, samples=60, seed=11))[0]
        for lm in (0, 4, 8)
    ]
    assert means[0] > means[1] > means[2]


def test_haar_refuses_sector_dims_past_the_float_range():
    # D(1040, 0) and D(1040, 1) overflow a float; at L = 1036 each D(L, t <= 2) fits,
    # but the Gamma draws of lambda_max = 2 sum past the float range
    with pytest.raises(Inadmissible, match="float range"):
        haar_average_negativity(HaarEnsembleSpec(L=1040, lambda_max=1, samples=2, seed=0))
    with pytest.raises(Inadmissible, match="float range"):
        HaarEnsembleSpec(L=1036, lambda_max=2, samples=2, seed=0).validate()
    HaarEnsembleSpec(L=1036, lambda_max=0, samples=2, seed=0).validate()
    HaarEnsembleSpec(L=1032, lambda_max=5, samples=2, seed=0, L_A=2).validate()


def test_crossing_point_examples():
    assert crossing_point([0, 1], [1, 2], [2, 1]) == pytest.approx(0.5)
    with pytest.raises(NoCrossing):
        crossing_point([0, 1], [1, 2], [1, 2])
    with pytest.raises(MultipleCrossings):
        crossing_point([0, 1, 2, 3], [1, -1, 1, -1], [0, 0, 0, 0])
