import math

import numpy as np
import pytest

from statent.asymptotics import (
    LAWS,
    FitResult,
    ScalingLaw,
    TooFewPoints,
    Unsupported,
    fit_scaling,
    predicted_law,
    tl_linear_coefficient,
    tl_sqrt_coefficient,
)
from statent.commutants import IRREPS, CommutantSpec, Family
from statent.entanglement import compute_report
from statent.exactnum import DomainError, tl_q

from conftest import sun_r3_derivatives


def test_predicted_law_examples():
    law = predicted_law(Family.SUN, 2, "en")
    assert law.form == "log" and law.coefficient == 0.5
    assert law.offset == pytest.approx(math.log(math.sqrt(2 / math.pi)))
    law = predicted_law(Family.TL, 3, "sop")
    assert law.form == "sqrt"
    assert law.coefficient == pytest.approx(1.5358, abs=2e-4)
    law = predicted_law(Family.U1, 2, "en")
    assert law.form == "const" and law.coefficient == 0.0
    law = predicted_law(Family.SUN, 3, "r3")
    assert law.coefficient_range == (3.0, 4.0)
    law = predicted_law(Family.TL, 3, "rtilde", n=4.0)
    assert law.kind == "upper_bound" and law.coefficient == pytest.approx(0.75)
    with pytest.raises(Unsupported):
        predicted_law(Family.U1, 2, "rtilde")
    cases = [(q, None) for q in ("en", "r3", "sop")]
    cases += [("rtilde", n) for n in (None, 0.5, 1.5, 2, 3)]
    for q, n in cases:  # TL(2) is SU(2) at q = 1: the same laws and the same refusals
        assert _law_or_refusal(Family.TL, 2, q, n) == _law_or_refusal(Family.SUN, 2, q, n)
    with pytest.raises(Unsupported, match="family=tl"):
        predicted_law(Family.TL, 2, "rtilde", n=0.5)
    assert set(LAWS) == {type(irreps) for irreps in IRREPS.values()}


def _law_or_refusal(family, N, q, n):
    try:
        return predicted_law(family, N, q, n=n)
    except Unsupported:
        return Unsupported


@pytest.mark.parametrize("family, N", [
    (Family.U1, 2), *((Family.SUN, N) for N in range(2, 6)),
    *((Family.TL, N) for N in range(2, 6)), *((Family.PF, N) for N in range(2, 5)),
])
def test_every_irreps_entry_states_the_default_laws(family, N):
    # asymptote's default quantities have a law at every N each entry admits
    for q in ("en", "r3", "sop"):
        law = predicted_law(family, N, q)
        assert law.form in ("const", "log", "sqrt", "linear")
        assert law.coefficient is None or math.isfinite(law.coefficient)


def test_tl_linear_coefficient_values():
    assert tl_linear_coefficient(3, 1.0) == pytest.approx(0.1116, abs=5e-4)
    # vanishes toward n = 2
    vals = [tl_linear_coefficient(3, n) for n in (1.9, 1.99, 1.999)]
    assert vals[0] > vals[1] > vals[2] > 0
    assert vals[2] < 2e-3
    with pytest.raises(DomainError):
        tl_linear_coefficient(2, 1.0)
    with pytest.raises(DomainError):
        tl_linear_coefficient(3, 2.5)


def _ternary_max(f, lo, hi, iters=200):
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return (lo + hi) / 2


def test_tl_stationary_point_matches_numeric_maximum():
    from statent.asymptotics import _tl_a_max, _tl_c_at

    for N in (3, 4, 5):
        q = tl_q(N)
        for n in (0.5, 1.0, 1.5):
            a_num = _ternary_max(lambda a: _tl_c_at(N, n, a), 1e-9, 0.25 - 1e-9)
            assert abs(a_num - _tl_a_max(q, n)) < 1e-8


def test_tl_sqrt_coefficient():
    q = tl_q(3)
    assert tl_sqrt_coefficient(3) == pytest.approx(math.sqrt(8 / math.pi) * math.log(q))


def test_fit_scaling_basics():
    pts = [(L, 3.0) for L in (8, 16, 32, 64, 128)]
    fit = fit_scaling(pts, "log")
    assert abs(fit.slope) <= 1e-12 and fit.intercept == pytest.approx(3.0)
    with pytest.raises(TooFewPoints):
        fit_scaling(pts[:3], "log")
    pts = [(L, 2.5 * math.log(L) - 1.0) for L in (8, 16, 32, 64)]
    fit = fit_scaling(pts, "log")
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_su2_en_fit_slope():
    pts = []
    for k in range(6, 13):
        L = 2**k
        rep = compute_report(CommutantSpec(Family.SUN, 2, L, L // 2), renyi_orders=(),
                             rtilde_orders=(), backend="log")
        pts.append((L, rep.E_N))
    fit = fit_scaling(pts, "log")
    assert abs(fit.slope - 0.5) <= 0.02


def test_tl3_en_linear_fit():
    pts = []
    for k in range(8, 13):
        L = 2**k
        rep = compute_report(CommutantSpec(Family.TL, 3, L, L // 2), renyi_orders=(),
                             rtilde_orders=(), backend="log")
        pts.append((L, rep.E_N))
    fit = fit_scaling(pts, "linear")
    assert fit.slope >= 0.1116 - 0.005


def test_sun_r3_derivative_bracket_small():
    derivs = sun_r3_derivatives(3, 600, decades=1.0, points=6)
    lo, hi = 3.0, 4.0
    mids, ds = zip(*derivs)
    assert all(d <= hi + 0.1 for d in ds)
    gaps = [abs(d - lo) for d in ds]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))  # converging to lower edge
