import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import statent
from statent.exactnum import (
    DomainError,
    binomial,
    exact_log,
    q_int,
    q_int_exact,
    sum_ratio_terms,
    tl_q,
)


def test_binomial_small():
    assert binomial(4, 2) == 6
    assert binomial(8, 9) == 0
    assert binomial(8, -1) == 0


def test_binomial_big_exact():
    # independent oracle: multiply out the falling factorial
    num = 1
    for i in range(50):
        num *= 100 - i
    assert binomial(100, 50) == num // math.factorial(50)
    assert binomial(100, 50) == 100891344545564193334812497256


def test_binomial_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_identity_exhaustive():
    for n in range(1, 201):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_vandermonde_two_colors():
    for n in range(1, 13):
        for a in range(2 * n + 1):
            s = sum(binomial(n, x) * binomial(n, a - x) for x in range(n + 1))
            assert s == binomial(2 * n, a)


def test_q_int_limit_and_values():
    assert q_int(3, 1.0) == 3.0
    assert q_int(1, 2.0) == 1.0
    q3 = tl_q(3)
    assert abs(q_int(3, q3) - 8.0) < 1e-10  # the eight two-dot TL(3) states
    with pytest.raises(DomainError):
        q_int(3, 0.5)


def test_q_int_continuity_near_one():
    for n in (1, 3, 10, 50):
        for eps in (1e-6, 1e-8):
            assert abs(q_int(n, 1.0 + eps) - n) <= 10 * n * n * eps


def test_q_int_exact_matches_float():
    for N in (2, 3, 4, 5):
        q = tl_q(N)
        for n in range(12):
            assert abs(q_int_exact(n, N) - q_int(n, q)) < 1e-6 * max(1, q_int_exact(n, N))


def test_q_int_table_memory_linear():
    # a fresh interpreter, so no earlier test has filled the q-integer table
    code = textwrap.dedent("""
        import tracemalloc
        from statent.commutants import CommutantSpec, Family, commutant_dimension
        tracemalloc.start()
        commutant_dimension(CommutantSpec(Family.TL, 3, 2048, 1024))
        print(tracemalloc.get_traced_memory()[1])
    """)
    src = os.path.dirname(os.path.dirname(statent.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 2_000_000


def test_exact_log_reduced_fraction_bitwise_stable():
    # equal rationals give bit-identical logs regardless of how they were built
    x = Fraction(36 * 5, 70)
    y = Fraction(18, 7)
    assert exact_log(x) == exact_log(y)


def test_sum_ratio_terms():
    terms = [(1, 3), (1, 4), (1, 5)]
    assert sum_ratio_terms(terms) == Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 5)
    assert sum_ratio_terms([]) == 0
    assert sum_ratio_terms([(1, 4), (1, 6), (5, 12)]) == Fraction(5, 6)  # shared factors
    assert sum_ratio_terms([(6, 4)]) == Fraction(3, 2)


@given(st.lists(st.tuples(st.integers(0, 10**30), st.integers(1, 10**12)), max_size=30))
def test_sum_ratio_terms_matches_pairwise_fractions(terms):
    assert sum_ratio_terms(terms) == sum((Fraction(n, d) for n, d in terms), Fraction(0))


def test_tl_q():
    assert tl_q(2) == 1.0
    q = tl_q(3)
    assert abs(q + 1 / q - 3.0) < 1e-14
