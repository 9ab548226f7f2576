"""Exact combinatorics and log-domain reals.

Sector dimensions grow like N^L, so every formula in this package is evaluated
either with exact integer/rational arithmetic (small chains) or in the log
domain (large chains).  Counts are plain Python ints (arbitrary precision);
this module adds the log-domain number type plus the handful of combinatorial
primitives the sector enumerations need.

Everything is a pure function of its arguments.  The memo tables (the
factorial cache and one growing q-integer list per N) are append-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


class DomainError(ValueError):
    """Argument outside the supported domain (e.g. q < 1)."""


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); returns 0 for k < 0 or k > n (n must be >= 0)."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    return math.factorial(n)


def q_int(n: int, q: float) -> float:
    """q-deformed integer [n]_q = (q^n - q^-n)/(q - q^-1), with [n]_1 = n.

    The q = 1 case is an explicit branch (the generic expression is 0/0
    there); q < 1 is rejected.
    """
    if q < 1.0:
        raise DomainError(f"q_int needs q >= 1, got q={q}")
    if q == 1.0:
        return float(n)
    return (q**n - q**-n) / (q - 1.0 / q)


def log_q_int(n: int, q: float) -> float:
    """log [n]_q, stable for large n (avoids overflow of q^n)."""
    if q < 1.0:
        raise DomainError(f"log_q_int needs q >= 1, got q={q}")
    if q == 1.0:
        return math.log(n)
    # [n]_q = q^n (1 - q^{-2n}) / (q - 1/q)
    return n * math.log(q) + math.log1p(-q ** (-2 * n)) - math.log(q - 1.0 / q)


def tl_q(N: int) -> float:
    """Deformation parameter q solving q + 1/q = N (q >= 1).

    N = 2 returns exactly 1.0, which selects the undeformed branch of
    q_int everywhere downstream.
    """
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    if N == 2:
        return 1.0
    return (N + math.sqrt(N * N - 4)) / 2.0


_Q_INT_TABLES: dict[int, list[int]] = {}


def q_int_exact(n: int, N: int) -> int:
    """Exact integer [n]_q for q + 1/q = N, via the Chebyshev recurrence.

    [k+1] = N [k] - [k-1] gives integers for integer N; one table per N grows
    to the largest n asked for.  Entry k has about k log2(q) bits, so for
    N > 2 the table holds Theta(n^2) bits: commutant_dimension of TL(3) at
    L = 8192 / 32768 / 65536 builds it in 0.07 / 1.3 / 7.2 s and peaks at
    1.7 / 25 / 101 MB (tracemalloc; one core of a 2-vCPU x86-64 host).
    """
    if n < 0:
        raise DomainError("q_int_exact needs n >= 0")
    vals = _Q_INT_TABLES.setdefault(N, [0, 1])
    while len(vals) <= n:
        vals.append(N * vals[-1] - vals[-2])
    return vals[n]


def exact_log(x: int | Fraction) -> float:
    """Natural log of a positive integer or Fraction of any size.

    math.log accepts arbitrary Python ints without overflow; the Fraction
    case is the difference of the two integer logs after reduction, so
    equal rationals always produce bit-identical floats.
    """
    if isinstance(x, Fraction):
        if x <= 0:
            raise ValueError(f"exact_log needs a positive value, got {x}")
        return math.log(x.numerator) - math.log(x.denominator)
    if x <= 0:
        raise ValueError(f"exact_log needs a positive value, got {x}")
    return math.log(x)


@dataclass(frozen=True)
class LogReal:
    """A real number stored as (sign, log|value|).

    sign is +1, -1 or 0; log is -inf when sign == 0.  Keeps quantities like
    dim C(L) ~ e^L representable for L ~ 10^6.
    """

    log: float
    sign: int = 1

    @staticmethod
    def from_int(n: int) -> "LogReal":
        if n == 0:
            return LogReal(float("-inf"), 0)
        return LogReal(math.log(abs(n)), 1 if n > 0 else -1)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log)

    def log_value(self) -> float:
        """Natural log; only defined for positive values."""
        if self.sign <= 0:
            raise ValueError("log of a non-positive LogReal")
        return self.log


def sum_ratio_terms(terms: Sequence[tuple[int, int]]) -> Fraction:
    """Sum of num_i/den_i as one exact Fraction.

    Builds the common denominator with prefix/suffix products and reduces
    once at the end; adding Fractions pairwise would re-run gcd on the
    partially-built (huge, mostly coprime) denominators every step.
    """
    k = len(terms)
    if k == 0:
        return Fraction(0)
    if k == 1:
        return Fraction(terms[0][0], terms[0][1])
    dens = [d for _, d in terms]
    prefix = [1] * (k + 1)
    for i, d in enumerate(dens):
        prefix[i + 1] = prefix[i] * d
    suffix = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * dens[i]
    num = sum(terms[i][0] * prefix[i] * suffix[i + 1] for i in range(k))
    return Fraction(num, prefix[k])
