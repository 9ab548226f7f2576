"""Exact combinatorics and log-domain reals.

Sector dimensions grow like N^L, so every formula in this package is evaluated
either with exact integer/rational arithmetic (small chains) or in the log
domain (large chains).  Counts are plain Python ints (arbitrary precision);
this module adds a log-domain number type plus the handful of combinatorial
primitives the sector enumerations need: binomials, exact q-integers for the
exact sector rows, and exact ratio sums reduced pairwise.  The log of a
q-integer lives in the ballot table entry (commutants.BallotIrreps).

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


def tl_q(N: int) -> float:
    """Deformation parameter q solving q + 1/q = N (q >= 1).

    N = 2 returns exactly 1.0, which selects the undeformed branch
    [n]_1 = n wherever the log q-integer is read (BallotIrreps.log_pc_d).
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
    N > 2 the table holds Theta(n^2) bits.  Only the exact sector rows
    (iter_sectors) ask for it, with n <= L/2 + 1; the bounds and the log
    backend use the closed-form log instead.
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
    """A positive real stored as its natural log.

    Keeps quantities like dim C(L) ~ e^L representable for L ~ 10^6.
    """

    log: float

    def to_float(self) -> float:
        return math.exp(self.log)

    def log_value(self) -> float:
        return self.log


def sum_ratio_terms(terms: Sequence[tuple[int, int]]) -> Fraction:
    """Sum of num_i/den_i as one reduced Fraction (0 for no terms).

    Adjacent terms merge pairwise, level by level:
    (n1, d1) + (n2, d2) = (n1 d2/g + n2 d1/g, d1/g d2) with g = gcd(d1, d2),
    so each denominator is the lcm of its own run and most products stay
    short, not one full-width division per term; one Fraction reduces the
    last pair.
    """
    level = list(terms) or [(0, 1)]
    while len(level) > 1:
        merged = []
        for (n1, d1), (n2, d2) in zip(level[::2], level[1::2]):
            g = math.gcd(d1, d2)
            merged.append((n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return Fraction(*level[0])
