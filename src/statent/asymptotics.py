"""Asymptotic scaling laws and their least-squares fit.

The large-L laws live in one table, LAWS, keyed by the family's IRREPS
entry (commutants.irreps_of), together with the least-squares fit that
compares exact scans against them.  SU(N) coefficients are only known as
brackets and are exposed as brackets, never as point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commutants import (
    BallotIrreps, Family, Inadmissible, PFIrreps, SUNIrreps, U1Irreps, irreps_of,
)
from .exactnum import DomainError, tl_q

SQRT_8_OVER_PI = math.sqrt(8.0 / math.pi)


class Unsupported(Inadmissible):
    pass


class TooFewPoints(ValueError):
    pass


@dataclass(frozen=True)
class ScalingLaw:
    """value ~ coefficient * f(L) + offset, with f per `form`.

    kind records whether the law is an asymptotic equality or only a bound;
    coefficient_range carries the proven bracket where only a bracket is
    known (SU(N) with N > 2), and coefficient is then the lower edge (the
    one the finite-size data converges to).  A None coefficient means the
    form is known but the constant has no closed form here.
    """

    form: str  # const | log | sqrt | linear
    coefficient: float | None
    offset: float | None = None
    kind: str = "asymptote"  # asymptote | upper_bound | lower_bound
    coefficient_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    window: tuple[float, float]


def tl_linear_coefficient(N: int, n: float) -> float:
    """Linear-growth coefficient of Rt_n for the TL(N) family (0 < n < 2).

    c~ = [-(1/2+2a)log(1/4+a) - (1/2-2a)log(1/4-a) + 2(2-n) a log q - 2 log 2]
         / (2-n),  at the stationary point a = (q^(2-n)-1)/(4(q^(2-n)+1)),
    with q + 1/q = N.  n = 1 gives the log-negativity volume-law constant
    (~0.1116 for N = 3).
    """
    if N < 3:
        raise DomainError(f"TL linear coefficient needs N >= 3 (q > 1), got N={N}")
    if not 0 < n < 2:
        raise DomainError(f"need 0 < n < 2, got n={n}")
    q = tl_q(N)
    return _tl_c_at(N, n, _tl_a_max(q, n)) / (2.0 - n)


def _tl_a_max(q: float, n: float) -> float:
    qq = q ** (2.0 - n)
    return 0.25 * (qq - 1.0) / (qq + 1.0)


def _tl_c_at(N: int, n: float, a: float) -> float:
    q = tl_q(N)
    return (
        -(0.5 + 2 * a) * math.log(0.25 + a)
        - (0.5 - 2 * a) * math.log(0.25 - a)
        + 2.0 * (2.0 - n) * a * math.log(q)
        - 2.0 * math.log(2.0)
    )


def tl_sqrt_coefficient(N: int) -> float:
    """S_OP ~ sqrt(8/pi) log(q) sqrt(L) for TL(N)."""
    if N < 3:
        raise DomainError("TL sqrt law needs N >= 3")
    return SQRT_8_OVER_PI * math.log(tl_q(N))


def _separable(sop: ScalingLaw):
    """The laws of an entry with every d = 1 (U(1), PF): E_N = R_3 = 0 at every L."""
    zero = ScalingLaw("const", 0.0, 0.0)
    return lambda N, n: {"en": zero, "r3": zero, "sop": sop}


def _ballot_laws(N: int, n: float | None) -> dict[str, ScalingLaw]:
    """SU(2) = TL(2) at N = 2, TL(N) above; rtilde at index n."""
    if N == 2:
        return {"en": ScalingLaw("log", 0.5, math.log(math.sqrt(2.0 / math.pi))),
                "r3": ScalingLaw("log", 1.0, -2.0 * math.log(2.0)),
                "sop": ScalingLaw("log", 1.5, None)}
    laws = {"en": ScalingLaw("linear", tl_linear_coefficient(N, 1.0), None, kind="lower_bound"),
            "r3": ScalingLaw("log", 1.5, None, kind="upper_bound"),
            "sop": ScalingLaw("sqrt", tl_sqrt_coefficient(N), None)}
    if n is not None:
        if n == 2:
            raise Unsupported("TL rtilde law undefined at n = 2")
        laws["rtilde"] = (
            ScalingLaw("linear", tl_linear_coefficient(N, n), None, kind="lower_bound") if n < 2
            else ScalingLaw("log", 1.5 / (n - 2.0), None, kind="upper_bound"))
    return laws


def _sun_laws(N: int, n: float | None) -> dict[str, ScalingLaw]:
    """SU(N >= 3): the slopes are brackets, and the data converge to the lower edge."""
    a, b = N * (N - 1) / 2.0, (N * N - 1) / 2.0
    return {"en": ScalingLaw("log", 2 * a, None, kind="upper_bound"),
            "r3": ScalingLaw("log", a, None, coefficient_range=(a, b)),
            "sop": ScalingLaw("log", b, None, coefficient_range=(b, 2 * b))}


# IRREPS entry type -> (N, rtilde index n) -> {quantity: law}
LAWS = {
    U1Irreps: _separable(ScalingLaw("log", 0.5, 0.5 + math.log(math.sqrt(2 * math.pi) / 4.0))),
    PFIrreps: _separable(ScalingLaw("sqrt", None, None)),  # no closed-form constant
    BallotIrreps: _ballot_laws,
    SUNIrreps: _sun_laws,
}


def predicted_law(family: Family, N: int, quantity: str, n: float | None = None) -> ScalingLaw:
    """The large-L law for (family, quantity), quantity in en|r3|sop|rtilde.

    rtilde needs the index n.  Everything is in nats of the half-chain value
    as a function of total length L.
    """
    q = quantity.lower()
    if q == "rtilde" and n is None:
        raise Unsupported("rtilde law needs the index n")
    laws = LAWS[type(irreps_of(family, N))](N, n if q == "rtilde" else None)
    if q not in laws:
        raise Unsupported(f"no law for family={family.value}, N={N}, quantity={quantity}")
    return laws[q]


_BASES = {"log": np.log, "sqrt": np.sqrt, "linear": lambda x: x}


def fit_scaling(points, form: str) -> FitResult:
    """Least-squares fit of value against {1, f(L)} with f chosen by `form`.

    points is a sequence of (L, value) with strictly increasing L and at
    least 4 entries.
    """
    pts = sorted(points)
    if len(pts) < 4:
        raise TooFewPoints(f"need >= 4 points, got {len(pts)}")
    L = np.array([p[0] for p in pts], dtype=float)
    if np.any(np.diff(L) <= 0):
        raise ValueError("L values must be strictly increasing")
    y = np.array([p[1] for p in pts], dtype=float)
    if form not in _BASES:
        raise ValueError(f"unknown form {form!r}")
    x = _BASES[form](L)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]), residual=resid,
                     window=(float(L[0]), float(L[-1])))

