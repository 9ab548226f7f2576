"""Closed-form entanglement of the singlet-subspace stationary state.

The stationary state is block diagonal over the sectors lambda.  Sector
lambda has weight p_lambda = pc D_A D_B / D_0 (pc its pattern count, D_A and
D_B the bond dimensions on either side of the cut, D_0 the singlet
dimension) and degeneracy d_lambda.  Every quantity is a functional of that
distribution; the negativities are its moments M(k) = E_p[d^k]:

  E_N    = log M(1)
  R_n    = -log M(1 - n)              (odd n; R_n = R_{n-1} for even n)
  Rt_n   = log M(2 - n) / (2 - n)     (real n > 0, n != 2; Rt_1 = E_N)
  S_OP   = H(p) + E_p[log(pc d^2)]

Both backends evaluate one table type, LogSectors: the log backend builds it
as numpy arrays (chains up to L ~ 10^6), the exact backend from its exact
rows, which the table keeps.  One evaluator computes log M(k); integer k
over exact rows is summed exactly (integers for k >= 0, ratios merged
pairwise into one Fraction for k < 0) with one final float log, and a
table whose every d is 1 (U(1), PF: M = 1) reads exactly 0.0 at every k
on either backend.  On the log backend U(1) and the ballot families (SU(2),
TL) sum each summand -- p for D_0 and S_OP, p d^k for each moment -- over
its own window of labels, outside which every term is an exact zero of the
sum (commutants.UNDERFLOW_MARGIN; each summand has a single peak, which is
why the window is complete), so a quantity never depends on which others a
report asks for.  PF and SU(N >= 3) sum over every label.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .commutants import (
    CommutantSpec, Inadmissible, IrrepRecord, LogSectors, TooManySectors,
    commutant_dimension, enumerate_sectors, log_factorials, max_log_degeneracy,
    sector_log_arrays, _lse, _superfactorial,
)
from .exactnum import LogReal, exact_log, sum_ratio_terms

EXACT_L_THRESHOLD = 512  # default backend switch; exact below, log above
EXACT_SECTOR_CAP = 200_000
EXACT_MOMENT_BITS = 4096  # the largest term d^|k| an exact moment sums (see _moments)
N_NEAR_TWO = 1e-6


class EmptySectorList(ValueError):
    pass


class NAtTwo(Inadmissible):
    """The generalized Renyi negativity is undefined at n = 2."""


Ratio = Callable[[float, float], float]  # (k, c) -> log M(k) / c


# ---------------------------------------------------------------------------
# one evaluator over the sector table
# ---------------------------------------------------------------------------

def _exact_table(sectors: Sequence[IrrepRecord], D0: int) -> LogSectors:
    """The log table of exact sector rows, keeping the rows for exact moments."""
    if not sectors:
        raise EmptySectorList("no sectors")
    logs = np.array([[exact_log(x) for x in (r.pattern_count, r.d, r.D_A, r.D_B)]
                     for r in sectors])
    return LogSectors(*logs.T, log_D0=exact_log(D0), rows=sectors, D0=D0)


def _moments(ls: LogSectors) -> Ratio:
    """(k, c) -> log M(k) / c, log M(k) memoized on float(k) (R_3, Rt_4 share k = -2).

    A table whose every d is 1 gives M(k) = 1, exactly 0.0, at every real k,
    with no window search.  Otherwise integer k over exact rows is an exact
    sum while its terms d^|k| stay within EXACT_MOMENT_BITS bits (|k|
    log2(max d) at most that); every other k is one log-sum-exp over the
    table of p d^k's window (LogSectors.at).  The backends differ in one rule, the sign of a zero
    quotient: over exact rows a zero log M(k) reads +0.0 at every order c,
    while the log backend keeps the plain quotient, -0.0 for c < 0.
    """
    exact = ls.rows is not None
    unit_d = not ls.log_d.any()
    log_max_d = float(np.max(ls.log_d))

    @functools.cache
    def log_moment(k: float) -> float:
        if unit_d:
            return 0.0
        if (not exact or not k.is_integer()
                or abs(k) * log_max_d > EXACT_MOMENT_BITS * math.log(2.0)):
            t = ls.at(k)
            return _lse(t.log_pc + t.log_DA + t.log_DB + k * t.log_d) - ls.log_D0
        k = int(k)
        if k >= 0:
            s = Fraction(sum(r.weight * r.d**k for r in ls.rows), ls.D0)
        else:
            s = sum_ratio_terms([(r.weight, r.d**-k) for r in ls.rows]) / ls.D0
        return exact_log(s)

    def ratio(k: float, c: float) -> float:
        log_m = log_moment(float(k))
        return 0.0 if exact and log_m == 0.0 else log_m / c

    return ratio


def _sop(ls: LogSectors) -> float:
    """S_OP = H(p) + E_p[log(pc d^2)] = sum_lambda p (2 log d - log w).

    w = p / pc = D_A D_B / D_0 is one pattern's weight; taking its log
    directly keeps the large log pc of long PF patterns out of the difference.
    """
    log_w = ls.log_DA + ls.log_DB - ls.log_D0
    return float(np.sum(np.exp(ls.log_pc + log_w) * (2.0 * ls.log_d - log_w)))


def _renyi(ratio: Ratio, n: int) -> float:
    if n < 1:
        raise ValueError(f"Renyi index must be >= 1, got {n}")
    if n % 2 == 0:
        n = n - 1
    if n == 1:
        return 0.0
    return ratio(1 - n, -1.0)


def _rtilde(ratio: Ratio, n: float) -> float:
    if abs(n - 2.0) < N_NEAR_TWO:
        raise NAtTwo(f"generalized Renyi negativity undefined at n = 2 (got {n})")
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    return ratio(2 - n, 2.0 - n)


# ---------------------------------------------------------------------------
# the quantities on exact rows and on log arrays
# ---------------------------------------------------------------------------

def log_negativity(sectors: Sequence[IrrepRecord], D0: int) -> float:
    """E_N in nats; exactly 0.0 whenever all degeneracies are 1."""
    return _moments(_exact_table(sectors, D0))(1, 1.0)


def renyi_negativity(sectors: Sequence[IrrepRecord], D0: int, n: int) -> float:
    """R_n in nats for integer n >= 1 (even n via R_n = R_{n-1})."""
    return _renyi(_moments(_exact_table(sectors, D0)), n)


def generalized_renyi(sectors: Sequence[IrrepRecord], D0: int, n: float) -> float:
    """Rt_n in nats for real n > 0, n != 2; equals E_N at n = 1."""
    return _rtilde(_moments(_exact_table(sectors, D0)), n)


def operator_space_entanglement(sectors: Sequence[IrrepRecord], D0: int) -> float:
    """S_OP in nats: Shannon entropy of the sector weights plus E_p[log(pc d^2)]."""
    return _sop(_exact_table(sectors, D0))


def operator_space_entanglement_logdomain(ls: LogSectors) -> float:
    return _sop(ls)


# ---------------------------------------------------------------------------
# bounds and the full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """Universal commutant-dimension bounds (all in nats).

    rtilde(n) for n > 2 is min(log max d, log(dim C_min)/2); both forms are
    kept because whichever is tighter depends on the family (for the Abelian
    families max d = 1 wins, for TL the half-log-dim form can win).
    """

    log_dim_c_min: float
    log_max_d: float

    @property
    def e_n(self) -> float:
        return self.log_dim_c_min

    @property
    def s_op(self) -> float:
        return self.log_dim_c_min

    def rtilde(self, n: float) -> float:
        if abs(n - 2.0) < N_NEAR_TWO:
            raise NAtTwo("no bound at n = 2")
        if n < 2:
            return self.log_dim_c_min / (2.0 - n)
        return min(self.log_max_d, 0.5 * self.log_dim_c_min)


def upper_bounds(spec: CommutantSpec) -> Bounds:
    """The bounds over the irreps on the smaller half."""
    return Bounds(
        log_dim_c_min=commutant_dimension(spec).log_value(),
        log_max_d=max_log_degeneracy(spec),
    )


@dataclass
class EntanglementReport:
    """All closed-form quantities for one (spec, bipartition)."""

    spec: CommutantSpec
    E_N: float
    R: dict[int, float]
    R_tilde: dict[float, float]
    S_OP: float
    dim_C_min: LogReal
    bounds: Bounds
    mode: str  # "exact" | "log_domain"
    rtilde_bounds: dict[float, float] = field(default_factory=dict)


def pick_backend(spec: CommutantSpec, backend: str = "auto") -> str:
    """The backend compute_report runs: auto takes "exact" up to L = EXACT_L_THRESHOLD.

    Auto and an explicit exact both need the irreps on the smaller half to fit
    EXACT_SECTOR_CAP: auto falls back to log, exact raises TooManySectors.
    """
    if backend == "log":
        return "log"
    if backend == "exact" or spec.L <= EXACT_L_THRESHOLD:
        # the paired sectors are among the irreps on the smaller half, so a cut
        # and its mirror image get the same backend
        est = spec.irreps.estimate(spec.N, spec.L_min)
        if est <= EXACT_SECTOR_CAP:
            return "exact"
        if backend == "exact":
            raise TooManySectors(f"~{est} irreps on {spec.L_min} sites exceed the exact "
                                 f"backend's EXACT_SECTOR_CAP = {EXACT_SECTOR_CAP}")
    return "log"


def compute_report(
    spec: CommutantSpec,
    renyi_orders: Sequence[int] = (1, 2, 3, 4),
    rtilde_orders: Sequence[float] = (0.5, 1.0, 1.5, 3.0, 4.0, 6.0),
    backend: str = "auto",
) -> EntanglementReport:
    exact = pick_backend(spec, backend) == "exact"
    if exact:
        sectors = enumerate_sectors(spec)
        D0 = sum(r.weight for r in sectors)  # = singlet_dimension(spec)
        ls = _exact_table(sectors, D0)
    else:
        ls = sector_log_arrays(spec)
    bounds = upper_bounds(spec)
    # S_OP through each backend's public function, which perfbench's per-layer
    # trace times as that backend's evaluation (exact_eval / log_eval)
    sop = (operator_space_entanglement(sectors, D0) if exact
           else operator_space_entanglement_logdomain(ls))
    ratio = _moments(ls)
    return EntanglementReport(
        spec=spec,
        E_N=ratio(1, 1.0),
        R={n: _renyi(ratio, n) for n in renyi_orders},
        R_tilde={n: _rtilde(ratio, n) for n in rtilde_orders},
        S_OP=sop,
        dim_C_min=LogReal(bounds.log_dim_c_min),
        bounds=bounds,
        mode="exact" if exact else "log_domain",
        rtilde_bounds={n: bounds.rtilde(n) for n in rtilde_orders},
    )


# ---------------------------------------------------------------------------
# SU(2) half-chain closed forms and the SU(N) large-L Renyi-3 evaluator
# ---------------------------------------------------------------------------

def su2_log_negativity_closed(L: int) -> float:
    """E_N = log((L/2+1) C(L/2,L/4)^2 / C(L,L/2)) for L = 4n, half chain."""
    if L % 4:
        raise ValueError(f"closed form needs L = 4n, got L={L}")
    val = Fraction((L // 2 + 1) * math.comb(L // 2, L // 4) ** 2, math.comb(L, L // 2))
    return exact_log(val)


def su2_renyi3_closed(L: int) -> float:
    """R_3 = log((L+2)^2 / (4(L+1))) for L = 4n, half chain."""
    if L % 4:
        raise ValueError(f"closed form needs L = 4n, got L={L}")
    return exact_log(Fraction((L + 2) ** 2, 4 * (L + 1)))


def sun_renyi3_half_chain(N: int, L: int) -> float:
    """R_3 for SU(N) at half chain, any L = 0 mod 2N, in O(N^2 L^2) time.

    The n=3 summand D_A D_B / d^2 = (L/2)!^2 sf(N)^2 / prod_i x_i!(a-x_i)!
    (x_i the shifted parts, a = L/N + N - 1) has no Vandermonde factor left,
    so the sum over strictly decreasing tuples with fixed total is the
    coefficient [z^M] e_N({C(a,x) z^x}), and the elementary symmetric
    polynomial e_N follows from power sums via Newton's identities.  The
    levels e_1..e_{N-1} are full convolutions, O(N^2 L^2) together; of e_N
    only the coefficient M is formed, N dot products of at most N a / 2 + 1
    terms.  A direct partition sweep is hopeless at the sizes the R_3
    scaling study needs (~10^9 partitions for N=5, L=3000); this takes
    milliseconds.
    """
    if L % (2 * N):
        raise ValueError(f"need L = 0 mod 2N, got L={L}, N={N}")
    LA = L // 2
    a = L // N + N - 1
    M = LA + N * (N - 1) // 2  # sum of shifted parts

    lgf = log_factorials(a)  # log g(x) = log C(a, x), x = 0..a
    log_g = lgf[a] - lgf - lgf[::-1]
    shift = float(np.max(log_g))
    g = np.exp(log_g - shift)

    # power sums p_i(z) = sum_x g(x)^i z^(i x)
    ps = []
    for i in range(1, N + 1):
        p = np.zeros(i * a + 1)
        p[::i] = g**i
        ps.append(p)
    es: list[np.ndarray] = [np.ones(1)]
    for k in range(1, N):
        acc = np.zeros(k * a + 1)
        for i in range(1, k + 1):
            term = np.convolve(es[k - i], ps[i - 1])
            sgn = 1.0 if (i - 1) % 2 == 0 else -1.0
            acc[: term.size] += sgn * term
        es.append(acc / k)
    # e_N is read at M = N a / 2 only, where the shorter operand of each
    # convolution overlaps the longer one fully: form np.convolve's output M
    # alone, as numpy does (an in-order sum for a kernel of at most 11 taps,
    # BLAS ddot for a longer one), so T keeps every bit
    T = 0.0
    for i in range(1, N + 1):
        u, v = es[N - i], ps[i - 1]
        if v.size > u.size:
            u, v = v, u
        x, y = u[M - v.size + 1: M + 1], v[::-1].copy()
        term = float(np.cumsum(x * y)[-1] if y.size <= 11 else np.dot(x, y))
        T += term if (i - 1) % 2 == 0 else -term
    T /= N
    if T <= 0:
        raise ArithmeticError("convolution lost positivity; L too small for this path?")

    lsf = math.log(_superfactorial(N))
    log_sum = 2 * math.lgamma(LA + 1) + 2 * lsf - N * math.lgamma(a + 1) \
        + N * shift + math.log(T)
    # D_0 = L! sf(N) / prod_i (L/N + i)!
    log_D0 = math.lgamma(L + 1) + lsf
    for i in range(N):
        log_D0 -= math.lgamma(L // N + i + 1)
    return -(log_sum - log_D0)
