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
over exact rows is summed exactly (integers for k >= 0, ratios over one
common denominator for k < 0) with one final float log, so the Abelian
families (all d = 1, M = 1) come out at exactly 0.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .commutants import (
    CommutantSpec, IrrepRecord, LogSectors, commutant_dimension, enumerate_sectors,
    max_log_degeneracy, sector_log_arrays, _lg, _lse, _superfactorial,
)
from .exactnum import LogReal, exact_log, sum_ratio_terms

EXACT_L_THRESHOLD = 512  # default backend switch; exact below, log above
EXACT_SECTOR_CAP = 200_000
N_NEAR_TWO = 1e-6


class EmptySectorList(ValueError):
    pass


class NAtTwo(ValueError):
    """The generalized Renyi negativity is undefined at n = 2."""


LogMoment = Callable[[float], float]  # k -> log M(k)


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


def _moments(ls: LogSectors) -> LogMoment:
    """k -> log M(k), memoized on float(k) so R_3 and Rt_4 share k = -2.

    Integer k over exact rows is an exact sum, and M(k) == 1 gives exactly
    0.0; every other k is one log-sum-exp over the table.
    """
    base = ls.log_pc + ls.log_DA + ls.log_DB

    @functools.cache
    def log_moment(k: float) -> float:
        if ls.rows is None or not k.is_integer():
            return _lse(base + k * ls.log_d) - ls.log_D0
        k = int(k)
        if k >= 0:
            s = Fraction(sum(r.weight * r.d**k for r in ls.rows), ls.D0)
        else:
            s = sum_ratio_terms([(r.weight, r.d**-k) for r in ls.rows]) / ls.D0
        return 0.0 if s == 1 else exact_log(s)

    return lambda k: log_moment(float(k))


def _sop(ls: LogSectors) -> float:
    """S_OP = H(p) + E_p[log(pc d^2)] = sum_lambda p (2 log d - log w).

    w = p / pc = D_A D_B / D_0 is one pattern's weight; taking its log
    directly keeps the large log pc of long PF patterns out of the difference.
    """
    log_w = ls.log_DA + ls.log_DB - ls.log_D0
    return float(np.sum(np.exp(ls.log_pc + log_w) * (2.0 * ls.log_d - log_w)))


def _over(log_m: float, c: float, exact: bool) -> float:
    # exact sums that reach M(k) == 1 read +0.0 at every order; the log
    # backend keeps the plain quotient
    return 0.0 if exact and log_m == 0.0 else log_m / c


def _renyi(log_moment: LogMoment, n: int, exact: bool) -> float:
    if n < 1:
        raise ValueError(f"Renyi index must be >= 1, got {n}")
    if n % 2 == 0:
        n = n - 1
    if n == 1:
        return 0.0
    return _over(log_moment(1 - n), -1.0, exact)


def _rtilde(log_moment: LogMoment, n: float, exact: bool) -> float:
    if abs(n - 2.0) < N_NEAR_TWO:
        raise NAtTwo(f"generalized Renyi negativity undefined at n = 2 (got {n})")
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    return _over(log_moment(2 - n), 2.0 - n, exact)


# ---------------------------------------------------------------------------
# the quantities on exact rows and on log arrays
# ---------------------------------------------------------------------------

def log_negativity(sectors: Sequence[IrrepRecord], D0: int) -> float:
    """E_N in nats; exactly 0.0 whenever all degeneracies are 1."""
    return _moments(_exact_table(sectors, D0))(1)


def renyi_negativity(sectors: Sequence[IrrepRecord], D0: int, n: int) -> float:
    """R_n in nats for integer n >= 1 (even n via R_n = R_{n-1})."""
    return _renyi(_moments(_exact_table(sectors, D0)), n, exact=True)


def generalized_renyi(sectors: Sequence[IrrepRecord], D0: int, n: float) -> float:
    """Rt_n in nats for real n > 0, n != 2; equals E_N at n = 1."""
    return _rtilde(_moments(_exact_table(sectors, D0)), n, exact=True)


def operator_space_entanglement(sectors: Sequence[IrrepRecord], D0: int) -> float:
    """S_OP in nats: Shannon entropy of the sector weights plus E_p[log(pc d^2)]."""
    return _sop(_exact_table(sectors, D0))


def log_negativity_logdomain(ls: LogSectors) -> float:
    return _moments(ls)(1)


def renyi_negativity_logdomain(ls: LogSectors, n: int) -> float:
    return _renyi(_moments(ls), n, exact=False)


def generalized_renyi_logdomain(ls: LogSectors, n: float) -> float:
    return _rtilde(_moments(ls), n, exact=False)


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
    if backend in ("exact", "log"):
        return backend
    # the paired sectors are among the irreps on L_A
    if spec.L <= EXACT_L_THRESHOLD and spec.irreps.estimate(spec.N, spec.L_A) <= EXACT_SECTOR_CAP:
        return "exact"
    return "log"


def compute_report(
    spec: CommutantSpec,
    renyi_orders: Sequence[int] = (1, 2, 3, 4),
    rtilde_orders: Sequence[float] = (0.5, 1.0, 1.5, 3.0, 4.0, 6.0),
    backend: str = "auto",
) -> EntanglementReport:
    exact = pick_backend(spec, backend) == "exact"
    # S_OP through each backend's public function, which perfbench's per-layer
    # trace times as that backend's evaluation (exact_eval / log_eval)
    if exact:
        sectors = enumerate_sectors(spec)
        D0 = sum(r.weight for r in sectors)  # = singlet_dimension(spec)
        ls, sop = _exact_table(sectors, D0), operator_space_entanglement(sectors, D0)
    else:
        ls = sector_log_arrays(spec)
        sop = operator_space_entanglement_logdomain(ls)
    log_moment = _moments(ls)
    bounds = upper_bounds(spec)
    return EntanglementReport(
        spec=spec,
        E_N=log_moment(1),
        R={n: _renyi(log_moment, n, exact) for n in renyi_orders},
        R_tilde={n: _rtilde(log_moment, n, exact) for n in rtilde_orders},
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
    """R_3 for SU(N) at half chain, any L = 0 mod 2N, in O(N^2 (N L)^2) time.

    The n=3 summand D_A D_B / d^2 = (L/2)!^2 sf(N)^2 / prod_i x_i!(a-x_i)!
    (x_i the shifted parts, a = L/N + N - 1) has no Vandermonde factor left,
    so the sum over strictly decreasing tuples with fixed total is the
    coefficient [z^M] e_N({C(a,x) z^x}), and the elementary symmetric
    polynomial e_N follows from power sums via Newton's identities.  A direct
    partition sweep is hopeless at the sizes the R_3 scaling study needs
    (~10^9 partitions for N=5, L=3000); this takes milliseconds.
    """
    if L % (2 * N):
        raise ValueError(f"need L = 0 mod 2N, got L={L}, N={N}")
    LA = L // 2
    a = L // N + N - 1
    M = LA + N * (N - 1) // 2  # sum of shifted parts

    x = np.arange(a + 1)
    log_g = math.lgamma(a + 1) - _lg(x + 1) - _lg(a - x + 1)
    shift = float(np.max(log_g))
    g = np.exp(log_g - shift)

    # power sums p_i(z) = sum_x g(x)^i z^(i x)
    ps = []
    for i in range(1, N + 1):
        p = np.zeros(i * a + 1)
        p[::i] = g**i
        ps.append(p)
    es: list[np.ndarray] = [np.ones(1)]
    for k in range(1, N + 1):
        acc = np.zeros(k * a + 1)
        for i in range(1, k + 1):
            term = np.convolve(es[k - i], ps[i - 1])
            sgn = 1.0 if (i - 1) % 2 == 0 else -1.0
            acc[: term.size] += sgn * term
        es.append(acc / k)
    T = float(es[N][M])
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
