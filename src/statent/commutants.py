"""Sector data for the four commutant families.

For a bipartite chain L = L_A + L_B the stationary-state formulas only need,
per irrep lambda admissible on both halves, the degeneracy d_lambda and the
bond-algebra dimensions D_lambda^(L_A), D_dual^(L_B).  This module enumerates
that data exactly (Python ints) for

  U1   -- magnetization sectors on a spin-1/2 chain,
  SUN  -- Schur-Weyl sectors (partitions) on an N-state chain,
  PF   -- pair-flip dot-pattern sectors (classical fragmentation),
  TL   -- Temperley-Lieb / Read-Saleur sectors (quantum fragmentation),

SU(2) is TL(2): its spins lambda carry ballot-number dimensions and the
degeneracy [2 lambda + 1]_q at q = 1, so it runs on the TL code path
(CommutantSpec.ballot).  SU(N >= 3) keeps the partition formulas.

plus log-domain arrays of the same data for chains far beyond exact reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .exactnum import (
    LogReal,
    binomial,
    exact_log,
    factorial,
    q_int_exact,
    tl_q,
)


class Family(str, Enum):
    U1 = "u1"
    SUN = "sun"
    PF = "pf"
    TL = "tl"


class Inadmissible(ValueError):
    """The (family, N, L, L_A) combination is not covered by the closed forms."""


class ParityError(ValueError):
    """Dot-pattern length has the wrong parity for the chain length."""


class TooManySectors(ValueError):
    """Sector enumeration would not fit in memory/time (large-L SU(N>2))."""


SECTOR_ENUM_CAP = 2_000_000


@dataclass(frozen=True)
class CommutantSpec:
    """A commutant family on a bipartitioned chain."""

    family: Family
    N: int
    L: int
    L_A: int

    def __post_init__(self) -> None:
        check_admissible(self)

    @property
    def L_B(self) -> int:
        return self.L - self.L_A

    @property
    def L_min(self) -> int:
        return min(self.L_A, self.L_B)

    @property
    def ballot(self) -> bool:
        """Spin sectors with ballot-number dimensions: TL(N), and SU(2) = TL(2)."""
        return self.family == Family.TL or (self.family == Family.SUN and self.N == 2)


@dataclass(frozen=True)
class IrrepRecord:
    """One irrep paired with its dual across the cut.

    pattern_count is the number of distinct labels sharing the same
    (d, D_A, D_B); it is 1 everywhere except for PF dot patterns, where one
    record stands for all N(N-1)^(M-1) patterns of length M.
    """

    label: object
    d: int
    D_A: int
    D_B: int
    pattern_count: int = 1

    @property
    def weight(self) -> int:
        """pc D_A D_B: this record's share of the singlet dimension D_0."""
        return self.pattern_count * self.D_A * self.D_B


def check_admissible(spec: CommutantSpec) -> None:
    """Raise Inadmissible unless the singlet-pairing closed forms cover this spec.

    Run by CommutantSpec on construction, so every spec in hand is admissible.
    The dual pairing across the cut only exists on the stated length grids
    (e.g. even halves for TL/PF, multiples of N for SU(N)); anything else is
    refused rather than extrapolated.
    """
    f, N, L, L_A, L_B = spec.family, spec.N, spec.L, spec.L_A, spec.L_B
    if L < 2 or L_A < 1 or L_B < 1:
        raise Inadmissible(f"need L >= 2 and a proper cut, got L={L}, L_A={L_A}")
    if N < 2:
        raise Inadmissible(f"need local dimension N >= 2, got N={N}")
    if f == Family.U1:
        if N != 2:
            raise Inadmissible("U(1) family is defined on a spin-1/2 chain (N=2)")
        if L % 2:
            raise Inadmissible(f"U(1) M_tot=0 sector needs even L, got L={L}")
    elif f == Family.SUN:
        if L % N or L_A % N or L_B % N:
            raise Inadmissible(
                f"SU({N}) singlet pairing needs L, L_A, L_B = 0 mod {N}; "
                f"got L={L}, L_A={L_A}, L_B={L_B}"
            )
    elif f in (Family.PF, Family.TL):
        if L % 2 or L_A % 2 or L_B % 2:
            raise Inadmissible(
                f"{f.value.upper()}({N}) needs even L, L_A, L_B; "
                f"got L={L}, L_A={L_A}, L_B={L_B}"
            )
    else:  # pragma: no cover
        raise Inadmissible(f"unknown family {f}")


# ---------------------------------------------------------------------------
# per-family dimension formulas
# ---------------------------------------------------------------------------

def su2_sector_dim(ell: int, lam: int) -> int:
    """Spin-lambda bond-sector dimension on ell sites (even ell).

    Equals C(ell, ell/2+lam) - C(ell, ell/2+lam+1)
         = (2 lam + 1)/(ell/2 + lam + 1) * C(ell, ell/2 + lam).
    """
    if lam < 0 or lam > ell // 2:
        return 0
    k = ell // 2 + lam
    return binomial(ell, k) * (2 * lam + 1) // (ell // 2 + lam + 1)


def _superfactorial(N: int) -> int:
    out = 1
    for k in range(1, N):
        out *= factorial(k)
    return out


def sun_weyl_dim(N: int, lam: tuple[int, ...]) -> int:
    """Weyl dimension d_lambda = prod_{i<j}(lam~_i - lam~_j) / sf(N).

    lam~_i = lam_i + N - i are the shifted parts of the partition lam.
    """
    tl = [lam[i] + N - 1 - i for i in range(N)]
    vand = 1
    for i in range(N):
        for j in range(i + 1, N):
            vand *= tl[i] - tl[j]
    d, rem = divmod(vand, _superfactorial(N))
    if rem:
        raise ArithmeticError("Weyl dimension did not divide exactly")
    return d


def sun_irrep_dims(N: int, ell: int, lam: tuple[int, ...]) -> tuple[int, int]:
    """(d_lambda, D_lambda^(ell)) for the SU(N) partition lam of ell.

    D = ell! / prod lam~_i!  *  prod_{i<j}(lam~_i - lam~_j), where the
    Vandermonde product is d * sf(N) (see sun_weyl_dim).
    """
    d = sun_weyl_dim(N, lam)
    den = 1
    for i in range(N):
        den *= factorial(lam[i] + N - 1 - i)
    D, rem = divmod(factorial(ell) * d * _superfactorial(N), den)
    if rem:
        raise ArithmeticError("S_L dimension did not divide exactly")
    return d, D


def sun_partitions(ell: int, N: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ell into at most N parts, each <= cap, padded to length N.

    Emitted with the leading part descending; streamed so callers can fold
    over large sector lists without materializing them.
    """

    def rec(remaining: int, acc: list[int], hi: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if remaining <= hi:
                yield tuple(acc + [remaining])
            return
        lo = -(-remaining // slots)  # smallest admissible leading part (ceil)
        for p in range(min(hi, remaining), lo - 1, -1):
            yield from rec(remaining - p, acc + [p], p, slots - 1)

    yield from rec(ell, [], cap, N)


def sun_dual(N: int, L: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """Dual partition lam_bar_i = L/N - lam_{N+1-i}."""
    c = L // N
    return tuple(c - lam[N - 1 - i] for i in range(N))


def pf_pattern_count(N: int, M: int) -> int:
    """Number of irreducible dot patterns of length M over N colors."""
    if M == 0:
        return 1
    return N * (N - 1) ** (M - 1)


@lru_cache(maxsize=None)
def _pf_walk_counts(N: int, L: int) -> tuple[int, ...]:
    """W[M] = number of length-L color words whose stack reduction has depth M.

    Reading a word drives a walk on the rooted (N-1)-ary tree of irreducible
    words: a symbol equal to the stack top pops (1 choice), anything else
    pushes (N-1 choices off the root, N at the root).  W[M] is the number of
    length-L walks from the root ending at depth M, summed over all depth-M
    endpoints.
    """
    w = [0] * (L + 1)
    w[0] = 1
    for _ in range(L):
        nxt = [0] * (L + 1)
        for h, c in enumerate(w):
            if not c:
                continue
            if h > 0:
                nxt[h - 1] += c
            nxt[h + 1] += c * (N if h == 0 else N - 1)
        w = nxt
    return tuple(w)


def pf_sector_dimension(N: int, L: int, M: int) -> int:
    """Number of length-L product states reducing to one fixed M-dot pattern.

    Tree homogeneity makes the count independent of which pattern is fixed,
    so it is the depth-M walk count divided by the number of depth-M
    endpoints.  Certified against brute-force enumeration in the oracle
    tests before being trusted at large L.
    """
    if L < 0 or M < 0 or M > L:
        raise ValueError(f"need 0 <= M <= L, got L={L}, M={M}")
    if (L - M) % 2:
        raise ParityError(f"M={M} has wrong parity for L={L}")
    total = _pf_walk_counts(N, L)[M]
    D, rem = divmod(total, pf_pattern_count(N, M))
    if rem:
        raise ArithmeticError("PF walk count not divisible by pattern count")
    return D


@lru_cache(maxsize=None)
def log_pf_sector_dims(N: int, L: int) -> tuple[float, ...]:
    """log D_M^PF(N)(L) for M = 0..L (log-domain walk DP, -inf off-parity)."""
    w = np.full(L + 2, -np.inf)
    w[0] = 0.0
    push = np.log(np.full(L + 1, N - 1, dtype=float))
    push[0] = math.log(N)
    for _ in range(L):
        nxt = np.full(L + 2, -np.inf)
        nxt[: L + 1] = np.logaddexp(
            np.concatenate(([-np.inf], (w[: L + 1] + push)[:-1])),  # pushed from h-1
            w[1 : L + 2],  # popped from h+1
        )
        w = nxt
    out = []
    for M in range(L + 1):
        lpc = 0.0 if M == 0 else math.log(N) + (M - 1) * math.log(N - 1)
        out.append(w[M] - lpc)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration of bipartite-paired sectors
# ---------------------------------------------------------------------------

def iter_sectors(spec: CommutantSpec) -> Iterator[IrrepRecord]:
    """Stream IrrepRecords for all irreps admissible on both L_A and L_B."""
    f, N, L, L_A, L_B = spec.family, spec.N, spec.L, spec.L_A, spec.L_B

    if spec.ballot:
        for lam in range(spec.L_min // 2 + 1):
            yield IrrepRecord(
                label=lam,
                d=q_int_exact(2 * lam + 1, N),
                D_A=su2_sector_dim(L_A, lam),
                D_B=su2_sector_dim(L_B, lam),
            )
    elif f == Family.U1:
        # sector M on A pairs with -M on B; enumerate via the down-spin count
        for kA in range(L_A + 1):
            kB = L // 2 - kA  # enforces M_A + M_B = 0
            if kB < 0 or kB > L_B:
                continue
            yield IrrepRecord(
                label=Fraction(L_A, 2) - kA,
                d=1,
                D_A=binomial(L_A, kA),
                D_B=binomial(L_B, kB),
            )
    elif f == Family.SUN:
        cap = L // N
        for lam in sun_partitions(L_A, N, cap):
            d, D_A = sun_irrep_dims(N, L_A, lam)
            _, D_B = sun_irrep_dims(N, L_B, sun_dual(N, L, lam))
            yield IrrepRecord(label=lam, d=d, D_A=D_A, D_B=D_B)
    elif f == Family.PF:
        for M in range(0, spec.L_min + 1, 2):
            yield IrrepRecord(
                label=M,
                d=1,
                D_A=pf_sector_dimension(N, L_A, M),
                D_B=pf_sector_dimension(N, L_B, M),
                pattern_count=pf_pattern_count(N, M),
            )
    else:  # pragma: no cover
        raise Inadmissible(f"unknown family {f}")


def enumerate_sectors(spec: CommutantSpec) -> list[IrrepRecord]:
    """Complete bipartite-paired sector list (see iter_sectors)."""
    return list(iter_sectors(spec))


def estimate_sector_count(spec: CommutantSpec) -> int:
    """Cheap upper estimate of len(enumerate_sectors(spec))."""
    if spec.family == Family.U1:
        return spec.L_min + 1
    if spec.ballot or spec.family == Family.PF:
        return spec.L_min // 2 + 1
    # SU(N >= 3): partitions of L_A into <= N parts
    n, k = spec.L_A, spec.N
    est = 1
    for i in range(1, k):
        est = est * (n + i) // i
    return max(1, est // math.factorial(k - 1))


def singlet_dimension(spec: CommutantSpec) -> int:
    """Dimension D_0^(L) of the trivial (singlet) sector of the full chain.

    By bipartite completeness this is sum_lambda pc D_A D_B over the paired
    sectors; the per-family closed forms are its test.
    """
    return sum(r.weight for r in iter_sectors(spec))


def commutant_dimension(spec: CommutantSpec) -> LogReal:
    """dim C(L_min) = sum over ALL irreps on the smaller half of count * d^2.

    This runs over every irrep admissible on that length alone (not the
    bipartite-paired list), which is what the entanglement upper bounds need.
    """
    ell, f, N = spec.L_min, spec.family, spec.N
    if spec.ballot:
        return LogReal(_lse(2 * _log_ballot_d(N, np.arange(ell // 2 + 1))))
    if f == Family.U1:
        total = ell + 1
    elif f == Family.PF:
        total = sum(pf_pattern_count(N, M) for M in range(0, ell + 1, 2))
    else:
        total = sum(sun_weyl_dim(N, lam) ** 2 for lam in sun_partitions(ell, N, ell))
    return LogReal.from_int(total)


def max_log_degeneracy(spec: CommutantSpec) -> float:
    """log of the largest irrep degeneracy of the commutant on the smaller half."""
    ell, f, N = spec.L_min, spec.family, spec.N
    if spec.ballot:
        return float(_log_ballot_d(N, ell // 2))
    if f in (Family.U1, Family.PF):
        return 0.0
    return exact_log(max(sun_weyl_dim(N, lam) for lam in sun_partitions(ell, N, ell)))


# ---------------------------------------------------------------------------
# log-domain sector arrays (large-L backend)
# ---------------------------------------------------------------------------

@dataclass
class LogSectors:
    """Per-sector logs: pattern count, degeneracy, and both bond dimensions."""

    log_pc: np.ndarray
    log_d: np.ndarray
    log_DA: np.ndarray
    log_DB: np.ndarray

    @property
    def log_D0(self) -> float:
        return _lse(self.log_pc + self.log_DA + self.log_DB)


def _lse(x: np.ndarray) -> float:
    """log sum exp(x), shifted by the maximum."""
    m = float(np.max(x))
    if m == float("-inf"):
        return m
    return m + math.log(float(np.sum(np.exp(x - m))))


def sector_log_arrays(spec: CommutantSpec) -> LogSectors:
    """Log-domain analogue of enumerate_sectors (float64 arrays)."""
    f, N, L, L_A, L_B = spec.family, spec.N, spec.L, spec.L_A, spec.L_B

    if f == Family.U1:
        kA = np.arange(L_A + 1)
        kB = L // 2 - kA
        ok = (kB >= 0) & (kB <= L_B)
        kA, kB = kA[ok], kB[ok]
        lgA = _lg(L_A + 1) - _lg(kA + 1) - _lg(L_A - kA + 1)
        lgB = _lg(L_B + 1) - _lg(kB + 1) - _lg(L_B - kB + 1)
        z = np.zeros_like(lgA)
        return LogSectors(z, z, lgA, lgB)
    if spec.ballot:
        lam = np.arange(spec.L_min // 2 + 1)
        lgA = _log_ballot(L_A, lam)
        lgB = _log_ballot(L_B, lam)
        return LogSectors(np.zeros_like(lgA), _log_ballot_d(N, lam), lgA, lgB)
    if f == Family.PF:
        M = np.arange(0, spec.L_min + 1, 2)
        dimsA = np.asarray(log_pf_sector_dims(N, L_A))
        dimsB = np.asarray(log_pf_sector_dims(N, L_B))
        log_pc = np.where(
            M == 0, 0.0, math.log(N) + np.maximum(M - 1, 0) * math.log(N - 1)
        )
        return LogSectors(log_pc, np.zeros_like(log_pc), dimsA[M], dimsB[M])
    if f == Family.SUN:
        if estimate_sector_count(spec) > SECTOR_ENUM_CAP:
            raise TooManySectors(
                f"~{estimate_sector_count(spec):.0f} SU({N}) partitions at L={L}; "
                "only the half-chain R3/R4 fast path is available at this size"
            )
        rows_d, rows_A, rows_B = [], [], []
        lsf = math.log(_superfactorial(N))
        cap = L // N
        for lam in sun_partitions(L_A, N, cap):
            tl_sh = [lam[i] + N - 1 - i for i in range(N)]
            dual = sun_dual(N, L, lam)
            tl_du = [dual[i] + N - 1 - i for i in range(N)]
            lv = 0.0
            for i in range(N):
                for j in range(i + 1, N):
                    lv += math.log(tl_sh[i] - tl_sh[j])
            rows_d.append(lv - lsf)
            la = math.lgamma(L_A + 1) + lv - sum(math.lgamma(t + 1) for t in tl_sh)
            lb = math.lgamma(L_B + 1) + lv - sum(math.lgamma(t + 1) for t in tl_du)
            rows_A.append(la)
            rows_B.append(lb)
        arr_d = np.asarray(rows_d)
        return LogSectors(np.zeros_like(arr_d), arr_d, np.asarray(rows_A), np.asarray(rows_B))
    raise Inadmissible(f"unknown family {f}")  # pragma: no cover


def _lg(x) -> np.ndarray:
    v = np.vectorize(math.lgamma, otypes=[float])
    return v(x)


def _log_ballot_d(N: int, lam: int | np.ndarray) -> np.ndarray:
    """log [2 lam + 1]_q for q + 1/q = N: the ballot-sector degeneracy d_lam.

    [n]_q = q^n (1 - q^-2n) / (q - 1/q), so no q^n is ever formed; q = 1
    (SU(2)) is the plain log(2 lam + 1).
    """
    n = 2 * np.asarray(lam) + 1
    q = tl_q(N)
    if q == 1.0:
        return np.log(n)
    return n * math.log(q) + np.log1p(-q ** (-2.0 * n)) - math.log(q - 1.0 / q)


def _log_ballot(ell: int, lam: np.ndarray) -> np.ndarray:
    k = ell // 2 + lam
    return (
        math.lgamma(ell + 1)
        - _lg(k + 1)
        - _lg(ell - k + 1)
        + np.log(2 * lam + 1.0)
        - np.log(ell // 2 + lam + 1.0)
    )
