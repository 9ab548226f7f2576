"""Sector data for the four commutant families.

For a bipartite chain L = L_A + L_B the stationary-state formulas only need,
per irrep lambda admissible on both halves, the degeneracy d_lambda and the
bond-algebra dimensions D_lambda^(L_A), D_dual^(L_B).  Each family states
them once, in one table entry (IRREPS), as exact ints and as float64 logs:

  U1   -- magnetization sectors on a spin-1/2 chain,
  SUN  -- Schur-Weyl sectors (partitions) on an N-state chain,
  PF   -- pair-flip dot-pattern sectors (classical fragmentation),
  TL   -- Temperley-Lieb / Read-Saleur sectors (quantum fragmentation).

SU(2) is TL(2) at q = 1 (spins with ballot-number dimensions), so it reads
the TL entry.  The readers -- exact sector rows, log-domain sector arrays
for chains far beyond exact reach, the commutant bounds -- are family-blind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .exactnum import LogReal, binomial, factorial, q_int_exact, tl_q


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
    def irreps(self) -> "Irreps":
        """This family's table entry; SU(2) = TL(2) reads the ballot (TL) entry."""
        return IRREPS[Family.TL if (self.family, self.N) == (Family.SUN, 2) else self.family]


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

    Emitted with the leading part descending (lexicographically descending).
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
    return tuple(w[: L + 1] - IRREPS[Family.PF].log_pc_d(N, np.arange(L + 1))[0])


def _lg(x) -> np.ndarray:
    v = np.vectorize(math.lgamma, otypes=[float])
    return v(x)


# ---------------------------------------------------------------------------
# one irrep table entry per family
# ---------------------------------------------------------------------------

class Irreps:
    """One family's irreps: labels on ell sites (one array row per label), how
    they pair across the cut (default: each label with itself on L_min), and
    (pattern count, degeneracy) and the dimension D on ell sites per label.

    Each fact has an exact flavour (pc_d, D: one label as Python ints) and a
    log flavour (log_pc_d, log_D: a label array).  Defaults: pc = d = 1.
    """

    def pair(self, spec: CommutantSpec) -> tuple[np.ndarray, np.ndarray]:
        lab = self.labels(spec.N, spec.L_min)
        return lab, lab

    def estimate(self, N: int, ell: int) -> int:
        """Cheap upper estimate of the number of irreps on ell sites."""
        return len(self.labels(N, ell))

    def name(self, ell: int, lab):
        return lab

    def pc_d(self, N: int, lab) -> tuple[int, int]:
        return 1, 1

    def log_pc_d(self, N: int, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.zeros(len(lab))
        return z, z


class U1Irreps(Irreps):
    """Magnetization sectors, labelled by the down-spin count k: D = C(ell, k)."""

    def labels(self, N: int, ell: int) -> np.ndarray:
        return np.arange(ell + 1)

    def pair(self, spec: CommutantSpec) -> tuple[np.ndarray, np.ndarray]:
        kA = np.arange(max(0, spec.L // 2 - spec.L_B), min(spec.L_A, spec.L // 2) + 1)
        return kA, spec.L // 2 - kA  # M_A + M_B = 0

    def name(self, ell: int, k: int) -> Fraction:
        return Fraction(ell, 2) - k

    def D(self, N: int, ell: int, k: int) -> int:
        return binomial(ell, k)

    def log_D(self, N: int, ell: int, k: np.ndarray) -> np.ndarray:
        return _lg(ell + 1) - _lg(k + 1) - _lg(ell - k + 1)


class BallotIrreps(Irreps):
    """TL(N) spins lam = 0..ell/2, and SU(2) = TL(2) at q = 1.

    d = [2 lam + 1]_q for q + 1/q = N, and D is the ballot number (su2_sector_dim).
    """

    def labels(self, N: int, ell: int) -> np.ndarray:
        return np.arange(ell // 2 + 1)

    def pc_d(self, N: int, lam: int) -> tuple[int, int]:
        return 1, q_int_exact(2 * lam + 1, N)

    def log_pc_d(self, N: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, q = 2 * lam + 1, tl_q(N)  # [n]_q = q^n (1 - q^-2n) / (q - 1/q): no q^n formed
        log_d = np.log(n) if q == 1.0 else (
            n * math.log(q) + np.log1p(-q ** (-2.0 * n)) - math.log(q - 1.0 / q))
        return np.zeros(len(lam)), log_d

    def D(self, N: int, ell: int, lam: int) -> int:
        return su2_sector_dim(ell, lam)

    def log_D(self, N: int, ell: int, lam: np.ndarray) -> np.ndarray:
        k = ell // 2 + lam
        return (math.lgamma(ell + 1) - _lg(k + 1) - _lg(ell - k + 1)
                + np.log(2 * lam + 1.0) - np.log(ell // 2 + lam + 1.0))


class PFIrreps(Irreps):
    """Dot patterns by length M (d = 1); one label stands for all pc = N(N-1)^(M-1)."""

    def labels(self, N: int, ell: int) -> np.ndarray:
        return np.arange(0, ell + 1, 2)

    def pc_d(self, N: int, M: int) -> tuple[int, int]:
        return pf_pattern_count(N, M), 1

    def log_pc_d(self, N: int, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        log_pc = np.where(M == 0, 0.0, math.log(N) + np.maximum(M - 1, 0) * math.log(N - 1))
        return log_pc, np.zeros_like(log_pc)

    def D(self, N: int, ell: int, M: int) -> int:
        return pf_sector_dimension(N, ell, M)

    def log_D(self, N: int, ell: int, M: np.ndarray) -> np.ndarray:
        return np.asarray(log_pf_sector_dims(N, ell))[M]


class SUNIrreps(Irreps):
    """SU(N >= 3) partitions (rows of N parts): d the Weyl dimension, D the S_ell one.

    A partition of L_A pairs with its dual lam_bar_i = L/N - lam_{N+1-i}.
    """

    def labels(self, N: int, ell: int, cap: int | None = None) -> np.ndarray:
        if (est := self.estimate(N, ell)) > SECTOR_ENUM_CAP:
            raise TooManySectors(f"~{est} SU({N}) partitions of {ell} sites; only the "
                                 "half-chain R3/R4 fast path is available at this size")
        parts = sun_partitions(ell, N, ell if cap is None else cap)
        return np.array(list(parts), dtype=np.int64).reshape(-1, N)

    def estimate(self, N: int, ell: int) -> int:
        return max(1, math.comb(ell + N - 1, N - 1) // math.factorial(N - 1))

    def pair(self, spec: CommutantSpec) -> tuple[np.ndarray, np.ndarray]:
        c = spec.L // spec.N
        lam = self.labels(spec.N, spec.L_A, cap=c)
        return lam, c - lam[:, ::-1]

    def name(self, ell: int, lam: list[int]) -> tuple[int, ...]:
        return tuple(lam)

    def pc_d(self, N: int, lam: list[int]) -> tuple[int, int]:
        return 1, sun_weyl_dim(N, lam)

    def log_pc_d(self, N: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lv = self.log_vandermonde(lam)[1]
        return np.zeros_like(lv), lv - math.log(_superfactorial(N))

    def D(self, N: int, ell: int, lam: list[int]) -> int:
        return sun_irrep_dims(N, ell, lam)[1]

    def log_D(self, N: int, ell: int, lam: np.ndarray) -> np.ndarray:
        t, lv = self.log_vandermonde(lam)
        return math.lgamma(ell + 1) + lv - sum(_lg(col + 1) for col in t.T)

    def log_vandermonde(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shifted parts lam~_i = lam_i + N - i and log prod_{i<j}(lam~_i - lam~_j)."""
        N = lam.shape[1]
        t = lam + np.arange(N - 1, -1, -1)
        return t, sum(np.log(t[:, i] - t[:, j]) for i in range(N) for j in range(i + 1, N))


IRREPS: dict[Family, Irreps] = {Family.U1: U1Irreps(), Family.TL: BallotIrreps(),
                                Family.PF: PFIrreps(), Family.SUN: SUNIrreps()}


# ---------------------------------------------------------------------------
# readers of the table: paired sectors, D_0, bounds, log arrays
# ---------------------------------------------------------------------------

def iter_sectors(spec: CommutantSpec) -> Iterator[IrrepRecord]:
    """Stream IrrepRecords for all irreps admissible on both L_A and L_B."""
    irr, N = spec.irreps, spec.N
    lab_A, lab_B = irr.pair(spec)
    for a, b in zip(lab_A.tolist(), lab_B.tolist()):
        pc, d = irr.pc_d(N, a)
        yield IrrepRecord(label=irr.name(spec.L_A, a), d=d, D_A=irr.D(N, spec.L_A, a),
                          D_B=irr.D(N, spec.L_B, b), pattern_count=pc)


def enumerate_sectors(spec: CommutantSpec) -> list[IrrepRecord]:
    """Complete bipartite-paired sector list (see iter_sectors)."""
    return list(iter_sectors(spec))


def singlet_dimension(spec: CommutantSpec) -> int:
    """Dimension D_0^(L) of the trivial (singlet) sector of the full chain.

    By bipartite completeness this is sum_lambda pc D_A D_B over the paired
    sectors; the per-family closed forms are its test.
    """
    return sum(r.weight for r in iter_sectors(spec))


def _log_pc_d_on_min_half(spec: CommutantSpec) -> tuple[np.ndarray, np.ndarray]:
    """(log pc, log d) over ALL irreps on the smaller half, paired or not."""
    irr = spec.irreps
    return irr.log_pc_d(spec.N, irr.labels(spec.N, spec.L_min))


def commutant_dimension(spec: CommutantSpec) -> LogReal:
    """dim C(L_min) = sum over every irrep on the smaller half of pc * d^2."""
    log_pc, log_d = _log_pc_d_on_min_half(spec)
    return LogReal(_lse(log_pc + 2 * log_d))


def max_log_degeneracy(spec: CommutantSpec) -> float:
    """log of the largest irrep degeneracy of the commutant on the smaller half."""
    return float(np.max(_log_pc_d_on_min_half(spec)[1]))


@dataclass
class LogSectors:
    """Per-sector logs (pattern count, degeneracy, both bond dimensions) and log D_0.

    A table built from exact rows also keeps the rows and the integer D_0, so
    integer moments can still be summed exactly.
    """

    log_pc: np.ndarray
    log_d: np.ndarray
    log_DA: np.ndarray
    log_DB: np.ndarray
    log_D0: float
    rows: Sequence[IrrepRecord] | None = None
    D0: int = 0


def _lse(x: np.ndarray) -> float:
    """log sum exp(x), shifted by the maximum."""
    m = float(np.max(x))
    if m == float("-inf"):
        return m
    return m + math.log(float(np.sum(np.exp(x - m))))


def sector_log_arrays(spec: CommutantSpec) -> LogSectors:
    """Log-domain analogue of enumerate_sectors (float64 arrays)."""
    irr, N = spec.irreps, spec.N
    lab_A, lab_B = irr.pair(spec)
    log_DA, log_DB = irr.log_D(N, spec.L_A, lab_A), irr.log_D(N, spec.L_B, lab_B)
    log_pc, log_d = irr.log_pc_d(N, lab_A)
    return LogSectors(log_pc, log_d, log_DA, log_DB, _lse(log_pc + log_DA + log_DB))
