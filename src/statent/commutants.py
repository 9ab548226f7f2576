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

U(1) and the ballot entry evaluate log D one label at a time
(OneLabelIrreps), so their log tables hold a window, not every label: each
summand of the log backend (the weight p for D_0 and S_OP, and each moment
p d^k) is summed only where it is within UNDERFLOW_MARGIN of its maximum,
past which exp gives exactly 0.0.  The window is complete because each such
summand has a single peak in the label: U(1)'s p is hypergeometric, hence
log-concave, and with d = 1 every moment shares its window; on the ballot
entry log D_A + log D_B is concave in lambda, k >= 0 adds k log d with log d
concave (log(2 lambda + 1), log [2 lambda + 1]_q), a k < 0 keeps the summand
concave for TL with |k| < 2 / log q and SU(2) with k >= -2, and every other
k < 0 gives a summand decreasing from lambda = 0.  PF (D a prefix sum over
every label) and SU(N >= 3) (one label is N parts) keep the full table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .exactnum import LogReal, binomial, factorial, q_int_exact, tl_q


class Family(str, Enum):
    U1 = "u1"
    SUN = "sun"
    PF = "pf"
    TL = "tl"


class Inadmissible(ValueError):
    """A request the closed forms do not cover; the CLI exits 2 on it."""


class ParityError(ValueError):
    """Dot-pattern length has the wrong parity for the chain length."""


class TooManySectors(ValueError):
    """Sector enumeration would not fit in memory/time (large-L SU(N>2))."""


SECTOR_ENUM_CAP = 2_000_000
LOG_TABLE_CAP = 50_000_000  # log_factorials entries: 400 MB, a half-chain L of about 10^8
# exp(x) rounds to 0.0 below half the least subnormal, x < log(2^-1075) = -745.13; a
# log-sum-exp term more than 746 below the maximum is an exact zero of the sum
UNDERFLOW_MARGIN = 746.0


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
        return irreps_of(self.family, self.N)


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
    The dual pairing across the cut only exists on the length grid that the
    family's IRREPS entry states (Irreps.steps, Irreps.only_N); anything else
    is refused rather than extrapolated.
    """
    N, L, L_A, L_B = spec.N, spec.L, spec.L_A, spec.L_B
    if L < 2 or L_A < 1 or L_B < 1:
        raise Inadmissible(f"need L >= 2 and a proper cut, got L={L}, L_A={L_A}")
    check_local_dimension(spec.family, N)
    irr, name = spec.irreps, f"{spec.family.value.upper()}({N})"
    step, half_step = irr.steps(N)
    if L % step or L_A % half_step or L_B % half_step:
        raise Inadmissible(f"{name} singlet pairing needs L = 0 mod {step} and "
                           f"L_A, L_B = 0 mod {half_step}; got L={L}, L_A={L_A}, L_B={L_B}")


def check_local_dimension(family: Family, N: int) -> None:
    """The rules of check_admissible that hold at every L: N >= 2 and the entry's only_N."""
    if N < 2:
        raise Inadmissible(f"need local dimension N >= 2, got N={N}")
    if (only_N := irreps_of(family, N).only_N) not in (None, N):
        raise Inadmissible(f"{family.value.upper()}({N}): this family is defined "
                           f"at N = {only_N} only")


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


def sun_partitions(ell: int, N: int, cap: int) -> np.ndarray:
    """Partitions of ell into at most N parts, each <= cap, padded to length N.

    One int64 row per partition, shape (0, N) if there is none, in
    lexicographically descending order.  Built one part at a time: a prefix
    with `rem` left over and last part `hi` takes every next part p from
    min(hi, rem) down to ceil(rem / slots), the least that still fits in the
    slots left, so every prefix completes.  Each part keeps its values and
    parent indices; the table is gathered once, from the last part back.
    """
    parts = []
    rem, hi = np.array([ell], dtype=np.int64), np.array([cap], dtype=np.int64)
    for slots in range(N, 0, -1):
        top = np.minimum(hi, rem)
        count = np.maximum(top + rem // -slots + 1, 0)  # top - ceil(rem / slots) + 1
        src = np.repeat(np.arange(len(rem)), count)
        p = top[src] - (np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count))
        parts.append((src, p))
        rem, hi = rem[src] - p, p
    rows, idx = np.empty((len(rem), N), dtype=np.int64), np.arange(len(rem))
    for j, (src, p) in reversed(list(enumerate(parts))):
        rows[:, j], idx = p[idx], src[idx]
    return rows


def pf_pattern_count(N: int, M: int) -> int:
    """Number of irreducible dot patterns of length M over N colors."""
    if M == 0:
        return 1
    return N * (N - 1) ** (M - 1)


def pf_sector_dimension(N: int, L: int, M: int) -> int:
    """Number of length-L product states reducing to one fixed M-dot pattern.

    Tree homogeneity makes the count independent of which pattern is fixed.
    It is a walk count on the N-regular tree of irreducible color words, in
    closed form (odd L too): with q = N - 1 and k = (L - M)/2,
    D_M = sum_{i<=k} q^i [C(L, i) - C(L, i-1)], a prefix sum of ballot numbers.
    Certified against brute-force enumeration in the oracle tests before
    being trusted at large L.
    """
    if L < 0 or M < 0 or M > L:
        raise ValueError(f"need 0 <= M <= L, got L={L}, M={M}")
    if (L - M) % 2:
        raise ParityError(f"M={M} has wrong parity for L={L}")
    total, c_prev, c, q_i = 0, 0, 1, 1  # c_prev, c = C(L, i-1), C(L, i); q_i = q^i
    for i in range((L - M) // 2 + 1):
        total += q_i * (c - c_prev)
        c_prev, c, q_i = c, c * (L - i) // (i + 1), q_i * (N - 1)
    return total


def log_pf_sector_dims(N: int, L: int, lg=None) -> np.ndarray:
    """log D_M^PF(N)(L) for M = 0..L (-inf off-parity), even L only.

    The prefix sum of pf_sector_dimension in the log domain; its ballot
    numbers are the spin-(L/2 - i) ballot entry's log_D, reading log j!
    through lg (see Irreps; a gather from log_factorials(L) if not given).
    """
    if L % 2:
        raise ParityError(f"log PF sector dimensions need even L, got L={L}")
    i = np.arange(L // 2 + 1)
    out = np.full(L + 1, -np.inf)
    lg = log_factorials(L).__getitem__ if lg is None else lg
    out[L::-2] = np.logaddexp.accumulate(
        i * math.log(N - 1) + IRREPS[Family.TL].log_D(N, L, L // 2 - i, lg))
    return out


def _check_log_table(n: int) -> None:
    """Raise TooManySectors if a log_factorials table to n is past LOG_TABLE_CAP."""
    if n > LOG_TABLE_CAP:
        raise TooManySectors(f"log_factorials({n}) exceeds LOG_TABLE_CAP = {LOG_TABLE_CAP}")


def log_factorials(n: int) -> np.ndarray:
    """lgamma(j + 1) for j = 0..n, one math.lgamma per integer.

    log_D gathers from it; each full-table sector build makes its own and drops it.
    """
    _check_log_table(n)
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


# ---------------------------------------------------------------------------
# one irrep table entry per family
# ---------------------------------------------------------------------------

class Irreps:
    """One family's irreps: labels on ell sites (one array row per label), an
    upper estimate of their number that builds none (estimate), how they pair
    across the cut (default: each label with itself on L_min), and (pattern
    count, degeneracy) and the dimension D on ell sites per label.

    Each fact has an exact flavour (pc_d, D: one label as Python ints) and a
    log flavour (log_pc_d, log_D: a label array; log_D reads log j! through
    lg, a function of an int or an int array: a gather from a log_factorials
    table of at least ell + N entries, or one math.lgamma per index).
    Defaults: pc = d = 1.

    The commutant bounds on ell sites, log dim C(ell) = log sum pc d^2 and
    log max d over every label on ell sites, are each entry's closed form;
    the default walks every label (labels, then log_pc_d).

    The cut pairing covers L = 0 mod step and L_A, L_B = 0 mod half_step,
    (step, half_step) = steps(N), at every N >= 2 unless only_N is set.
    """

    only_N: int | None = None

    def steps(self, N: int) -> tuple[int, int]:
        return 2, 2

    def pair(self, spec: CommutantSpec) -> tuple[np.ndarray, np.ndarray]:
        lab = self.labels(spec.N, spec.L_min)
        return lab, lab

    def name(self, ell: int, lab):
        return lab

    def pc_d(self, N: int, lab) -> tuple[int, int]:
        return 1, 1

    def log_pc_d(self, N: int, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.zeros(len(lab))
        return z, z

    def log_dim_commutant(self, N: int, ell: int) -> float:
        log_pc, log_d = self.log_pc_d(N, self.labels(N, ell))
        return _lse(log_pc + 2 * log_d)

    def log_max_d(self, N: int, ell: int) -> float:
        return float(np.max(self.log_pc_d(N, self.labels(N, ell))[1]))


class OneLabelIrreps(Irreps):
    """A family whose log D reads one label at a time and whose labels on L_A
    that pair across the cut are one range (span), each with its dual on L_B
    (default: itself).  sector_log_arrays builds its tables over windows."""

    def pair(self, spec: CommutantSpec) -> tuple[np.ndarray, np.ndarray]:
        r = self.span(spec)
        lab = np.arange(r.start, r.stop)
        return lab, self.dual(spec, lab)

    def dual(self, spec: CommutantSpec, lab: np.ndarray) -> np.ndarray:
        return lab


class U1Irreps(OneLabelIrreps):
    """Magnetization sectors, labelled by the down-spin count k: D = C(ell, k)."""

    only_N = 2  # spin-1/2

    def steps(self, N: int) -> tuple[int, int]:
        return 2, 1  # M_tot = 0 needs even L; any cut pairs k_A with L/2 - k_A

    def labels(self, N: int, ell: int) -> np.ndarray:
        return np.arange(ell + 1)

    def estimate(self, N: int, ell: int) -> int:
        """The number of labels on ell sites, without building them."""
        return ell + 1

    def span(self, spec: CommutantSpec) -> range:
        return range(max(0, spec.L // 2 - spec.L_B), min(spec.L_A, spec.L // 2) + 1)

    def dual(self, spec: CommutantSpec, kA: np.ndarray) -> np.ndarray:
        return spec.L // 2 - kA  # M_A + M_B = 0

    def name(self, ell: int, k: int) -> Fraction:
        return Fraction(ell, 2) - k

    def log_dim_commutant(self, N: int, ell: int) -> float:
        return math.log(ell + 1)  # ell + 1 labels, each pc = d = 1

    def log_max_d(self, N: int, ell: int) -> float:
        return 0.0

    def D(self, N: int, ell: int, k: int) -> int:
        return binomial(ell, k)

    def log_D(self, N: int, ell: int, k: np.ndarray, lg) -> np.ndarray:
        return lg(ell) - lg(k) - lg(ell - k)


class BallotIrreps(OneLabelIrreps):
    """TL(N) spins lam = 0..ell/2, and SU(2) = TL(2) at q = 1.

    d = [2 lam + 1]_q for q + 1/q = N, and D is the ballot number (su2_sector_dim).
    """

    def labels(self, N: int, ell: int) -> np.ndarray:
        return np.arange(ell // 2 + 1)

    def estimate(self, N: int, ell: int) -> int:
        """The number of labels on ell sites, without building them."""
        return ell // 2 + 1

    def span(self, spec: CommutantSpec) -> range:
        return range(spec.L_min // 2 + 1)

    def pc_d(self, N: int, lam: int) -> tuple[int, int]:
        return 1, q_int_exact(2 * lam + 1, N)

    def log_pc_d(self, N: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, q = 2 * lam + 1, tl_q(N)  # [n]_q = q^n (1 - q^-2n) / (q - 1/q): no q^n formed
        log_d = np.log(n) if q == 1.0 else (
            n * math.log(q) + np.log1p(-q ** (-2.0 * n)) - math.log(q - 1.0 / q))
        return np.zeros(len(lam)), log_d

    def log_dim_commutant(self, N: int, ell: int) -> float:
        """log sum_{lam <= m} [2 lam + 1]_q^2, m = ell // 2, in closed form.

        At q = 1 the sum is (m + 1)(2m + 1)(2m + 3)/3.  Above, (q - 1/q)^2 [n]_q^2 =
        q^2n - 2 + q^-2n summed over n = 1, 3, .., 2m + 1 is two geometric series
        and -2(m + 1); the q^2n one, q^(4m+2) (1 - q^-4(m+1)) / (1 - q^-4), is
        taken in logs (no q^n formed) and the rest is added to it through log1p.
        """
        m, q = ell // 2, tl_q(N)
        if q == 1.0:
            return math.log((m + 1) * (2 * m + 1) * (2 * m + 3) // 3)
        tail = q ** (-4.0 * (m + 1))
        top = (4 * m + 2) * math.log(q) + math.log1p(-tail) - math.log1p(-q ** -4.0)
        rest = (1.0 - tail) / (q * q - q ** -2.0) - 2.0 * (m + 1)
        return top + math.log1p(rest * math.exp(-top)) - 2.0 * math.log(q - 1.0 / q)

    def log_max_d(self, N: int, ell: int) -> float:
        return float(self.log_pc_d(N, np.array([ell // 2]))[1][0])  # d grows with lam

    def D(self, N: int, ell: int, lam: int) -> int:
        return su2_sector_dim(ell, lam)

    def log_D(self, N: int, ell: int, lam: np.ndarray, lg) -> np.ndarray:
        k = ell // 2 + lam
        return (lg(ell) - lg(k) - lg(ell - k)
                + np.log(2 * lam + 1.0) - np.log(ell // 2 + lam + 1.0))


class PFIrreps(Irreps):
    """Dot patterns by length M (d = 1); one label stands for all pc = N(N-1)^(M-1)."""

    def labels(self, N: int, ell: int) -> np.ndarray:
        return np.arange(0, ell + 1, 2)

    def estimate(self, N: int, ell: int) -> int:
        """The number of labels on ell sites, without building them."""
        return ell // 2 + 1

    def pc_d(self, N: int, M: int) -> tuple[int, int]:
        return pf_pattern_count(N, M), 1

    def log_pc_d(self, N: int, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        log_pc = np.where(M == 0, 0.0, math.log(N) + np.maximum(M - 1, 0) * math.log(N - 1))
        return log_pc, np.zeros_like(log_pc)

    def log_dim_commutant(self, N: int, ell: int) -> float:
        """log of 1 + sum over M = 2, 4, .., 2m of N (N-1)^(M-1) = ((N-1)^(2m+1) - 1)/(N - 2),
        m = ell // 2 (2m + 1 at N = 2)."""
        k = 2 * (ell // 2) + 1
        if N == 2:
            return math.log(k)
        return k * math.log(N - 1) - math.log(N - 2) + math.log1p(-(N - 1.0) ** -k)

    def log_max_d(self, N: int, ell: int) -> float:
        return 0.0

    def D(self, N: int, ell: int, M: int) -> int:
        return pf_sector_dimension(N, ell, M)

    def log_D(self, N: int, ell: int, M: np.ndarray, lg) -> np.ndarray:
        return log_pf_sector_dims(N, ell, lg)[M]  # a prefix sum over every label: the full table


class SUNIrreps(Irreps):
    """SU(N >= 3) partitions (rows of N parts): d the Weyl dimension, D the S_ell one.

    A partition of L_A pairs with its dual lam_bar_i = L/N - lam_{N+1-i}.
    """

    def steps(self, N: int) -> tuple[int, int]:
        return N, N

    def labels(self, N: int, ell: int, cap: int | None = None) -> np.ndarray:
        if (est := self.estimate(N, ell)) > SECTOR_ENUM_CAP:
            raise TooManySectors(f"~{est} SU({N}) partitions of {ell} sites; only the "
                                 "half-chain R3/R4 fast path is available at this size")
        return sun_partitions(ell, N, ell if cap is None else cap)

    def estimate(self, N: int, ell: int) -> int:
        """Upper estimate of the partitions of ell into at most N parts.

        The binomial formula alone undercounts once N nears ell (1 against
        5604 at N = ell = 30), so the count from p(n, k) = p(n, k - 1) +
        p(n - k, k) bounds it from below.  Round k is a running sum down
        each residue class n mod k, one float64 cumsum over the rows of
        p[:ell + 1] laid out k wide.  The count is exact below 2^53, which
        covers every cap it is compared with; a count that overflows the
        float reads as the largest float (the binomial term alone can read 0
        there: N = 1000, ell = 10^5).
        """
        p = np.zeros(ell + 1)  # p[n] = p(n, k) after round k
        p[0] = 1.0
        with np.errstate(over="ignore"):
            for k in range(1, min(N, ell) + 1):
                full = (ell + 1) // k * k
                rows = p[:full].reshape(-1, k)
                np.cumsum(rows, axis=0, out=rows)
                p[full:] += rows[-1, : ell + 1 - full]
        count = int(min(p[ell], np.finfo(float).max))
        return max(count, math.comb(ell + N - 1, N - 1) // math.factorial(N - 1))

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

    def log_D(self, N: int, ell: int, lam: np.ndarray, lg) -> np.ndarray:
        t, lv = self.log_vandermonde(lam)
        return lg(ell) + lv - sum(lg(col) for col in t.T)

    def log_vandermonde(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shifted parts lam~_i = lam_i + N - i and log prod_{i<j}(lam~_i - lam~_j)."""
        N = lam.shape[1]
        t = lam + np.arange(N - 1, -1, -1)
        return t, sum(np.log(t[:, i] - t[:, j]) for i in range(N) for j in range(i + 1, N))


IRREPS: dict[Family, Irreps] = {Family.U1: U1Irreps(), Family.TL: BallotIrreps(),
                                Family.PF: PFIrreps(), Family.SUN: SUNIrreps()}


def irreps_of(family: Family, N: int) -> Irreps:
    """The family's table entry at local dimension N; SU(2) = TL(2) reads the
    ballot (TL) entry at q = 1."""
    return IRREPS[Family.TL if (family, N) == (Family.SUN, 2) else family]


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


def commutant_dimension(spec: CommutantSpec) -> LogReal:
    """dim C(L_min) = sum over every irrep on the smaller half of pc * d^2."""
    return LogReal(spec.irreps.log_dim_commutant(spec.N, spec.L_min))


def max_log_degeneracy(spec: CommutantSpec) -> float:
    """log of the largest irrep degeneracy of the commutant on the smaller half."""
    return spec.irreps.log_max_d(spec.N, spec.L_min)


@dataclass
class LogSectors:
    """Per-sector logs (pattern count, degeneracy, both bond dimensions) and log D_0.

    A table built from exact rows also keeps the rows and the integer D_0, so
    integer moments can still be summed exactly.  A windowed table (spec and
    labels set) holds the labels of the weight p's window; at(k) gives the
    table of the moment p d^k's window.
    """

    log_pc: np.ndarray
    log_d: np.ndarray
    log_DA: np.ndarray
    log_DB: np.ndarray
    log_D0: float
    rows: Sequence[IrrepRecord] | None = None
    D0: int = 0
    spec: CommutantSpec | None = None
    labels: range | None = None

    def at(self, k: float) -> "LogSectors":
        """The table over every label where p d^k is nonzero in float64."""
        if self.labels is None:
            return self
        w = _window(self.spec, k)
        return self if w == self.labels else _window_table(self.spec, w, self.log_D0)


def _lse(x: np.ndarray) -> float:
    """log sum exp(x), shifted by the maximum; x is left as it was."""
    m = float(np.max(x))
    if m == float("-inf"):
        return m
    y = x - m
    return m + math.log(float(np.sum(np.exp(y, out=y))))


def _log_rows(spec: CommutantSpec, lab: np.ndarray) -> tuple[np.ndarray, ...]:
    """(log pc, log d, log D_A, log D_B) of a OneLabelIrreps on the labels lab of L_A.

    log j! is one math.lgamma per index, bit for bit the log_factorials
    entry; an index array that both halves read (all of them on a
    half-chain cut) is evaluated once.
    """
    irr, N = spec.irreps, spec.N
    read: dict[bytes, np.ndarray] = {}

    def lg(j):
        if np.ndim(j) == 0:
            return math.lgamma(j + 1)
        key = j.tobytes()
        if key not in read:
            read[key] = np.fromiter(map(math.lgamma, (j + 1).tolist()), float, len(j))
        return read[key]

    return (*irr.log_pc_d(N, lab), irr.log_D(N, spec.L_A, lab, lg),
            irr.log_D(N, spec.L_B, irr.dual(spec, lab), lg))


SEARCH_WAYS = 64  # labels a window search evaluates at once; no window depends on it


def _grid(lo: int, hi: int) -> np.ndarray:
    """SEARCH_WAYS labels from lo to hi, both included, strictly increasing
    for hi - lo >= SEARCH_WAYS (a step above 1)."""
    return np.linspace(lo, hi, SEARCH_WAYS).astype(np.int64)


def _first_true(pred: Callable[[np.ndarray], np.ndarray], lo: int, hi: int) -> int:
    """The least i in [lo, hi] where pred holds, hi + 1 if none, for pred
    false-then-true there."""
    while hi - lo >= SEARCH_WAYS:
        i = _grid(lo, hi)
        t = pred(i)
        if not t.any():
            return hi + 1
        j = int(np.argmax(t))
        if j == 0:
            return lo
        lo, hi = int(i[j - 1]) + 1, int(i[j])
    i = np.arange(lo, hi + 1)
    t = pred(i)
    return int(i[np.argmax(t)]) if t.any() else hi + 1


def _window(spec: CommutantSpec, k: float) -> range:
    """The labels of span where the summand p d^k is within UNDERFLOW_MARGIN of
    its maximum, by a search over single-label evaluations.

    The summand has a single peak (see the module docstring): find it, then
    the first label on each side that falls more than the margin below it.
    """
    def f(lab: np.ndarray) -> np.ndarray:
        log_pc, log_d, log_DA, log_DB = _log_rows(spec, lab)
        return log_pc + log_DA + log_DB + k * log_d

    r = spec.irreps.span(spec)
    lo, hi = r.start, r.stop - 1
    while hi - lo >= SEARCH_WAYS:  # the peak lies between the grid maximum's neighbours
        i = _grid(lo, hi)
        j = int(np.argmax(f(i)))
        lo, hi = int(i[max(j - 1, 0)]), int(i[min(j + 1, SEARCH_WAYS - 1)])
    v = f(np.arange(lo, hi + 1))
    top, floor = lo + int(np.argmax(v)), float(np.max(v)) - UNDERFLOW_MARGIN
    return range(_first_true(lambda i: f(i) >= floor, r.start, top),
                 _first_true(lambda i: f(i) < floor, top, r.stop - 1))


def _window_table(spec: CommutantSpec, labels: range,
                  log_D0: float | None = None) -> LogSectors:
    """The LogSectors of a OneLabelIrreps over one window of labels; log D_0
    is summed over it unless given."""
    log_pc, log_d, log_DA, log_DB = _log_rows(spec, np.arange(labels.start, labels.stop))
    if log_D0 is None:
        log_D0 = _lse(log_pc + log_DA + log_DB)
    return LogSectors(log_pc, log_d, log_DA, log_DB, log_D0, spec=spec, labels=labels)


def sector_log_arrays(spec: CommutantSpec) -> LogSectors:
    """Log-domain analogue of enumerate_sectors (float64 arrays).

    A OneLabelIrreps table holds the window of the weight p (see LogSectors.at)
    and calls one math.lgamma per log factorial it reads.  The others read one
    log_factorials table for both halves, to ell + N - 1 for shifted SU(N) parts
    and built before the labels; both are freed before log D_0 is summed.
    LOG_TABLE_CAP refuses every family at the same sizes, before any label.
    """
    irr, N = spec.irreps, spec.N
    if isinstance(irr, OneLabelIrreps):
        _check_log_table(max(spec.L_A, spec.L_B) + N - 1)
        return _window_table(spec, _window(spec, 0.0))
    lg = log_factorials(max(spec.L_A, spec.L_B) + N - 1).__getitem__
    lab_A, lab_B = irr.pair(spec)
    log_DA, log_DB = irr.log_D(N, spec.L_A, lab_A, lg), irr.log_D(N, spec.L_B, lab_B, lg)
    log_pc, log_d = irr.log_pc_d(N, lab_A)
    del lg, lab_A, lab_B
    return LogSectors(log_pc, log_d, log_DA, log_DB, _lse(log_pc + log_DA + log_DB))
