"""Exact SU(2) Clebsch-Gordan coefficients and sector-mixture negativity.

The CG values are computed from the Racah single-sum closed form with
big-rational factorial ratios, Condon-Shortley sign convention.  A value is
carried as sign * sqrt(radicand) with an exact rational radicand, which is
closed under multiplication; sums of same-kernel products stay exact, so the
orthonormality tests need no tolerances at all.

On top of that sit the total-spin-resolved negativity of stationary states
with weight on several lambda_tot sectors, and the Haar-random-mixture
ensemble used to study how entanglement washes out as more sectors mix in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .commutants import Inadmissible, su2_sector_dim
from .exactnum import factorial


class InvalidSpin(ValueError):
    pass


class WeightError(ValueError):
    pass


class NoCrossing(ValueError):
    pass


class MultipleCrossings(ValueError):
    pass


@dataclass(frozen=True)
class SqrtRational:
    """sign * sqrt(radicand) with radicand an exact non-negative Fraction."""

    sign: int
    radicand: Fraction

    @staticmethod
    def zero() -> "SqrtRational":
        return SqrtRational(0, Fraction(0))

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        s = self.sign * other.sign
        if s == 0:
            return SqrtRational.zero()
        return SqrtRational(s, self.radicand * other.radicand)

    def to_float(self) -> float:
        return self.sign * math.sqrt(float(self.radicand))


def _as_two_j(x) -> int:
    if isinstance(x, int):
        return 2 * x
    two = Fraction(x) * 2
    if two.denominator != 1:
        raise InvalidSpin(f"{x} is not a half-integer")
    return int(two)


def _cg_two_j(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> SqrtRational:
    # Racah closed form; all arguments are doubled spins (exact integers).
    if tM != tm1 + tm2:
        return SqrtRational.zero()
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return SqrtRational.zero()
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        raise InvalidSpin("m must differ from j by an integer")
    if tJ > tj1 + tj2 or tJ < abs(tj1 - tj2) or (tj1 + tj2 + tJ) % 2:
        return SqrtRational.zero()
    if tJ == 0:  # the singlet (-1)^(j1 - m1)/sqrt(2 j1 + 1), which the sum reduces to
        return SqrtRational(-1 if (tj1 - tm1) // 2 % 2 else 1, Fraction(1, tj1 + 1))

    # The Racah series s = sum_k (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!) in
    # integers: each term is the one before times (a-k)(b-k)(c-k) / ((k+1)(d+k+1)(e+k+1)),
    # so s = (-1)^k_lo num / den, nested from the last term, over the common
    # denominator den = k_hi! (a-k_lo)! (b-k_lo)! (c-k_lo)! (d+k_hi)! (e+k_hi)!.
    # One Fraction reduces the radicand s^2 pref at the end.
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    k_lo, k_hi = max(0, -d, -e), min(a, b, c)
    num, den = 1, 1
    for k in range(k_hi - 1, k_lo - 1, -1):
        u = (k + 1) * (d + k + 1) * (e + k + 1)
        num = u * den - (a - k) * (b - k) * (c - k) * num
        den *= u
    if num == 0:
        return SqrtRational.zero()
    den *= (factorial(k_lo) * factorial(a - k_lo) * factorial(b - k_lo) * factorial(c - k_lo)
            * factorial(d + k_lo) * factorial(e + k_lo))
    pref = (
        (tJ + 1)
        * factorial(a) * factorial((tj1 - tj2 + tJ) // 2) * factorial((tj2 - tj1 + tJ) // 2)
        * factorial((tJ + tM) // 2) * factorial((tJ - tM) // 2)
        * factorial((tj1 + tm1) // 2) * factorial(b) * factorial(c) * factorial((tj2 - tm2) // 2)
    )
    sign = -1 if (num < 0) != (k_lo % 2 == 1) else 1
    radicand = Fraction(num * num * pref, den * den * factorial((tj1 + tj2 + tJ) // 2 + 1))
    return SqrtRational(sign, radicand)


def cg_coefficient(lambda_tot, lambda_a, lambda_b, m) -> SqrtRational:
    """<lambda_a m; lambda_b -m | lambda_tot 0> exactly (Condon-Shortley).

    Spins may be ints, Fractions or half-integer floats.  Violated triangle
    or selection rules give an exact zero, not an error.
    """
    tJ = _as_two_j(lambda_tot)
    tja = _as_two_j(lambda_a)
    tjb = _as_two_j(lambda_b)
    tm = _as_two_j(m)
    return _cg_two_j(tja, tm, tjb, -tm, tJ, 0)


# ---------------------------------------------------------------------------
# negativity for stationary states with weight on several lambda_tot sectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cg_float_table(L: int, L_A: int, lambda_tot: int) -> tuple:
    """(lam_a, lam_b, D_A D_B, c) rows for one lambda_tot.

    c is the float CG row c_m = <lam_a m; lam_b -m | lambda_tot 0>, and
    D_A D_B = su2_sector_dim(L_A, lam_a) * su2_sector_dim(L_B, lam_b) is the
    block's (exact integer) multiplicity.  The table holds rows, not c c^T,
    so it grows with L^2 floats per lambda_tot rather than L^3.
    """
    L_B = L - L_A
    rows = []
    for la in range(L_A // 2 + 1):
        lb_lo = abs(la - lambda_tot)
        lb_hi = min(la + lambda_tot, L_B // 2)
        for lb in range(lb_lo, lb_hi + 1):
            mm = min(la, lb)
            cs = np.array(
                [cg_coefficient(lambda_tot, la, lb, m).to_float() for m in range(-mm, mm + 1)]
            )
            dims = su2_sector_dim(L_A, la) * su2_sector_dim(L_B, lb)
            rows.append((la, lb, dims, cs))
    return tuple(rows)


def _check_weights(weights) -> None:
    tot = math.fsum(weights)
    if not abs(tot - 1.0) <= 1e-12:  # a NaN weight fails too
        raise WeightError(f"sector weights sum to {tot!r}, not 1")
    low = float(min(weights))
    if low < 0:
        raise WeightError(f"sector weights must be >= 0, got {low!r}")


def _trace_norms(L: int, L_A: int, ts: list[int], pref: np.ndarray) -> np.ndarray:
    """||rho^T_B||_1 for each row of pref, whose column j holds p_t / D_t for t = ts[j].

    The CG rows of each (lam_a, lam_b) block are summed over ts in order, so
    the lambda_tot sum sits inside |.|, and the blocks are added to the
    totals in order of first appearance over ts.  One block is live at a
    time, as a (rows x block size) matrix, and its c c^T products are formed
    when it is reached.  Each row gets the float operations of a lone row:
    the products and sums are elementwise, and np.sum over the last axis of
    a C-contiguous row is the same pairwise sum as np.sum of the flat block.
    """
    blocks: dict[tuple[int, int], list] = {}
    for j, t in enumerate(ts):
        for la, lb, dims, c in _cg_float_table(L, L_A, t):
            blocks.setdefault((la, lb), [float(dims)]).append((j, c))
    total = np.zeros(pref.shape[0])
    for dims, (j, c), *rest in blocks.values():
        w = pref[:, j:j + 1] * np.outer(c, c).ravel()
        for j, c in rest:
            w += pref[:, j:j + 1] * np.outer(c, c).ravel()
        total += dims * np.sum(np.abs(w), axis=1)
    return total


def negativity_fixed_lambda(L: int, L_A: int, p: dict[int, float]) -> float:
    """log negativity of rho = sum_t p_t Pi^(t)_{m=0} / D_t across the cut L_A.

    Block eigenvalues of rho^T_B are sum_t (p_t/D_t) c_m(t) c_m'(t); the trace
    norm sums their absolute values.  The absolute value wraps the whole
    lambda_tot sum, which is what makes the full-m_tot=0 Dirichlet-mean
    mixture come out separable (it reduces to the U(1) state by CG
    orthonormality).  For weight on a single sector this is identical to
    summing |c_m c_m'| per sector.  Sectors keep the order of p, those of
    weight zero included: they add exact zeros.  This is the one-row case of
    the block evaluation haar_average_negativity runs on all draws at once,
    with the same float operations.
    """
    if L % 2 or L_A % 2 or (L - L_A) % 2:
        raise ValueError("need even L, L_A, L_B")
    if not 0 <= L_A <= L:
        raise ValueError(f"cut L_A = {L_A} is outside 0 <= L_A <= L = {L}")
    for t in p:
        if not 0 <= t <= L // 2:
            raise InvalidSpin(f"need 0 <= lambda_tot <= L/2 = {L // 2}, got {t}")
    _check_weights(p.values())
    pref = {t: w / su2_sector_dim(L, t) for t, w in p.items()}
    total = _trace_norms(L, L_A, list(pref), np.array([list(pref.values())]))
    return math.log(float(total[0]))


@dataclass(frozen=True)
class HaarEnsembleSpec:
    """Haar-random initial states on the first lambda_max+1 total-spin sectors."""

    L: int
    lambda_max: int
    samples: int
    seed: int
    L_A: int | None = None

    def cut(self) -> int:
        return self.L // 2 if self.L_A is None else self.L_A

    def validate(self) -> None:
        L_A = self.cut()
        if L_A < 2 or self.L - L_A < 2 or L_A % 2 or self.L % 2:
            raise Inadmissible(f"need even halves of at least 2 sites, got L={self.L}, "
                               f"L_A={L_A}")
        if self.lambda_max < 0 or self.lambda_max > self.L // 2:
            raise Inadmissible(f"need 0 <= lambda_max <= L/2, got {self.lambda_max}")
        if self.samples < 1:
            raise Inadmissible(f"need samples >= 1, got {self.samples}")
        if self.seed < 0:
            raise Inadmissible(f"need seed >= 0, got {self.seed}")
        # the Gamma draws sum to about sum_{t <= lambda_max} D(L, t) >= D_A D_B of each block;
        # it stays below half the float range, which D(L, 0) >= 2^L / (L+1)^2 passes at L > 1100
        if self.L > 1100 or sum(su2_sector_dim(self.L, t)
                                for t in range(self.lambda_max + 1)) >= 2**1023:
            raise Inadmissible(f"L={self.L}, lambda_max={self.lambda_max} leaves the float range")


def _draw_gammas(spec: HaarEnsembleSpec, index: int, dims: np.ndarray) -> np.ndarray:
    # counter-based stream per draw: parallel and serial runs agree.  Generator.gamma
    # draws element by element, so the draw for a prefix of dims is a prefix of this one.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((spec.seed, index))))
    return rng.gamma(shape=dims)


def haar_average_negativity(spec: HaarEnsembleSpec) -> list[tuple[float, float]]:
    """[(mean, stderr)] of E_N over Haar mixtures, for lambda_max' = 0..spec.lambda_max.

    A complex-Gaussian vector on the direct sum of m_tot=0 sectors puts
    Gamma(shape D_lambda) weight on sector lambda, so p is Dirichlet with
    concentrations D_lambda; the 2^L-dimensional vector itself is never
    materialized.  Draw i is one Gamma vector over sectors 0..lambda_max,
    and the point lambda_max' normalizes its first lambda_max'+1 entries:
    every point reads the same draws (common random numbers), and each
    point's weights are those a draw over its own sectors would give.  All
    draws of one point are evaluated together, one (lam_a, lam_b) block at a
    time (see _trace_norms).  Each draw gets the same float operations as
    its own negativity_fixed_lambda call, so the values and the CLI output
    bytes are those of a loop over the draws.  lambda_max' = 0 is the
    degenerate ensemble: every draw is the singlet stationary state.
    """
    spec.validate()
    L, L_A = spec.L, spec.cut()
    curve = [(negativity_fixed_lambda(L, L_A, {0: 1.0}), 0.0)]
    if spec.lambda_max == 0:
        return curve
    lams = list(range(spec.lambda_max + 1))
    dims = np.array([float(su2_sector_dim(L, t)) for t in lams])
    gams = [_draw_gammas(spec, i, dims) for i in range(spec.samples)]
    for lam in lams[1:]:
        P = np.array([g[:lam + 1] / g[:lam + 1].sum() for g in gams])
        for row in P:
            _check_weights(row)
        norms = _trace_norms(L, L_A, lams[:lam + 1], P / dims[:lam + 1])
        vals = np.array([math.log(x) for x in norms.tolist()])
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(spec.samples)) if spec.samples > 1 else 0.0
        curve.append((mean, stderr))
    return curve


def crossing_point(xs, curve_a, curve_b) -> float:
    """Abscissa where curve_a - curve_b changes sign, by linear interpolation.

    Requires exactly one sign change on the grid; identical curves raise
    NoCrossing, several sign changes raise MultipleCrossings.
    """
    xs = np.asarray(xs, dtype=float)
    diff = np.asarray(curve_a, dtype=float) - np.asarray(curve_b, dtype=float)
    if xs.shape != diff.shape or xs.size < 2:
        raise ValueError("curves must share a grid of at least two points")
    nz = [(x, d) for x, d in zip(xs, diff) if d != 0.0]
    if not nz:
        raise NoCrossing("curves are identical on this grid")
    crossings = []
    for (x0, d0), (x1, d1) in zip(nz, nz[1:]):
        if d0 * d1 < 0:
            crossings.append(x0 - d0 * (x1 - x0) / (d1 - d0))
    if not crossings:
        raise NoCrossing("curves do not cross on this grid")
    if len(crossings) > 1:
        raise MultipleCrossings(f"{len(crossings)} crossings on this grid")
    return float(crossings[0])
