import math
from fractions import Fraction
from itertools import product

import numpy as np

from statent.commutants import Family, Irreps, _lse
from statent.entanglement import sun_renyi3_half_chain
from statent.oracle import DenseState, TooLarge, _eigvalsh, _svdvals
from statent.su2cg import SqrtRational, _as_two_j


def spin_half_total_spin_squared(L):
    """Dense S_tot^2 on L spin-1/2 sites (oracle for singlet counting)."""
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.diag([0.5, -0.5])
    dim = 2**L
    out = np.zeros((dim, dim), dtype=complex)
    for a in (sx, sy, sz):
        tot = np.zeros((dim, dim), dtype=complex)
        for j in range(L):
            tot += np.kron(np.kron(np.eye(2**j), a), np.eye(2 ** (L - j - 1)))
        out += tot @ tot
    return out


def walk_bounds(irr: Irreps, N: int, ell: int) -> tuple[float, float]:
    """(log dim C, log max d) on ell sites by a walk over every label: the log of
    sum pc d^2 and the largest log d, from the entry's labels and log_pc_d."""
    log_pc, log_d = irr.log_pc_d(N, irr.labels(N, ell))
    return _lse(log_pc + 2 * log_d), float(np.max(log_d))


def full_matrix(state: DenseState) -> np.ndarray:
    """The state's full N^L x N^L matrix: its block, zero outside states x states."""
    full = np.zeros((state.dim, state.dim), dtype=state.block.dtype)
    full[np.ix_(state.states, state.states)] = state.block
    return full


def block_eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a) through the oracle's per-block solver, on a dense array."""
    i = np.arange(len(a))
    return _eigvalsh(a, i[:, None], i, len(a))


def block_svdvals(m: np.ndarray) -> np.ndarray:
    """np.linalg.svd(m, compute_uv=False) through the oracle's per-block solver."""
    return _svdvals(m, np.arange(m.shape[0])[:, None], np.arange(m.shape[1]), m.shape)


def embed_local(op: np.ndarray, sites: tuple[int, ...], N: int, L: int) -> np.ndarray:
    """Dense embedding of a 1- or 2-site operator (contiguous sites)."""
    j = sites[0]
    return np.kron(np.kron(np.eye(N**j), op), np.eye(N ** (L - j - len(sites))))


def _site_sum(op: np.ndarray, N: int, L: int, staggered: bool = False) -> np.ndarray:
    return sum((-1.0 if staggered else 1.0) ** j * embed_local(op, (j,), N, L) for j in range(L))


def conserved_operators(family: Family, N: int, L: int) -> list[np.ndarray]:
    """Known strong-symmetry generators to check [K, O] = 0 against.

    U(1): S^z_tot.  SU(N): all global E_ab = sum_j |a><b|_j.  PF(N): the
    staggered color charges sum_j (-1)^j |s><s|_j.  TL(N) has no simple
    local closed form for its (Read-Saleur) conserved quantities; its
    conservation is checked dynamically via sector projectors instead.
    """
    if family == Family.U1:
        return [_site_sum(np.diag([0.5, -0.5]), N, L)]
    if family == Family.SUN:  # |a><b| with a major
        return [_site_sum(e, N, L) for e in np.eye(N * N).reshape(N * N, N, N)]
    if family == Family.PF:
        return [_site_sum(np.diag(e), N, L, staggered=True) for e in np.eye(N)[:-1]]
    return []


# ---------------------------------------------------------------------------
# pair-flip pattern census (certifies the closed-form sector counts)
# ---------------------------------------------------------------------------

def stack_reduce(word) -> tuple[int, ...]:
    """Left-to-right pairing reduction: pop equal neighbors, push otherwise."""
    stack: list[int] = []
    for s in word:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def pf_pattern_census(N: int, L: int) -> dict[tuple[int, ...], int]:
    """Histogram of dot patterns over every length-L product state (N^L <= 10^7)."""
    if N**L > 10_000_000:
        raise TooLarge(f"N^L = {N**L} exceeds cap 10000000")
    counts: dict[tuple[int, ...], int] = {}
    for word in product(range(N), repeat=L):
        pat = stack_reduce(word)
        counts[pat] = counts.get(pat, 0) + 1
    return counts


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * f with f squarefree (trial division; factors stay small here)."""
    s, f, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            f *= d
        d += 1 if d == 2 else 2
    return s, f * n


def canonical(v: SqrtRational) -> tuple[Fraction, int]:
    """(coefficient, squarefree kernel): v = coefficient*sqrt(kernel)."""
    if v.sign == 0:
        return Fraction(0), 1
    sn, fn = _squarefree_split(v.radicand.numerator)
    sd, fd = _squarefree_split(v.radicand.denominator)
    # sqrt(num/den) = (sn/(sd*fd)) * sqrt(fn*fd)
    return Fraction(v.sign * sn, sd * fd), fn * fd


def exact_sum(values: list[SqrtRational]) -> dict[int, Fraction]:
    """Exact sum grouped by squarefree kernel: {kernel: coefficient}."""
    out: dict[int, Fraction] = {}
    for c, k in map(canonical, values):
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def cg_singlet(lam, m) -> SqrtRational:
    """Reference value (-1)^(lambda-m)/sqrt(2 lambda + 1) for the singlet case."""
    tl, tm = _as_two_j(lam), _as_two_j(m)
    sign = 1 if ((tl - tm) // 2) % 2 == 0 else -1
    return SqrtRational(sign, Fraction(1, tl + 1))


def fit_general(points, columns) -> np.ndarray:
    """Multi-term least squares: columns is a list of callables of L."""
    pts = sorted(points)
    L = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    A = np.column_stack([c(L) for c in columns])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef


def sun_r3_derivatives(N: int, L_max: int, decades: float = 1.0,
                       points: int = 8) -> list[tuple[float, float]]:
    """(mid-L, dR3/dlogL) secants on a geometric grid up to L_max.

    Uses the convolution evaluator, so L_max ~ 10^4 is cheap for N <= 5.
    """
    step = 2 * N
    lo = max(step, int(L_max / 10**decades))
    grid = np.unique((np.geomspace(lo, L_max, points) / step).round().astype(int) * step)
    grid = grid[grid >= step]
    vals = [sun_renyi3_half_chain(N, int(L)) for L in grid]
    return [(math.sqrt(a * b), (vb - va) / (math.log(b) - math.log(a)))
            for a, b, va, vb in zip(grid, grid[1:], vals, vals[1:])]
