"""Brute-force ground truth on small chains.

Builds the local Kraus channels for each family, finds the stationary state
as the projector onto the seed's orbit under the Kraus operators (checked by
one sweep of the channel; mixed seeds iterate the sweep to its fixed point),
and computes every entanglement quantity straight from the dense density
matrix.  A state is held as its block over the basis states the seed can
reach; the partial transpose, the realignment and rho itself are index maps
from block entries to target positions, and each spectrum is solved one
connected block of the target's nonzeros at a time, which a conserved charge
makes small.  Nothing here knows about sector data: this is the independent
side of the dual-route check that certifies the closed forms (and the
pair-flip counting) at small L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import permutations

import numpy as np

from .commutants import IRREPS, CommutantSpec, Family

DEFAULT_DIM_CAP = 6561  # N^L above this refuses to build dense operators

# Floor below which partial-transpose eigenvalues are treated as exact zeros.
# The fixed-point iteration stops at defect ~1e-12, so spurious eigenvalues of
# that size survive a 1e-12 floor and get amplified by fractional powers in
# the generalized Renyi negativities; 1e-10 is still five orders below the
# smallest physical PT eigenvalue 1/(D0 max d) at any dense-reachable size.
EIG_FLOOR = 1e-10

# The fixed-point iteration gives up when the defect shrinks by less than
# STALL_RATIO per sweep for STALL_WINDOW sweeps in a row.
STALL_RATIO = 0.9999
STALL_WINDOW = 10_000


class TooLarge(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


class BadCut(ValueError):
    pass


@dataclass
class DenseState:
    """Density matrix on a chain of qudits with uniform site dimension.

    Held as its block over the sorted basis states `states`: the matrix is
    exactly zero outside states x states.  Without states, block is the
    whole N^L x N^L matrix.
    """

    block: np.ndarray
    site_dims: list[int]
    states: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.states is None:
            self.states = np.arange(len(self.block))

    @property
    def dim(self) -> int:
        return math.prod(self.site_dims)

    @property
    def trace(self) -> float:
        return float(np.trace(self.block).real)

    def validate(self) -> None:
        b = self.block
        if np.linalg.norm(b - b.conj().T) > 1e-12 * max(1.0, np.linalg.norm(b)):
            raise ValueError("state is not Hermitian")
        if abs(self.trace - 1.0) > 1e-12:
            raise ValueError(f"trace is {self.trace}, not 1")
        i = np.arange(len(b))  # the zeros outside the block change no minimum below 0
        w = _eigvalsh(b, i[:, None], i, len(b))
        if w.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {w.min()}")


@dataclass
class LocalChannel:
    """One CPTP factor: Hermitian Kraus operators supported on given sites."""

    sites: tuple[int, ...]
    ops: list[np.ndarray]

    def completeness_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


@dataclass
class KrausSet:
    N: int
    L: int
    channels: list[LocalChannel] = field(default_factory=list)

    @property
    def completeness_defect(self) -> float:
        return max(c.completeness_defect() for c in self.channels)

    @cached_property
    def plan(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Superoperators in sweep order, with same-support neighbors composed.

        The composition order within the sweep is fixed (bonds j = 1..L-1 in
        construction order, then site channels); it matters because the local
        channels do not commute.  Built on the first sweep, after the channels.
        """
        plan: list[tuple[tuple[int, ...], np.ndarray]] = []
        for ch in self.channels:
            S = _channel_superop(ch)
            if plan and plan[-1][0] == ch.sites:
                plan[-1] = (ch.sites, S @ plan[-1][1])
            else:
                plan.append((ch.sites, S))
        return plan


def _swap(N: int) -> np.ndarray:
    P = np.zeros((N * N, N * N))
    for a in range(N):
        for b in range(N):
            P[b * N + a, a * N + b] = 1.0
    return P


def _tl_e(N: int) -> np.ndarray:
    v = np.eye(N).ravel()  # sum_s |ss>
    return np.outer(v, v)  # = N |singlet><singlet|


def _antisymmetrizer_block(N: int) -> np.ndarray:
    """The normalized antisymmetrized N-site state sum_perm sign(perm) |perm>."""
    block = np.zeros(N**N)
    for perm in permutations(range(N)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        block[np.ravel_multi_index(perm, (N,) * N)] = (-1.0) ** inversions
    return block / np.linalg.norm(block)


def _chain(family: Family, N: int):
    """One family's chain: (bond projectors, site resolution, seed block, block width).

    Every channel resolves the identity into orthogonal projectors: {Pi, 1 - Pi}
    on each bond for each bond projector Pi, then {|s><s|} on each site (no site
    channel for SU(N) and TL(N)).  SU(N): Pi = (1 + P)/2, P the two-site swap.
    TL(N): Pi = e/N with e = sum |ss><s's'| (e^2 = N e).  U(1) and PF(N): Pi =
    (h^2 + h)/2 for the hopping flip h = |01><10| + h.c., or for each pair flip
    h = |ss><tt| + h.c. (s < t); with the site dephasing, h^2 is a sum of
    products of site projectors and h = 2 Pi - h^2, so the channels generate
    the flips' algebra (same commutant, same fixed points).

    The seed block (see singlet_product_state) comes as a function, since
    SU(N)'s has N^N entries.  ValueError for an N that the IRREPS entry rules out.
    """
    only = IRREPS[family].only_N
    if only not in (None, N):
        raise ValueError(f"{family.value.upper()} family is defined for N = {only}")
    eye = np.eye(N * N)
    if family == Family.SUN:
        return [(eye + _swap(N)) / 2], [], lambda: _antisymmetrizer_block(N), N
    if family == Family.TL:
        return [_tl_e(N) / N], [], lambda: np.eye(N).ravel() / math.sqrt(N), 2
    if family == Family.U1:  # v = |a> + |b> for each flip a <-> b
        vs, seed, width = [eye[1] + eye[N]], eye[1], 2
    else:
        vs = [eye[s * (N + 1)] + eye[t * (N + 1)] for s in range(N) for t in range(s + 1, N)]
        seed, width = np.eye(N)[0], 1
    return [np.outer(v, v) / 2 for v in vs], [np.diag(e) for e in np.eye(N)], lambda: seed, width


def build_kraus(family: Family, N: int, L: int, dim_cap: int = DEFAULT_DIM_CAP) -> KrausSet:
    """Local Hermitian Kraus channels with the family's commutant: see _chain for their order."""
    if N**L > dim_cap:
        raise TooLarge(f"N^L = {N**L} exceeds cap {dim_cap}")
    bond, site, _, _ = _chain(family, N)
    pairs = [[Pi, np.eye(N * N) - Pi] for Pi in bond]
    ks = KrausSet(N, L, [LocalChannel((j, j + 1), ops) for j in range(L - 1) for ops in pairs]
                  + [LocalChannel((j,), site) for j in range(L) if site])
    defect = ks.completeness_defect
    if defect > 1e-12:
        raise AssertionError(f"Kraus completeness defect {defect}")
    return ks


def _channel_superop(ch: LocalChannel) -> np.ndarray:
    """S[(a,c),(b,d)] = sum_K K[a,b] K*[c,d]: the channel on the local pair index."""
    return sum(np.kron(K, K.conj()) for K in ch.ops)


def _layout(kraus: KrausSet, sites: tuple[int, ...],
            states: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, int]:
    """Where an operator on `sites` meets the basis states `states`: (d, loc, ci, nc).

    loc is each state's local index (of d) and ci its context's (the states
    of the other sites) among the nc contexts that occur in `states`.
    """
    N, L = kraus.N, kraus.L
    d = N ** len(sites)
    B = N ** (L - sites[0] - len(sites))
    ctx, ci, _, _ = _groups(states // (B * d) * B + states % B)
    return d, states // B % d, ci, len(ctx)


def sweep_steps(kraus: KrausSet, states: np.ndarray, dtype) -> list[tuple]:
    """Each KrausSet.plan step laid out on the block over `states`: (at, x, y).

    x is the (d, d, nc, nc) GEMM input, the local pair index then the pairs
    of the nc contexts (states of the other sites) that occur in `states`;
    read as (d^2, nc^2) it is the full-space step's input less its all-zero
    columns.  at = (loc[:, None], loc, ci[:, None], ci) broadcasts to the
    m x m positions the block scatters to: loc is each state's local index
    and ci its context's.  y takes S @ x.  Every step's x and y are views of
    one zero-filled input buffer and one output buffer, sized for the
    largest step; apply_sweep leaves the input buffer zero again.  Built
    once per trajectory, for blocks of one dtype.
    """
    layouts = []
    for sites, _ in kraus.plan:
        d, loc, ci, nc = _layout(kraus, sites, states)
        layouts.append(((d, d, nc, nc), (loc[:, None], loc, ci[:, None], ci)))
    size = max(math.prod(shape) for shape, _ in layouts)
    x, y = np.zeros(size, dtype=dtype), np.empty(size, dtype=dtype)
    return [(at, x[:math.prod(shape)].reshape(shape), y[:math.prod(shape)].reshape(shape))
            for shape, at in layouts]


def apply_sweep(block: np.ndarray, kraus: KrausSet, steps: list[tuple]) -> np.ndarray:
    """One full sweep of the composite channel (see KrausSet.plan for order).

    Runs on the block over the reachable states that `steps` lays out (see
    sweep_steps), bit for bit the full-space sweep there: each entry is the
    same dot product over the same inputs less exact zeros, and the reachable
    set is closed, so the full-space result vanishes outside it.  Each step
    zeroes the input entries it scattered, so the shared buffer is all zero
    between steps.
    """
    for (_, S), (at, x, y) in zip(kraus.plan, steps):
        x[at] = block
        np.matmul(S, x.reshape(len(S), -1), out=y.reshape(len(S), -1))
        block = y[at]
        x[at] = 0
    return block


def reachable_states(kraus: KrausSet, states: np.ndarray) -> np.ndarray:
    """Sorted basis states reachable from the sorted basis states `states` under the Kraus ops.

    Breadth-first search over each channel's local sparsity pattern: local
    state b leads to a if any K[a, b] != 0.  The set S is closed under every
    embedded K (K[not S, S] = 0), so every iterate of the sweep vanishes
    exactly outside S x S.  The Kraus operators are Hermitian, so reaching
    is symmetric: S is a union of components, each of which keeps its trace
    under the sweep, and the states reachable from any iterate are S again.
    Reads only the Kraus matrices, never sector data.
    """
    N, L = kraus.N, kraus.L
    seen = np.zeros(N**L, dtype=bool)
    frontier = np.asarray(states)
    seen[frontier] = True
    moves = [(N ** (L - ch.sites[0] - len(ch.sites)), N ** len(ch.sites),
              np.any([K != 0 for K in ch.ops], axis=0)) for ch in kraus.channels]
    while frontier.size:
        hit = np.zeros(N**L, dtype=bool)
        for B, d, leads in moves:
            loc = frontier // B % d
            a, i = np.nonzero(leads[:, loc])
            hit[frontier[i] + (a - loc[i]) * B] = True
        # not np.unique: its masked-array check imports numpy.ma in every process
        frontier = np.flatnonzero(hit & ~seen)
        seen[frontier] = True
    return np.flatnonzero(seen)


def _reachable_block(kraus: KrausSet, rho0: DenseState) -> tuple[np.ndarray, np.ndarray]:
    """The states S reachable from rho0's states, and rho0's block over S (zero-padded)."""
    S = reachable_states(kraus, rho0.states)
    at = np.searchsorted(S, rho0.states)
    block = np.zeros((len(S), len(S)), dtype=rho0.block.dtype)
    block[np.ix_(at, at)] = rho0.block
    return S, block


def _sweeps(sweep_map, rho: np.ndarray, tol: float, max_sweeps: int):
    """Yield (sweep, rho, defect) after each sweep_map(rho), up to the first defect <= tol.

    The defect is the Frobenius norm of the change over one sweep.  Raises
    NoConvergence if max_sweeps is exhausted or the defect decay ratio stays
    above STALL_RATIO for STALL_WINDOW sweeps (uniqueness of the fixed point
    is guaranteed, a rate is not).
    """
    prev_defect, defect = None, math.nan
    stalled = 0
    for sweep in range(1, max_sweeps + 1):
        nxt = sweep_map(rho)
        defect = float(np.linalg.norm(nxt - rho))
        rho = nxt
        yield sweep, rho, defect
        if defect <= tol:
            return
        if prev_defect is not None and prev_defect > 0:
            stalled = stalled + 1 if defect / prev_defect > STALL_RATIO else 0
            if stalled >= STALL_WINDOW:
                raise NoConvergence(
                    f"defect stalled near {defect:.3e} after {sweep} sweeps"
                )
        prev_defect = defect
    raise NoConvergence(f"no convergence within {max_sweeps} sweeps (defect {defect:.3e})")


def _block_channels(kraus: KrausSet, S: np.ndarray) -> list[tuple]:
    """Each channel's (ops, at, d, nc) on the basis states S: at = loc * nc + ci (see _layout)."""
    layouts = [(ch.ops, *_layout(kraus, ch.sites, S)) for ch in kraus.channels]
    return [(ops, loc * nc + ci, d, nc) for ops, d, loc, ci, nc in layouts]


def _apply(ops: list[np.ndarray], at: np.ndarray, d: int, nc: int,
           r: np.ndarray) -> list[np.ndarray]:
    """[K r for K in ops], each local K on r's rows laid out by at (see _block_channels):
    scatter the rows once to (local index, context, column), one d x d GEMM per K, gather."""
    x = np.zeros((d, nc * r.shape[1]), dtype=np.result_type(*ops, r))
    x.reshape(-1, r.shape[1])[at] = r
    return [(K @ x).reshape(-1, r.shape[1])[at] for K in ops]


def _kraus_sweep(channels: list[tuple], r: np.ndarray) -> np.ndarray:
    """One sweep on the block: r -> sum_K K r K^dag, channel by channel in order,
    each K r K^dag as (K (K r)^dag)^dag."""
    for ops, *lay in channels:
        r = sum(_apply([K], *lay, t.conj().T)[0].conj().T
                for K, t in zip(ops, _apply(ops, *lay, r)))
    return r


def channel_fixed_point(kraus: KrausSet, rho0: DenseState) -> DenseState:
    """Iterate sweeps until the Frobenius defect drops to 1e-12 (see _sweeps).

    The sweep runs on the m x m block over the reachable basis states S (see
    reachable_states), applying each channel in order as rho -> sum_K K rho K^dag
    with K applied through its layout on S; the result is that block over S.
    Takes any seed, mixed ones included; orbit_state is the sweep-free route
    for a pure seed.
    """
    S, block = _reachable_block(kraus, rho0)
    channels = _block_channels(kraus, S)
    for _, block, _ in _sweeps(lambda r: _kraus_sweep(channels, r), block, 1e-12, 1_000_000):
        pass
    return DenseState(block, list(rho0.site_dims), S)


def orbit_state(kraus: KrausSet, rho0: DenseState, tol: float = 1e-12) -> DenseState:
    """The fixed point reached from a pure seed |psi>: P / rank P, without sweeping.

    P projects onto the orbit of psi under the algebra the Kraus operators
    generate.  A seed in a sector of multiplicity one (every
    singlet_product_state) spans that whole sector under the algebra, so P
    is the sector projector and P / rank P the fixed point the sweep
    converges to.  The orbit is closed block by block on the reachable basis
    states S: apply every projector of each channel but the last (1 minus the
    others, so it adds no direction) to the newest orthonormal columns,
    project out the span V found so far (twice), and keep the left singular
    vectors of the result above 1e-10 x max(1, s_max), until a block adds
    nothing or V spans all of S (P is then the identity on S).  Reads only the
    Kraus matrices, never sector data.  The result is the block over S.

    One sweep (_kraus_sweep) checks the result: NoConvergence if it moves the
    state by more than tol (Frobenius norm).  Raises ValueError for a seed
    that is not rank one on S; channel_fixed_point takes mixed seeds.
    """
    S, seed = _reachable_block(kraus, rho0)
    channels = _block_channels(kraus, S)
    i = int(np.argmax(np.diagonal(seed).real))
    psi = seed[:, i] / math.sqrt(seed[i, i].real)
    if np.linalg.norm(seed - np.outer(psi, psi.conj())) > 1e-12 * np.linalg.norm(seed):
        raise ValueError("orbit_state needs a pure seed; use channel_fixed_point")
    ops = [(ks[:-1], *lay) for ks, *lay in channels]  # the checking sweep applies every K
    V = new = psi[:, None] / np.linalg.norm(psi)
    while new.shape[1] and V.shape[1] < len(S):
        W = np.concatenate([w for ks, *lay in ops for w in _apply(ks, *lay, new)], axis=1)
        for _ in range(2):
            W -= V @ (V.conj().T @ W)
        # W = R^T Q^T, so R^T has W's left singular vectors without W's wide right factor
        R = np.linalg.qr(W.T, mode="r")
        u, s, _ = np.linalg.svd(R.T, full_matrices=False)
        new = u[:, s > 1e-10 * max(1.0, s[0])]
        V = np.concatenate((V, new), axis=1)
    rank = V.shape[1]
    # a full-rank V V^T is the identity up to round-off; the exact one keeps the
    # zeros that split the block spectra (U(1) and PF orbits fill S)
    block = np.eye(len(S)) / rank if rank == len(S) else V @ V.conj().T / rank
    defect = float(np.linalg.norm(_kraus_sweep(channels, block) - block))
    if not defect <= tol:
        raise NoConvergence(f"orbit state moves by {defect:.3e} in one sweep (tol {tol:.1e})")
    return DenseState(block, list(rho0.site_dims), S)


def iterate_with_trajectory(
    kraus: KrausSet,
    rho0: DenseState,
    cut: int,
    tol: float = 1e-12,
    max_sweeps: int = 100_000,
) -> tuple[DenseState, list[dict]]:
    """Like channel_fixed_point but records (sweep, E_N, R3, S_OP, defect).

    The reachable states S are found once, and so is each plan step's layout
    on them (see sweep_steps).  Every sweep goes through the module-global
    apply_sweep (which a tracer may wrap), whose summation order the pinned
    dynamics outputs depend on.  Each row solves one PT spectrum, one rho
    spectrum and one realignment SVD.
    """
    S, block = _reachable_block(kraus, rho0)
    steps = sweep_steps(kraus, S, block.dtype)

    def row(sweep: int, block: np.ndarray, defect: float) -> dict:
        st = DenseState(block, list(rho0.site_dims), S)
        w = pt_eigenvalues(st, cut)
        return {
            "sweep": sweep,
            "E_N": log_negativity_from(w),
            "R3": renyi_negativity_from(w, rho_spectrum(st), 3),
            "S_OP": dense_ose(st, cut),
            "defect": defect,
        }

    rows = [row(0, block, float("nan"))]
    sweeps = _sweeps(lambda b: apply_sweep(b, kraus, steps), block, tol, max_sweeps)
    for sweep, block, defect in sweeps:
        rows.append(row(sweep, block, defect))
    return DenseState(block, list(rho0.site_dims), S), rows


# ---------------------------------------------------------------------------
# initial states in the singlet sector
# ---------------------------------------------------------------------------

def singlet_product_state(family: Family, N: int, L: int) -> DenseState:
    """A pure product-of-singlets state inside the lambda_tot = 0 sector.

    The Kronecker power of one block: the antisymmetrized N-site block for
    SU(N), the two-site dimer sum_s |ss>/sqrt(N) for TL(N), |01> for U(1)
    (the Neel state, M_tot = 0) and |0> for PF(N) (the all-zeros state,
    empty dot pattern), held as its block over the basis states where psi is
    nonzero.  ValueError unless L is a whole number of blocks.
    """
    _, _, seed, width = _chain(family, N)
    if L < width or L % width:
        raise ValueError(f"{family.value.upper()}({N}) seed needs L = 0 mod {width}, got L={L}")
    psi = reduce(np.kron, [seed()] * (L // width))
    s = np.flatnonzero(psi)
    return DenseState(np.outer(psi[s], psi[s]), [N] * L, s)


def stationary_state(spec: CommutantSpec) -> DenseState:
    """Fixed point reached from the singlet product state (= Pi^0 / D_0), see orbit_state."""
    kraus = build_kraus(spec.family, spec.N, spec.L)
    rho0 = singlet_product_state(spec.family, spec.N, spec.L)
    return orbit_state(kraus, rho0)


# ---------------------------------------------------------------------------
# dense entanglement quantities
# ---------------------------------------------------------------------------

def _split_dims(state: DenseState, cut: int) -> tuple[int, int]:
    L = len(state.site_dims)
    if not 0 < cut < L:
        raise BadCut(f"cut must be inside the chain, got {cut} of {L}")
    dA = int(np.prod(state.site_dims[:cut]))
    dB = int(np.prod(state.site_dims[cut:]))
    return dA, dB


def _pt_targets(state: DenseState, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Where rho^T_B puts block entry (i, j): row a_i dB + b_j, column a_j dB + b_i,
    for states S_i = a_i dB + b_i (an N^L x N^L target)."""
    _, dB = _split_dims(state, cut)
    a, b = np.divmod(state.states, dB)
    return a[:, None] * dB + b, a * dB + b[:, None]


def _realigned_targets(state: DenseState,
                       cut: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Where the realignment puts block entry (i, j): row a_i dA + a_j, column
    b_i dB + b_j, for S_i = a_i dB + b_i; and its shape (dA^2, dB^2)."""
    dA, dB = _split_dims(state, cut)
    a, b = np.divmod(state.states, dB)
    return a[:, None] * dA + a, b[:, None] * dB + b, (dA * dA, dB * dB)


def _groups(x: np.ndarray):
    """The sorted distinct values of x; for each entry, the index of its value
    and its place among the entries equal to it (in index order); the count
    of each value.  np.unique without its numpy.ma import."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.ones(xs.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, xs.size))
    idx = np.empty(xs.size, dtype=np.intp)
    pos = np.empty(xs.size, dtype=np.intp)
    idx[order] = np.repeat(np.arange(starts.size), counts)
    pos[order] = np.arange(xs.size) - np.repeat(starts, counts)
    return xs[first], idx, pos, counts


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Each of n nodes labelled by the smallest node of its component under edges u ~ v.

    Every edge joining two trees hooks the larger root under the smaller,
    then pointer jumping flattens the trees, until no edge joins two trees.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        join = ru != rv
        if not join.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[join], np.minimum(ru, rv)[join])
        while not np.array_equal(up := root[root], root):
            root = up


@lru_cache(maxsize=4)
def _blocks(shape: tuple[int, int], packed: bytes, hermitian: bool) -> tuple[np.ndarray, ...]:
    """The connected blocks of one nonzero pattern, one gather stack per shape: see _partition.

    packed holds the target position r * shape[1] + c of each nonzero (intp),
    in the order its value is listed.  hermitian joins i and j when a[i, j]
    or a[j, i] is nonzero, one index set for rows and columns; otherwise the
    blocks are the components of the bipartite graph row i ~ column j iff
    a[i, j] != 0.  The search runs on the rows and columns the nonzeros
    touch, compacted in order; all-zero rows and columns join no block.
    """
    at = np.frombuffer(packed, dtype=np.intp)
    if not at.size:
        return ()
    r, c = np.divmod(at, shape[1])
    if hermitian:
        _, ends, _, _ = _groups(np.concatenate((r, c)))
        u, v = ends[:at.size], ends[at.size:]
        root = _components(u, v, int(ends.max()) + 1)
        rid, rpos, rsize = _groups(root)[1:]
        cpos, csize = rpos, rsize
    else:
        _, u, _, _ = _groups(r)
        _, v, _, _ = _groups(c)
        nr = int(u.max()) + 1
        root = _components(u, v + nr, nr + int(v.max()) + 1)
        # every component has rows and columns, so both number them alike
        rid, rpos, rsize = _groups(root[:nr])[1:]
        _, _, cpos, csize = _groups(root[nr:])
    width = int(csize.max()) + 1
    shapes, gid, slot, count = _groups(rsize * width + csize)
    block = rid[u]
    stacks = []
    for g, key in enumerate(shapes):
        mine = np.flatnonzero(gid[block] == g)
        gather = np.full((count[g], key // width, key % width), at.size, dtype=np.intp)
        gather[slot[block[mine]], rpos[u[mine]], cpos[v[mine]]] = mine
        gather.flags.writeable = False
        stacks.append(gather)
    return tuple(stacks)


def _partition(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
               hermitian: bool) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The connected blocks of the target that puts values[i, j] at (rows[i, j], cols[i, j]).

    rows and cols broadcast to values' shape, and the map is one to one.
    Returns (v, stacks): v lists the nonzero values and then one exact zero;
    each read-only stack (count_k, r_k, c_k) holds count_k blocks of one
    shape, each row and column of a block in ascending target order, so
    v[stack] is every block of that shape at once, a target zero read as
    the trailing zero.  Memoized on the exact target positions of the
    nonzeros in four slots, which hold index arrays and never values.  A
    dynamics run repeats a few patterns: 8 partitions serve the 117 spectra
    of SU(3) at L = 6, whose rows each read a PT, a rho and a realignment.
    """
    i, j = np.nonzero(values)
    at = (np.broadcast_to(rows, values.shape)[i, j] * shape[1]
          + np.broadcast_to(cols, values.shape)[i, j])
    return np.append(values[i, j], 0), _blocks(shape, at.tobytes(), hermitian)


def _eigvalsh(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian target's eigenvalues (see _partition), all n, ascending.

    All blocks of one size go to one stacked eigvalsh call, which runs the
    same LAPACK routine on each block as a call per block would, bit for
    bit.  Rows outside every block contribute exact zeros.
    """
    v, stacks = _partition(values, rows, cols, (n, n), hermitian=True)
    vals = [np.linalg.eigvalsh(v[g]).ravel() for g in stacks]
    placed = sum(w.size for w in vals)
    return np.sort(np.concatenate([np.zeros(n - placed), *vals]))


def _svdvals(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
             unit: bool = False) -> np.ndarray:
    """The target's singular values (see _partition): all min(shape), descending, zero-padded.

    All blocks of one shape go to one stacked SVD call.  A pattern that is
    one block gets the SVD of the whole target, zero rows and columns
    included: a product state is one block, and its S_OP is SVD round-off
    that the pinned dynamics outputs (sweep 0) record.  unit divides by the
    Frobenius norm first: the whole target's, or the values'.
    """
    v, stacks = _partition(values, rows, cols, shape, hermitian=False)
    if sum(len(g) for g in stacks) == 1:
        m = np.zeros(shape, dtype=values.dtype)
        m[rows, cols] = values
        if unit:  # the entries of m / norm(m), without a second target-sized array
            m[rows, cols] = values / np.linalg.norm(m)
        return np.linalg.svd(m, compute_uv=False)
    if unit:
        v = v / np.linalg.norm(values)
    s = np.zeros(min(shape))
    if stacks:
        vals = np.concatenate([np.linalg.svd(v[g], compute_uv=False).ravel() for g in stacks])
        s[:vals.size] = np.sort(vals)[::-1]
    return s


def pt_eigenvalues(state: DenseState, cut: int) -> np.ndarray:
    """Eigenvalues of rho^T_B (Hermitian), tiny noise floored to zero."""
    w = _eigvalsh(state.block, *_pt_targets(state, cut), state.dim)
    w[np.abs(w) < EIG_FLOOR] = 0.0
    return w


def rho_spectrum(state: DenseState) -> np.ndarray:
    """Eigenvalues of rho, noise of either sign floored to exact zero.

    rho is PSD; the floor keeps fractional powers from NaN (negatives) and
    from blowing up (sqrt of ~1e-13).
    """
    s = state.states
    lam = _eigvalsh(state.block, s[:, None], s, state.dim)
    lam[lam < EIG_FLOOR] = 0.0
    return lam


# The spectrum -> quantity formulas: w = pt_eigenvalues, lam = rho_spectrum.

def log_negativity_from(w: np.ndarray) -> float:
    return float(np.log(np.sum(np.abs(w))))


def renyi_negativity_from(w: np.ndarray, lam: np.ndarray, n: int) -> float:
    if n < 1:
        raise ValueError("need n >= 1")
    return float(-np.log(np.sum(w**n) / np.sum(lam**n)))


def generalized_renyi_from(w: np.ndarray, lam: np.ndarray, n: float) -> float:
    if abs(n - 2.0) < 1e-9:
        raise ValueError("undefined at n = 2")
    return float(np.log(np.sum(np.abs(w)**n) / np.sum(lam**n)) / (2.0 - n))


def dense_log_negativity(state: DenseState, cut: int) -> float:
    return log_negativity_from(pt_eigenvalues(state, cut))


def dense_renyi_negativity(state: DenseState, cut: int, n: int) -> float:
    return renyi_negativity_from(pt_eigenvalues(state, cut), rho_spectrum(state), n)


def dense_generalized_renyi(state: DenseState, cut: int, n: float) -> float:
    return generalized_renyi_from(pt_eigenvalues(state, cut), rho_spectrum(state), n)


def dense_ose(state: DenseState, cut: int) -> float:
    """Von Neumann entropy of the vectorized, Frobenius-normalized state.

    The realigned matrix holds the block's entries, so the block's norm is its norm.
    """
    s = _svdvals(state.block, *_realigned_targets(state, cut), unit=True)
    p = s**2
    p = p[p > 1e-24]
    return float(-np.sum(p * np.log(p)))

