import math
import os
import subprocess
import sys
import textwrap
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import statent.oracle as orc
from statent.commutants import (
    CommutantSpec,
    Family,
    commutant_dimension,
    enumerate_sectors,
    singlet_dimension,
)
from statent.entanglement import (
    generalized_renyi,
    log_negativity,
    operator_space_entanglement,
    renyi_negativity,
)
from statent.oracle import (
    BadCut,
    DenseState,
    KrausSet,
    LocalChannel,
    NoConvergence,
    TooLarge,
    build_kraus,
    channel_fixed_point,
    dense_generalized_renyi,
    dense_log_negativity,
    dense_ose,
    dense_renyi_negativity,
    iterate_with_trajectory,
    orbit_state,
    pt_eigenvalues,
    reachable_states,
    rho_spectrum,
    singlet_product_state,
    stationary_state,
)

from conftest import (block_eigvalsh, block_svdvals, conserved_operators, embed_local,
                      full_matrix, pf_pattern_census, stack_reduce)
from test_acceptance import ORACLE_CONFIGS


def test_su2_bond_kraus_are_projectors():
    ks = build_kraus(Family.SUN, 2, 2)
    k1, k2 = ks.channels[0].ops
    assert np.allclose(k1 @ k1, k1) and np.allclose(k2 @ k2, k2)
    assert np.allclose(k1 + k2, np.eye(4))


def test_tl3_e_relation():
    e = orc._tl_e(3)
    assert np.allclose(e @ e, 3 * e)
    ks = build_kraus(Family.TL, 3, 2)
    assert ks.completeness_defect <= 1e-12


def test_completeness_all_families():
    for fam, N, L in [
        (Family.SUN, 2, 4), (Family.SUN, 3, 3), (Family.TL, 3, 4),
        (Family.TL, 4, 3), (Family.U1, 2, 4), (Family.PF, 3, 4),
    ]:
        assert build_kraus(fam, N, L).completeness_defect <= 1e-12


def test_kraus_hermitian():
    for fam, N, L in [(Family.SUN, 3, 3), (Family.TL, 3, 3), (Family.U1, 2, 3), (Family.PF, 3, 3)]:
        for ch in build_kraus(fam, N, L).channels:
            for K in ch.ops:
                assert np.allclose(K, K.conj().T)


def test_strong_symmetry_commutes():
    for fam, N, L in [(Family.U1, 2, 4), (Family.SUN, 3, 3), (Family.PF, 3, 4)]:
        ks = build_kraus(fam, N, L)
        for O in conserved_operators(fam, N, L):
            for ch in ks.channels:
                for K in ch.ops:
                    Kf = embed_local(K, ch.sites, N, L)
                    assert np.max(np.abs(Kf @ O - O @ Kf)) <= 1e-12


def test_too_large():
    with pytest.raises(TooLarge):
        build_kraus(Family.TL, 3, 12)


def test_identity_is_fixed():
    # the identity's block is the whole matrix: every basis state
    for fam, N, L in [(Family.SUN, 2, 4), (Family.TL, 3, 4), (Family.U1, 2, 4), (Family.PF, 3, 4)]:
        ks = build_kraus(fam, N, L)
        ident = np.eye(N**L) / N**L
        steps = orc.sweep_steps(ks, np.arange(N**L), ident.dtype)
        assert np.max(np.abs(orc.apply_sweep(ident.copy(), ks, steps) - ident)) <= 1e-15


def test_su2_L4_fixed_point_is_maximally_mixed_singlet():
    st = stationary_state(CommutantSpec(Family.SUN, 2, 4, 2))
    st.validate()
    assert np.trace(full_matrix(st) @ full_matrix(st)).real == pytest.approx(0.5, abs=1e-10)
    # independent construction of Pi^0: projector onto the S_tot^2 null space
    from conftest import spin_half_total_spin_squared

    w, v = np.linalg.eigh(spin_half_total_spin_squared(4))
    null = v[:, np.abs(w) < 1e-9]
    pi0 = null @ null.conj().T
    assert np.linalg.norm(full_matrix(st) - pi0 / 2) <= 10 * 1e-12 + 1e-10
    assert dense_log_negativity(st, 2) == pytest.approx(math.log(2), abs=1e-10)
    assert dense_renyi_negativity(st, 2, 3) == pytest.approx(math.log(9 / 5), abs=1e-10)
    assert dense_ose(st, 2) == pytest.approx(math.log(6), abs=1e-10)


def test_dense_quantities_on_simple_states():
    # product state: PPT, zero negativity, rank-1 vectorization
    rho_a = np.diag([0.7, 0.3])
    rho_b = np.diag([0.5, 0.25, 0.25, 0.0])
    st = DenseState(np.kron(rho_a, rho_b), [2, 2, 2])
    assert dense_log_negativity(st, 1) == pytest.approx(0.0, abs=1e-12)
    assert dense_ose(st, 1) == pytest.approx(0.0, abs=1e-12)
    # two-qubit singlet: E_N = log 2, R3 = S_3 of one bit = log 2... check spectrum
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    st = DenseState(np.outer(psi, psi), [2, 2])
    assert dense_log_negativity(st, 1) == pytest.approx(math.log(2), abs=1e-12)
    # for a pure state R_n with odd n is proportional to a Renyi entropy;
    # the two-qubit singlet has flat Schmidt spectrum {1/2, 1/2}:
    # Tr (rho^T_B)^3 = sum s^6 (4 terms of (1/2)^3 magnitude, one negative...)
    got = dense_renyi_negativity(st, 1, 3)
    w = pt_eigenvalues(st, 1)
    assert got == pytest.approx(-math.log(np.sum(w**3)), abs=1e-12)


def test_bad_cut():
    st = DenseState(np.eye(4) / 4, [2, 2])
    with pytest.raises(BadCut):
        dense_log_negativity(st, 2)


def test_pt_block_spectrum_multiset():
    # eigenvalues +-1/(D0 d) with d(d+1)/2 and d(d-1)/2 copies per (a, b)
    for fam, N, L in [(Family.SUN, 2, 4), (Family.SUN, 2, 8), (Family.TL, 3, 4), (Family.TL, 3, 6)]:
        LA = L // 2 if (L // 2) % 2 == 0 else 2
        spec = CommutantSpec(fam, N, L, LA)
        st = stationary_state(spec)
        D0 = singlet_dimension(spec)
        expected = []
        for r in enumerate_sectors(spec):
            mag = 1.0 / (D0 * r.d)
            block = r.pattern_count * r.D_A * r.D_B
            expected += [mag] * (r.d * (r.d + 1) // 2 * block)
            expected += [-mag] * (r.d * (r.d - 1) // 2 * block)
        got = [w for w in pt_eigenvalues(st, LA) if w != 0.0]
        assert len(got) == len(expected)
        for g, e in zip(sorted(got), sorted(expected)):
            assert g == pytest.approx(e, abs=1e-9)


def test_strong_symmetry_preserved_along_trajectory():
    # U(1): <S^z_tot> constant under the sweep, read on the block over S
    ks = build_kraus(Family.U1, 2, 6)
    S, rho = _seed_block(ks, singlet_product_state(Family.U1, 2, 6))
    steps = orc.sweep_steps(ks, S, rho.dtype)
    sz = conserved_operators(Family.U1, 2, 6)[0][np.ix_(S, S)]
    vals = []
    for _ in range(40):
        vals.append(float(np.trace(sz @ rho).real))
        rho = orc.apply_sweep(rho, ks, steps)
    assert max(abs(v - vals[0]) for v in vals) <= 1e-9
    # TL(3): sector projectors (from the converged fixed point) conserved
    spec = CommutantSpec(Family.TL, 3, 4, 2)
    ks = build_kraus(Family.TL, 3, 4)
    fixed = stationary_state(spec)
    proj = full_matrix(fixed) * singlet_dimension(spec)  # = Pi^0
    assert np.allclose(proj @ proj, proj, atol=1e-8)
    S, rho = _seed_block(ks, singlet_product_state(Family.TL, 3, 4))
    steps = orc.sweep_steps(ks, S, rho.dtype)
    proj = proj[np.ix_(S, S)]
    vals = []
    for _ in range(40):
        vals.append(float(np.trace(proj @ rho).real))
        rho = orc.apply_sweep(rho, ks, steps)
    assert max(abs(v - vals[0]) for v in vals) <= 1e-9


def test_fixed_point_independent_of_kraus_normalization():
    # U(1): the lazy flip split 1/2:1/2, the same at 1/5:4/5, and the projector
    # pair build_kraus uses; same commutant, same fixed point
    def lazy(a: float) -> KrausSet:
        ks = KrausSet(2, 6, [LocalChannel(s, ops) for s, ops in _reference_channels(Family.U1, 2, 6)])
        for ch in ks.channels:
            if len(ch.sites) == 2:
                # ops are [1, hop, stay] scaled by 1/sqrt(2)
                _, hop, stay = (math.sqrt(2) * op for op in ch.ops)
                ch.ops = [math.sqrt(a) * np.eye(4), math.sqrt(1 - a) * hop, math.sqrt(1 - a) * stay]
        assert ks.completeness_defect <= 1e-12
        return ks

    rho0 = singlet_product_state(Family.U1, 2, 6)
    states = [full_matrix(channel_fixed_point(ks, rho0))
              for ks in (lazy(0.5), lazy(0.2), build_kraus(Family.U1, 2, 6))]
    for st in states[1:]:
        assert np.max(np.abs(st - states[0])) <= 1e-10


def test_trajectory_monotone_saturation_tl3():
    spec = CommutantSpec(Family.TL, 3, 4, 2)
    ks = build_kraus(Family.TL, 3, 4)
    rho0 = singlet_product_state(Family.TL, 3, 4)
    st, rows = iterate_with_trajectory(ks, rho0, 2, tol=1e-12)
    target = log_negativity(enumerate_sectors(spec), singlet_dimension(spec))
    dev = [abs(r["E_N"] - target) for r in rows]
    assert dev[-1] <= 1e-6
    tail = dev[3:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_stack_reduce_and_census():
    assert stack_reduce((0, 0)) == ()
    assert stack_reduce((0, 1, 1, 0)) == ()
    assert stack_reduce((0, 1, 0)) == (0, 1, 0)
    c32 = pf_pattern_census(3, 2)
    assert c32[()] == 3
    assert all(c32[p] == 1 for p in c32 if len(p) == 2)
    c22 = pf_pattern_census(2, 2)
    assert c22 == {(): 2, (0, 1): 1, (1, 0): 1}
    c34 = pf_pattern_census(3, 4)
    assert sum(c34.values()) == 81
    with pytest.raises(TooLarge):
        pf_pattern_census(10, 10)


def test_singlet_product_states_are_singlets():
    # the initial states must lie inside the lambda_tot = 0 sector:
    # fixed-point purity then equals 1/D0
    for fam, N, L in [(Family.SUN, 3, 6), (Family.TL, 4, 4), (Family.PF, 3, 4), (Family.U1, 2, 6)]:
        LA = 2 if fam in (Family.TL, Family.PF) else L // 2
        spec = CommutantSpec(fam, N, L, LA)
        st = stationary_state(spec)
        D0 = singlet_dimension(spec)
        assert np.trace(full_matrix(st) @ full_matrix(st)).real == pytest.approx(1.0 / D0, abs=1e-9)


def test_dense_generalized_matches_closed_form():
    spec = CommutantSpec(Family.TL, 4, 4, 2)
    st = stationary_state(spec)
    from statent.entanglement import generalized_renyi

    secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
    assert dense_generalized_renyi(st, 2, 0.5) == pytest.approx(
        generalized_renyi(secs, D0, 0.5), abs=1e-9
    )


SMALL_CHAINS = [(Family.SUN, 2, 6), (Family.SUN, 3, 6), (Family.U1, 2, 6),
                (Family.PF, 3, 4), (Family.TL, 3, 4), (Family.TL, 4, 4)]


@pytest.mark.parametrize("fam, N, L", SMALL_CHAINS)
def test_reachable_set_holds_seed_and_is_closed(fam, N, L):
    ks = build_kraus(fam, N, L)
    rho0 = full_matrix(singlet_product_state(fam, N, L))
    seed = np.flatnonzero(np.any(rho0 != 0, axis=1))
    S = reachable_states(ks, seed)
    assert set(seed) <= set(S)
    outside = np.setdiff1d(np.arange(N**L), S)
    for ch, (_, *lay) in zip(ks.channels, orc._block_channels(ks, S)):
        for K in ch.ops:
            Kf = embed_local(K, ch.sites, N, L)
            assert not np.any(Kf[np.ix_(outside, S)])
            # K through its channel's layout on S is the embedded K's S x S block
            assert np.array_equal(orc._apply([K], *lay, np.eye(len(S)))[0], Kf[np.ix_(S, S)])


def test_reachable_set_sizes():
    def size(fam, N, L):
        rho0 = singlet_product_state(fam, N, L)
        return len(reachable_states(build_kraus(fam, N, L), rho0.states))

    assert size(Family.SUN, 2, 8) == size(Family.U1, 2, 8) == math.comb(8, 4)
    assert size(Family.SUN, 3, 6) == math.factorial(6) // math.factorial(2) ** 3
    assert size(Family.PF, 3, 6) == pf_pattern_census(3, 6)[()]


def test_stationary_state_leaves_numpy_ma_unloaded():
    # np.unique's masked-array check imports numpy.ma, 9-17 ms in a fresh interpreter
    code = ("import sys; from statent.commutants import CommutantSpec, Family; "
            "from statent.oracle import stationary_state; "
            "stationary_state(CommutantSpec(Family.SUN, 2, 4, 2)); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(orc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def _full_space_sweep(rho, ks):
    # the reference sweep: each plan step on the whole N^L x N^L matrix, as
    # one GEMM over the local pair index with every context pair a column
    N, L = ks.N, ks.L
    for sites, S in ks.plan:
        j, w = sites[0], len(sites)
        d, A, B = N**w, N**j, N ** (L - j - w)
        r = rho.reshape(A, d, B, A, d, B)
        x = np.ascontiguousarray(r.transpose(1, 4, 0, 2, 3, 5)).reshape(d * d, -1)
        y = (S @ x).reshape(d, d, A, B, A, B)
        rho = np.ascontiguousarray(y.transpose(2, 0, 3, 4, 1, 5)).reshape(rho.shape)
    return rho


def _support(rho):
    """The basis states on which the full matrix rho has a nonzero row or column."""
    return np.flatnonzero(np.any(rho != 0, axis=0) | np.any(rho != 0, axis=1))


def _seed_block(ks, rho0):
    """The states S reachable from the seed, and the seed's block over them."""
    S = reachable_states(ks, rho0.states)
    return S, full_matrix(rho0)[np.ix_(S, S)]


def _sweep_seeds(fam, N, L):
    # the singlet seed, a complex Hermitian state on its reachable states, the
    # maximally mixed state and (U(1)) a 0.3/0.7 mix of Neel and its mirror
    ks = build_kraus(fam, N, L)
    seed = full_matrix(singlet_product_state(fam, N, L))
    S = reachable_states(ks, _support(seed))
    a = np.random.default_rng(L).normal(size=(len(S), len(S), 2)) @ [1, 1j]
    herm = np.zeros(seed.shape, dtype=complex)
    herm[np.ix_(S, S)] = (a + a.conj().T) / 2
    seeds = [seed, herm, np.eye(N**L) / N**L]
    if fam == Family.U1:
        i = int(np.flatnonzero(np.diagonal(seed))[0])
        mix = 0.3 * seed
        mix[2**L - 1 - i, 2**L - 1 - i] = 0.7
        seeds.append(mix)
    return ks, seeds


@pytest.mark.parametrize("fam, N, L", [
    (Family.SUN, 3, 6), (Family.SUN, 2, 8), (Family.TL, 3, 4), (Family.TL, 3, 6),
    (Family.TL, 4, 4), (Family.U1, 2, 6), (Family.U1, 2, 8), (Family.PF, 3, 4),
    (Family.PF, 3, 6)])
def test_sweep_on_block_is_the_full_space_sweep(fam, N, L):
    # S is found once, from the seed: it is the reachable set of every iterate
    ks, seeds = _sweep_seeds(fam, N, L)
    for seed in seeds:
        S = reachable_states(ks, _support(seed))
        steps = orc.sweep_steps(ks, S, seed.dtype)
        want, got = seed, seed[np.ix_(S, S)]
        for _ in range(6):
            block, kept = got, got.copy()
            want, got = _full_space_sweep(want, ks), orc.apply_sweep(block, ks, steps)
            assert np.array_equal(got, want[np.ix_(S, S)]) and got.dtype == want.dtype
            assert np.array_equal(block, kept)
            assert np.array_equal(reachable_states(ks, S[_support(got)]), S)
            outside = np.ones(want.shape, dtype=bool)
            outside[np.ix_(S, S)] = False
            assert not np.any(want[outside])


def test_sweep_maps_zero_to_zero():
    zero = np.zeros((3**4, 3**4))
    ks = build_kraus(Family.TL, 3, 4)
    got = orc.apply_sweep(zero, ks, orc.sweep_steps(ks, np.arange(3**4), zero.dtype))
    assert got.shape == zero.shape and not np.any(got)


@pytest.mark.parametrize("fam, N, L", [(Family.U1, 2, 8), (Family.PF, 3, 4)])
def test_sweep_leaves_its_shared_input_buffer_zero(fam, N, L):
    # every step's x and y are views of one input and one output buffer; the
    # plans mix bond and site steps of different shapes, so a scattered entry
    # left behind would land in another step's GEMM input
    ks, seeds = _sweep_seeds(fam, N, L)
    for seed in seeds:
        S = reachable_states(ks, _support(seed))
        steps = orc.sweep_steps(ks, S, seed.dtype)
        x, y = steps[0][1].base, steps[0][2].base
        assert x is not y and all(s[1].base is x and s[2].base is y for s in steps)
        assert len({s[1].shape for s in steps}) > 1
        assert x.size == max(s[1].size for s in steps)
        block = seed[np.ix_(S, S)]
        for _ in range(4):
            block = orc.apply_sweep(block, ks, steps)
            assert np.any(block) and not np.any(x)


def test_trajectory_sweeps_through_the_module_global(monkeypatch):
    # perfbench traces the sweep by replacing orc.apply_sweep and counts its
    # bytes from the first argument's size: every sweep of a dynamics run must
    # go through that name, with the m x m block first
    calls = []
    sweep = orc.apply_sweep
    monkeypatch.setattr(orc, "apply_sweep", lambda block, ks, steps: calls.append(block.shape)
                        or sweep(block, ks, steps))
    ks = build_kraus(Family.TL, 3, 4)
    rho0 = singlet_product_state(Family.TL, 3, 4)
    _, rows = iterate_with_trajectory(ks, rho0, 2)
    assert len(calls) == len(rows) - 1 > 0
    m = len(reachable_states(ks, rho0.states))
    assert m < 3**4 and set(calls) == {(m, m)}


def _plain_fixed_point(ks, rho0, tol=1e-12):
    # the full-space reference: iterate the full-space sweep on the whole
    # N^L x N^L matrix, without reachable_states
    rho = full_matrix(rho0)
    while True:
        nxt = _full_space_sweep(rho, ks)
        defect = np.linalg.norm(nxt - rho)
        rho = nxt
        if defect <= tol:
            return rho


@pytest.mark.parametrize("fam, N, L", [c for c in SMALL_CHAINS if c != (Family.SUN, 3, 6)])
def test_fixed_point_matches_full_sweep(fam, N, L):
    ks = build_kraus(fam, N, L)
    rho0 = singlet_product_state(fam, N, L)
    got = full_matrix(channel_fixed_point(ks, rho0))
    assert np.max(np.abs(got - _plain_fixed_point(ks, rho0))) <= 1e-13
    S = reachable_states(ks, rho0.states)
    outside = np.ones(got.shape, dtype=bool)
    outside[np.ix_(S, S)] = False
    assert np.all(got[outside] == 0.0)


def test_mixed_seed_reaches_same_fixed_point():
    L = 6
    ks = build_kraus(Family.U1, 2, L)
    neel = singlet_product_state(Family.U1, 2, L)
    i = int(np.flatnonzero(np.diag(full_matrix(neel)))[0])
    mirror = 2**L - 1 - i  # every spin flipped
    mixed = np.array(full_matrix(neel)) / 2
    mixed[mirror, mirror] = 0.5
    a = full_matrix(channel_fixed_point(ks, neel))
    b = full_matrix(channel_fixed_point(ks, DenseState(mixed, [2] * L)))
    # both stop at a defect of 1e-12, so each sits within about
    # 1e-12 / (1 - contraction rate) of the exact fixed point
    assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("fam, N, L, LA", [*ORACLE_CONFIGS, (Family.SUN, 2, 10, 4)])
def test_orbit_state_matches_fixed_point(fam, N, L, LA):
    ks = build_kraus(fam, N, L)
    rho0 = singlet_product_state(fam, N, L)
    st = orbit_state(ks, rho0)
    st.validate()
    assert np.max(np.abs(full_matrix(st) - full_matrix(channel_fixed_point(ks, rho0)))) <= 1e-11
    steps = orc.sweep_steps(ks, st.states, st.block.dtype)
    assert np.linalg.norm(orc.apply_sweep(st.block, ks, steps) - st.block) <= 1e-12
    # the orbit of a singlet seed spans the whole singlet sector: rho = Pi^0 / D_0
    D0 = singlet_dimension(CommutantSpec(fam, N, L, LA))
    lam = rho_spectrum(st)
    assert np.count_nonzero(lam) == D0
    assert np.max(np.abs(lam[lam != 0] - 1.0 / D0)) <= 1e-13


def test_orbit_state_refuses_mixed_seed():
    L = 6
    neel = singlet_product_state(Family.U1, 2, L)
    i = int(np.flatnonzero(np.diag(full_matrix(neel)))[0])
    mixed = np.array(full_matrix(neel)) / 2
    mixed[2**L - 1 - i, 2**L - 1 - i] = 0.5  # the Neel state's mirror
    with pytest.raises(ValueError, match="pure seed"):
        orbit_state(build_kraus(Family.U1, 2, L), DenseState(mixed, [2] * L))


def test_orbit_state_sweep_check_catches_non_unital_channel():
    # amplitude damping: the orbit of |1> is the whole qubit, but the fixed
    # point is |0><0|, not 1/2; one sweep moves 1/2 by 0.25 sqrt(2)
    damp = LocalChannel((0,), [np.diag([1.0, math.sqrt(0.5)]),
                               np.array([[0.0, math.sqrt(0.5)], [0.0, 0.0]])])
    ks = KrausSet(2, 1, [damp])
    assert ks.completeness_defect <= 1e-15
    with pytest.raises(NoConvergence, match="one sweep"):
        orbit_state(ks, DenseState(np.diag([0.0, 1.0]), [2]))
    with pytest.raises(NoConvergence, match="one sweep"):  # a NaN tol checks nothing
        orbit_state(ks, DenseState(np.diag([0.0, 1.0]), [2]), tol=float("nan"))


def _certify_su2(L, LA, rank):
    """The SU(2) stationary state has the given rank D_0, and its five dense
    quantities at cut LA match the closed forms within the criterion-01 gate."""
    spec = CommutantSpec(Family.SUN, 2, L, LA)
    st = stationary_state(spec)
    secs, D0 = enumerate_sectors(spec), singlet_dimension(spec)
    assert D0 == rank == np.count_nonzero(rho_spectrum(st))
    pairs = [
        (log_negativity(secs, D0), dense_log_negativity(st, LA)),
        (renyi_negativity(secs, D0, 3), dense_renyi_negativity(st, LA, 3)),
        (renyi_negativity(secs, D0, 4), dense_renyi_negativity(st, LA, 4)),
        (generalized_renyi(secs, D0, 1.5), dense_generalized_renyi(st, LA, 1.5)),
        (operator_space_entanglement(secs, D0), dense_ose(st, LA)),
    ]
    assert max(abs(a - b) for a, b in pairs) < 1e-8


def test_oracle_certifies_su2_L10():
    # N^L = 1024 with |S| = 252: one size above the criterion-01 grid
    _certify_su2(10, 4, 42)


def test_oracle_certifies_su2_L12():
    # N^L = 4096 with |S| = 924, the largest SU(2) chain the README cites
    _certify_su2(12, 6, 132)


def _permuted_blocks(rng, sizes, zero_rows):
    """A random symmetric block-diagonal matrix with its rows and columns shuffled."""
    n = sum(sizes) + zero_rows
    a = np.zeros((n, n))
    i = 0
    for k in sizes:
        b = rng.standard_normal((k, k))
        a[i:i + k, i:i + k] = b + b.T
        i += k
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def _components(n: int, edges) -> list[list[int]]:
    """Connected components of n nodes by union-find, each ascending: the reference block finder."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def _loop_eigvalsh(a):
    """block_eigvalsh as one np.ix_ eigensolve per block: the reference."""
    nz = (a != 0) | (a != 0).T
    parts = [np.linalg.eigvalsh(a[np.ix_(c, c)]) if nz[np.ix_(c, c)].any() else np.zeros(len(c))
             for c in _components(a.shape[0], zip(*np.nonzero(nz)))]
    return np.sort(np.concatenate(parts))


def _loop_svdvals(m):
    """block_svdvals as one np.ix_ SVD per block: the reference (rows are nodes 0..r-1)."""
    r, c = m.shape
    edges = [(i, r + j) for i, j in zip(*np.nonzero(m))]
    blocks = [([x for x in comp if x < r], [x - r for x in comp if x >= r])
              for comp in _components(r + c, edges) if len(comp) > 1]
    if len(blocks) == 1:
        return np.linalg.svd(m, compute_uv=False)
    s = np.zeros(min(m.shape))
    if blocks:
        vals = np.concatenate([np.linalg.svd(m[np.ix_(i, j)], compute_uv=False) for i, j in blocks])
        s[:vals.size] = np.sort(vals)[::-1]
    return s


def _cut_dims(state, cut):
    return math.prod(state.site_dims[:cut]), math.prod(state.site_dims[cut:])


def partial_transpose(state, cut):
    """rho^T_B as a full N^L x N^L array: the reference route for the PT spectrum."""
    dA, dB = _cut_dims(state, cut)
    r = full_matrix(state).reshape(dA, dB, dA, dB)
    return np.ascontiguousarray(r.transpose(0, 3, 2, 1)).reshape(dA * dB, dA * dB)


def _realigned(state, cut):
    """The realigned (dA^2, dB^2) copy of the full matrix: the reference route for S_OP."""
    dA, dB = _cut_dims(state, cut)
    r = full_matrix(state).reshape(dA, dB, dA, dB)
    return np.ascontiguousarray(r.transpose(0, 2, 1, 3)).reshape(dA * dA, dB * dB)


def _full_route(state, cut):
    """(PT spectrum, rho spectrum, S_OP) from full N^L x N^L arrays, floored as the oracle does."""
    w = block_eigvalsh(partial_transpose(state, cut))
    w[np.abs(w) < orc.EIG_FLOOR] = 0.0
    lam = block_eigvalsh(full_matrix(state))
    lam[lam < orc.EIG_FLOOR] = 0.0
    m = _realigned(state, cut)
    p = block_svdvals(m / np.linalg.norm(m))**2
    p = p[p > 1e-24]
    return w, lam, float(-np.sum(p * np.log(p)))


@settings(max_examples=80, deadline=None)
@given(hst.lists(hst.integers(1, 6), max_size=4), hst.integers(1, 3), hst.integers(0, 4),
       hst.integers(0, 2**32 - 1))
def test_block_eigvalsh_is_the_per_block_loop(sizes, copies, zero_rows, seed):
    # copies repeat every block size, so several blocks share one stacked call
    assume(sizes or zero_rows)
    a = _permuted_blocks(np.random.default_rng(seed), sizes * copies, zero_rows)
    assert np.array_equal(block_eigvalsh(a), _loop_eigvalsh(a))


@settings(max_examples=80, deadline=None)
@given(hst.lists(hst.integers(1, 6), max_size=5), hst.integers(0, 4),
       hst.integers(0, 2**32 - 1))
def test_block_eigvalsh_matches_full_eigensolve(sizes, zero_rows, seed):
    assume(sizes or zero_rows)
    a = _permuted_blocks(np.random.default_rng(seed), sizes, zero_rows)
    got, want = block_eigvalsh(a), np.linalg.eigvalsh(a)
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_block_eigvalsh_edge_cases():
    assert block_eigvalsh(np.array([[3.0]])).tolist() == [3.0]
    assert block_eigvalsh(np.zeros((1, 1))).tolist() == [0.0]
    assert block_eigvalsh(np.zeros((4, 4))).tolist() == [0.0] * 4
    # a one-sided entry still joins its row and column into one block
    a = np.diag([1.0, 2.0])
    a[1, 0] = 1.0
    assert np.allclose(block_eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-15)


def test_block_eigvalsh_solves_each_block_alone(monkeypatch):
    sizes = [3, 1, 5, 2]
    a = _permuted_blocks(np.random.default_rng(7), sizes, 4)
    solved = []
    full = np.linalg.eigvalsh

    def spy(m):  # one entry per matrix of a stacked call
        solved.extend(b.shape[0] for b in m.reshape(-1, *m.shape[-2:]))
        return full(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    block_eigvalsh(a)
    assert sorted(solved) == sorted(sizes)


@pytest.mark.parametrize("fam, N, L, LA", ORACLE_CONFIGS)
def test_block_spectra_match_full_on_stationary_states(fam, N, L, LA):
    st = stationary_state(CommutantSpec(fam, N, L, LA))
    for a in (partial_transpose(st, LA), full_matrix(st)):
        assert np.max(np.abs(block_eigvalsh(a) - np.linalg.eigvalsh(a))) <= 1e-13
        assert np.array_equal(block_eigvalsh(a), _loop_eigvalsh(a))


@pytest.mark.parametrize("fam, N, L, LA", ORACLE_CONFIGS)
def test_block_quantities_are_the_full_matrix_route(fam, N, L, LA):
    # the index maps give the PT and rho spectra of the full arrays bit for
    # bit; S_OP divides by the block's norm, whose sum runs in another order
    st = stationary_state(CommutantSpec(fam, N, L, LA))
    w, lam, sop = _full_route(st, LA)
    assert np.array_equal(pt_eigenvalues(st, LA), w)
    assert np.array_equal(rho_spectrum(st), lam)
    assert dense_log_negativity(st, LA) == orc.log_negativity_from(w)
    assert dense_renyi_negativity(st, LA, 3) == orc.renyi_negativity_from(w, lam, 3)
    assert abs(dense_ose(st, LA) - sop) <= 1e-14 * abs(sop)


@pytest.mark.parametrize("fam, N, L, cut", [
    (Family.SUN, 3, 6, 3), (Family.TL, 3, 4, 2), (Family.U1, 2, 8, 4), (Family.PF, 3, 6, 2)])
def test_trajectory_rows_are_the_full_matrix_route(fam, N, L, cut):
    # every row of a dynamics run, replayed sweep by sweep on the block over
    # the S found once, against spectra, S_OP and defect of the full matrix
    ks = build_kraus(fam, N, L)
    rho0 = singlet_product_state(fam, N, L)
    _, rows = iterate_with_trajectory(ks, rho0, cut)
    S, block = _seed_block(ks, rho0)
    steps = orc.sweep_steps(ks, S, block.dtype)
    prev = None
    for k, row in enumerate(rows):
        if k:
            block = orc.apply_sweep(block, ks, steps)
            assert np.array_equal(reachable_states(ks, S[_support(block)]), S)
        st = DenseState(block, [N] * L, S)
        w, lam, sop = _full_route(st, cut)
        assert np.array_equal(pt_eigenvalues(st, cut), w)
        assert np.array_equal(rho_spectrum(st), lam)
        assert row["E_N"] == orc.log_negativity_from(w)
        assert row["R3"] == orc.renyi_negativity_from(w, lam, 3)
        if k:
            assert abs(row["S_OP"] - sop) <= 1e-14 * abs(sop)
            defect = np.linalg.norm(full_matrix(st) - prev)
            assert abs(row["defect"] - defect) <= 1e-14 * defect
        else:  # one block: the full SVD's round-off, which the pinned outputs record
            assert row["S_OP"] == sop
        prev = full_matrix(st)


def test_same_pattern_other_values_get_their_own_spectra():
    # the memo holds index maps only: a second block with the first one's
    # nonzero pattern reuses its partition and still gets its own spectrum
    st = stationary_state(CommutantSpec(Family.TL, 3, 6, 2))
    c = np.random.default_rng(2).standard_normal(st.block.shape)
    other = DenseState(np.where(st.block != 0, c + c.T, 0.0), st.site_dims, st.states)
    orc._blocks.cache_clear()
    got = []
    for x, reused in ((st, 0), (other, 1)):
        hits = orc._blocks.cache_info().hits
        got.append(pt_eigenvalues(x, 2))
        assert orc._blocks.cache_info().hits == hits + reused
        assert np.array_equal(got[-1], _full_route(x, 2)[0])
    assert not np.array_equal(*got)


def test_oracle_cap_stays_below_one_full_array():
    # PF(3) at L = 8 is N^L = 6561 = DEFAULT_DIM_CAP, m = 543: the stationary
    # state and its five dense quantities never hold an N^L x N^L array
    code = ("import tracemalloc; tracemalloc.start(); "
            "from statent.commutants import CommutantSpec, Family; "
            "import statent.oracle as orc; "
            "st = orc.stationary_state(CommutantSpec(Family.PF, 3, 8, 4)); "
            "w, lam = orc.pt_eigenvalues(st, 4), orc.rho_spectrum(st); "
            "q = [orc.log_negativity_from(w), orc.renyi_negativity_from(w, lam, 3), "
            "orc.renyi_negativity_from(w, lam, 4), orc.generalized_renyi_from(w, lam, 1.5), "
            "orc.dense_ose(st, 4)]; "
            "print(len(st.states), tracemalloc.get_traced_memory()[1])")
    src = os.path.dirname(os.path.dirname(orc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    m, peak = map(int, out.stdout.split())
    assert m == 543 and peak < 6561**2 * 8
    # and no m x m array per Kraus operator: 162 MiB with dense restricted operators
    assert peak <= 100 * 2**20


@pytest.mark.parametrize("fam, N, L, cut, cap_mib", [
    # tracemalloc peaks: one GEMM input and output per plan step read 147.5
    # MiB (U(1)) and 27.3 MiB (SU(3)); one shared pair sized for the largest
    # step reads 18.2 and 8.3 MiB
    (Family.U1, 2, 10, 5, 32), (Family.SUN, 3, 6, 3, 12)])
def test_trajectory_memory(fam, N, L, cut, cap_mib):
    code = textwrap.dedent(f"""
        import tracemalloc
        import statent.oracle as orc
        from statent.commutants import Family
        ks = orc.build_kraus(Family.{fam.name}, {N}, {L})
        rho0 = orc.singlet_product_state(Family.{fam.name}, {N}, {L})
        tracemalloc.start()
        orc.iterate_with_trajectory(ks, rho0, {cut}, tol=1.0)
        print(tracemalloc.get_traced_memory()[1])
    """)
    src = os.path.dirname(os.path.dirname(orc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) <= cap_mib * 2**20


def _permuted_rect_blocks(rng, shapes, zero_rows, zero_cols):
    """A random rectangular block-diagonal matrix with its rows and columns shuffled."""
    a = np.zeros((sum(r for r, _ in shapes) + zero_rows, sum(c for _, c in shapes) + zero_cols))
    i = j = 0
    for r, c in shapes:
        a[i:i + r, j:j + c] = rng.standard_normal((r, c))
        i, j = i + r, j + c
    return a[np.ix_(rng.permutation(a.shape[0]), rng.permutation(a.shape[1]))]


@settings(max_examples=80, deadline=None)
@given(hst.lists(hst.tuples(hst.integers(1, 6), hst.integers(1, 6)), max_size=5),
       hst.integers(0, 3), hst.integers(0, 3), hst.integers(0, 2**32 - 1))
def test_block_svdvals_matches_full_svd(shapes, zero_rows, zero_cols, seed):
    m = _permuted_rect_blocks(np.random.default_rng(seed), shapes, zero_rows, zero_cols)
    assume(m.size)
    got, want = block_svdvals(m), np.linalg.svd(m, compute_uv=False)
    assert got.shape == want.shape == (min(m.shape),)
    assert np.all(np.diff(got) <= 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, want[0])


@settings(max_examples=80, deadline=None)
@given(hst.lists(hst.tuples(hst.integers(1, 4), hst.integers(1, 4)), max_size=4),
       hst.integers(1, 3), hst.integers(0, 3), hst.integers(0, 3), hst.integers(0, 2**32 - 1))
def test_block_svdvals_is_the_per_block_loop(shapes, copies, zero_rows, zero_cols, seed):
    m = _permuted_rect_blocks(np.random.default_rng(seed), shapes * copies, zero_rows, zero_cols)
    assume(m.size)
    assert np.array_equal(block_svdvals(m), _loop_svdvals(m))


def test_block_memo_holds_partitions_not_values():
    rng = np.random.default_rng(5)
    a = _permuted_blocks(rng, [2, 3, 2, 1], 2)
    c = rng.standard_normal(a.shape)
    b = np.where(a != 0, c + c.T, 0.0)  # a's pattern, other values
    m = _permuted_rect_blocks(rng, [(2, 3), (2, 3), (1, 4)], 1, 2)
    n = np.where(m != 0, rng.standard_normal(m.shape), 0.0)
    for fn, loop, x, y in ((block_eigvalsh, _loop_eigvalsh, a, b),
                           (block_svdvals, _loop_svdvals, m, n)):
        hits = orc._blocks.cache_info().hits
        got_x, got_y = fn(x), fn(y)
        assert orc._blocks.cache_info().hits == hits + 1  # y reads x's partition
        assert np.array_equal(got_x, loop(x)) and np.array_equal(got_y, loop(y))
        assert not np.array_equal(got_x, got_y)


def test_block_memo_is_bounded_and_read_only():
    rng = np.random.default_rng(11)
    for k in range(1, 9):
        block_eigvalsh(_permuted_blocks(rng, [k, 1, 1], 1))
        block_svdvals(_permuted_rect_blocks(rng, [(k, 2), (1, 1)], 1, 1))
    info = orc._blocks.cache_info()
    assert info.maxsize == 4 and info.currsize == 4
    a = _permuted_blocks(rng, [2, 2, 3], 1)
    m = _permuted_rect_blocks(rng, [(2, 3), (2, 3), (1, 1)], 1, 1)
    stacks = []
    for x, hermitian in ((a, True), (m, False)):
        i, j = np.arange(x.shape[0]), np.arange(x.shape[1])
        stacks += orc._partition(x, i[:, None], j, x.shape, hermitian)[1]
    assert len(stacks) == 4
    for gather in stacks:
        assert not gather.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            gather[0, 0, 0] = 0


def test_block_svdvals_edge_cases():
    assert block_svdvals(np.array([[-3.0]])).tolist() == [3.0]
    assert block_svdvals(np.zeros((1, 1))).tolist() == [0.0]
    assert block_svdvals(np.zeros((3, 5))).tolist() == [0.0] * 3
    for m in (np.array([[0.0, 3.0, 0.0, 4.0]]), np.array([[0.0], [3.0], [0.0], [4.0]])):
        assert np.allclose(block_svdvals(m), [5.0], rtol=1e-15)


def test_block_svdvals_solves_each_block_alone(monkeypatch):
    shapes = [(3, 2), (1, 1), (2, 5), (4, 4)]
    m = _permuted_rect_blocks(np.random.default_rng(7), shapes, 2, 3)
    solved = []
    full = np.linalg.svd

    def spy(a, compute_uv=True):  # one entry per matrix of a stacked call
        solved.extend(b.shape for b in a.reshape(-1, *a.shape[-2:]))
        return full(a, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", spy)
    block_svdvals(m)
    assert sorted(solved) == sorted(shapes)


def test_block_svdvals_one_block_is_the_full_svd():
    # the pinned sweep-0 S_OP of both dynamics outputs is this SVD's round-off
    m = _permuted_rect_blocks(np.random.default_rng(3), [(5, 7)], 3, 2)
    assert np.array_equal(block_svdvals(m), np.linalg.svd(m, compute_uv=False))
    rho0 = singlet_product_state(Family.SUN, 3, 6)
    r = full_matrix(rho0).reshape(27, 27, 27, 27).transpose(0, 2, 1, 3).reshape(729, 729)
    assert np.array_equal(block_svdvals(r), np.linalg.svd(r, compute_uv=False))


@pytest.mark.parametrize("fam, N, L, cut", [(Family.SUN, 3, 6, 3), (Family.TL, 3, 4, 2)])
def test_sweep_zero_ose_is_the_full_target_svd(fam, N, L, cut):
    # the fig7 dynamics states at sweep 0, products whose realignment is one
    # block; their S_OP (4.44e-16 for SU(3), -8.88e-16 for TL(3)) is the
    # round-off of the SVD of the whole unit-norm target, which an SVD of the
    # compact block alone does not reproduce for TL(3) (-4.44e-16)
    ks = build_kraus(fam, N, L)
    rho0 = singlet_product_state(fam, N, L)
    _, rows = iterate_with_trajectory(ks, rho0, cut, tol=1.0)
    dA, dB = N**cut, N**(L - cut)
    m = full_matrix(rho0).reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    p = np.linalg.svd(m / np.linalg.norm(m), compute_uv=False)**2
    p = p[p > 1e-24]
    assert rows[0]["S_OP"] == dense_ose(rho0, cut) == float(-np.sum(p * np.log(p)))


@pytest.mark.parametrize("fam, N, L, LA", ORACLE_CONFIGS)
def test_block_ose_matches_full_svd_on_stationary_states(fam, N, L, LA):
    st = stationary_state(CommutantSpec(fam, N, L, LA))
    dA, dB = N**LA, N**(L - LA)
    m = full_matrix(st).reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    p = np.linalg.svd(m / np.linalg.norm(m), compute_uv=False)**2
    p = p[p > 1e-24]
    assert abs(dense_ose(st, LA) - float(-np.sum(p * np.log(p)))) <= 1e-13
    assert np.array_equal(block_svdvals(m), _loop_svdvals(m))


def test_validate_finds_a_negative_eigenvalue():
    st = stationary_state(CommutantSpec(Family.SUN, 3, 6, 3))
    st.validate()
    i, j = np.flatnonzero(np.diagonal(full_matrix(st)))[:2]
    bad = full_matrix(st).copy()
    bad[i, j] += 0.5  # a Hermitian, trace-preserving 2 x 2 bump: eigenvalues -0.5, +0.5
    bad[j, i] += 0.5
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DenseState(bad, st.site_dims).validate()


@pytest.mark.parametrize("block, message", [
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
    (np.eye(2), "trace is 2.0, not 1"),
])
def test_validate_refuses_a_non_state(block, message):
    with pytest.raises(ValueError, match=message):
        DenseState(block, [2]).validate()


@pytest.mark.parametrize("fam, N, L, cut", [(Family.TL, 3, 4, 2), (Family.SUN, 2, 6, 2)])
def test_trajectory_rows_equal_dense_quantities(fam, N, L, cut):
    # the row reads E_N and R3 off one PT and one rho spectrum; the public
    # functions solve their own, with the same formulas and the same bits
    ks = build_kraus(fam, N, L)
    rho0 = singlet_product_state(fam, N, L)
    _, rows = iterate_with_trajectory(ks, rho0, cut, tol=1e-10)
    assert len(rows) > 5
    S, rho = _seed_block(ks, rho0)
    steps = orc.sweep_steps(ks, S, rho.dtype)
    for k, row in enumerate(rows):
        if k:
            rho = orc.apply_sweep(rho, ks, steps)
        st = DenseState(rho, [N] * L, S)
        assert row["E_N"] == dense_log_negativity(st, cut)
        assert row["R3"] == dense_renyi_negativity(st, cut, 3)
        assert row["S_OP"] == dense_ose(st, cut)
        w, lam = pt_eigenvalues(st, cut), rho_spectrum(st)
        assert orc.generalized_renyi_from(w, lam, 1.5) == dense_generalized_renyi(st, cut, 1.5)


def _reference_channels(family: Family, N: int, L: int) -> list[tuple[tuple[int, ...], list]]:
    """The per-family Kraus construction build_kraus replaced, as (sites, ops) in order."""
    out = []
    eye = np.eye(N * N)
    if family == Family.SUN:
        P = np.zeros((N * N, N * N))
        for a in range(N):
            for b in range(N):
                P[b * N + a, a * N + b] = 1.0
        for j in range(L - 1):
            out.append(((j, j + 1), [(eye + P) / 2, (eye - P) / 2]))
    elif family == Family.TL:
        v = np.zeros(N * N)
        for s in range(N):
            v[s * N + s] = 1.0
        e = np.outer(v, v)
        for j in range(L - 1):
            out.append(((j, j + 1), [e / N, eye - e / N]))
    elif family == Family.U1:
        hop = np.zeros((4, 4))
        hop[1, 2] = hop[2, 1] = 1.0
        stay = np.eye(4) - np.diag([0.0, 1.0, 1.0, 0.0])
        r = 1.0 / math.sqrt(2.0)
        for j in range(L - 1):
            out.append(((j, j + 1), [r * np.eye(4), r * hop, r * stay]))
        for j in range(L):
            out.append(((j,), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    else:
        r = 1.0 / math.sqrt(2.0)
        for j in range(L - 1):
            for s in range(N):
                for t in range(s + 1, N):
                    h = np.zeros((N * N, N * N))
                    h[s * N + s, t * N + t] = h[t * N + t, s * N + s] = 1.0
                    out.append(((j, j + 1), [r * eye, r * h, r * (eye - h @ h)]))
        for j in range(L):
            out.append(((j,), [np.diag([1.0 if a == s else 0.0 for a in range(N)])
                               for s in range(N)]))
    return out


def _reference_seed(family: Family, N: int, L: int) -> np.ndarray:
    """The per-family product state singlet_product_state replaced (its vector psi)."""
    if family == Family.SUN:
        block = np.zeros(N**N)
        for perm in permutations(range(N)):
            idx = 0
            for s in perm:
                idx = idx * N + s
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
            block[idx] = (-1.0) ** inversions
        block /= np.linalg.norm(block)
        psi = block
        for _ in range(L // N - 1):
            psi = np.kron(psi, block)
    elif family == Family.TL:
        dimer = np.zeros(N * N)
        for s in range(N):
            dimer[s * N + s] = 1.0
        dimer /= math.sqrt(N)
        psi = dimer
        for _ in range(L // 2 - 1):
            psi = np.kron(psi, dimer)
    elif family == Family.U1:
        idx = 0
        for j in range(L):
            idx = idx * 2 + (j % 2)
        psi = np.zeros(2**L)
        psi[idx] = 1.0
    else:
        psi = np.zeros(N**L)
        psi[0] = 1.0
    return psi


@pytest.mark.parametrize("fam, N", [
    (Family.SUN, 2), (Family.SUN, 3), (Family.SUN, 4), (Family.TL, 2), (Family.TL, 3),
    (Family.TL, 4), (Family.U1, 2), (Family.PF, 2), (Family.PF, 3), (Family.PF, 4),
])
def test_kraus_sets_and_seeds_are_the_per_family_constructions(fam, N):
    # SU(N) and TL(N) channels and every seed give the bytes of the per-family
    # code they replaced, odd lengths included; U(1) and PF(N) channels are
    # projector resolutions in the old channels' places, with the old lazy
    # flip chain's fixed point
    width = {Family.SUN: N, Family.TL: 2, Family.U1: 2, Family.PF: 1}[fam]
    for L in range(2, 9):
        if N**L > 6561:
            break
        got = build_kraus(fam, N, L).channels
        want = _reference_channels(fam, N, L)
        assert [ch.sites for ch in got] == [sites for sites, _ in want]
        for ch, (_, ops) in zip(got, want):
            if fam in (Family.U1, Family.PF):
                for K in ch.ops:
                    assert np.array_equal(K, K.T) and np.allclose(K @ K, K, rtol=0, atol=1e-15)
                assert np.array_equal(sum(ch.ops), np.eye(len(ch.ops[0])))
                continue
            assert len(ch.ops) == len(ops)
            for K, R in zip(ch.ops, ops):
                assert K.dtype == R.dtype and K.shape == R.shape and K.tobytes() == R.tobytes()
        if N**L > 729:  # dense seeds stay small
            continue
        if L % width:
            with pytest.raises(ValueError, match="seed needs L = 0 mod"):
                singlet_product_state(fam, N, L)
            continue
        st = singlet_product_state(fam, N, L)
        psi = _reference_seed(fam, N, L)
        assert st.site_dims == [N] * L
        # held on psi's support: there its bytes, elsewhere exact zeros
        s = np.flatnonzero(psi)
        assert np.array_equal(st.states, s)
        assert st.block.tobytes() == np.outer(psi[s], psi[s]).tobytes()
        assert np.array_equal(full_matrix(st), np.outer(psi, psi))
        if fam in (Family.U1, Family.PF):
            lazy = KrausSet(N, L, [LocalChannel(sites, ops) for sites, ops in want])
            new = full_matrix(channel_fixed_point(build_kraus(fam, N, L), st))
            assert np.max(np.abs(new - full_matrix(channel_fixed_point(lazy, st)))) <= 1e-12


@pytest.mark.parametrize("fam, N, ell", [
    (Family.U1, 2, 2), (Family.U1, 2, 4), (Family.SUN, 2, 2), (Family.SUN, 2, 4),
    (Family.SUN, 3, 3), (Family.TL, 3, 2), (Family.TL, 4, 2), (Family.PF, 2, 2),
    (Family.PF, 2, 4), (Family.PF, 3, 2),
])
def test_kraus_commutant_is_the_family_commutant(fam, N, ell):
    # the operators X on ell sites with [K, X] = 0 for every Kraus operator K
    # span the family's commutant on ell sites; X row-major, so vec(K X - X K)
    # = (K (x) 1 - 1 (x) K^T) vec X
    ks = build_kraus(fam, N, ell)
    one = np.eye(N**ell)
    gram = np.zeros((N ** (2 * ell),) * 2)
    for ch in ks.channels:
        for K in ch.ops:
            full = embed_local(K, ch.sites, N, ell)
            A = np.kron(full, one) - np.kron(one, full.T)
            gram += A.T @ A
    nullity = int(np.sum(np.linalg.eigvalsh(gram) < 1e-8))
    dim = commutant_dimension(CommutantSpec(fam, N, 2 * ell, ell)).to_float()
    assert nullity == round(dim)


@pytest.mark.parametrize("make", [
    lambda: build_kraus(Family.U1, 3, 4), lambda: singlet_product_state(Family.U1, 3, 4),
])
def test_u1_chain_refuses_N_other_than_2(make):
    # the U(1) seed came back as an 81 x 81 state at N = 3
    with pytest.raises(ValueError, match="defined for N = 2"):
        make()


@pytest.mark.parametrize("fam, N, L", [
    (Family.TL, 3, 5), (Family.SUN, 3, 5), (Family.SUN, 3, 2), (Family.U1, 2, 5),
    (Family.U1, 2, 1),
])
def test_seed_refuses_a_partial_block(fam, N, L):
    # TL(3) at L = 5 used to come back as an 81 x 81 state on five sites, SU(3)
    # as 27 x 27; U(1) at odd L has no M = 0 sector
    with pytest.raises(ValueError, match="seed needs L = 0 mod"):
        singlet_product_state(fam, N, L)
