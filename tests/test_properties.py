"""Property-based invariants over admissible (family, N, L, L_A) at small sizes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statent.commutants import CommutantSpec, Family, iter_sectors
from statent.entanglement import compute_report

from test_commutants import closed_form_singlet_dimension

# (family, N, largest L, L step, cut step)
FAMILIES = (
    [(Family.U1, 2, 64, 2, 1), (Family.SUN, 2, 64, 2, 2),
     (Family.SUN, 3, 48, 3, 3), (Family.SUN, 4, 48, 4, 4)]
    + [(f, N, 64, 2, 2) for f in (Family.TL, Family.PF) for N in range(2, 6)]
)


@st.composite
def specs(draw) -> CommutantSpec:
    fam, N, L_max, L_step, cut_step = draw(st.sampled_from(FAMILIES))
    L = L_step * draw(st.integers(-(-2 * cut_step // L_step), L_max // L_step))
    return CommutantSpec(fam, N, L, cut_step * draw(st.integers(1, L // cut_step - 1)))


def report_fields(rep) -> dict:
    return {
        "E_N": rep.E_N, "S_OP": rep.S_OP, "log_dim_C_min": rep.dim_C_min.log_value(),
        "log_dim_c_min": rep.bounds.log_dim_c_min, "log_max_d": rep.bounds.log_max_d,
        **{f"R_{n}": v for n, v in rep.R.items()},
        **{f"Rt_{n}": v for n, v in rep.R_tilde.items()},
        **{f"Rt_bound_{n}": v for n, v in rep.rtilde_bounds.items()},
    }


@settings(max_examples=60, deadline=None)
@given(specs())
def test_completeness_matches_closed_form(spec):
    total = sum(r.pattern_count * r.D_A * r.D_B for r in iter_sectors(spec))
    assert total == closed_form_singlet_dimension(spec)


@settings(max_examples=60, deadline=None)
@given(specs(), st.sampled_from(["exact", "log"]))
def test_universal_bounds(spec, backend):
    rep = compute_report(spec, backend=backend)
    assert rep.E_N <= rep.bounds.e_n + 1e-10
    assert rep.S_OP <= rep.bounds.s_op + 1e-10
    for n, v in rep.R_tilde.items():
        assert v <= rep.bounds.rtilde(n) + 1e-10, n


@settings(max_examples=60, deadline=None)
@given(specs(), st.sampled_from(["exact", "log"]))
def test_order_identities(spec, backend):
    above_two = (3.0, 4.0, 5.0, 6.0, 8.0)
    rep = compute_report(spec, renyi_orders=range(1, 9), rtilde_orders=(1.0, *above_two),
                         backend=backend)
    assert rep.R_tilde[1.0] == rep.E_N
    for k in range(1, 5):
        assert rep.R[2 * k] == rep.R[2 * k - 1]
    scaled = [(n - 2) * rep.R_tilde[n] for n in above_two]  # -log E_p[d^(2-n)]
    assert all(b >= a - 1e-12 for a, b in zip(scaled, scaled[1:]))


@settings(max_examples=60, deadline=None)
@given(specs())
def test_exact_equals_log(spec):
    want = report_fields(compute_report(spec, backend="exact"))
    have = report_fields(compute_report(spec, backend="log"))
    assert have.keys() == want.keys()
    for name, v in want.items():
        assert have[name] == pytest.approx(v, rel=1e-10, abs=1e-12), name
