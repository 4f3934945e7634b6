"""The slice point against the full group restricted to the slice.

The slice frame and ``nu`` are read at the slice point n_R, the generic
point at complement coordinates zero, never on the full group.  The
references are the full-group objects restricted afterwards:
``oracles.restricted_frame`` and ``oracles.project_to_slice`` of
``oracles.full_tau_basis``.  They must agree as polynomials on every
Hessenberg set of A1-A3 and C2-C3 for every chart kind, of A4 for the
matrix chart and of C4 for the second-kind chart.
"""

from __future__ import annotations

import pytest

from mclab.hessenberg import HessenbergSet, enumerate_all
from mclab.liealg import (LieAlgebraError, adjoint_of_point, build_sl,
                          build_sp, first_kind_chart, matrix_chart,
                          second_kind_chart, three_factor_chart)
from mclab.mcfields import nu

from oracles import full_tau_basis, project_to_slice, restricted_frame

_CHARTS = {
    "matrix": matrix_chart, "first_kind": first_kind_chart,
    "second_kind": second_kind_chart, "three_factor": three_factor_chart,
}
_BUILD = {"A1": (build_sl, 2), "A2": (build_sl, 3), "A3": (build_sl, 4),
          "A4": (build_sl, 5), "C2": (build_sp, 2), "C3": (build_sp, 3),
          "C4": (build_sp, 4)}
# matrix charts exist for sl(n) and sp(2) only
CASES = ([(a, k) for a in ("A1", "A2", "A3", "C2") for k in _CHARTS]
         + [("C3", k) for k in _CHARTS if k != "matrix"]
         + [("A4", "matrix"), ("C4", "second_kind")])


@pytest.fixture(scope="module")
def algebras():
    built = {}

    def get(name):
        if name not in built:
            build, n = _BUILD[name]
            built[name] = build(n)
        return built[name]
    return get


@pytest.mark.parametrize("name,kind", CASES)
def test_slice_point_matches_full_group_restricted(name, kind, algebras):
    alg = algebras(name)
    chart = _CHARTS[kind](alg)
    taus = full_tau_basis(alg, chart)
    sets = enumerate_all(alg.rs)
    for hs in sets:
        rows = chart.frame_components(hs.R)
        want = restricted_frame(chart, hs.R)
        assert list(rows) == list(want)
        for g in want:
            assert rows[g] == want[g]
        for k, e in enumerate(chart.realization.entries):
            got = nu(alg, chart, hs, e)
            assert got == project_to_slice(taus[k], hs)
            assert got.slice_roots == hs.R
    assert len(sets) == {"A1": 2, "A2": 5, "A3": 14, "A4": 42, "C2": 6,
                         "C3": 20, "C4": 70}[name]


def test_slice_must_be_a_lower_order_ideal(sl4):
    """Only a lower order ideal has the block-triangular W the slice frame
    rests on; any other set, and a root outside the chart's coordinates,
    is refused by the frame, the adjoint action and nu alike, naming the
    missing root."""
    chart = matrix_chart(sl4)
    rs = sl4.rs
    not_ideal = {rs.highest_root.id}
    hs = HessenbergSet(rs=rs, R=frozenset(not_ideal),
                       C=frozenset(range(rs.n_pos)) - not_ideal)
    e = sl4.realization.entries[0]
    for call in (lambda: chart.frame_components(not_ideal),
                 lambda: chart.frame_field(rs.highest_root.id, not_ideal),
                 lambda: adjoint_of_point(chart, e, slice_roots=not_ideal),
                 lambda: adjoint_of_point(chart, e, [], not_ideal),
                 lambda: nu(sl4, chart, hs, e)):
        with pytest.raises(LieAlgebraError, match="lower order ideal: "
                           "111 - 100 = 011 is missing"):
            call()
    for call in (lambda: chart.frame_components({rs.neg(0)}),
                 lambda: adjoint_of_point(chart, e, slice_roots={rs.neg(0)})):
        with pytest.raises(LieAlgebraError, match="outside the chart"):
            call()
