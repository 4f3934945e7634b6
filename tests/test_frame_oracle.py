"""The Maurer-Cartan frame against the epsilon-extraction reference.

``reference_frame`` computes the frame by coordinate extraction: move the
generic point g to g (I + eps X_gamma) in a ring with one extra variable
eps, read the chart coordinates back with ``Chart.extract`` and take the
eps-derivative at eps = 0.  It is independent of the Maurer-Cartan form
(no derivative of g, no inverse of W) and serves, test-only, as the
oracle for ``Chart.frame_components``.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mclab import linalg
from mclab.liealg import (build_sp, first_kind_chart, matrix_chart,
                          second_kind_chart, three_factor_chart)
from mclab.poly import Poly

from conftest import dense, mat_add


def reference_frame(chart):
    ext = chart.nvars + 1
    eps = chart.nvars
    gen = [[p.lift(ext) for p in row] for row in chart.generic_matrix()]
    ident = chart._poly_identity(ext)
    rows = {}
    for r in chart.coord_roots:
        x_r = chart.realization.entries[chart.algebra.full_index(r)]
        step = [[Poly.var(ext, eps, x) for x in row]
                for row in dense(x_r, chart.realization.size)]
        moved = linalg.mat_mul(gen, mat_add(ident, step))
        row = {}
        for k, c in enumerate(chart.extract(moved)):
            d = c.diff(eps).subs({eps: 0})
            if not d.is_zero():
                # eps exponent is zero everywhere; drop that slot
                row[chart.coord_roots[k]] = d.lift(
                    chart.nvars, list(range(chart.nvars)) + [0])
        rows[r] = row
    return rows


def _assert_same_frame(chart):
    got = chart.frame_components()
    want = reference_frame(chart)
    assert list(got) == list(want)
    for r in want:
        # same keys in the same order, and == on every Poly
        assert list(got[r].items()) == list(want[r].items())


_CHARTS = {
    "matrix": matrix_chart, "first_kind": first_kind_chart,
    "second_kind": second_kind_chart, "three_factor": three_factor_chart,
}
# matrix charts exist for sl(n) and sp(2) only
CASES = [(a, k) for a in ("sl2", "sl3", "sl4", "sl5", "sp2", "sp3")
         for k in _CHARTS if k != "matrix" or a != "sp3"]


@pytest.mark.parametrize("name,kind", CASES)
def test_frame_matches_extraction_oracle(name, kind, request):
    _assert_same_frame(_CHARTS[kind](request.getfixturevalue(name)))


@pytest.mark.parametrize("name,kind", CASES)
def test_extract_inverts_generic_point(name, kind, request):
    """Extraction, on which the oracle rests, inverts the generic point:
    coordinate k comes back as variable k, for every chart kind."""
    chart = _CHARTS[kind](request.getfixturevalue(name))
    n = chart.nvars
    assert chart.extract(chart.generic_matrix()) == \
        [Poly.var(n, k) for k in range(n)]


def test_frame_matches_oracle_adjoint_realization(sl3):
    _assert_same_frame(second_kind_chart(sl3, realization=sl3.ad_realization()))


def test_frame_matches_oracle_sp4_second_kind():
    """The chart ``mc C 4`` solves on; the oracle takes a few seconds."""
    _assert_same_frame(second_kind_chart(build_sp(4)))


def test_frame_slice_restriction(sp3):
    """The slice frame is the full frame at complement coordinates zero,
    restricted to slice rows and columns, zero entries dropped."""
    chart = second_kind_chart(sp3)
    full = chart.frame_components()
    key = set(chart.coord_roots[::2])
    point = [Q(k + 2, 3) if r in key else Q(0)
             for k, r in enumerate(chart.coord_roots)]
    rows = chart.frame_components(key)
    assert set(rows) == key
    for g in key:
        assert set(rows[g]) <= key
        for j in key:
            p = rows[g].get(j)
            assert p is None or not p.is_zero()
            want = full[g][j].eval(point) if j in full[g] else Q(0)
            assert (p.eval(point) if p is not None else Q(0)) == want
