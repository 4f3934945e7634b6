"""The Maurer-Cartan frame against two references.

``reference_frame`` computes the frame by coordinate extraction: move the
generic point g to g (I + eps X_gamma) in a ring with one extra variable
eps, read the chart coordinates back with ``Chart.extract`` and take the
eps-derivative at eps = 0.  It is independent of the Maurer-Cartan form
(no derivative of g, no inverse of W) and serves, test-only, as the
oracle for ``Chart.frame_components``.  ``oracles.point_frame`` reads the
Maurer-Cartan form off the polynomial slice point and its inverse, the
matrices that ``frame_components`` no longer forms; the two are compared
on every slice.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mclab.hessenberg import enumerate_all
from mclab.liealg import (LieAlgebraError, build_sp, first_kind_chart,
                          matrix_chart, second_kind_chart, three_factor_chart)
from mclab.poly import Poly

from oracles import dense_point, mat_prod, point_frame, sparse_point


def reference_frame(chart):
    ext = chart.nvars + 1
    eps = chart.nvars
    size = chart.realization.size
    gen = dense_point({p: x.lift(ext) for p, x in chart.generic_point().items()},
                      size, ext)
    rows = {}
    for r in range(chart.nvars):
        x_r = chart.realization.entries[chart.algebra.full_index(r)]
        step = dense_point({p: Poly.var(ext, eps, x) for p, x in x_r.items()},
                           size, ext)
        moved = sparse_point(mat_prod(gen, step))
        row = {}
        for k, c in enumerate(chart.extract(moved)):
            d = c.diff(eps).subs({eps: 0})
            if not d.is_zero():
                # eps exponent is zero everywhere; drop that slot
                row[k] = d.lift(
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
    assert chart.extract(chart.generic_point()) == \
        [Poly.var(n, k) for k in range(n)]


@pytest.mark.parametrize("name,kind", CASES)
def test_frame_matches_point_oracle_every_slice(name, kind, request):
    """The frame summed from the structure constants equals, by value,
    the one read off the polynomial slice point, on the full group and
    on every Hessenberg set of A1-A4 and C2-C3."""
    alg = request.getfixturevalue(name)
    chart = _CHARTS[kind](alg)
    for key in [None, *(hs.R for hs in enumerate_all(alg.rs))]:
        assert chart.frame_components(key) == point_frame(chart, key), key


def test_frame_matches_oracle_adjoint_realization(sl3):
    _assert_same_frame(second_kind_chart(sl3, realization=sl3.ad_realization()))


def test_frame_matches_oracle_sp4_second_kind():
    """The chart ``mc C 4`` solves on; the oracle takes a few seconds."""
    _assert_same_frame(second_kind_chart(build_sp(4)))


def test_frame_slice_restriction(sp3):
    """The slice frame is the full frame at complement coordinates zero,
    restricted to slice rows and columns, zero entries dropped: checked at
    a rational point on every Hessenberg set of C3.  A set that is not a
    lower order ideal has no slice frame."""
    chart = second_kind_chart(sp3)
    full = chart.frame_components()
    sets = enumerate_all(sp3.rs)
    for hs in sets:
        key = hs.R
        point = [Q(r + 2, 3) if r in key else Q(0)
                 for r in range(chart.nvars)]
        rows = chart.frame_components(key)
        assert set(rows) == key
        for g in key:
            assert set(rows[g]) <= key
            for j in key:
                p = rows[g].get(j)
                assert p is None or not p.is_zero()
                want = full[g][j].eval(point) if j in full[g] else Q(0)
                assert (p.eval(point) if p is not None else Q(0)) == want
    assert len(sets) == 20
    # 011 - 001 = 010 is missing from every other coordinate root
    with pytest.raises(LieAlgebraError, match="lower order ideal"):
        chart.frame_components(set(range(0, chart.nvars, 2)))
