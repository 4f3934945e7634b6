from __future__ import annotations

import os
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import linalg
from mclab.hessenberg import enumerate_all
from mclab.liealg import (Chart, LieAlgebraError, _sparse_bracket,
                          adjoint_of_point, build_sl, build_sp,
                          first_kind_chart, matrix_chart, second_kind_chart,
                          three_factor_chart)
from mclab.poly import Poly

from conftest import (dense, frac_identity, mat_add, mat_eq, mat_scale,
                      mat_sub, solve_H0)
from oracles import (adjoint_series_of_point, closed_form_generic_point,
                     dense_generic_point, matrix_adjoint_of_point,
                     unipotent_inverse)

ALGEBRAS = ["sl2", "sl3", "sl4", "sp2"]
_CHART_KINDS = ("matrix", "first_kind", "second_kind", "three_factor")


@pytest.fixture(scope="module")
def algebras(sl2, sl3, sl4, sl5, sp2, sp3, sp4):
    return {"sl2": sl2, "sl3": sl3, "sl4": sl4, "sl5": sl5,
            "sl6": build_sl(6), "sp2": sp2, "sp3": sp3, "sp4": sp4}


def _kinds(name):
    """The chart kinds that exist for the algebra: every kind but the
    matrix-entry one for sp(l >= 3)."""
    return _CHART_KINDS[1:] if name in ("sp3", "sp4") else _CHART_KINDS


@pytest.fixture(scope="module")
def sp4():
    return build_sp(4)


def test_sp3_spot_checks(sp3):
    """sp(3) carries no rational normalized basis; its realization still
    satisfies Jacobi and theta-invariance on sampled triples."""
    assert not sp3.normalized
    basis = _all_basis(sp3)
    sample = basis[::4]
    for a in sample:
        for b in sample:
            for c in sample:
                lhs = _comm(a, _comm(b, c))
                rhs = mat_add(_comm(_comm(a, b), c),
                              _comm(b, _comm(a, c)))
                assert mat_eq(lhs, rhs)
    for (a, b), c in sp3.c.items():
        assert c != 0


def _all_basis(alg):
    return [dense(e, alg.realization.size) for e in alg.realization.entries]


def _root_matrix(alg, root_id):
    return dense(alg.realization.entries[alg.full_index(root_id)],
                 alg.realization.size)


def _comm(a, b):
    return mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


# ---------------------------------------------------------------------------
# structure constants and involution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALGEBRAS)
def test_jacobi_identity_exhaustive(name, algebras):
    alg = algebras[name]
    basis = _all_basis(alg)
    for a, b, c in product(basis, repeat=3):
        lhs = _comm(a, _comm(b, c))
        mid = _comm(_comm(a, b), c)
        rhs = _comm(b, _comm(a, c))
        assert mat_eq(lhs, mat_add(mid, rhs))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_theta_involution_and_killing_invariance(name, algebras):
    alg = algebras[name]

    def theta(m):
        return {(j, i): -x for (i, j), x in m.items()}

    basis = alg.realization.entries
    for m in basis:
        assert theta(theta(m)) == m
    for a in basis:
        for b in basis:
            assert alg.killing(theta(a), theta(b)) == alg.killing(a, b)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sp2"])
def test_normalization_identities(name, algebras):
    alg = algebras[name]
    assert alg.normalized
    rs = alg.rs
    for a in range(rs.n_pos):
        entries = alg.realization.entries
        assert alg.b0(entries[alg.full_index(a)],
                      entries[alg.full_index(rs.neg(a))]) == 1
        # [X_a, X_{-a}] equals the representing Cartan element
        h = alg.h_of_bracket[a]
        assert h == alg.h_representing(a, "normalization")
    ids = range(2 * rs.n_pos)
    for a, b in product(ids, ids):
        s = rs.add(a, b)
        if s is None:
            continue
        # cyclic identity through the third root of the zero-sum triple
        c_ab = alg.c.get((a, b), Q(0))
        neg_s = rs.neg(s)
        assert c_ab == alg.c.get((b, neg_s), Q(0))
        assert c_ab == alg.c.get((neg_s, a), Q(0))
        # lowering identity
        assert c_ab == alg.c.get((rs.neg(a), s), Q(0))
        assert c_ab != 0


def test_sp2_basis_brackets(sp2):
    rs = sp2.rs
    a, b, ab, w = 0, 1, 2, 3
    EU, EX = _root_matrix(sp2, a), _root_matrix(sp2, b)
    EY, EZ = _root_matrix(sp2, ab), _root_matrix(sp2, w)
    assert mat_eq(_comm(EU, EX), EY)
    assert mat_eq(_comm(EU, EY), EZ)
    assert sp2.c[(a, b)] == 1 and sp2.c[(a, ab)] == 1


def test_sl3_and_sl2_realizations(sl2, sl3):
    # single positive-root bracket in rank one: [H, E] = 2E
    h = dense(sl2.realization.cartan[0], 2)
    e = _root_matrix(sl2, 0)
    assert mat_eq(_comm(h, e), mat_scale(e, Q(2)))
    # the top root space of sl(3) is the corner matrix
    top = _root_matrix(sl3, sl3.rs.highest_root.id)
    expect = [[Q(0)] * 3 for _ in range(3)]
    expect[0][2] = Q(1)
    assert mat_eq(top, expect)


def test_functionals_match_cartan_matrix(sl4):
    rs = sl4.rs
    simples = rs.simple_ids()
    for i, si in enumerate(simples):
        for j, sj in enumerate(simples):
            h = sl4.h_representing(sj, "normalization")
            num = 2 * sl4.alpha_value(si, h)
            den = sl4.alpha_value(sj, h)
            assert num / den == rs.cartan_matrix[i][j]


def _fresh_h_representing(alg, root_id, pair):
    """H_alpha from a Gram matrix built and solved anew."""
    cartan = alg.realization.cartan
    gram = [[pair(hi, hj) for hj in cartan] for hi in cartan]
    rhs = [alg.alpha_value(root_id, [Q(int(k == i)) for k in range(alg.rank)])
           for i in range(alg.rank)]
    return tuple(linalg.solve(gram, rhs))


@pytest.mark.parametrize("builder, arg", [(build_sl, 3), (build_sl, 4),
                                          (build_sp, 2)])
def test_h_representing_cache(builder, arg, monkeypatch):
    """Cached H_alpha equal a fresh Gram solve on the first and on a
    repeated call, with one Gram matrix per form."""
    alg = builder(arg)
    trace_form = alg.trace_form
    grams = []

    def counting(m1, m2):
        grams.append((m1, m2))
        return trace_form(m1, m2)

    monkeypatch.setattr(alg, "trace_form", counting)
    forms = {"normalization": alg.b0_lambda, "killing": alg.killing_factor}
    for _ in range(2):
        for form, scale in forms.items():
            for a in range(2 * alg.n_pos):
                fresh = _fresh_h_representing(
                    alg, a, lambda m1, m2: scale * trace_form(m1, m2))
                assert alg.h_representing(a, form) == fresh
    assert len(grams) == len(forms) * alg.rank ** 2
    with pytest.raises(LieAlgebraError, match="unknown form"):
        alg.h_representing(0, "bogus")


# ---------------------------------------------------------------------------
# charts, group law, frames
# ---------------------------------------------------------------------------

def test_group_multiply_sp2_formula(chart_sp2):
    u, x, y, z = Q(2), Q(-1, 2), Q(3), Q(1, 4)
    u2, x2, y2, z2 = Q(-1), Q(5), Q(1, 3), Q(2)
    prod = chart_sp2.multiply([u, x, y, z], [u2, x2, y2, z2])
    assert prod == [u + u2, x + x2, y + y2 + u * x2,
                    z + z2 + u * y2 + u * u * x2 / 2]


def test_group_identity_and_inverse(chart_sl4):
    pt = [Q(1), Q(-2), Q(3), Q(1, 2), Q(0), Q(7)]
    e = [Q(0)] * chart_sl4.nvars
    assert chart_sl4.multiply(e, pt) == pt
    assert chart_sl4.multiply(pt, e) == pt
    ident = frac_identity(chart_sl4.realization.size)
    inv = chart_sl4.coords_of_matrix(
        unipotent_inverse(chart_sl4.point_matrix(pt), ident))
    assert chart_sl4.multiply(pt, inv) == e
    assert chart_sl4.multiply(inv, pt) == e


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_associativity(sp2, chart_sp2, data):
    def point():
        return [Q(data.draw(st.integers(-8, 8)),
                  data.draw(st.integers(1, 5))) for _ in range(4)]
    p, q, r = point(), point(), point()
    lhs = chart_sp2.multiply(chart_sp2.multiply(p, q), r)
    rhs = chart_sp2.multiply(p, chart_sp2.multiply(q, r))
    assert lhs == rhs


def test_product_agrees_with_adjoint_backend(sl3):
    """Same exponential coordinates, matrix vs structure-constant backend."""
    ch_mat = second_kind_chart(sl3)
    ch_ad = second_kind_chart(sl3, realization=sl3.ad_realization())
    p = [Q(1), Q(-1, 2), Q(3)]
    q = [Q(2, 3), Q(1), Q(-1)]
    assert ch_mat.multiply(p, q) == ch_ad.multiply(p, q)
    ch1_mat = first_kind_chart(sl3)
    ch1_ad = first_kind_chart(sl3, realization=sl3.ad_realization())
    assert ch1_mat.multiply(p, q) == ch1_ad.multiply(p, q)


def test_chart_changes_are_mutually_inverse(sl3, sl4, sp2):
    for alg in (sl3, sl4, sp2):
        charts = [matrix_chart(alg), first_kind_chart(alg),
                  second_kind_chart(alg), three_factor_chart(alg)]
        pt = [Q(k + 1, 2) * (-1) ** k for k in range(charts[0].nvars)]
        for src in charts:
            m = src.point_matrix(pt)
            for dst in charts:
                other = dst.coords_of_matrix(m)
                assert src.coords_of_matrix(dst.point_matrix(other)) == pt


def test_unknown_chart_kind_fails_at_construction(sl3):
    with pytest.raises(LieAlgebraError, match="unknown chart kind"):
        Chart(sl3, "bogus")


def test_matrix_chart_without_entry_order_fails_at_construction(sp3):
    with pytest.raises(LieAlgebraError, match="matrix chart unavailable"):
        Chart(sp3, "matrix")


def _shifted_identity(size, i, j, c):
    m = frac_identity(size)
    m[i][j] = Q(c)
    return m


@pytest.mark.parametrize("name,bad,error", [
    ("sl3", _shifted_identity(3, 1, 0, 5), LieAlgebraError),
    ("sl3", [[Q(2), Q(7), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)]],
     ValueError),
    ("sp3", _shifted_identity(6, 3, 0, 4), LieAlgebraError),
])
def test_coords_of_matrix_rejects_matrix_outside_n(name, bad, error,
                                                   algebras):
    """Lower-triangular unipotent matrices are not points of N, and every
    chart kind says so instead of returning coordinates.  A non-unipotent
    matrix may instead raise the log series' ValueError, which
    LieAlgebraError subclasses."""
    for kind in _kinds(name):
        with pytest.raises(error):
            Chart(algebras[name], kind).coords_of_matrix(bad)


def test_frame_sl3_matches_reference(chart_sl3):
    # X = d/dx, Y = d/dy + x d/du, U = d/du in the entries chart
    frame = [chart_sl3.frame_field(r) for r in chart_sl3.coord_roots]
    rendered = [f.render() for f in frame]
    assert rendered == [{"10": "1"}, {"01": "1", "11": "x"}, {"11": "1"}]


def test_frame_sp2_matches_reference(chart_sp2):
    frame = [chart_sp2.frame_field(r) for r in chart_sp2.coord_roots]
    rendered = [f.render() for f in frame]
    assert rendered == [
        {"10": "1"},
        {"01": "1", "11": "u", "21": "1/2*u^2"},
        {"11": "1", "21": "u"},
        {"21": "1"},
    ]


def test_frame_sl4_matches_reference_after_flip(sl4, chart_sl4):
    """The reference frame list for the rank-3 chart is stated in the flipped convention:
    X = dx + y du + v dz, Y = dy + t dv, U = du + t dz, T = dt, V = dv."""
    from conftest import flip_coordinate_field, flip_root
    rs = sl4.rs
    frame = {r: chart_sl4.frame_field(r) for r in chart_sl4.coord_roots}
    names = chart_sl4.var_names

    def ref_field(spec):
        comps = {}
        for var, poly_text in spec.items():
            rid = chart_sl4.coord_roots[names.index(var)]
            if poly_text == "1":
                comps[rid] = Poly.const(chart_sl4.nvars, 1)
            else:
                comps[rid] = Poly.var(chart_sl4.nvars,
                                      names.index(poly_text))
        from mclab.fields import PolyVectorField
        return PolyVectorField(chart_sl4, "coordinate", comps)

    reference = {
        "x": ref_field({"x": "1", "u": "y", "z": "v"}),
        "y": ref_field({"y": "1", "v": "t"}),
        "t": ref_field({"t": "1"}),
        "u": ref_field({"u": "1", "z": "t"}),
        "v": ref_field({"v": "1"}),
        "z": ref_field({"z": "1"}),
    }
    for var, ref in reference.items():
        rid = chart_sl4.coord_roots[names.index(var)]
        aligned = flip_coordinate_field(chart_sl4, frame[flip_root(rs, rid)])
        assert aligned.components == ref.components


@pytest.mark.parametrize("name", ["sl3", "sl4", "sp2", "sp3"])
def test_frame_triangularity(name, algebras):
    """Unit diagonal; zero above; below only chain-variable dependence."""
    alg = algebras[name]
    chart = matrix_chart(alg) if name != "sp3" else second_kind_chart(alg)
    rs = alg.rs
    rows = chart.frame_components()
    for a in chart.coord_roots:
        for g in chart.coord_roots:
            coeff = rows[a].get(g, Poly.zero(chart.nvars))
            ha, hg = rs.root(a).height, rs.root(g).height
            if a == g:
                assert coeff == Poly.const(chart.nvars, 1)
            elif ha >= hg:
                assert coeff.is_zero()
            elif not coeff.is_zero():
                assert rs.leq(a, g)
                chain_vars = _chain_variable_set(rs, a, g)
                for mono in coeff.monomials():
                    support = {chart.coord_roots[i]
                               for i, e in enumerate(mono) if e}
                    assert support <= chain_vars


def _chain_variable_set(rs, a, g):
    """Roots appearing in some chain of simple steps from a to g, where
    intermediate points are roots; collected as full-root variables that
    may enter the frame coefficient."""
    out = set()
    target = rs.root(g).coeffs

    def rec(cur_id, used):
        cur = rs.root(cur_id).coeffs
        if cur == target:
            out.update(used)
            return
        for d in rs.simple_ids():
            nxt = tuple(x + y for x, y in zip(cur, rs.root(d).coeffs))
            if any(x > t for x, t in zip(nxt, target)):
                continue
            nid = rs.id_of(nxt)
            if nid is not None:
                rec(nid, used + [d])
    rec(a, [])
    # coefficients are monomials in variables of roots <= g - a chainwise;
    # allow every root bounded by g componentwise except a itself
    return {r.id for r in rs.positive_roots if rs.leq(r.id, g)} - {a, g} | out


@pytest.mark.parametrize("name", ["sl3", "sl4", "sp2"])
def test_frame_brackets_match_structure_constants(name, algebras):
    alg = algebras[name]
    chart = matrix_chart(alg)
    rs = alg.rs
    frame = {r: chart.frame_field(r) for r in chart.coord_roots}
    for a in chart.coord_roots:
        for b in chart.coord_roots:
            br = frame[a].bracket(frame[b]).to_invariant()
            s = rs.add(a, b)
            if s is not None and s < rs.n_pos:
                expected = {s: Poly.const(chart.nvars, alg.c[(a, b)])}
            else:
                expected = {}
            assert br.components == expected


def test_complement_frame_components(sl4, chart_sl4):
    # fields labelled by the complement only use complement directions
    from mclab.hessenberg import type_p_subset
    hs = type_p_subset(sl4.rs, 2)
    rows = chart_sl4.frame_components()
    for g in hs.C:
        assert set(rows[g]) <= set(hs.C)


# ---------------------------------------------------------------------------
# H_0 and the adjoint action
# ---------------------------------------------------------------------------

def test_solve_H0_examples(sl3, sp2, sl4):
    for alg in (sl3, sp2, sl4):
        h0 = solve_H0(alg)
        for s in alg.rs.simple_ids():
            assert alg.alpha_value(s, h0) == -1
        w = alg.rs.highest_root
        assert alg.alpha_value(w.id, h0) == -w.height
    assert sl3.alpha_value(sl3.rs.highest_root.id, solve_H0(sl3)) == -2
    assert sp2.alpha_value(sp2.rs.highest_root.id, solve_H0(sp2)) == -3


@pytest.mark.parametrize("name", ["sl3", "sl4", "sp2", "sl3-ad"])
def test_decompose_basis_matrices(name, algebras):
    # the adjoint realization is the widest one (size dim, dim^2 entries
    # to choose the decomposition positions from)
    alg = algebras[name.removesuffix("-ad")]
    real = alg.ad_realization() if name.endswith("-ad") else alg.realization
    for k, unit in enumerate(frac_identity(real.dim)):
        assert real.decompose(real.entries[k]) == unit
    coeffs = [Q(k - 3, k + 1) for k in range(real.dim)]
    combo = {}
    for c, e in zip(coeffs, real.entries):
        for p, x in e.items():
            combo[p] = combo.get(p, 0) + c * x
    assert real.decompose(combo) == coeffs
    # the reader chart extraction uses, on the dense matrix of the same
    # combination: all coefficients, and any subset in the order asked
    m = dense(combo, real.size)
    assert real.read(range(real.dim), lambda i, j: m[i][j]) == coeffs
    subset = list(range(real.dim))[::-3]
    assert real.read(subset, lambda i, j: m[i][j]) == \
        [coeffs[k] for k in subset]


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sp2", "sp3",
                                  "sp4"])
def test_sparse_decompose_matches_dense(name, algebras):
    """A sparse entry map is decomposed from its nonzeros alone; the
    coefficients equal those read from the dense matrix on every basis
    bracket, in the matrix and the adjoint realization."""
    alg = algebras[name]
    for real in (alg.realization, alg.ad_realization()):
        every = range(real.dim)
        for a in real.entries:
            for b in real.entries:
                comm = _sparse_bracket(a, b)
                m = dense(comm, real.size)
                assert real.decompose(comm) == \
                    real.read(every, lambda i, j: m[i][j])


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sl6", "sp2"])
def test_matrix_chart_generic_point_is_closed_form(name, algebras):
    """The matrix-entry chart's product of root-group exponentials is the
    closed form: I + sum_r x_r E_r for sl(n), the standard presentation's
    point for sp(2)."""
    chart = matrix_chart(algebras[name])
    assert chart.generic_matrix() == closed_form_generic_point(chart)


@pytest.mark.parametrize("name", ["sl3", "sl4", "sl5", "sp2", "sp3", "sp4"])
def test_generic_point_matches_dense_exponential_product(name, algebras):
    """Every chart's sparse generic point equals the dense product of the
    dense exponentials of its root groups, term order included, and
    extraction reads the coordinates back."""
    alg = algebras[name]
    for kind in _kinds(name):
        chart = Chart(alg, kind)
        got = chart.generic_matrix()
        want = dense_generic_point(chart)
        for rg, rw in zip(got, want):
            for x, y in zip(rg, rw):
                assert list(x.terms.items()) == list(y.terms.items())
        assert chart.extract(got) == [Poly.var(chart.nvars, k)
                                      for k in range(chart.nvars)]


@pytest.mark.parametrize("name", ["sl3", "sl4", "sp2", "sp3"])
def test_generic_inverse_matches_neumann_series(name, algebras):
    """The conjugation oracle's inverse of the generic point, the reversed
    dense product of the groups' exp(-N), equals the finite Neumann series
    on the chart's generic point, for every chart kind."""
    alg = algebras[name]
    for kind in _kinds(name):
        chart = Chart(alg, kind)
        ident = chart._poly_identity(chart.nvars)
        assert dense_generic_point(chart, inverse=True) == \
            unipotent_inverse(chart.generic_matrix(), ident)


def _assert_adjoint_matches_matrix_oracle(name, algebras, slices):
    """``adjoint_of_point`` against the conjugation oracle, Poly for Poly
    with canonical coefficients, for every basis element and chart kind,
    the first kind over the adjoint realization included, on the full
    group and on each of ``slices``."""
    alg = algebras[name]
    charts = [Chart(alg, kind) for kind in _kinds(name)]
    charts.append(first_kind_chart(alg, alg.ad_realization()))
    for chart in charts:
        for slice_roots in (None, *slices):
            for e in chart.realization.entries:
                got = adjoint_of_point(chart, e, slice_roots=slice_roots)
                assert got == matrix_adjoint_of_point(
                    chart, e, slice_roots=slice_roots)
                assert all(type(c) is int or c.denominator > 1
                           for p in got for c in p.terms.values())


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sp2", "sp3"])
def test_adjoint_matches_matrix_oracle(name, algebras):
    """On the full group of sl2-sl5 and sp2-sp3, and on every Hessenberg
    set of A1-A3 and C2-C3."""
    alg = algebras[name]
    slices = ([] if name == "sl5"
              else [hs.R for hs in enumerate_all(alg.rs)])
    _assert_adjoint_matches_matrix_oracle(name, algebras, slices)


@pytest.mark.skipif(not os.environ.get("MCLAB_LARGE_ORACLES"),
                    reason="a few seconds; set MCLAB_LARGE_ORACLES=1")
def test_adjoint_matches_matrix_oracle_sl6_sp4(algebras):
    """On the full group of sl6 and sp4."""
    for name in ("sl6", "sp4"):
        _assert_adjoint_matches_matrix_oracle(name, algebras, [])


def test_adjoint_dual_path_random_points(sl4, chart_sl4):
    """The generic coefficients evaluated at a point equal the series
    oracle computed at that point."""
    pts = [[Q(1), Q(0), Q(-2), Q(1, 3), Q(2), Q(-1)],
           [Q(0), Q(1, 2), Q(1), Q(0), Q(-1, 5), Q(4)]]
    for k in range(sl4.dim):
        elem = sl4.realization.entries[k]
        coeffs = sl4.realization.decompose(elem)
        generic = adjoint_of_point(chart_sl4, elem)
        for pt in pts:
            a = [c.eval(pt) for c in generic]
            b = adjoint_series_of_point(chart_sl4, pt, coeffs)
            assert a == b


def test_adjoint_dual_path_generic(sp2, chart_sp2):
    for k in range(sp2.dim):
        elem = sp2.realization.entries[k]
        coeffs = sp2.realization.decompose(elem)
        a = adjoint_of_point(chart_sp2, elem)
        b = adjoint_series_of_point(chart_sp2, None, coeffs)
        assert all((x - y).is_zero() for x, y in zip(a, b))


def test_adjoint_fixes_center_of_n(sl4, chart_sl4):
    w = sl4.rs.highest_root.id
    elem = sl4.realization.entries[sl4.full_index(w)]
    coeffs = adjoint_of_point(chart_sl4, elem)
    for k, c in enumerate(coeffs):
        if k == sl4.full_index(w):
            assert c == Poly.const(chart_sl4.nvars, 1)
        else:
            assert c.is_zero()
