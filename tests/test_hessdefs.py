from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mclab.hessdefs import (HessDefError, defining_equations, graph_map,
                            pushforward_frame, smoothness_certificate)
from mclab.hessenberg import enumerate_all, type_p_subset, validate
from mclab.liealg import build_sl, build_sp, default_chart, matrix_chart
from mclab.poly import Poly

from oracles import dense_point, mat_prod, unipotent_inverse

H_SL4 = [Q(-1), Q(-1, 2), Q(-1)]     # diag(-1, 1/2, -1/2, 1)


def literal_conjugation_entry(chart, h_diag, i, j):
    """Independent oracle: the (i, j) entry of n^{-1} H n computed from
    the dense generic point by direct multiplication."""
    size = chart.realization.size
    gen = dense_point(chart.generic_point(), size, chart.nvars)
    n_inv = unipotent_inverse(gen, dense_point({}, size, chart.nvars))
    hmat = [[Poly.const(chart.nvars, h_diag[r] if r == c else 0)
             for c in range(len(h_diag))] for r in range(len(h_diag))]
    conj = mat_prod(mat_prod(n_inv, hmat), gen)
    return conj[i][j]


def test_sl4_equation_matches_matrix_oracle(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    eqs = defining_equations(sl4, chart_sl4, hs, H_SL4)
    w = sl4.rs.highest_root.id
    oracle = literal_conjugation_entry(
        chart_sl4, [Q(-1), Q(1, 2), Q(-1, 2), Q(1)], 0, 3)
    assert eqs.polynomials[w] == oracle
    names = chart_sl4.var_names
    assert eqs.polynomials[w].render(names) == \
        "-3/2*x*y*t + 1/2*x*v + 3/2*t*u - 2*z"


def test_entries_oracle_up_to_rank_five(sl5):
    """For matrix charts the defining polynomials are the literal
    above-diagonal entries of the conjugated element selected by the
    complement."""
    chart = matrix_chart(sl5)
    rs = sl5.rs
    hs = type_p_subset(rs, 2)
    h = [Q(1), Q(3), Q(6), Q(10)]      # diag(1,2,3,4,-10): regular
    assert all(sl5.alpha_value(r, h) != 0 for r in range(rs.n_pos))
    eqs = defining_equations(sl5, chart, hs, h)
    diag = [Q(1), Q(2), Q(3), Q(4), Q(-10)]
    for a, p in eqs.polynomials.items():
        coeffs = rs.root(a).coeffs
        i = next(k for k, c in enumerate(coeffs) if c)
        j = max(k for k, c in enumerate(coeffs) if c) + 1
        assert p == literal_conjugation_entry(chart, diag, i, j)


def test_sl3_symbolic_entry(sl3, chart_sl3):
    """Corner equation with symbolic eigenvalues:
    (l1 - l3) x13 - (l2 - l3) x12 x23, leading sign pinned by the
    conjugation oracle."""
    hs = validate(sl3.rs, {0, 1})
    eqs = defining_equations(sl3, chart_sl3, hs, None)
    w = sl3.rs.highest_root.id
    nv = eqs.nvars
    x, y, u = (Poly.var(nv, i) for i in range(3))
    # Cartan coordinates are over H_i = E_ii - E_{i+1,i+1}; in terms of
    # eigenvalues l_i: c1 = l1, c2 = -l3, so l1 - l3 = c1 + c2 and
    # l2 - l3 = -c1 + 2 c2 - trace-free relation folded in
    c1, c2 = Poly.var(nv, 3), Poly.var(nv, 4)
    l1, l2, l3 = c1, c2 - c1, -c2
    expected = (l1 - l3) * u - (l2 - l3) * x * y
    assert eqs.polynomials[w] == expected


def test_shape_and_triangularity_random_sets(sl4, chart_sl4):
    rs = sl4.rs
    for hs in enumerate_all(rs):
        if not hs.C:
            continue
        eqs = defining_equations(sl4, chart_sl4, hs, H_SL4)
        for a, p in eqs.polynomials.items():
            lead = p.coeff(tuple(1 if k == a else 0
                                 for k in range(chart_sl4.nvars)))
            assert lead == sl4.alpha_value(a, H_SL4)
            ha = rs.root(a).height
            for mono in p.monomials():
                for k, e in enumerate(mono):
                    if e and k != a:
                        assert rs.root(k).height < ha
        cert = smoothness_certificate(eqs)
        assert cert.triangular and cert.identity_holds
        assert cert.jacobian_rank == len(hs.C)
        assert cert.dimension == len(hs.R)


def test_empty_complement_is_trivial(sl3, chart_sl3):
    hs = validate(sl3.rs, set(range(sl3.rs.n_pos)))
    eqs = defining_equations(sl3, chart_sl3, hs, [Q(1), Q(1)])
    assert eqs.polynomials == {}
    cert = smoothness_certificate(eqs)
    assert cert.determinant == Poly.const(chart_sl3.nvars, 1)
    assert cert.identity_holds and cert.dimension == sl3.rs.n_pos


def test_regularity_is_checked(sl3, chart_sl3):
    hs = validate(sl3.rs, {0, 1})
    with pytest.raises(HessDefError) as err:
        defining_equations(sl3, chart_sl3, hs, [Q(1), Q(-1)])
    assert "11" in str(err.value)


def test_symbolic_determinant_identity_exhaustive():
    """det of the complement block equals the product of the complement
    root values, as a polynomial identity, for every Hessenberg subset
    in ranks up to four (A family) and three (C family)."""
    cases = [build_sl(2), build_sl(3), build_sl(4), build_sl(5),
             build_sp(2), build_sp(3)]
    for alg in cases:
        chart = matrix_chart(alg) if not (alg.family == "sp"
                                          and alg.param == 3) else None
        if chart is None:
            from mclab.liealg import second_kind_chart
            chart = second_kind_chart(alg)
        cache = {}
        for hs in enumerate_all(alg.rs, max_rank=4):
            eqs = defining_equations(alg, chart, hs, None)
            cert = smoothness_certificate(eqs)
            assert cert.triangular
            assert cert.identity_holds


@pytest.mark.parametrize("rank,h_coeffs,sets", [
    (3, (1, 2, 4), "all"), (4, (1, 2, 4, 8), "type-p")])
def test_second_kind_chart_certificates_sp(rank, h_coeffs, sets):
    """On the default (second-kind) chart of sp(3) and sp(4), the symbolic
    and the numeric certificate are triangular with det = prod alpha(H),
    and the graph map annihilates the equations: every Hessenberg set of
    C3, every type-p set of C4."""
    alg = build_sp(rank)
    chart = default_chart(alg)
    assert chart.kind == "second_kind"
    h = alg.rs.highest_root.height
    subsets = (enumerate_all(alg.rs) if sets == "all"
               else [type_p_subset(alg.rs, p) for p in range(1, h + 1)])
    for hs in subsets:
        for coeffs in (None, h_coeffs):
            eqs = defining_equations(alg, chart, hs, coeffs)
            cert = smoothness_certificate(eqs)
            assert cert.triangular and cert.identity_holds
            assert cert.jacobian_rank == len(hs.C)
        graph = graph_map(eqs)
        for p in eqs.polynomials.values():
            assert p.subs(graph).is_zero()


def test_graph_map_example(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    eqs = defining_equations(sl4, chart_sl4, hs, H_SL4)
    graph = graph_map(eqs)
    w = sl4.rs.highest_root.id
    assert graph[w].render(chart_sl4.var_names) == \
        "-3/4*x*y*t + 1/4*x*v + 3/4*t*u"
    # substitution into the defining polynomial gives zero (checked inside
    # graph_map as well)
    sub = {w: graph[w]}
    assert eqs.polynomials[w].subs(sub).is_zero()
    with pytest.raises(HessDefError):
        graph_map(defining_equations(sl4, chart_sl4, hs, None))


def test_graph_denominators_divide_root_values(sl4, chart_sl4):
    """Solving the triangular system divides only by the values alpha(H)
    of the complement roots C, each once per elimination step, so with
    D = prod_{a in C} alpha_a(H) every graph-map coefficient c has
    c * D^|C| integral at a regular integral H."""
    for h in [(2, -7, 3), (5, 1, -4)]:
        assert all(sl4.alpha_value(r, h) for r in range(sl4.rs.n_pos))
        for p in (1, 2):
            eqs = defining_equations(sl4, chart_sl4,
                                     type_p_subset(sl4.rs, p), h)
            graph = graph_map(eqs)
            denom = 1
            for a in eqs.order:
                denom *= sl4.alpha_value(a, h)
            power = denom ** len(eqs.order)
            coeffs = [c for q in graph.values() for c in q.terms.values()]
            assert coeffs
            for c in coeffs:
                assert (c * power).denominator == 1, (h, p, c, denom)


def test_pushforward_chain_rule(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    eqs = defining_equations(sl4, chart_sl4, hs, H_SL4)
    graph = graph_map(eqs)
    fields = pushforward_frame(eqs)
    w = sl4.rs.highest_root.id
    for r, f in fields.items():
        base = chart_sl4.frame_field(r, slice_roots=hs.R)
        assert f.component(w) == base.apply(graph[w])
        for g in hs.R:
            assert f.component(g) == base.component(g)
    # the first slice direction gains the expected corner coefficient
    x_first = fields[sl4.rs.id_of((1, 0, 0))]
    assert x_first.component(w).render(chart_sl4.var_names) == \
        "-3/4*y*t + 1/4*v"


def test_graph_points_lie_on_the_manifold(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    eqs = defining_equations(sl4, chart_sl4, hs, H_SL4)
    graph = graph_map(eqs)
    import random
    rng = random.Random(3)
    for _ in range(10):
        pt = [Q(0)] * chart_sl4.nvars
        for r in hs.R:
            pt[r] = Q(rng.randint(-5, 5), rng.randint(1, 4))
        for a, g in graph.items():
            pt[a] = g.eval(pt)
        for a, p in eqs.polynomials.items():
            assert p.eval(pt) == 0

