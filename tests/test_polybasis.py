from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q

import pytest

from mclab import polybasis
from mclab.liealg import build_sl, three_factor_chart
from mclab.mcfields import homogeneous_degree
from mclab.poly import Poly
from mclab.polybasis import (PolyBasisError, build_basis, chart_transport,
                             gen_cartan, gen_neg_omega, gen_neg_sigma_half,
                             gen_sigma0, gen_sigma_half, half_pairs,
                             oracle_omega_component, solve_H_of_gamma,
                             verify_against_oracle)

from oracles import extend_H_by_chain


@pytest.fixture(scope="module")
def tf3(sl3):
    return three_factor_chart(sl3)


@pytest.fixture(scope="module")
def tf4(sl4):
    return three_factor_chart(sl4)


@pytest.fixture(scope="module")
def tfC(sp2):
    return three_factor_chart(sp2)


def test_sigma_half_examples(sl3, tf3, sp2, tfC):
    rs = sl3.rs
    w = rs.highest_root.id
    d1 = rs.id_of((1, 0))
    p = gen_sigma_half(sl3, tf3, d1)
    comp = rs.add(w, rs.neg(d1))
    assert p == Poly.var(tf3.nvars, comp,
                         sl3.c[(d1, comp)])
    assert len(p.terms) == 1 and all(sum(m) == 1 for m in p.monomials())

    # the C-family slice label: a + b pairs with a
    rsC = sp2.rs
    ab = rsC.id_of((1, 1))
    q = gen_sigma0  # noqa: F841  (imported for the error test below)
    pC = gen_sigma_half(sp2, tfC, ab)
    assert pC == oracle_omega_component(
        sp2, tfC, sp2.realization.entries[sp2.full_index(ab)])

    with pytest.raises(PolyBasisError):
        gen_sigma_half(sl3, tf3, w)


def test_cartan_examples(sl3, tf3):
    rs = sl3.rs
    w = rs.highest_root.id
    # an element with omega(H) = 1 and symmetric pair values gives exactly z
    # plus a quadratic correction
    gram = [[sl3.alpha_value(w, [Q(1), Q(0)]), sl3.alpha_value(w, [Q(0), Q(1)])]]
    # choose H with omega(H) = 1, delta_1(H) = delta_2(H) = 1/2
    from mclab import linalg
    rows = [list(sl3.functional[w])]
    rhs = [Q(1)]
    d1, d2 = rs.simple_ids()
    rows.append(list(sl3.functional[d1]))
    rhs.append(Q(1, 2))
    h = linalg.solve(rows, rhs)
    p = gen_cartan(sl3, tf3, h)
    assert p.coeff(tuple(1 if i == w else 0 for i in range(tf3.nvars))) == 1
    quad = p - Poly.var(tf3.nvars, w)
    assert quad.is_zero() or \
        all(sum(m) == 2 for m in quad.monomials())

    # omega(H) = 0 makes the polynomial purely quadratic
    h0 = linalg.solve([list(sl3.functional[w]), list(sl3.functional[d1])],
                      [Q(0), Q(1)])
    p0 = gen_cartan(sl3, tf3, h0)
    assert all(sum(m) == 2 for m in p0.monomials())
    assert p0.coeff(tuple(1 if i == w else 0 for i in range(tf3.nvars))) == 0


def test_cartan_table_in_entries_chart(sl3, tf3, chart_sl3):
    """The two Cartan rows of the rank-two table, moved to the entries
    chart, are u + xy and u - 2xy (stated up to labeling of the two
    simple roots)."""
    got = set()
    for i in range(2):
        coeffs = [Q(1) if j == i else Q(0) for j in range(2)]
        p = gen_cartan(sl3, tf3, coeffs)
        moved = chart_transport(p, tf3, chart_sl3)
        got.add(moved.render(chart_sl3.var_names))
    assert got == {"x*y + u", "-2*x*y + u"}


def test_sigma0_examples(sl4, tf4):
    rs = sl4.rs
    d2 = rs.id_of((0, 1, 0))
    for nu_id in (d2, rs.neg(d2)):
        p = gen_sigma0(sl4, tf4, nu_id)
        elem = sl4.realization.entries[sl4.full_index(nu_id)]
        assert p == oracle_omega_component(sl4, tf4, elem)
    with pytest.raises(PolyBasisError):
        gen_sigma0(sl4, tf4, rs.id_of((1, 0, 0)))


def test_sigma0_vanishes_on_the_half_locus(sl4, tf4):
    """Factorization: the quadratic combinations lie in the ideal spanned
    by the linear generators, hence vanish wherever those do."""
    rs = sl4.rs
    od = rs.omega_decompose()
    d2 = rs.id_of((0, 1, 0))
    p = gen_sigma0(sl4, tf4, d2)
    half_vars = {a: Q(0) for a in od.sigma_half}
    assert p.subs(half_vars).is_zero()
    m = gen_neg_sigma_half(sl4, tf4, rs.id_of((1, 0, 0)))
    assert m.subs(half_vars).is_zero()


def test_solve_H_examples(sl3, sl4, sp2):
    for alg in (sl3, sl4, sp2):
        rs = alg.rs
        od = rs.omega_decompose()
        w = rs.highest_root.id
        for gamma, _ in half_pairs(alg):
            h = solve_H_of_gamma(alg, gamma)
            hg = alg.h_representing(gamma, "normalization")
            assert alg.alpha_value(w, h) == -alg.alpha_value(w, hg)
            for a in od.sigma_half:
                lhs = 3 * alg.alpha_value(a, h) - alg.alpha_value(w, h)
                assert lhs == -alg.alpha_value(a, hg)


def test_altrigamma_extension(sl4):
    rs = sl4.rs
    g1 = rs.id_of((1, 0, 0))
    gp = rs.id_of((1, 1, 0))
    d2 = rs.id_of((0, 1, 0))
    assert solve_H_of_gamma(sl4, gp) == extend_H_by_chain(sl4, g1, [d2])
    g3 = rs.id_of((0, 0, 1))
    gq = rs.id_of((0, 1, 1))
    assert solve_H_of_gamma(sl4, gq) == extend_H_by_chain(sl4, g3, [d2])


def test_neg_generators_match_oracle(sl3, tf3, sl4, tf4, sp2, tfC):
    for alg, chart in ((sl3, tf3), (sl4, tf4), (sp2, tfC)):
        rs = alg.rs
        od = rs.omega_decompose()

        def x_neg(r):
            return alg.realization.entries[alg.full_index(rs.neg(r))]

        for g in sorted(od.sigma_half):
            p = gen_neg_sigma_half(alg, chart, g)
            assert p == oracle_omega_component(alg, chart, x_neg(g))
        pw = gen_neg_omega(alg, chart)
        w = rs.highest_root.id
        assert pw == oracle_omega_component(alg, chart, x_neg(w))


def test_full_tables_match_oracle(sl3, sl4, sp2):
    for alg in (sl3, sl4, sp2):
        basis = build_basis(alg)
        assert all(verify_against_oracle(basis).values())


def test_verify_reports_a_corrupted_closed_form(sl3, sl4, sp2):
    """The oracle check is a real comparison: with one coefficient of one
    closed form changed, that label, and only that one, reads False."""
    for alg in (sl3, sl4, sp2):
        basis = build_basis(alg)
        good = dict(basis.table)
        for label, p in good.items():
            terms = dict(p.terms)
            m = next(iter(terms))
            terms[m] += 1
            basis.table = {**good, label: Poly(p.nvars, terms)}
            assert verify_against_oracle(basis) == \
                {k: k != label for k in good}


def test_build_basis_makes_each_generator_once(sl5, monkeypatch):
    """The lowest-root entry reuses the table's Sigma_1/2 generators: one
    gen_neg_sigma_half and one solve_H_of_gamma call per root of
    Sigma_1/2, and the entry equals gen_neg_omega term for term."""
    calls = Counter()
    for name in ("gen_neg_sigma_half", "solve_H_of_gamma"):
        def counted(*args, _fn=getattr(polybasis, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(polybasis, name, counted)
    basis = build_basis(sl5)
    assert len(sl5.rs.omega_decompose().sigma_half) == 6
    assert calls == {"gen_neg_sigma_half": 6, "solve_H_of_gamma": 6}
    monkeypatch.undo()
    rs = sl5.rs
    got = basis.table[rs.root_name(rs.neg(rs.highest_root.id))]
    want = gen_neg_omega(sl5, basis.chart)
    assert list(got.terms.items()) == list(want.terms.items())


def test_build_basis_makes_each_cheap_generator_once(monkeypatch):
    """One build_basis on A4 finds the Sigma_1/2 pairing once and each
    gen_sigma_half and gen_sigma0 label once: 1, 6 and 6 calls.  The
    pairing is kept on the algebra, so the algebra is a fresh one."""
    sl5 = build_sl(5)
    calls = Counter()
    for name in ("gen_sigma_half", "half_pairs", "gen_sigma0"):
        def counted(*args, _fn=getattr(polybasis, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(polybasis, name, counted)
    build_basis(sl5)
    od = sl5.rs.omega_decompose()
    assert (len(od.sigma_half), len(od.sigma0)) == (6, 3)
    assert calls == {"half_pairs": 1, "gen_sigma_half": 6, "gen_sigma0": 6}


def test_grading_of_generators(sl4):
    basis = build_basis(sl4)
    chart = basis.chart
    rs = sl4.rs
    h = rs.highest_root.height
    for label, p in basis.table.items():
        d = homogeneous_degree(p, chart)
        if label.startswith("H"):
            assert d == h
        else:
            neg = label.startswith("-")
            coeffs = tuple(int(c) for c in label.lstrip("-"))
            ht = sum(coeffs) * (-1 if neg else 1)
            assert d == h - ht
    pw = basis.table["-" + rs.root_name(rs.highest_root.id)]
    assert homogeneous_degree(pw, chart) == 2 * h


def test_normalization_required(sp3):
    with pytest.raises(PolyBasisError):
        build_basis(sp3)


def test_basis_json(sl3):
    basis = build_basis(sl3)
    doc = basis.to_json_dict()
    assert doc["table"]["11"] == "1"
    assert basis.to_json() == build_basis(sl3).to_json()


def test_chart_transport_round_trip(sl3, tf3, chart_sl3):
    p = gen_neg_omega(sl3, tf3)
    moved = chart_transport(p, tf3, chart_sl3)
    back = chart_transport(moved, chart_sl3, tf3)
    assert back == p
