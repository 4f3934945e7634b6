"""Acceptance gate: every headline value, exact, one summary line each.

All comparisons run in exact rational arithmetic with zero tolerance.
Reference tables for the A-family are stated in the flipped labeling
convention (see conftest); aligned comparisons apply the flip before
asserting exact equality.  One reference value (criterion 6's displayed
corner polynomial) is inconsistent with its own matrix oracle and is
kept as a strict expected failure; the oracle half of that criterion
passes.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction as Q

import pytest
from conftest import (cartan_element, dense, flip_component_table,
                      flip_poly, mat_add, mat_eq, mat_sub, record_acceptance,
                      sparse)
from oracles import dense_point, full_tau_basis, mat_prod, unipotent_inverse

from mclab import linalg
from mclab.fields import PolyVectorField
from mclab.hessdefs import defining_equations, graph_map, smoothness_certificate
from mclab.hessenberg import analyze, check_norma, enumerate_all, \
    type_p_subset, validate
from mclab.liealg import build_sl, build_sp, matrix_chart, second_kind_chart
from mclab.mcfields import (compare_with_normalizer, homogeneous_parts,
                            normalizer_basis_indices,
                            reduce_by_dark_zones, solve_mc, tau, tau_basis)
from mclab.poly import Poly
from mclab.polybasis import build_basis, verify_against_oracle


def criterion(tag, message):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(tag, "FAIL " + message)
                raise
            record_acceptance(tag, "PASS " + message)
        return run
    return wrap


def poly_from(chart, text_terms):
    """Build a polynomial from {(var_name, ...): coeff} exponent specs."""
    total = Poly.zero(chart.nvars)
    for names, c in text_terms.items():
        mono = [0] * chart.nvars
        for nm in names:
            mono[chart.var_names.index(nm)] += 1
        total = total + Poly(chart.nvars, {tuple(mono): Q(c)})
    return total


def span_equal(polys_a, polys_b):
    monos = sorted({m for p in polys_a + polys_b for m in p.monomials()})

    def vecs(ps):
        return [[p.coeff(m) for m in monos] for p in ps]
    va, vb = vecs(polys_a), vecs(polys_b)
    return linalg.rank(va) == linalg.rank(vb) == linalg.rank(va + vb)


def proportional(p, q):
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    monos = sorted(p.monomials())
    if sorted(q.monomials()) != monos:
        return False
    ratio = p.coeff(monos[0]) / q.coeff(monos[0])
    return all(p.coeff(m) == ratio * q.coeff(m) for m in monos)


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

@criterion("criterion 1", "rank-2 full slice: dimension 8, top span matches")
def test_criterion_1(sl3, chart_sl3):
    hs = validate(sl3.rs, set(range(sl3.rs.n_pos)))
    sol = solve_mc(hs, chart_sl3)
    assert sol.dimension == 8
    w = sl3.rs.highest_root.id
    reference = [
        poly_from(chart_sl3, {(): 1}),
        poly_from(chart_sl3, {("x",): 1}),
        poly_from(chart_sl3, {("y",): 1}),
        poly_from(chart_sl3, {("u",): 1}),
        poly_from(chart_sl3, {("x", "y"): 1}),
        poly_from(chart_sl3, {("x", "u"): 1, ("x", "x", "y"): -1}),
        poly_from(chart_sl3, {("u", "y"): 1}),
        poly_from(chart_sl3, {("u", "u"): 1, ("u", "x", "y"): -1}),
    ]
    aligned = [flip_poly(chart_sl3, f.component(w)) for f in sol.basis]
    assert span_equal(aligned, reference)
    assert len(reference) == 8


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

@criterion("criterion 2", "rank-2 correspondence table, one scalar per entry")
def test_criterion_2(sl3, chart_sl3):
    rs = sl3.rs
    w = rs.highest_root.id
    d1, d2 = rs.simple_ids()

    def theta(m):
        return {(j, i): -x for (i, j), x in m.items()}

    def root(r):
        return sl3.realization.entries[sl3.full_index(r)]

    table = {
        "U": (root(w), {(): 1}),
        "Y": (root(d2), {("x",): 1}),
        "X": (root(d1), {("y",): 1}),
        "H_a": (cartan_element(sl3, sl3.h_representing(d1, "normalization")),
                {("u",): 1, ("x", "y"): -2}),
        "H_b": (cartan_element(sl3, sl3.h_representing(d2, "normalization")),
                {("u",): 1, ("x", "y"): 1}),
        "theta_U": (theta(root(w)),
                    {("u", "u"): 1, ("u", "x", "y"): -1}),
        "theta_Y": (theta(root(d2)), {("y", "u"): 1}),
        "theta_X": (theta(root(d1)),
                    {("x", "u"): 1, ("x", "x", "y"): -1}),
    }

    def flip_element(m):
        # the table is stated in the flipped labeling: swap the two simple
        # directions (transpose through the antidiagonal, J m^T J)
        n = sl3.realization.size
        return {(n - 1 - j, n - 1 - i): x for (i, j), x in m.items()}

    for label, (elem, ref_terms) in table.items():
        ref = poly_from(chart_sl3, ref_terms)
        comp = tau(sl3, chart_sl3, flip_element(elem)).component(w)
        assert proportional(flip_poly(chart_sl3, comp), ref), label


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------

@criterion("criterion 3",
           "rank-3 type-2 slice: dimension 9, model systems and families")
def test_criterion_3(sl4, chart_sl4):
    rs = sl4.rs
    hs = type_p_subset(rs, 2)
    sol = solve_mc(hs, chart_sl4)
    assert sol.dimension == 9 and sol.stabilized

    frame = {r: chart_sl4.frame_field(r, hs.R) for r in sorted(hs.R)}
    d1, d2, d3 = (rs.id_of(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    u_root, v_root = rs.id_of((1, 1, 0)), rs.id_of((0, 1, 1))
    c_u, c_v = sl4.c[(d1, d2)], sl4.c[(d3, d2)]
    for f in sol.basis:
        fu, fv = f.component(u_root), f.component(v_root)
        # first embedded model (acting on the first maximal component)
        assert frame[d1].apply(frame[d1].apply(fu)).is_zero()
        assert frame[d2].apply(frame[d2].apply(fu)).is_zero()
        assert frame[d3].apply(fu).is_zero()
        assert frame[d3].apply(frame[d2].apply(fu)).is_zero()
        # second embedded model
        assert frame[d2].apply(frame[d2].apply(fv)).is_zero()
        assert frame[d3].apply(frame[d3].apply(fv)).is_zero()
        assert frame[d1].apply(fv).is_zero()
        assert frame[d1].apply(frame[d2].apply(fv)).is_zero()
        # cross-condition
        assert frame[d1].apply(fu) * c_v == frame[d3].apply(fv) * c_u

    # reference six- and three-parameter families with shared constants
    # (flipped convention): align and compare the joint span exactly
    aligned_pairs = []
    for f in sol.basis:
        comps = flip_component_table(chart_sl4, dict(f.components))
        aligned_pairs.append((
            comps.get(u_root, Poly.zero(chart_sl4.nvars)),
            comps.get(v_root, Poly.zero(chart_sl4.nvars))))

    zeroP = Poly.zero(chart_sl4.nvars)

    def fam(a0=0, a2=0, a4=0, b0=0, b1=0, b2=0, b3=0, b4=0, b5=0):
        fv = (poly_from(chart_sl4, {(): b0}) +
              poly_from(chart_sl4, {("y",): b1}) +
              poly_from(chart_sl4, {("t",): b2}) +
              poly_from(chart_sl4, {("v",): b3}) +
              poly_from(chart_sl4, {("y", "t"): b4}) +
              poly_from(chart_sl4, {("y", "v"): b5, ("y", "y", "t"): -b5}))
        fu = (poly_from(chart_sl4, {(): a0}) +
              poly_from(chart_sl4, {("x",): -b2}) +
              poly_from(chart_sl4, {("y",): a2}) +
              poly_from(chart_sl4, {("u",): -(a4 + b4)}) +
              poly_from(chart_sl4, {("x", "y"): a4}) +
              poly_from(chart_sl4, {("u", "y"): b5}))
        return fu, fv

    params = ["a0", "a2", "a4", "b0", "b1", "b2", "b3", "b4", "b5"]
    family = [fam(**{p: 1}) for p in params]

    monos = sorted({m for pair in aligned_pairs + family
                    for p in pair for m in p.monomials()})

    def vec(pair):
        return [pair[0].coeff(m) for m in monos] + \
               [pair[1].coeff(m) for m in monos]

    va = [vec(p) for p in aligned_pairs]
    vb = [vec(p) for p in family]
    assert linalg.rank(va) == linalg.rank(vb) == linalg.rank(va + vb) == 9


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

@criterion("criterion 4", "rank-3 normalizer: 10 / 9, support, equality")
def test_criterion_4(sl4, chart_sl4):
    rs = sl4.rs
    hs = type_p_subset(rs, 2)
    rep = analyze(hs)
    assert rep.dims["dim_q"] == 10
    assert rep.dims["dim_q_mod_nC"] == 9
    assert rep.normalizer_support == {rs.neg(rs.id_of((0, 1, 0)))}
    sol = solve_mc(hs, chart_sl4)
    cmp4 = compare_with_normalizer(hs, chart_sl4, sol, rep)
    assert cmp4.equal and cmp4.nu_contained
    assert cmp4.nu_dimension == cmp4.solver_dimension == 9


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

@criterion("criterion 5",
           "rank-2 C slice: 8 vs 6, support {-b}, image table, conjecture 8")
def test_criterion_5(sp2, chart_sp2):
    rs = sp2.rs
    hs = validate(rs, {0, 1, 2})
    rep = analyze(hs)
    assert rep.dims["dim_q_mod_nC"] == 6
    assert rep.normalizer_support == {rs.neg(1)}
    assert rep.dims["dim_conjecture"] == 8

    sol = solve_mc(hs, chart_sp2)
    assert sol.dimension == 8
    cmp5 = compare_with_normalizer(hs, chart_sp2, sol, rep)
    assert not cmp5.equal and cmp5.nu_dimension == 6
    assert cmp5.nu_contained and cmp5.conjecture_matches

    # reproduce the full-group top-component table and push it through the
    # derivation map D: v -> (d/du v) restricted to 2z = uy
    names = chart_sp2.var_names
    w = rs.highest_root.id
    u_i, x_i, y_i, z_i = (names.index(k) for k in ("u", "x", "y", "z"))

    def D(p):
        return p.diff(u_i).subs({z_i: Poly(chart_sp2.nvars,
                                           {_mono(chart_sp2, u=1, y=1): Q(1, 2)})})

    taus = full_tau_basis(sp2, chart_sp2)
    reference = {
        sp2.full_index(w): {(): 1},
        sp2.full_index(2): {("u",): 1},
        sp2.full_index(1): {("u", "u"): Q(1, 2)},
        sp2.full_index(0): {("y",): 1, ("u", "x"): -1},
        sp2.full_index(rs.neg(0)): {("u", "u", "y"): 1, ("u", "z"): -2},
        sp2.full_index(rs.neg(1)): {("y", "y"): Q(1, 2), ("u", "x", "y"): -1,
                                    ("u", "u", "x", "x"): Q(1, 2)},
        sp2.full_index(rs.neg(2)): {("y", "u", "y"): 1, ("y", "z"): -2,
                                    ("u", "x", "u", "y"): -1,
                                    ("u", "x", "z"): 2},
        sp2.full_index(rs.neg(w)): {("u", "y", "u", "y"): 1,
                                    ("u", "y", "z"): -4, ("z", "z"): 4},
    }
    d_images = {
        sp2.full_index(w): Poly.zero(chart_sp2.nvars),
        sp2.full_index(2): poly_from(chart_sp2, {(): 1}),
        sp2.full_index(1): poly_from(chart_sp2, {("u",): 1}),
        sp2.full_index(0): poly_from(chart_sp2, {("x",): -1}),
        sp2.full_index(rs.neg(0)): poly_from(chart_sp2, {("u", "y"): 1}),
        sp2.full_index(rs.neg(1)): poly_from(
            chart_sp2, {("x", "y"): -1, ("u", "x", "x"): 1}),
        sp2.full_index(rs.neg(2)): poly_from(
            chart_sp2, {("y", "y"): 1, ("u", "x", "y"): -1}),
        sp2.full_index(rs.neg(w)): Poly.zero(chart_sp2.nvars),
    }
    for k, ref_terms in reference.items():
        vz = taus[k].component(w) * Q(-1)     # exp(+t) convention table
        ref = poly_from(chart_sp2, ref_terms)
        assert proportional(vz, ref), k
        img = D(vz)
        ref_img = d_images[k]
        assert proportional(img, ref_img) or (img.is_zero()
                                              and ref_img.is_zero()), k

    # Cartan rows: the two-dimensional family {uy - 2z, u(y - ux)}
    h_fields = [taus[i].component(w) * Q(-1) for i in range(sp2.rank)]
    ref_h = [poly_from(chart_sp2, {("u", "y"): 1, ("z",): -2}),
             poly_from(chart_sp2, {("u", "y"): 1, ("u", "u", "x"): -1})]
    assert span_equal(h_fields, ref_h)
    d_h = [D(p) for p in h_fields]
    ref_dh = [poly_from(chart_sp2, {("y",): 1}),
              poly_from(chart_sp2, {("y",): 1, ("u", "x"): -2})]
    assert span_equal(d_h, ref_dh)

    # the nonzero D-images span the solver's top components exactly
    top = [f.component(2) for f in sol.basis]
    images = [p for p in list(d_images.values()) + d_h if not p.is_zero()]
    assert span_equal(top, images)


def _mono(chart, **kw):
    mono = [0] * chart.nvars
    for k, e in kw.items():
        mono[chart.var_names.index(k)] += e
    return tuple(mono)


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

H6 = [Q(-1), Q(-1, 2), Q(-1)]          # diag(-1, 1/2, -1/2, 1)


@criterion("criterion 6",
           "defining equation and graph verified against the matrix oracle")
def test_criterion_6_oracle(sl4, chart_sl4):
    rs = sl4.rs
    hs = type_p_subset(rs, 2)
    eqs = defining_equations(sl4, chart_sl4, hs, H6)
    w = rs.highest_root.id
    # literal matrix oracle: conjugate the diagonal element by the generic
    # point and read the corner entry
    gen = dense_point(chart_sl4.generic_point(), 4, chart_sl4.nvars)
    n_inv = unipotent_inverse(gen, dense_point({}, 4, chart_sl4.nvars))
    hmat = [[Poly.const(chart_sl4.nvars,
                        [Q(-1), Q(1, 2), Q(-1, 2), Q(1)][r] if r == c else 0)
             for c in range(4)] for r in range(4)]
    conj = mat_prod(mat_prod(n_inv, hmat), gen)
    assert eqs.polynomials[w] == conj[0][3]
    names = chart_sl4.var_names
    assert eqs.polynomials[w].render(names) == \
        "-3/2*x*y*t + 1/2*x*v + 3/2*t*u - 2*z"
    graph = graph_map(eqs)
    assert graph[w].render(names) == "-3/4*x*y*t + 1/4*x*v + 3/4*t*u"
    sub = {w: graph[w]}
    assert conj[0][3].subs(sub).is_zero()


@pytest.mark.xfail(
    strict=True,
    reason="displayed reference entry 2z-(3vx-ut+3xyt)/2 is inconsistent "
           "with the exact matrix conjugation, which yields "
           "2z-(vx+3ut-3xyt)/2 up to overall sign (in any labeling); two "
           "coefficients differ; recorded as a reference defect")
def test_criterion_6_displayed_reference_value(sl4, chart_sl4):
    rs = sl4.rs
    hs = type_p_subset(rs, 2)
    eqs = defining_equations(sl4, chart_sl4, hs, H6)
    w = rs.highest_root.id
    displayed = poly_from(chart_sl4, {
        ("z",): 2, ("v", "x"): Q(-3, 2), ("u", "t"): Q(1, 2),
        ("x", "y", "t"): Q(-3, 2)})
    p = eqs.polynomials[w]
    flipped = flip_poly(chart_sl4, p)
    assert p == displayed or p == displayed * Q(-1) \
        or flipped == displayed or flipped == displayed * Q(-1)


def test_criterion_6_record():
    record_acceptance(
        "criterion 6 (literal)",
        "XFAIL displayed corner entry differs from its own matrix oracle "
        "in two coefficients (documented defect; oracle half passes)")


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

@criterion("criterion 7",
           "symbolic determinant identity, exhaustive small ranks")
def test_criterion_7():
    for alg in (build_sl(2), build_sl(3), build_sl(4), build_sl(5),
                build_sp(2), build_sp(3)):
        chart = (second_kind_chart(alg)
                 if alg.family == "sp" and alg.param == 3
                 else matrix_chart(alg))
        for hs in enumerate_all(alg.rs, max_rank=4):
            cert = smoothness_certificate(
                defining_equations(alg, chart, hs, None))
            assert cert.triangular and cert.identity_holds


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

@criterion("criterion 8",
           "closed-form generators equal the conjugation oracle exactly")
def test_criterion_8(sl3, sl4):
    for alg in (sl3, sl4):
        basis = build_basis(alg)
        checks = verify_against_oracle(basis)
        assert all(checks.values())
        # the induced-field convention differs from the generator
        # convention by one global sign, which is the documented relation
        chart = basis.chart
        w = alg.rs.highest_root.id
        for g in sorted(alg.rs.omega_decompose().sigma_half):
            elem = alg.realization.entries[alg.full_index(g)]
            t = tau(alg, chart, elem).component(w)
            assert t == basis.table[alg.rs.root_name(g)] * Q(-1)


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------

@criterion("criterion 9a", "Jacobi and frame brackets, exhaustive")
def test_criterion_9_brackets(sl3, sl4, sp2, chart_sl3, chart_sl4, chart_sp2):
    for alg, chart in ((sl3, chart_sl3), (sl4, chart_sl4), (sp2, chart_sp2)):
        basis = [dense(e, alg.realization.size)
                 for e in alg.realization.entries]
        comm = lambda a, b: mat_sub(mat_prod(a, b), mat_prod(b, a))
        for a in basis:
            for b in basis:
                for c in basis:
                    lhs = comm(a, comm(b, c))
                    rhs = mat_add(comm(comm(a, b), c),
                                  comm(b, comm(a, c)))
                    assert mat_eq(lhs, rhs)
        frame = {r: chart.frame_field(r) for r in range(chart.nvars)}
        rs = alg.rs
        for a in range(chart.nvars):
            for b in range(chart.nvars):
                br = frame[a].bracket(frame[b]).to_invariant()
                s = rs.add(a, b)
                if s is not None and s < rs.n_pos:
                    assert br.components == \
                        {s: Poly.const(chart.nvars, alg.c[(a, b)])}
                else:
                    assert br.is_zero()


@criterion("criterion 9b",
           "projection-bracket identity at 100 random rational slice points")
def test_criterion_9_ristretto(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    rng = random.Random(2026)
    frame_full = [chart_sl4.frame_field(r) for r in range(chart_sl4.nvars)]
    csub = {r: Q(0) for r in hs.C}

    def project(field):
        coord = field.to_coordinate()
        comps = {g: p.subs(csub) for g, p in coord.components.items()
                 if g in hs.R}
        return PolyVectorField(chart_sl4, "coordinate", comps,
                               slice_roots=hs.R)

    checked = 0
    for _ in range(5):
        x = sum((f * Q(rng.randint(-3, 3)) for f in frame_full[1:]),
                frame_full[0] * Q(rng.randint(-3, 3)))
        y = sum((f * Q(rng.randint(-3, 3)) for f in frame_full[1:]),
                frame_full[0] * Q(rng.randint(-3, 3)))
        lhs = project(x).bracket(project(y))
        rhs = project(x.bracket(y))
        for _ in range(20):
            pt = [Q(0)] * chart_sl4.nvars
            for r in hs.R:
                pt[r] = Q(rng.randint(-9, 9), rng.randint(1, 7))
            for g in hs.R:
                assert lhs.component(g).eval(pt) == rhs.component(g).eval(pt)
            checked += 1
    assert checked == 100


@criterion("criterion 9c",
           "nu is a bracket-preserving map with the complement-ideal kernel")
def test_criterion_9_nu(sl4, sp2, chart_sl4, chart_sp2):
    for alg, chart in ((sl4, chart_sl4), (sp2, chart_sp2)):
        rs = alg.rs
        real = alg.realization
        simples = set(rs.simple_ids())
        for hs in enumerate_all(rs):
            rep = analyze(hs)
            q_idx = normalizer_basis_indices(alg, rep)
            nus = tau_basis(alg, chart, hs)
            fields = {k: nus[k] for k in q_idx}
            for ka in q_idx:
                ma = dense(real.entries[ka], real.size)
                for kb in q_idx:
                    if kb < ka:
                        continue
                    mb = dense(real.entries[kb], real.size)
                    comm = mat_sub(mat_prod(ma, mb), mat_prod(mb, ma))
                    coeffs = real.decompose(sparse(comm))
                    lhs = None
                    for k, c in enumerate(coeffs):
                        if c != 0:
                            term = nus[k] * c
                            lhs = term if lhs is None else lhs + term
                    rhs = fields[ka].bracket(fields[kb]).to_invariant()
                    if lhs is None:
                        assert rhs.is_zero()
                    else:
                        assert lhs.to_coordinate().components == \
                            rhs.to_coordinate().components
            for g in hs.C:
                assert fields[alg.full_index(g)].is_zero()
            if simples <= hs.R:
                monos = sorted({(g, m) for f in fields.values()
                                for g, p in f.components.items()
                                for m in p.monomials()})
                idx = {k: i for i, k in enumerate(monos)}
                vecs = []
                for k in q_idx:
                    v = [Q(0)] * len(idx)
                    for g, p in fields[k].components.items():
                        for m, c in p.terms.items():
                            v[idx[(g, m)]] = c
                    vecs.append(v)
                assert len(q_idx) - linalg.rank(vecs) == len(hs.C)


@criterion("criterion 9d",
           "zone additivity on every multi-zone subset of the rank-3 system")
def test_criterion_9_reduction(sl4, chart_sl4):
    for hs in enumerate_all(sl4.rs):
        rep = analyze(hs)
        if len(rep.dark_zones) < 2:
            continue
        red = reduce_by_dark_zones(hs, chart_sl4, degree_bound=4)
        assert red.additive and red.lifts_contained


@criterion("criterion 9e",
           "boundary characterization matches brute-force normalizers")
def test_criterion_9_norma():
    for alg in (build_sl(2), build_sl(3), build_sl(4), build_sl(5),
                build_sp(2), build_sp(3)):
        rs = alg.rs
        real = alg.realization
        simples = set(rs.simple_ids())
        matrix = [dense(e, real.size) for e in real.entries]
        for hs in enumerate_all(rs, max_rank=4):
            rep = analyze(hs)
            # brute force from structure constants
            brute = set()
            for a in range(rs.n_pos):
                neg = rs.neg(a)
                ok = True
                for g in hs.C:
                    x_neg = matrix[alg.full_index(neg)]
                    x_g = matrix[alg.full_index(g)]
                    comm = mat_sub(mat_prod(x_neg, x_g), mat_prod(x_g, x_neg))
                    cf = real.decompose(sparse(comm))
                    for k, c in enumerate(cf):
                        if c != 0 and (k < alg.rank
                                       or (k - alg.rank) not in hs.C):
                            ok = False
                if ok:
                    brute.add(neg)
            assert rep.normalizer_support == brute
            if rep.hypothesis_I and simples <= hs.R:
                assert check_norma(hs, rep)


@criterion("criterion 9f",
           "solver dimension stabilizes one degree past the default bound")
def test_criterion_9_stabilization(sl3, sl4, sp2, chart_sl3, chart_sl4,
                                   chart_sp2):
    cases = [
        (sl3, chart_sl3, set(range(sl3.rs.n_pos))),
        (sl4, chart_sl4, set(type_p_subset(sl4.rs, 2).R)),
        (sp2, chart_sp2, {0, 1, 2}),
    ]
    for alg, chart, R in cases:
        hs = validate(alg.rs, R)
        sol = solve_mc(hs, chart)
        assert sol.degree_bound == 2 * alg.rs.highest_root.height
        assert sol.stabilized
        # homogeneous parts of every basis field remain solutions
        for f in sol.basis:
            for part in homogeneous_parts(f, chart).values():
                assert sol.contains(part)
