from __future__ import annotations

import random
import warnings
from fractions import Fraction as Q

import pytest

from mclab import linalg, mcfields
from mclab.fields import PolyVectorField
from mclab.hessenberg import analyze, enumerate_all, type_p_subset, validate
from mclab.liealg import matrix_chart, second_kind_chart
from mclab.mcfields import (McError, McSolution, McSystem,
                            assemble_mc_system, compare_with_normalizer,
                            homogeneous_degree, homogeneous_parts,
                            normalizer_basis_indices, nu, project_to_slice,
                            reduce_by_dark_zones, solve_mc, tau, tau_basis)
from mclab.poly import Poly, monomials_of_weighted_degree
from mclab.prolong import prolong

from conftest import cartan_element, dense, mat_sub, solve_H0
from oracles import coordinates_in_span


@pytest.fixture(scope="module")
def sl4_type2(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    return hs, solve_mc(hs, chart_sl4)


@pytest.fixture(scope="module")
def sl3_full(sl3, chart_sl3):
    hs = validate(sl3.rs, set(range(sl3.rs.n_pos)))
    return hs, solve_mc(hs, chart_sl3)


@pytest.fixture(scope="module")
def sp2_slice(sp2, chart_sp2):
    hs = validate(sp2.rs, {0, 1, 2})
    return hs, solve_mc(hs, chart_sp2)


def elementary(i, j):
    return {(i, j): Q(1)}


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_simple_root_components(sl4, chart_sl4):
    # frame components are minus the conjugated element's coefficients
    f = tau(sl4, chart_sl4, elementary(0, 1))
    names = chart_sl4.var_names
    got = {sl4.rs.root_name(g): p.render(names)
           for g, p in f.components.items()}
    assert got == {"100": "-1", "110": "-y", "111": "-v"}
    # as a raw derivation it is a single coordinate direction
    coord = f.to_coordinate()
    assert {sl4.rs.root_name(g): p.render(names)
            for g, p in coord.components.items()} == \
        {"100": "-1", "110": "-y", "111": "-v"}


def test_tau_matches_reference_display_after_flip(sl4, chart_sl4):
    """The reference display for the (1,2)-elementary field reads
    -X + yU + (v - yt)Z in the flipped convention; unflipped that is the
    (3,4)-elementary field."""
    names = chart_sl4.var_names
    f = tau(sl4, chart_sl4, elementary(2, 3))
    got = {sl4.rs.root_name(g): p.render(names)
           for g, p in f.components.items()}
    assert got == {"001": "-1", "011": "y", "111": "-x*y + u"}


def test_tau_cartan_acts_diagonally(sl3, chart_sl3):
    h0 = solve_H0(sl3)
    f = tau(sl3, chart_sl3, cartan_element(sl3, h0)).to_coordinate()
    for r in chart_sl3.coord_roots:
        ht = sl3.rs.root(r).height
        expect = Poly.var(chart_sl3.nvars, chart_sl3.coord_index(r), ht)
        assert f.component(r) == expect
    # and applying the field scales coordinates by the height
    for r in chart_sl3.coord_roots:
        xg = Poly.var(chart_sl3.nvars, chart_sl3.coord_index(r))
        assert f.apply(xg) == xg * sl3.rs.root(r).height


def test_tau_center_is_constant_field(sl4, chart_sl4):
    w = sl4.rs.highest_root.id
    f = tau(sl4, chart_sl4, sl4.realization.entries[sl4.full_index(w)])
    assert f.components == {w: Poly.const(chart_sl4.nvars, -1)}


# ---------------------------------------------------------------------------
# slice projection
# ---------------------------------------------------------------------------

def test_projection_examples(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    f = nu(sl4, chart_sl4, hs, elementary(2, 3))
    names = chart_sl4.var_names
    got = {sl4.rs.root_name(g): p.render(names)
           for g, p in f.components.items()}
    # flipped-convention display: -Xbar + y Ubar
    assert got == {"001": "-1", "011": "y"}

    # complement ideal elements project to zero
    w = sl4.rs.highest_root.id
    x_w = sl4.realization.entries[sl4.full_index(w)]
    assert nu(sl4, chart_sl4, hs, x_w).is_zero()

    # Cartan elements act diagonally on slice coordinates
    h0 = solve_H0(sl4)
    g = nu(sl4, chart_sl4, hs, cartan_element(sl4, h0)).to_coordinate()
    for r in sorted(hs.R):
        xg = Poly.var(chart_sl4.nvars, chart_sl4.coord_index(r))
        assert g.component(r) == xg * sl4.rs.root(r).height


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_homogeneous_degree_examples(sl3, chart_sl3):
    w = sl3.rs.highest_root.id
    xw = Poly.var(chart_sl3.nvars, chart_sl3.coord_index(w))
    assert homogeneous_degree(xw, chart_sl3) == 2
    frame = [chart_sl3.frame_field(r) for r in chart_sl3.coord_roots]
    for f, r in zip(frame, chart_sl3.coord_roots):
        assert homogeneous_degree(f.to_invariant(), chart_sl3) == \
            -sl3.rs.root(r).height
    assert homogeneous_degree(Poly.const(3, 1), chart_sl3) == 0
    with pytest.raises(McError):
        homogeneous_degree(Poly.zero(3), chart_sl3)
    mixed = xw + Poly.const(3, 1)
    assert homogeneous_degree(mixed, chart_sl3) is None
    parts = homogeneous_parts(mixed, chart_sl3)
    assert set(parts) == {0, 2}


# ---------------------------------------------------------------------------
# the solver against independent double-operator eliminations
# ---------------------------------------------------------------------------

def _pde_span(chart, hs, operators, label, max_wdeg):
    """Independent oracle: exact nullspace of the given differential
    operators acting on polynomials in the slice variables."""
    slice_vars = [chart.coord_index(r) for r in sorted(hs.R)]
    weights = [chart.weights[v] for v in slice_vars]
    monos = []
    for w in range(max_wdeg + 1):
        for m in monomials_of_weighted_degree(weights, w):
            full = [0] * chart.nvars
            for v, e in zip(slice_vars, m):
                full[v] = e
            monos.append(tuple(full))
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for op in operators:
        results = [op(Poly(chart.nvars, {m: Q(1)})) for m in monos]
        out_monos = sorted({mm for p in results for mm in p.monomials()})
        for mm in out_monos:
            rows.append({k: results[k].coeff(mm)
                         for k in range(len(monos))
                         if results[k].coeff(mm) != 0})
    null = linalg.sparse_nullspace(rows, len(monos))
    return [Poly(chart.nvars, {m: v[k] for m, k in index.items() if v[k] != 0})
            for v in null]


def _span_equal(polys_a, polys_b, chart):
    monos = sorted({m for p in polys_a + polys_b for m in p.monomials()})
    idx = {m: k for k, m in enumerate(monos)}

    def vecs(ps):
        return [[p.coeff(m) for m in monos] for p in ps]
    va, vb = vecs(polys_a), vecs(polys_b)
    ra, rb = linalg.rank(va), linalg.rank(vb)
    return ra == rb == linalg.rank(va + vb)


def test_sl3_system_equivalent_to_second_order_pair(sl3, chart_sl3, sl3_full):
    hs, sol = sl3_full
    assert sol.dimension == 8
    frame = {r: chart_sl3.frame_field(r, hs.R) for r in sorted(hs.R)}
    d1 = sl3.rs.id_of((1, 0))
    d2 = sl3.rs.id_of((0, 1))

    def x2(h):
        return frame[d1].apply(frame[d1].apply(h))

    def y2(h):
        return frame[d2].apply(frame[d2].apply(h))

    w = sl3.rs.highest_root.id
    top = [b.component(w) for b in sol.basis]
    for h in top:
        assert x2(h).is_zero() and y2(h).is_zero()
    oracle = _pde_span(chart_sl3, hs, [x2, y2], w, max_wdeg=4)
    assert _span_equal(top, oracle, chart_sl3)
    assert len(oracle) == 8


def test_c2_system_equivalent_to_second_order_pair(sp2, chart_sp2, sp2_slice):
    hs, sol = sp2_slice
    assert sol.dimension == 8
    frame = {r: chart_sp2.frame_field(r, hs.R) for r in sorted(hs.R)}
    a, b, ab = 0, 1, 2

    def u2(h):
        return frame[a].apply(frame[a].apply(h))

    def x2(h):
        return frame[b].apply(frame[b].apply(h))

    top = [b.component(ab) for b in sol.basis]
    for h in top:
        assert u2(h).is_zero() and x2(h).is_zero()
    oracle = _pde_span(chart_sp2, hs, [u2, x2], ab, max_wdeg=4)
    assert _span_equal(top, oracle, chart_sp2)
    assert len(oracle) == 8


def test_sl4_type2_dimension_and_cross_condition(sl4, chart_sl4, sl4_type2):
    hs, sol = sl4_type2
    assert sol.dimension == 9 and sol.stabilized
    rs = sl4.rs
    frame = {r: chart_sl4.frame_field(r, hs.R) for r in sorted(hs.R)}
    d1, d2, d3 = (rs.id_of(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    u_root, v_root = rs.id_of((1, 1, 0)), rs.id_of((0, 1, 1))
    c_u = sl4.c[(d1, d2)]     # ladder constants feeding the two maximal
    c_v = sl4.c[(d3, d2)]     # components from the shared middle one
    for f in sol.basis:
        fu, fv = f.component(u_root), f.component(v_root)
        # second-order pairs for each maximal component
        for op1, op2 in ((d1, d2), (d2, d1)):
            assert frame[op1].apply(frame[op1].apply(fu)).is_zero()
        assert frame[d2].apply(frame[d2].apply(fu)).is_zero()
        assert frame[d3].apply(fu).is_zero()
        assert frame[d3].apply(frame[d2].apply(fu)).is_zero()
        assert frame[d2].apply(frame[d2].apply(fv)).is_zero()
        assert frame[d3].apply(frame[d3].apply(fv)).is_zero()
        assert frame[d1].apply(fv).is_zero()
        assert frame[d1].apply(frame[d2].apply(fv)).is_zero()
        # cross-condition linking the two maximal components: both
        # ladders are sourced by the same middle coefficient
        assert frame[d1].apply(fu) * c_v == frame[d3].apply(fv) * c_u


def test_solution_dimensions_and_stability(sl3_full, sp2_slice, sl4_type2):
    for _, sol in (sl3_full, sp2_slice, sl4_type2):
        assert sol.stabilized


def test_solutions_preserve_simple_bundles(sl3, chart_sl3, sl3_full,
                                           sp2, chart_sp2, sp2_slice,
                                           sl4, chart_sl4, sl4_type2):
    """Raw form of the defining condition: the bracket of a solution with
    each simple frame field stays inside that field's line bundle."""
    for alg, chart, (hs, sol) in ((sl3, chart_sl3, sl3_full),
                                  (sp2, chart_sp2, sp2_slice),
                                  (sl4, chart_sl4, sl4_type2)):
        frame = {r: chart.frame_field(r, hs.R) for r in sorted(hs.R)}
        simples = [s for s in alg.rs.simple_ids() if s in hs.R]
        for f in sol.basis:
            for d in simples:
                br = f.bracket(frame[d]).to_invariant()
                assert set(br.components) <= {d}


def test_homogeneous_parts_of_solutions_are_solutions(sl4, chart_sl4,
                                                      sl4_type2):
    hs, sol = sl4_type2
    for f, d in zip(sol.basis, sol.degrees):
        parts = homogeneous_parts(f, chart_sl4)
        assert set(parts) == {d}
    # a random combination splits into parts that stay in the span
    combo = sol.basis[0] * Q(2) + sol.basis[-1] * Q(-3, 2)
    for part in homogeneous_parts(combo, chart_sl4).values():
        assert sol.contains(part)


def test_c_independence_of_solutions(sl4, chart_sl4, sl4_type2):
    hs, sol = sl4_type2
    c_vars = {chart_sl4.coord_index(r) for r in hs.C}
    for f in sol.basis:
        for p in f.components.values():
            for mono in p.monomials():
                assert all(mono[v] == 0 for v in c_vars)


def test_hierarchy_determined_by_maximal_components(sl4, chart_sl4,
                                                    sl4_type2):
    hs, sol = sl4_type2
    rep = analyze(hs)
    monos = sorted({(g, m) for f in sol.basis
                    for g in rep.maximal_roots
                    for m in f.component(g).monomials()})
    idx = {k: i for i, k in enumerate(monos)}
    vecs = []
    for f in sol.basis:
        v = [Q(0)] * len(idx)
        for g in rep.maximal_roots:
            for m, c in f.component(g).terms.items():
                v[idx[(g, m)]] = c
        vecs.append(v)
    assert linalg.rank(vecs) == sol.dimension


def test_shadow_locality(sl4, chart_sl4, sl4_type2, sl3, chart_sl3, sl3_full,
                         sp2, chart_sp2, sp2_slice):
    for alg, chart, (hs, sol) in ((sl4, chart_sl4, sl4_type2),
                                  (sl3, chart_sl3, sl3_full),
                                  (sp2, chart_sp2, sp2_slice)):
        rep = analyze(hs)
        frame = {r: chart.frame_field(r, hs.R) for r in sorted(hs.R)}
        for mu, shadow in rep.shadows.items():
            outside = sorted(hs.R - shadow)
            for f in sol.basis:
                for g in sorted(shadow):
                    for a in outside:
                        assert frame[a].apply(f.component(g)).is_zero()


def test_projection_bracket_identity_random_points(sl4, chart_sl4):
    """[Xbar, Ybar] at slice points equals the slice projection of [X, Y]
    for random invariant fields, at 100 random rational points."""
    hs = type_p_subset(sl4.rs, 2)
    rng = random.Random(7)
    frame_full = [chart_sl4.frame_field(r) for r in chart_sl4.coord_roots]
    csub = {chart_sl4.coord_index(r): Q(0) for r in hs.C}

    def random_field():
        out = None
        for f in frame_full:
            c = Q(rng.randint(-4, 4))
            term = f * c
            out = term if out is None else out + term
        return out

    def project(field):
        coord = field.to_coordinate()
        comps = {g: p.subs(csub) for g, p in coord.components.items()
                 if g in hs.R}
        return PolyVectorField(chart_sl4, "coordinate", comps,
                               slice_roots=hs.R)

    checked = 0
    for _ in range(5):
        x, y = random_field(), random_field()
        lhs = project(x).bracket(project(y))
        rhs = project(x.bracket(y))
        for _ in range(20):
            pt = [Q(0)] * chart_sl4.nvars
            for r in hs.R:
                pt[chart_sl4.coord_index(r)] = Q(rng.randint(-9, 9),
                                                 rng.randint(1, 7))
            for g in hs.R:
                assert lhs.component(g).eval(pt) == rhs.component(g).eval(pt)
            checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# normalizer comparison
# ---------------------------------------------------------------------------

def test_compare_examples(sl4, chart_sl4, sl4_type2, sp2, chart_sp2,
                          sp2_slice, sl3, chart_sl3, sl3_full):
    hs4, sol4 = sl4_type2
    c4 = compare_with_normalizer(hs4, chart_sl4, sol4)
    assert c4.equal and c4.nu_dimension == 9
    assert c4.nu_contained and c4.kernel_is_complement_ideal

    hs2, sol2 = sp2_slice
    c2 = compare_with_normalizer(hs2, chart_sp2, sol2)
    assert not c2.equal
    assert c2.nu_dimension == 6 and c2.solver_dimension == 8
    assert c2.nu_contained and c2.conjecture_matches

    hs3, sol3 = sl3_full
    c3 = compare_with_normalizer(hs3, chart_sl3, sol3)
    assert c3.equal and c3.nu_dimension == 8


def test_compare_computes_tau_only_for_the_normalizer(sp3, monkeypatch):
    """On C3 type-2 the normalizer spans 12 of the 21 basis elements of
    sp(3); the comparison computes tau of those 12 alone, once each."""
    chart = second_kind_chart(sp3)
    hs = type_p_subset(sp3.rs, 2)
    sol = solve_mc(hs, chart)
    calls = []
    real_tau = mcfields.tau

    def counted(alg, ch, element):
        calls.append(element)
        return real_tau(alg, ch, element)

    monkeypatch.setattr(mcfields, "tau", counted)
    first = compare_with_normalizer(hs, chart, sol)
    assert len(normalizer_basis_indices(sp3, analyze(hs))) == 12
    assert len(calls) == 12
    again = compare_with_normalizer(hs, chart, sol)
    assert len(calls) == 12 and again.to_json_dict() == first.to_json_dict()


def test_nu_homomorphism_and_kernel_exhaustive(sl4, chart_sl4, sp2,
                                               chart_sp2):
    """nu respects brackets on the normalizer, and for sets containing all
    simple roots its kernel is exactly the complement ideal; exhaustive
    over Hessenberg subsets of the rank-3 A system and the rank-2 C
    system."""
    for alg, chart in ((sl4, chart_sl4), (sp2, chart_sp2)):
        taus = tau_basis(alg, chart)
        rs = alg.rs
        real = alg.realization
        simples = set(rs.simple_ids())
        for hs in enumerate_all(rs):
            rep = analyze(hs)
            q_idx = normalizer_basis_indices(alg, rep)
            fields = {k: project_to_slice(taus[k], hs) for k in q_idx}
            # homomorphism on a spanning set of bracket pairs
            for ka in q_idx:
                ma = dense(real.entries[ka], real.size)
                for kb in q_idx:
                    if kb < ka:
                        continue
                    mb = dense(real.entries[kb], real.size)
                    comm = mat_sub(linalg.mat_mul(ma, mb),
                                   linalg.mat_mul(mb, ma))
                    coeffs = real.read(range(alg.dim),
                                       lambda i, j: comm[i][j])
                    lhs = None
                    for k, c in enumerate(coeffs):
                        if c != 0:
                            term = project_to_slice(taus[k], hs) * c
                            lhs = term if lhs is None else lhs + term
                    rhs = fields[ka].bracket(fields[kb]).to_invariant()
                    if lhs is None:
                        assert rhs.is_zero()
                    else:
                        assert lhs.to_coordinate().components == \
                            rhs.to_coordinate().components
            # kernel: complement ideal always dies; with all simples
            # present nothing else does
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


# ---------------------------------------------------------------------------
# prolongation stop and weight blocks
# ---------------------------------------------------------------------------

def _solve_recorded(chart, hs, bound):
    """The explicit-bound solve, and the dimension of every (degree,
    weight) block it eliminates, the degree past the bound included."""
    dims: dict[int, dict[tuple, int]] = {}
    original = mcfields._solve_block

    def record(system, degree, *args):
        block, nullity = original(system, degree, *args)
        for f in block:
            g, p = min(f.components.items())
            w, = mcfields._unknown_weights(system,
                                           [(g, next(iter(p.terms)))])
            dims.setdefault(degree, {})
            dims[degree][w] = dims[degree].get(w, 0) + 1
        return block, nullity

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcfields, "_solve_block", record)
        return solve_mc(hs, chart, degree_bound=bound), dims


def _nonzero_blocks(tanaka, bound):
    """The prolongation's nonzero blocks through degree bound + 1."""
    return {d: b for d, b in tanaka.blocks.items() if b and d <= bound + 1}


@pytest.fixture(scope="module")
def bound_sweeps(sl2, sl3, sl4, sp2, sp3):
    """Every Hessenberg set of A1-A3 and C2 under the full bound 2h, and of
    C3 under 6: (set, default solve, explicit solve, its block
    dimensions), keyed by algebra.  The full bound 2h = 10 is too slow on
    C3; 6 lies past the top degree h = 5 of its full slice."""
    sweeps = {}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "multicontact dimension")
        for name, alg, chart, bound in [
                ("A1", sl2, matrix_chart(sl2), 2),
                ("A2", sl3, matrix_chart(sl3), 4),
                ("A3", sl4, matrix_chart(sl4), 6),
                ("C2", sp2, matrix_chart(sp2), 6),
                ("C3", sp3, second_kind_chart(sp3), 6)]:
            sweeps[name] = (alg, bound, [
                (hs, solve_mc(hs, chart), *_solve_recorded(chart, hs, bound))
                for hs in enumerate_all(alg.rs)])
    return sweeps


def _assert_stop_matches_bound(alg, bound, hs, stopped, full, dims):
    """The default solve, which eliminates only the blocks the
    prolongation finds nonzero, agrees with the explicit-bound solve on
    every degree up to the bound, and the prolongation's (degree, weight)
    dimensions equal the explicit solve's through degree bound + 1."""
    h = hs.rs.highest_root.height
    assert stopped.degree_bound == 2 * h and full.degree_bound == bound
    keep = [k for k, d in enumerate(stopped.degrees) if d <= bound]
    assert full.dimension == len(keep)
    assert full.degrees == [stopped.degrees[k] for k in keep]
    assert full.basis == [stopped.basis[k] for k in keep]
    assert full.stabilized == stopped.stabilized
    tanaka = prolong(hs, alg.c, bound + 1)
    assert _nonzero_blocks(tanaka, bound) == dims, sorted(hs.R)
    assert (tanaka.stop is not None) == full.stabilized


def test_prolongation_stop_equals_full_bound_small_rank(bound_sweeps):
    stabilized = 0
    for name in ("A1", "A2", "A3", "C2"):
        alg, bound, runs = bound_sweeps[name]
        for run in runs:
            _assert_stop_matches_bound(alg, bound, *run)
            stabilized += run[1].stabilized
    # finite-type slices per algebra (A1, A2, A3, C2), the empty one included
    assert stabilized == 1 + 2 + 5 + 3


def test_prolongation_stop_c3_below_full_bound(bound_sweeps):
    alg, bound, runs = bound_sweeps["C3"]
    for run in runs:
        _assert_stop_matches_bound(alg, bound, *run)


@pytest.mark.parametrize("name", ["A3", "C3"])
def test_prolongation_catches_mutated_structure_constant(bound_sweeps, name):
    """Zeroing, negating or doubling one positive-root structure constant
    and its antisymmetric partner makes the prolongation of the full slice
    disagree with the unmutated solver, for every such constant."""
    alg, bound, runs = bound_sweeps[name]
    hs, _, _, dims = runs[-1]
    assert hs.R == frozenset(range(alg.n_pos))
    assert _nonzero_blocks(prolong(hs, alg.c, bound + 1), bound) == dims
    pairs = [(a, b) for a, b in alg.c if a < b < alg.n_pos]
    assert len(pairs) == {"A3": 4, "C3": 10}[name]
    for a, b in pairs:
        for factor in (0, -1, 2):
            c = dict(alg.c)
            c[a, b] *= factor
            c[b, a] *= factor
            assert _nonzero_blocks(prolong(hs, c, bound + 1),
                                   bound) != dims, (a, b, factor)


@pytest.mark.parametrize("change, message", [
    ("drop", r"degree -1, weight \[-1, 0, 0\]: 1 solution\(s\), the "
             r"prolongation gives 0"),
    ("inflate", r"degree 1, weight \[0, 1, 0\]: 1 solution\(s\), the "
                r"prolongation gives 2"),
])
def test_solve_checks_blocks_against_prolongation(sl4, chart_sl4,
                                                  monkeypatch, change,
                                                  message):
    original = mcfields.prolong.prolong

    def altered(hs, c, max_degree):
        tanaka = original(hs, c, max_degree)
        weight = (-1, 0, 0) if change == "drop" else (0, 1, 0)
        degree = sum(weight)
        if change == "drop":
            del tanaka.blocks[degree][weight]
        else:
            tanaka.blocks[degree][weight] += 1
        return tanaka

    monkeypatch.setattr(mcfields.prolong, "prolong", altered)
    with pytest.raises(McError, match=message):
        solve_mc(type_p_subset(sl4.rs, 2), chart_sl4)


def test_default_solve_skips_empty_prolongation_blocks(sl4, chart_sl4,
                                                       monkeypatch):
    """On the full slice of A3, g_4 = 0: the default solve never assembles
    degree 4, and past degree 0 only the unknowns of the prolongation's
    weights.  The verification mode assembles every unknown of every
    degree through the bound and the one past it."""
    calls = []
    original = McSystem.unknown_monomials

    def counted(self, degree, weights=None):
        out = original(self, degree, weights)
        calls.append((degree, weights is None, len(out)))
        return out

    monkeypatch.setattr(McSystem, "unknown_monomials", counted)
    hs = type_p_subset(sl4.rs, 3)
    assert solve_mc(hs, chart_sl4).dimension == 15
    assert [(d, whole) for d, whole, _ in calls] == \
        [(d, d < 0) for d in range(-3, 4)]
    assert sum(n for *_, n in calls) == 159
    calls.clear()
    assert solve_mc(hs, chart_sl4, degree_bound=6).dimension == 15
    assert [(d, whole) for d, whole, _ in calls] == \
        [(d, True) for d in range(-3, 8)]
    assert sum(n for *_, n in calls[:8]) == 1164


def test_weight_certificate_rejects_mixed_row(sl3, chart_sl3, monkeypatch):
    original = McSystem.block_rows

    def mixed(self, degree, unknown_index):
        rows = original(self, degree, unknown_index)
        return rows + [{col: Q(1) for col in unknown_index.values()}]

    monkeypatch.setattr(McSystem, "block_rows", mixed)
    hs = validate(sl3.rs, set(range(sl3.rs.n_pos)))
    with pytest.raises(McError, match="root-lattice weights"):
        solve_mc(hs, chart_sl3)


# ---------------------------------------------------------------------------
# dark-zone reduction
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:multicontact dimension not stabilized")
def test_reduction_two_singleton_zones(sl4, chart_sl4):
    rs = sl4.rs
    hs = validate(rs, {rs.id_of((1, 0, 0)), rs.id_of((0, 0, 1))})
    red = reduce_by_dark_zones(hs, chart_sl4, degree_bound=4)
    assert len(red.zones) == 2
    assert red.additive and red.lifts_contained


def test_reduction_single_zone_identity(sl4, chart_sl4, sl4_type2):
    hs, sol = sl4_type2
    red = reduce_by_dark_zones(hs, chart_sl4)
    assert len(red.zones) == 1
    assert red.zone_solutions[0].dimension == sol.dimension
    assert red.additive and red.lifts_contained


@pytest.mark.filterwarnings("ignore:multicontact dimension not stabilized")
def test_reduction_mixed_zones(sl4, chart_sl4):
    rs = sl4.rs
    R = {rs.id_of((1, 0, 0)), rs.id_of((0, 1, 0)), rs.id_of((1, 1, 0)),
         rs.id_of((0, 0, 1))}
    hs = validate(rs, R)
    red = reduce_by_dark_zones(hs, chart_sl4, degree_bound=4)
    assert sorted(sorted(z) for z in red.zones) == \
        [[rs.id_of((1, 0, 0)), rs.id_of((0, 1, 0)), rs.id_of((1, 1, 0))],
         [rs.id_of((0, 0, 1))]] or len(red.zones) == 2
    assert red.additive and red.lifts_contained


@pytest.mark.filterwarnings("ignore:multicontact dimension not stabilized")
def test_reduction_additivity_all_multizone_a3(sl4, chart_sl4):
    for hs in enumerate_all(sl4.rs):
        rep = analyze(hs)
        if len(rep.dark_zones) < 2:
            continue
        red = reduce_by_dark_zones(hs, chart_sl4, degree_bound=4)
        assert red.additive and red.lifts_contained


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_solution_json_and_brackets(sp2_slice):
    hs, sol = sp2_slice
    sol.compute_brackets()
    assert sol.bracket_closed
    doc = sol.to_json_dict()
    assert doc["dimension"] == 8 and doc["stabilized"] is True
    summary = sol.algebra_summary()
    # the solution algebra of the rank-2 C slice is 8-dimensional simple:
    # derived series stabilizes at full dimension, trace form nondegenerate
    assert summary["dimension"] == 8
    assert summary["derived_series"][1] == 8
    assert summary["killing_rank"] == 8


@pytest.fixture(scope="module")
def small_stabilized(sl2, chart_sl3, chart_sl4, chart_sp2):
    """Solutions, with bracket tables, of every Hessenberg set of A1-A3
    and C2 whose solution is stabilized."""
    out = []
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "multicontact dimension not stabilized")
        for chart in (matrix_chart(sl2), chart_sl3, chart_sl4, chart_sp2):
            for hs in enumerate_all(chart.algebra.rs):
                sol = solve_mc(hs, chart)
                if sol.stabilized:
                    sol.compute_brackets()
                    out.append((hs, sol))
    # A1, A2, A3 and C2 have 1, 2, 5 and 3 finite-type slices
    assert len(out) == 1 + 2 + 5 + 3
    return out


def _dense(vec, index):
    """A sparse ``McSolution.flatten`` vector as the dense list
    ``coordinates_in_span`` takes; None stays None."""
    return None if vec is None else [vec.get(k, Q(0))
                                     for k in range(len(index))]


def test_bracket_table_matches_per_bracket_solve(sl3_full, sp2_slice,
                                                 small_stabilized):
    """The basis is eliminated once for all brackets and only the pairs
    i < j are bracketed; all n^2 cells, diagonal and lower triangle
    included, equal a direct bracket of the two basis fields solved
    against the whole basis, on every stabilized set of A1-A3 and C2."""
    dims = []
    for hs, sol in small_stabilized:
        dims.append(sol.dimension)
        index = sol.monomial_index()
        basis_vecs = [_dense(sol.flatten(b, index), index)
                      for b in sol.basis]
        closed = True
        for i, a in enumerate(sol.basis):
            for j, b in enumerate(sol.basis):
                vec = _dense(sol.flatten(a.bracket(b).to_invariant(), index),
                             index)
                expect = (None if vec is None
                          else coordinates_in_span(basis_vecs, vec))
                if expect is None:
                    closed = False
                    expect = []
                assert sol.bracket_table[i][j] == expect, (sorted(hs.R), i, j)
        assert sol.bracket_closed == closed
    assert max(dims) == 15 and 0 in dims
    for hs, sol in (sl3_full, sp2_slice):
        combo = sol.basis[0] * Q(3) + sol.basis[-1] * Q(-1, 2)
        expect = [Q(0)] * sol.dimension
        expect[0], expect[-1] = Q(3), Q(-1, 2)
        assert sol.coordinates(combo) == expect and sol.contains(combo)
        g = sorted(hs.R)[0]
        far = PolyVectorField(sol.chart, "invariant",
                              {g: Poly.var(sol.chart.nvars, 0) ** 7},
                              slice_roots=hs.R)
        assert sol.coordinates(far) is None and not sol.contains(far)


def _dense_trace_form(c, n):
    """The n^4 reference: tr(ad_i ad_j) with ad_i[k][j] = c[i][j][k]."""
    ad = [[[c[i][j][k] for j in range(n)] for k in range(n)]
          for i in range(n)]
    return [[sum(ad[i][p][q] * ad[j][q][p]
                 for p in range(n) for q in range(n))
             for j in range(n)] for i in range(n)]


def _dense_derived_series(c, n):
    """The reference product loop: every ordered pair of the previous
    term's pivot rows, over dense bracket-table cells."""
    span = [{i: 1} for i in range(n)]
    dims = [n]
    while True:
        prods = []
        for u in span:
            for v in span:
                w = {}
                for i, ui in u.items():
                    for j, vj in v.items():
                        for k, ck in enumerate(c[i][j]):
                            if ck:
                                w[k] = w.get(k, 0) + ui * vj * ck
                prods.append(w)
        span = list(linalg.rref(prods, n).values())
        dims.append(len(span))
        if len(span) in (0, dims[-2]):
            return dims


def test_trace_form_and_derived_series_oracle(small_stabilized):
    """The sparse trace form equals the dense n^4 sum entry by entry, and
    the sparse derived series equals the dense product loop."""
    ranks = set()
    for hs, sol in small_stabilized:
        assert sol.bracket_closed
        n, table = sol.dimension, sol.bracket_table
        ad = mcfields._ad_columns(table)
        form = mcfields._trace_form(ad)
        dense = _dense_trace_form(table, n)
        for i in range(n):
            for j in range(n):
                assert form[i][j] == dense[i][j], (sorted(hs.R), i, j)
        series = mcfields._derived_series(ad)
        assert series == _dense_derived_series(table, n)
        summary = sol.algebra_summary()
        rank_k, pos_k, neg_k = linalg.symmetric_signature(dense)
        assert summary["derived_series"] == series
        assert summary["killing_rank"] == rank_k
        assert summary["killing_signature"] == [pos_k, neg_k]
        ranks.add((n, rank_k))
    # both degenerate and nondegenerate forms occur
    assert (15, 15) in ranks and any(r < n for n, r in ranks)


def test_non_closed_bracket_table(sp2_slice):
    """Without its degree -2 field the C2 slice basis is not closed: the
    bracket of the two degree -1 fields leaves the smaller span."""
    hs, sol = sp2_slice
    assert sol.degrees[:3] == [-2, -1, -1]
    basis = sol.basis[1:]
    index = sol.monomial_index()
    vecs = [_dense(sol.flatten(b, index), index) for b in basis]
    outside = _dense(sol.flatten(basis[0].bracket(basis[1]).to_invariant(),
                                 index), index)
    assert coordinates_in_span(vecs, outside) is None
    small = McSolution(hs=hs, chart=sol.chart,
                       degree_bound=sol.degree_bound, basis=basis,
                       degrees=sol.degrees[1:], dimension=len(basis),
                       stabilized=True)
    small.compute_brackets()
    assert small.bracket_closed is False
    assert small.bracket_table[0][1] == [] and small.bracket_table[1][0] == []
    assert small.bracket_table[0][0] == [Q(0)] * len(basis)
    assert small.algebra_summary() == {"dimension": len(basis),
                                       "bracket_closed": False}


def test_system_json(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    system = assemble_mc_system(hs, chart_sl4, 6)
    doc = system.to_json_dict()
    assert doc["degree_bound"] == 6
    assert ["100", "010"] in doc["equations"]
    assert ["100", "100"] not in doc["equations"]
