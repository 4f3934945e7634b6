from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shlex
import warnings
from fractions import Fraction as Q
from pathlib import Path

import pytest

from mclab import liealg, linalg, mcfields
from mclab.cli import main
from mclab.fields import PolyVectorField
from mclab.hessenberg import analyze, enumerate_all, type_p_subset, validate
from mclab.liealg import (Chart, build_sl, build_sp, default_chart,
                          first_kind_chart, matrix_chart, second_kind_chart,
                          three_factor_chart)
from mclab.mcfields import (McError, McSolution, McSystem,
                            assemble_mc_system, compare_with_normalizer,
                            homogeneous_degree, homogeneous_parts,
                            normalizer_basis_indices, nu,
                            reduce_by_dark_zones, solve_mc, tau, tau_basis)
from mclab.poly import Poly, monomials_of_weighted_degree
from mclab.prolong import prolong

from conftest import (canonical_terms, cartan_element, dense, mat_sub,
                      solve_H0, sparse)
from oracles import (chain_to_coordinate, composition_bracket,
                     coordinates_in_span, dense_symmetric_signature,
                     full_tau_basis, gauss_jordan_echelon, mat_prod,
                     peel_to_invariant,
                     project_to_slice, subs_project_to_slice, tau_comparison,
                     zip_block_rows)


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
    for r in range(chart_sl3.nvars):
        ht = sl3.rs.root(r).height
        expect = Poly.var(chart_sl3.nvars, r, ht)
        assert f.component(r) == expect
    # and applying the field scales coordinates by the height
    for r in range(chart_sl3.nvars):
        xg = Poly.var(chart_sl3.nvars, r)
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
        xg = Poly.var(chart_sl4.nvars, r)
        assert g.component(r) == xg * sl4.rs.root(r).height


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_homogeneous_degree_examples(sl3, chart_sl3):
    w = sl3.rs.highest_root.id
    xw = Poly.var(chart_sl3.nvars, w)
    assert homogeneous_degree(xw, chart_sl3) == 2
    frame = [chart_sl3.frame_field(r) for r in range(chart_sl3.nvars)]
    for f, r in zip(frame, range(chart_sl3.nvars)):
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
    slice_vars = sorted(hs.R)
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
    for f in sol.basis:
        for p in f.components.values():
            for mono in p.monomials():
                assert all(mono[v] == 0 for v in hs.C)


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
    frame_full = [chart_sl4.frame_field(r) for r in range(chart_sl4.nvars)]
    csub = {r: Q(0) for r in hs.C}

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
                pt[r] = Q(rng.randint(-9, 9), rng.randint(1, 7))
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


@pytest.mark.parametrize("command", ["mc C 3 --hessenberg type-2",
                                     "mc A 3 --hessenberg type-3"])
def test_mc_builds_no_group_matrix(command, monkeypatch):
    """The default ``mc`` path reads the frame and nu from the structure
    constants: with the polynomial generic point and the adjoint action
    at the slice point made to raise, both benchmark jobs still print
    their recorded output."""
    def unexpected(*args, **kwargs):
        raise AssertionError("polynomial group matrix on the mc path")

    monkeypatch.setattr(Chart, "generic_point", unexpected)
    for module in (liealg, mcfields):
        monkeypatch.setattr(module, "adjoint_of_point", unexpected)
    _assert_prints_recorded(command)


@pytest.mark.parametrize("command", [
    "hessdefs A 4 --hessenberg type-3 --symbolic", "polybasis A 4"])
def test_adjoint_jobs_build_no_group_matrix(command, monkeypatch):
    """The adjoint action sums its rows from the structure constants: with
    the polynomial generic point made to raise, the benchmark's hessdefs
    and polybasis jobs still print their recorded output."""
    def unexpected(*args, **kwargs):
        raise AssertionError("polynomial group matrix in the adjoint action")

    monkeypatch.setattr(Chart, "generic_point", unexpected)
    _assert_prints_recorded(command)


def _assert_prints_recorded(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(command))
    expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "expected.json").read_text())[command]
    assert code == expected["exit_code"] == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        expected["sha256"]


def _assert_comparison_matches_tau_oracle(hs, chart, sol):
    got = compare_with_normalizer(hs, chart, sol).to_json_dict()
    assert got == tau_comparison(hs, chart, sol).to_json_dict(), sorted(hs.R)


@pytest.mark.parametrize("family, rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("C", 4)])
def test_comparison_matches_tau_oracle(family, rank):
    """On every stabilized set of A1-A4 and C2-C4 (default chart), the
    comparison read in the prolongation equals the polynomial one of nu
    through the adjoint action at the slice point, in JSON."""
    alg = build_sl(rank + 1) if family == "A" else build_sp(rank)
    chart = default_chart(alg)
    compared = 0
    for hs in enumerate_all(alg.rs):
        sol = solve_mc(hs, chart)
        if sol.stabilized:
            _assert_comparison_matches_tau_oracle(hs, chart, sol)
            compared += 1
    # finite-type sets, the empty one included
    assert compared == {("A", 1): 1, ("A", 2): 2, ("A", 3): 5, ("A", 4): 14,
                        ("C", 2): 3, ("C", 3): 10, ("C", 4): 35}[family, rank]


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("A", 3),
                                          ("C", 2), ("C", 3)])
def test_comparison_matches_tau_oracle_every_chart_kind(family, rank):
    alg = build_sl(rank + 1) if family == "A" else build_sp(rank)
    makers = [first_kind_chart, second_kind_chart, three_factor_chart]
    if family == "A" or rank == 2:
        makers.append(matrix_chart)
    for make in makers:
        chart = make(alg)
        for hs in enumerate_all(alg.rs):
            sol = solve_mc(hs, chart)
            if sol.stabilized:
                _assert_comparison_matches_tau_oracle(hs, chart, sol)


def test_comparison_matches_tau_oracle_verification_mode(bound_sweeps):
    """A verification-mode solution keeps no prolongation, so the
    comparison prolongs through h itself: on every stabilized explicit
    solve of A1-A3, C2 and C3 it equals the polynomial oracle."""
    compared = 0
    for _, _, runs in bound_sweeps.values():
        for hs, _, explicit, _ in runs:
            if explicit.stabilized:
                assert explicit.prolongation is None
                _assert_comparison_matches_tau_oracle(hs, explicit.chart,
                                                      explicit)
                compared += 1
    assert compared == 1 + 2 + 5 + 3 + 10


@pytest.mark.skipif(not os.environ.get("MCLAB_LARGE_ORACLES"),
                    reason="a few seconds; set MCLAB_LARGE_ORACLES=1")
def test_comparison_matches_tau_oracle_a5_and_c5_full_slice():
    """Every stabilized set of A5, and the full slice of C5."""
    sl6 = build_sl(6)
    chart = default_chart(sl6)
    compared = 0
    for hs in enumerate_all(sl6.rs, 5):
        sol = solve_mc(hs, chart)
        if sol.stabilized:
            _assert_comparison_matches_tau_oracle(hs, chart, sol)
            compared += 1
    assert compared == 42          # the empty set included
    sp5 = build_sp(5)
    chart = default_chart(sp5)
    hs = validate(sp5.rs, set(range(sp5.rs.n_pos)))
    _assert_comparison_matches_tau_oracle(hs, chart, solve_mc(hs, chart))


def test_comparison_catches_dropped_prolongation_element(sl4, chart_sl4,
                                                         sl4_type2):
    """On A3 type-2 the normalizer holds X_-a2, whose image lies in the
    block of degree 1 and weight a2.  Dropping that block's one basis
    element leaves the image outside g(m): nu no longer reads as
    contained in the solution space."""
    hs, sol = sl4_type2
    assert compare_with_normalizer(hs, chart_sl4, sol).nu_contained
    rs = sl4.rs
    assert analyze(hs).normalizer_support == {rs.neg(rs.simple_ids()[1])}
    tanaka = sol.prolongation
    basis = dict(tanaka.basis)
    assert len(basis[1, (0, 1, 0)]) == 1
    basis[1, (0, 1, 0)] = []
    mutated = dataclasses.replace(
        sol, prolongation=dataclasses.replace(tanaka, basis=basis))
    assert not compare_with_normalizer(hs, chart_sl4, mutated).nu_contained


def test_nu_homomorphism_and_kernel_exhaustive(sl4, chart_sl4, sp2,
                                               chart_sp2):
    """nu respects brackets on the normalizer, and for sets containing all
    simple roots its kernel is exactly the complement ideal; exhaustive
    over Hessenberg subsets of the rank-3 A system and the rank-2 C
    system."""
    for alg, chart in ((sl4, chart_sl4), (sp2, chart_sp2)):
        rs = alg.rs
        real = alg.realization
        simples = set(rs.simple_ids())
        for hs in enumerate_all(rs):
            rep = analyze(hs)
            q_idx = normalizer_basis_indices(alg, rep)
            nus = tau_basis(alg, chart, hs)
            fields = {k: nus[k] for k in q_idx}
            # homomorphism on a spanning set of bracket pairs
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

def _weight(chart, g, mono):
    """Root-lattice weight sum_v m_v root(v) - gamma of the unknown
    (gamma, x^m), as a coefficient vector over the simple roots."""
    rs = chart.algebra.rs
    w = [-c for c in rs.root(g).coeffs]
    for r, e in enumerate(mono):
        for i, c in enumerate(rs.root(r).coeffs):
            w[i] += e * c
    return tuple(w)


def _solve_recorded(chart, hs, bound):
    """The explicit-bound solve, and the dimension of every (degree,
    weight) block it eliminates, the degree past the bound included."""
    dims: dict[int, dict[tuple, int]] = {}
    original = mcfields._solve_block

    def record(system, degree):
        block, free = original(system, degree)
        for f in block:
            g, p = min(f.components.items())
            w = _weight(chart, g, next(iter(p.terms)))
            dims.setdefault(degree, {})
            dims[degree][w] = dims[degree].get(w, 0) + 1
        return block, free

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


@pytest.fixture(scope="module")
def stabilized_solves(bound_sweeps):
    """Every stabilized solution of the bound sweeps (every Hessenberg set
    of A1-A3, C2 and C3), by default and with the explicit bound, each
    with its bracket table."""
    out = []
    for _, _, runs in bound_sweeps.values():
        for hs, default, explicit, _ in runs:
            for sol in (default, explicit):
                if sol.stabilized:
                    sol.compute_brackets()
                    out.append(sol)
    # A1, A2, A3, C2 and C3 have 1, 2, 5, 3 and 10 finite-type slices
    assert len(out) == 2 * (1 + 2 + 5 + 3 + 10)
    return out


def _solver_order(sol):
    """Position of every unknown of the solution's degrees in solver
    order: by degree, then as the system lists that degree's unknowns."""
    system = assemble_mc_system(sol.hs, sol.chart, sol.degree_bound)
    order = {}
    for d in sorted(set(sol.degrees)):
        for u, _ in system.unknown_monomials(d):
            order[u] = len(order)
    return order


def test_solution_basis_is_echelon_at_free_unknowns(stabilized_solves):
    """Each basis field's free unknown is its last unknown in solver
    order, and the basis is ordered by it; the field is one there and
    every other field zero.  A basis that is not in reduced echelon form
    (b0 + b1 in place of b1) is refused."""
    refused = 0
    for sol in stabilized_solves:
        order = _solver_order(sol)
        assert len(sol.free_unknowns) == sol.dimension
        # the basis is ordered by free unknown
        positions = [order[u] for u in sol.free_unknowns]
        assert positions == sorted(positions)
        for i, (f, u) in enumerate(zip(sol.basis, sol.free_unknowns)):
            assert u == max(((g, m) for g, p in f.components.items()
                             for m in p.terms), key=order.__getitem__)
            for j, other in enumerate(sol.basis):
                p = other.components.get(u[0])
                assert (p.terms.get(u[1], 0) if p else 0) == (i == j)
        if sol.dimension >= 2:
            b0, b1, *rest = sol.basis
            with pytest.raises(McError, match="reduced echelon"):
                dataclasses.replace(sol, basis=[b0, b0 + b1, *rest])
            refused += 1
    # every set but the empty one of each of the five algebras
    assert refused == len(stabilized_solves) - 2 * 5


def test_bracket_coordinates_match_dense_solve(stabilized_solves):
    """The coordinates of every bracket of two basis fields, read at the
    free unknowns, equal a dense solve against the whole basis."""
    cells = 0
    for sol in stabilized_solves:
        n = sol.dimension
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        vecs = _dense(sol.basis + [sol.basis[i].bracket(sol.basis[j])
                                   for i, j in pairs])
        for k, (i, j) in enumerate(pairs):
            expect = coordinates_in_span(vecs[:n], vecs[n + k])
            assert sol.bracket_table[i][j] == (
                [] if expect is None else expect), (sorted(sol.hs.R), i, j)
            cells += 1
    assert cells > 1000


def test_bracket_table_matches_invariant_frame_coordinates(
        stabilized_solves):
    """Every cell of the bracket table, read in the coordinate frame
    against one span of the converted basis, equals the invariant-frame
    :meth:`McSolution.coordinates` of that bracket, scalar types
    included."""
    cells = 0
    for sol in stabilized_solves:
        n = sol.dimension
        for i in range(n):
            for j in range(n):
                expect = sol.coordinates(sol.basis[i].bracket(sol.basis[j]))
                cell = sol.bracket_table[i][j]
                assert cell == ([] if expect is None else expect)
                assert [type(x) for x in cell] == (
                    [] if expect is None else [type(x) for x in expect])
                cells += 1
    assert cells > 2000


def test_block_rows_match_zip_oracle(bound_sweeps):
    """On every (degree, weight) block that the verification mode
    assembles, degree bound + 1 included, for every Hessenberg set of
    A1-A3, C2 and C3, the rows equal, in equal order, those of the
    version that shifts monomials over all chart variables."""
    blocks = 0
    for alg, bound, runs in bound_sweeps.values():
        for hs, stopped, *_ in runs:
            system = assemble_mc_system(hs, stopped.chart, bound)
            for d in range(-hs.rs.highest_root.height, bound + 2):
                by_weight: dict[tuple, dict] = {}
                for u, w in system.unknown_monomials(d):
                    index = by_weight.setdefault(w, {})
                    index[u] = len(index)
                for index in by_weight.values():
                    rows = system.block_rows(d, index)
                    expect = zip_block_rows(system, d, index)
                    assert list(rows.items()) == list(expect.items())
                    blocks += 1
    assert blocks > 1000


def test_infinite_type_reported_without_warning(chart_sl3, chart_sl4):
    """An infinite-type slice is reported by ``stabilized`` alone: A3
    type-1 and A2 {a, b} solve with no warning and are not stabilized."""
    rs3 = chart_sl3.algebra.rs
    for chart, hs in [(chart_sl4, type_p_subset(chart_sl4.algebra.rs, 1)),
                      (chart_sl3, validate(rs3, {rs3.id_of((1, 0)),
                                                 rs3.id_of((0, 1))}))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_mc(hs, chart)
        assert not sol.stabilized


def _assert_stop_matches_bound(alg, bound, hs, stopped, full, dims):
    """The default solve, the prolongation's fields in reduced echelon
    form, agrees with the explicit-bound solve, which enumerates and
    eliminates every block, on every degree up to the bound (in JSON
    bytes when the bound is the default 2h), and the prolongation's
    (degree, weight) dimensions equal the explicit solve's through degree
    bound + 1."""
    h = hs.rs.highest_root.height
    assert stopped.degree_bound == 2 * h and full.degree_bound == bound
    keep = [k for k, d in enumerate(stopped.degrees) if d <= bound]
    assert full.dimension == len(keep)
    assert full.degrees == [stopped.degrees[k] for k in keep]
    assert full.basis == [stopped.basis[k] for k in keep]
    assert full.free_unknowns == [stopped.free_unknowns[k] for k in keep]
    assert full.stabilized == stopped.stabilized
    if bound == 2 * h:
        assert (json.dumps(full.to_json_dict())
                == json.dumps(stopped.to_json_dict())), sorted(hs.R)
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


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("A", 3),
                                          ("C", 2)])
def test_default_solve_matches_verification_every_chart_kind(family, rank):
    """Every Hessenberg set of A1-A3 and C2 on the first-kind,
    second-kind and three-factor charts (the matrix chart is the default
    one of the bound sweeps): the default solve equals the explicit
    bound 2h in JSON bytes and free unknowns."""
    alg = build_sl(rank + 1) if family == "A" else build_sp(rank)
    bound = 2 * alg.rs.highest_root.height
    for make in (first_kind_chart, second_kind_chart, three_factor_chart):
        chart = make(alg)
        for hs in enumerate_all(alg.rs):
            _assert_stop_matches_bound(
                alg, bound, hs, solve_mc(hs, chart),
                *_solve_recorded(chart, hs, bound))


def _typed_rows(rows):
    return {p: sorted((u, x, type(x)) for u, x in row.items())
            for p, row in rows.items()}


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("A", 3),
                                          ("C", 2), ("C", 3)])
def test_forward_echelon_matches_gauss_jordan(family, rank):
    """On every (degree, weight) block of the default solve of every
    Hessenberg set, the echelon basis from ``rref`` and ``reduced``
    equals, entry by entry and type by type, a Gauss-Jordan in Fractions
    that pivots at each field's last unknown in the verification mode's
    enumeration order.  A1, A2 and C2 on their default chart; A3 on all
    four chart kinds, C3 on the three that it has (no matrix chart)."""
    alg = build_sl(rank + 1) if family == "A" else build_sp(rank)
    makes = ([matrix_chart, first_kind_chart, second_kind_chart,
              three_factor_chart] if rank == 3 else [default_chart])
    if family == "C" and rank == 3:
        makes.remove(matrix_chart)
    h = alg.rs.highest_root.height
    blocks = 0
    for make in makes:
        chart = make(alg)
        for hs in enumerate_all(alg.rs):
            calls = []
            original = mcfields._echelon

            def recording(vectors, order):
                rows = original(vectors, order)
                calls.append((vectors, rows))
                return rows

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mcfields, "_echelon", recording)
                solve_mc(hs, chart)
            system = assemble_mc_system(hs, chart, 2 * h)
            for vectors, rows in calls:
                g, mono = next(iter(vectors[0]))
                degree = (sum(e * wt for e, wt in zip(mono, chart.weights))
                          - alg.rs.root(g).height)
                position = {u: k for k, (u, _) in
                            enumerate(system.unknown_monomials(degree))}
                expect = gauss_jordan_echelon(vectors, position.__getitem__)
                assert _typed_rows(rows) == _typed_rows(expect), \
                    (make.__name__, sorted(hs.R), degree)
                blocks += 1
    # (degree, weight) blocks over every set and chart kind
    assert blocks == {("A", 1): 4, ("A", 2): 30, ("A", 3): 4 * 153,
                      ("C", 2): 47, ("C", 3): 3 * 287}[family, rank]


@pytest.mark.skipif(not os.environ.get("MCLAB_LARGE_ORACLES"),
                    reason="about 20 s; set MCLAB_LARGE_ORACLES=1")
def test_default_solve_matches_verification_a4(sl5):
    """Every Hessenberg set of A4 on the default chart: the default solve
    equals the explicit bound 2h in JSON bytes and free unknowns, and the
    prolongation's block dimensions equal the eliminated ones."""
    chart = default_chart(sl5)
    for hs in enumerate_all(sl5.rs):
        _assert_stop_matches_bound(sl5, 8, hs, solve_mc(hs, chart),
                                   *_solve_recorded(chart, hs, 8))


@pytest.mark.parametrize("family, rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("C", 4)])
def test_prolongation_finite_type_is_the_dark_zone_criterion(family, rank):
    """On every Hessenberg set, the empty one included, the prolongation
    through 2h + 1 is of finite type exactly when no dark zone holds
    exactly one simple root, and its total is the sum of its blocks."""
    alg = build_sl(rank + 1) if family == "A" else build_sp(rank)
    simples = set(alg.rs.simple_ids())
    h = alg.rs.highest_root.height
    finite = 0
    for hs in enumerate_all(alg.rs):
        tanaka = prolong(hs, alg.c, 2 * h + 1)
        single = any(len(z & simples) == 1 for z in analyze(hs).dark_zones)
        assert tanaka.finite_type == (not single), sorted(hs.R)
        assert tanaka.total == sum(len(b) for b in tanaka.basis.values())
        finite += tanaka.finite_type
    assert finite == {("A", 1): 1, ("A", 2): 2, ("A", 3): 5, ("A", 4): 14,
                      ("C", 2): 3, ("C", 3): 10, ("C", 4): 35}[family, rank]


def test_prolongation_total_is_the_solution_dimension(stabilized_solves):
    """On every finite-type set of A1-A3, C2 and C3, the prolongation's
    total is the dimension of the solution space."""
    for sol in stabilized_solves:
        h = sol.hs.rs.highest_root.height
        tanaka = prolong(sol.hs, sol.chart.algebra.c, 2 * h + 1)
        assert tanaka.total == sol.dimension, sorted(sol.hs.R)


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
    """The rank check: the fields of a (degree, weight) block must have
    the rank the prolongation's count gives, here after the count of a
    block is dropped or inflated while its basis stays."""
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


def test_rank_check_catches_dropped_basis_element(sl4, chart_sl4,
                                                  monkeypatch):
    """Dropping one basis element of the prolongation's top nonzero block
    leaves its fields one short of the count, which the rank check
    reports by degree and weight."""
    original = mcfields.prolong.prolong
    hs = type_p_subset(sl4.rs, 3)
    top = max(k for k, w in original(hs, sl4.c, 7).basis)
    dropped = []

    def altered(hs, c, max_degree):
        tanaka = original(hs, c, max_degree)
        w = min(w for k, w in tanaka.basis if k == top)
        tanaka.basis[top, w].pop()
        dropped.append((w, tanaka.blocks[top][w]))
        return tanaka

    monkeypatch.setattr(mcfields.prolong, "prolong", altered)
    with pytest.raises(McError) as err:
        solve_mc(hs, chart_sl4)
    (w, n), = dropped
    assert str(err.value) == (
        f"degree {top}, weight {list(w)}: {n - 1} solution(s), the "
        f"prolongation gives {n}")


def test_certificate_catches_corrupted_forward_field(sl4, chart_sl4,
                                                     monkeypatch):
    """Changing one coefficient of one field of the forward map keeps the
    block's rank, so only the certificate, the system's rows applied to
    the field, catches it, naming the degree and the weight."""
    original = mcfields._forward_fields

    def corrupted(tanaka, chart, hs, degree, weight):
        fields = original(tanaka, chart, hs, degree, weight)
        if (degree, weight) == (1, (0, 1, 0)):
            u = min(fields[0])
            fields[0][u] += 1
        return fields

    monkeypatch.setattr(mcfields, "_forward_fields", corrupted)
    with pytest.raises(McError, match=r"degree 1, weight \[0, 1, 0\]: a "
                                      r"field from the prolongation "
                                      r"violates the multicontact"):
        solve_mc(type_p_subset(sl4.rs, 2), chart_sl4)


def test_certificate_catches_corrupted_frame_row(sl4):
    """The frame enters the default solve only through the certificate's
    rows: one corrupted entry of a simple root's frame row (d/dx_a1 in
    X_a1 made 1 + x) makes the fields of degree -1 and weight -a2 fail
    it, and the error names that degree and weight."""
    chart = matrix_chart(sl4)
    hs = type_p_subset(sl4.rs, 2)
    a1 = sl4.rs.simple_ids()[0]
    row = chart.frame_components(hs.R)[a1]       # the cached row
    assert row == {a1: Poly.const(chart.nvars, 1)}
    row[a1] = row[a1] + Poly.var(chart.nvars, a1)
    with pytest.raises(McError, match=r"degree -1, weight \[0, -1, 0\]: a "
                                      r"field from the prolongation "
                                      r"violates the multicontact"):
        solve_mc(hs, chart)


def test_default_solve_skips_empty_prolongation_blocks(sl4, chart_sl4,
                                                       monkeypatch):
    """On the full slice of A3, g_4 = 0: the default solve enumerates no
    unknowns at all, and assembles rows only for its certificate, once
    per nonzero prolongation block and never in degree 4.  The
    verification mode enumerates every unknown of every degree through
    the bound and the one past it."""
    calls, rows = [], []
    original = McSystem.unknown_monomials
    original_rows = McSystem.block_rows

    def counted(self, degree):
        out = original(self, degree)
        calls.append((degree, len(out)))
        return out

    def counted_rows(self, degree, unknown_index):
        rows.append(degree)
        return original_rows(self, degree, unknown_index)

    monkeypatch.setattr(McSystem, "unknown_monomials", counted)
    monkeypatch.setattr(McSystem, "block_rows", counted_rows)
    hs = type_p_subset(sl4.rs, 3)
    assert solve_mc(hs, chart_sl4).dimension == 15
    assert calls == []
    tanaka = prolong(hs, sl4.c, 7)
    assert tanaka.stop == 4
    assert rows == sorted(d for d, b in tanaka.blocks.items() for _ in b)
    assert max(rows) == 3
    assert solve_mc(hs, chart_sl4, degree_bound=6).dimension == 15
    assert [d for d, _ in calls] == list(range(-3, 8))
    assert sum(n for _, n in calls[:8]) == 1164


def test_weight_certificate_rejects_mixed_row(sl3, chart_sl3, monkeypatch):
    original = McSystem.block_rows

    def mixed(self, degree, unknown_index):
        # one row key in every weight block: a row that two blocks share
        rows = original(self, degree, unknown_index)
        rows["shared"] = {col: Q(1) for col in unknown_index.values()}
        return rows

    monkeypatch.setattr(McSystem, "block_rows", mixed)
    hs = validate(sl3.rs, set(range(sl3.rs.n_pos)))
    with pytest.raises(McError, match="root-lattice weights"):
        solve_mc(hs, chart_sl3, degree_bound=4)


# ---------------------------------------------------------------------------
# dark-zone reduction
# ---------------------------------------------------------------------------

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
    for chart in (matrix_chart(sl2), chart_sl3, chart_sl4, chart_sp2):
        for hs in enumerate_all(chart.algebra.rs):
            sol = solve_mc(hs, chart)
            if sol.stabilized:
                sol.compute_brackets()
                out.append((hs, sol))
    # A1, A2, A3 and C2 have 1, 2, 5 and 3 finite-type slices
    assert len(out) == 1 + 2 + 5 + 3
    return out


def test_bracket_kernel_matches_composition_oracle(small_stabilized):
    """On every stabilized set of A1-A3 and C2, each bracket of two basis
    fields, diagonal and both orders included, equals the commutator
    a(b_k) - b(a_k) of the two derivations built from whole-polynomial
    chains; its invariant-frame form and each basis field's coordinate
    form equal the chained oracles too, with canonical coefficients."""
    pairs = zero = 0
    for hs, sol in small_stabilized:
        for f in sol.basis:
            coord = f.to_coordinate()
            assert coord.components == {
                k: Poly(p.nvars, p.terms)
                for k, p in chain_to_coordinate(f).items() if p.terms}
            assert canonical_terms(*coord.components.values())
        for a in sol.basis:
            for b in sol.basis:
                got = a.bracket(b)
                assert got.frame == "coordinate"
                assert got.components == composition_bracket(a, b), \
                    sorted(hs.R)
                assert canonical_terms(*got.components.values())
                inv = got.to_invariant()
                assert inv.components == peel_to_invariant(got)
                assert canonical_terms(*inv.components.values())
                pairs += 1
                zero += got.is_zero()
    assert pairs == sum(sol.dimension ** 2 for _, sol in small_stabilized)
    assert zero > len(small_stabilized)


def test_project_to_slice_matches_substitution(sl3, chart_sl3, sl4,
                                               chart_sl4, sp2, chart_sp2):
    """Dropping the terms with a complement variable equals substituting
    zero for the complement coordinates, on tau of every basis element
    projected to every Hessenberg set of A2, A3 and C2; so does nu, read
    at the slice point."""
    checked = 0
    for alg, chart in ((sl3, chart_sl3), (sl4, chart_sl4), (sp2, chart_sp2)):
        taus = full_tau_basis(alg, chart)
        for hs in enumerate_all(alg.rs):
            nus = tau_basis(alg, chart, hs)
            for k, f in taus.items():
                got = project_to_slice(f, hs)
                want = subs_project_to_slice(f, hs)
                assert got.components == want
                assert nus[k].components == want
                assert got.slice_roots == nus[k].slice_roots == hs.R
                checked += 1
    assert checked == (sum(len(enumerate_all(a.rs)) * a.dim
                           for a in (sl3, sl4, sp2)))


def _dense(fields):
    """Slice fields as dense coefficient lists over a test-local index of
    their (gamma, monomial) unknowns, the form ``coordinates_in_span``
    takes."""
    terms = [{(g, m): c for g, p in f.to_invariant().components.items()
              for m, c in p.terms.items()} for f in fields]
    index = {k: i for i, k in enumerate(sorted({k for t in terms
                                                for k in t}))}
    out = []
    for t in terms:
        vec = [Q(0)] * len(index)
        for k, c in t.items():
            vec[index[k]] = c
        out.append(vec)
    return out


def test_bracket_table_matches_per_bracket_solve(sl3_full, sp2_slice,
                                                 small_stabilized):
    """The basis is eliminated once for all brackets and only the pairs
    i < j are bracketed; all n^2 cells, diagonal and lower triangle
    included, equal a direct bracket of the two basis fields solved
    against the whole basis, on every stabilized set of A1-A3 and C2."""
    dims = []
    for hs, sol in small_stabilized:
        dims.append(sol.dimension)
        n = sol.dimension
        brackets = [a.bracket(b) for a in sol.basis for b in sol.basis]
        vecs = _dense(sol.basis + brackets)
        basis_vecs = vecs[:n]
        closed = True
        for i in range(n):
            for j in range(n):
                expect = coordinates_in_span(basis_vecs, vecs[n + i * n + j])
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


def test_coordinates_check_off_the_free_unknowns(sl3_full, sp2_slice):
    """A field that equals a combination of the basis at every free
    unknown, but not at some other unknown the basis uses, is outside the
    span: the coordinates read at the free unknowns are checked by
    recomposing the field."""
    for hs, sol in (sl3_full, sp2_slice):
        combo = sol.basis[0] * Q(3) + sol.basis[-1] * Q(-1, 2)
        free = set(sol.free_unknowns)
        g, m = next((g, m) for f in sol.basis
                    for g, p in f.components.items() for m in p.terms
                    if (g, m) not in free)
        bump = PolyVectorField(sol.chart, "invariant",
                               {g: Poly._of(sol.chart.nvars, {m: Q(1)})},
                               slice_roots=hs.R)
        off = combo + bump
        assert [off.component(u).terms.get(mono, 0)
                for u, mono in sol.free_unknowns] == sol.coordinates(combo)
        assert sol.coordinates(off) is None and not sol.contains(off)


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


def test_signature_matches_dense_oracle_on_trace_forms(stabilized_solves):
    """The sparse signature equals dense congruence diagonalization on the
    trace form of every stabilized solution of A1-A3, C2 and C3."""
    for sol in stabilized_solves:
        assert sol.bracket_closed
        form = mcfields._trace_form(mcfields._ad_columns(sol.bracket_table))
        assert linalg.symmetric_signature(form) == \
            dense_symmetric_signature(form), sorted(sol.hs.R)


def test_non_closed_bracket_table(sp2_slice):
    """Without its degree -2 field the C2 slice basis is not closed: the
    bracket of the two degree -1 fields leaves the smaller span."""
    hs, sol = sp2_slice
    assert sol.degrees[:3] == [-2, -1, -1]
    basis = sol.basis[1:]
    *vecs, outside = _dense(basis + [basis[0].bracket(basis[1])])
    assert coordinates_in_span(vecs, outside) is None
    small = McSolution(hs=hs, chart=sol.chart,
                       degree_bound=sol.degree_bound, basis=basis,
                       degrees=sol.degrees[1:], stabilized=True,
                       free_unknowns=sol.free_unknowns[1:])
    small.compute_brackets()
    assert small.bracket_closed is False
    assert small.bracket_table[0][1] == [] and small.bracket_table[1][0] == []
    assert small.bracket_table[0][0] == [Q(0)] * len(basis)
    assert small.algebra_summary() == {"dimension": len(basis),
                                       "bracket_closed": False}


def test_dimension_is_the_basis_length(sp2_slice):
    """The dimension is read off the basis, so no caller can set it apart
    from the basis: a 7 x 7 bracket table of 8-entry cells cannot arise."""
    hs, sol = sp2_slice
    assert sol.dimension == len(sol.basis) == 8
    with pytest.raises(TypeError):
        dataclasses.replace(sol, dimension=7)
    with pytest.raises(AttributeError):
        sol.dimension = 7


def test_system_json(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    system = assemble_mc_system(hs, chart_sl4, 6)
    doc = system.to_json_dict()
    assert doc["degree_bound"] == 6
    assert ["100", "010"] in doc["equations"]
    assert ["100", "100"] not in doc["equations"]
