from __future__ import annotations

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import linalg
from mclab.liealg import Chart, adjoint_of_point
from mclab.poly import Poly, exact, monomials_of_weighted_degree

from conftest import dense, frac_identity, mat_add, mat_eq
from oracles import (DENSE_COEFFS, FractionPoly, coordinates_in_span,
                     dense_generic_point, dense_nilpotent_series,
                     dense_symmetric_signature, free_vector_inverse_rows,
                     matrix_adjoint_of_point, nilpotent_exp,
                     rref_disagreements)


coeffs = st.fractions(min_value=-5, max_value=5,
                      max_denominator=6)


def rand_poly(draw, nvars=3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[mono] = draw(coeffs)
    return Poly(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(data):
    p = rand_poly(data.draw)
    q = rand_poly(data.draw)
    r = rand_poly(data.draw)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == Poly.zero(3)
    assert p * Poly.const(3, 1) == p


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_diff_leibniz(data):
    p = rand_poly(data.draw)
    q = rand_poly(data.draw)
    for i in range(3):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_subs_and_eval():
    p = Poly(2, {(2, 0): Q(1), (0, 1): Q(-3)})
    q = p.subs({0: Poly.var(2, 1)})
    assert q == Poly(2, {(0, 2): Q(1), (0, 1): Q(-3)})
    assert p.eval([Q(2), Q(1)]) == 1
    assert p.subs({0: Q(2), 1: Q(0)}).constant_value() == 4


def weighted_degree(p: Poly, weights) -> int | None:
    """Top weighted degree, or None for the zero polynomial."""
    if not p.terms:
        return None
    return max(sum(w * e for w, e in zip(weights, m)) for m in p.terms)


def is_weighted_homogeneous(p: Poly, weights) -> bool:
    return len(p.weighted_parts(weights)) <= 1


def test_weighted_grading():
    p = Poly(2, {(1, 1): Q(1), (3, 0): Q(2)})
    assert weighted_degree(p, [1, 2]) == 3
    parts = p.weighted_parts([1, 2])
    assert set(parts) == {3}
    assert is_weighted_homogeneous(p, [1, 2])
    assert not is_weighted_homogeneous(p + Poly.const(2, 1), [1, 2])


def test_render_and_lift():
    p = Poly(2, {(1, 2): Q(-1, 2), (0, 0): Q(3)})
    assert p.render(["x", "y"]) == "-1/2*x*y^2 + 3"
    lifted = p.lift(3, [2, 0])
    assert lifted == Poly(3, {(2, 0, 1): Q(-1, 2), (0, 0, 0): Q(3)})


def test_monomial_enumeration_deterministic():
    out = monomials_of_weighted_degree([1, 2], 4)
    assert out == [(0, 2), (2, 1), (4, 0)]
    assert monomials_of_weighted_degree([1], 0) == [(0,)]


def parse_fraction(text: str) -> Q:
    """Parse 'p/q' or integer text into an exact Fraction."""
    return Q(text.strip())


def test_parse_fraction():
    assert parse_fraction("3/4") == Q(3, 4)
    assert parse_fraction(" -2 ") == Q(-2)


def test_power_and_errors():
    p = Poly.var(1, 0) + 1
    assert p ** 3 == Poly(1, {(0,): 1, (1,): 3, (2,): 3, (3,): 1})
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(ValueError):
        Poly.var(2, 0) + Poly.var(3, 0)


def _loop_mul(p, q):
    """Reference product: the Fraction-only oracle's, every term pair
    summed through ``acc.get(m, 0)``, a cancelled monomial popped."""
    return FractionPoly.of(p) * FractionPoly.of(q)


def _is_canonical(x) -> bool:
    """The scalar rule: an int when integral, else a Fraction with
    denominator > 1."""
    return type(x) is int or (type(x) is Q and x.denominator > 1)


def _assert_same_poly(got, want):
    """Equal terms in the same order; every coefficient of ``got`` is
    canonical, whatever the types of ``want``'s."""
    assert got.nvars == want.nvars
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(_is_canonical(c) for c in got.terms.values())


def test_mul_reinserts_cancelled_monomial_last():
    p = Poly(1, {(0,): 1, (1,): 1, (2,): 1})
    q = Poly(1, {(2,): 1, (1,): -1, (0,): 1})
    # (1 + x + x^2)(1 - x + x^2) = 1 + x^4 + x^2: x^2 enters as 1*x^2,
    # cancels against x*(-x) and comes back last as x^2*1
    assert list((p * q).terms.items()) == [((0,), 1), ((4,), 1), ((2,), 1)]
    _assert_same_poly(p * q, _loop_mul(p, q))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 9))
def test_mul_matches_loop_reference(data, nvars):
    """Same terms in the same order as the reference loop; few monomials
    and small coefficients, so sums collide, cancel and come back."""
    def factor():
        terms = {}
        for _ in range(data.draw(st.integers(0, 6))):
            mono = [0] * nvars
            mono[data.draw(st.integers(0, nvars - 1))] = \
                data.draw(st.integers(0, 2))
            terms[tuple(mono)] = data.draw(st.sampled_from(
                [Q(-2), Q(-1), Q(1, 2), Q(1), Q(2)]))
        return Poly(nvars, terms)

    p, q, r = factor(), factor(), factor()
    _assert_same_poly(p * q, _loop_mul(p, q))
    _assert_same_poly((p + q) * r, _loop_mul(p + q, r))
    _assert_same_poly(p * q * r, _loop_mul(p, q) * FractionPoly.of(r))


# integral values as ints and as Fractions, and non-integral ones whose
# sums and products come out integral
_mixed = st.sampled_from([-2, -1, 1, 2, Q(-2), Q(3), Q(1, 2), Q(-1, 2),
                          Q(3, 2), Q(1, 3), Q(2, 3)])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 4))
def test_poly_matches_fraction_oracle(data, nvars):
    """Every ring operation gives the Fraction-only oracle's values in
    its term order, with every coefficient canonical."""
    def draw_terms():
        terms = {}
        for _ in range(data.draw(st.integers(0, 5))):
            mono = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
            terms[mono] = data.draw(_mixed)
        return terms

    pt, qt = draw_terms(), draw_terms()
    p, q = Poly(nvars, pt), Poly(nvars, qt)
    fp, fq = FractionPoly(nvars, pt), FractionPoly(nvars, qt)
    c = data.draw(_mixed)
    _assert_same_poly(p, fp)
    _assert_same_poly(p + q, fp + fq)
    _assert_same_poly(p - q, fp - fq)
    _assert_same_poly(p * q, fp * fq)
    _assert_same_poly(p + c, fp + c)
    _assert_same_poly(c - p, -fp + c)
    _assert_same_poly(p * c, fp * c)
    _assert_same_poly(c * p, fp * c)
    _assert_same_poly(p / c, fp * (1 / Q(c)))
    for i in range(nvars):
        _assert_same_poly(p.diff(i), fp.diff(i))
    i = data.draw(st.integers(0, nvars - 1))
    _assert_same_poly(p.subs({i: q}), fp.subs({i: fq}))
    _assert_same_poly(p.subs({i: c}), fp.subs({i: c}))
    mapping = [data.draw(st.integers(0, nvars)) for _ in range(nvars)]
    _assert_same_poly(p.lift(nvars + 1, mapping),
                      fp.lift(nvars + 1, mapping))
    point = [data.draw(_mixed) for _ in range(nvars)]
    value = p.eval(point)
    assert _is_canonical(value) and value == fp.subs(
        dict(enumerate(point))).terms.get((0,) * nvars, 0)


def test_exact_is_the_scalar_rule():
    assert [exact(x) for x in (3, Q(6, 2), Q(-4), Q(0), True)] == [3, 3, -4,
                                                                 0, 1]
    assert all(type(exact(x)) is int for x in (3, Q(6, 2), Q(0), True))
    assert type(exact(Q(1, 2))) is Q and exact("-3/6") == Q(-1, 2)
    with pytest.raises(TypeError):
        exact(Poly.zero(1))
    # a float is its binary expansion, 0.1 = 3602879701896397 / 2**55
    for x in (0.1, 0.5, 2.0, -0.0, float("inf")):
        with pytest.raises(TypeError, match="float"):
            exact(x)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _dense_rref(rows):
    """Reference: dense Gauss-Jordan over Fraction with leftmost-pivot
    selection; returns the reduced rows and the pivot columns."""
    m = [row[:] for row in rows]
    if not m:
        return m, []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _dense_solve(a, b):
    """Reference solution of A x = b with the free variables at zero."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    ncols = len(a[0])
    red, pivots = _dense_rref([row + [bb] for row, bb in zip(a, b)])
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def _dense_coordinates(basis, target):
    if not basis:
        return [] if all(x == 0 for x in target) else None
    a = [[v[i] for v in basis] for i in range(len(target))]
    return _dense_solve(a, target)


def _draw_dense(data, nrows, ncols):
    """A sparse random rational matrix as dense rows."""
    return [[data.draw(coeffs) if data.draw(st.booleans()) else Q(0)
             for _ in range(ncols)] for _ in range(nrows)]


def _sparse(dense):
    return [{i: c for i, c in enumerate(r) if c} for r in dense]


def test_rref_and_rank():
    m = [[Q(1), Q(2)], [Q(2), Q(4)], [Q(0), Q(1)]]
    piv = linalg.rref(_sparse(m), 2)
    assert list(piv) == [0, 1]
    assert piv[0] == {0: 1, 1: 2} and piv[1] == {1: 1}
    # integer rows with coprime entries, whatever the input denominators
    assert linalg.rref([{0: Q(2, 3), 2: Q(4, 9)}], 3) == {0: {0: 3, 2: 2}}
    assert linalg.rank(m) == 2
    assert linalg.rank([]) == 0
    assert linalg.rref([], 4) == {}


def test_solve_and_span():
    a = [[Q(1), Q(1)], [Q(0), Q(1)]]
    assert linalg.solve(a, [Q(3), Q(1)]) == [Q(2), Q(1)]
    assert linalg.solve([[Q(1), Q(1)], [Q(1), Q(1)]], [Q(0), Q(1)]) is None
    # free columns are pinned to zero
    assert linalg.solve([[Q(0), Q(2), Q(1)]], [Q(4)]) == [Q(0), Q(2), Q(0)]
    basis = [[Q(1), Q(0), Q(1)], [Q(0), Q(1), Q(1)]]
    assert coordinates_in_span(basis, [Q(2), Q(3), Q(5)]) == \
        [Q(2), Q(3)]
    assert coordinates_in_span(basis, [Q(0), Q(0), Q(1)]) is None
    assert coordinates_in_span([], [Q(0), Q(0)]) == []
    assert coordinates_in_span([], [Q(0), Q(1)]) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_nullspace_property(data):
    ncols = data.draw(st.integers(1, 6))
    nrows = data.draw(st.integers(0, 6))
    dense = _draw_dense(data, nrows, ncols)
    rows = _sparse(dense)
    basis = linalg.sparse_nullspace(rows, ncols)
    for v in basis:
        for r in dense:
            assert sum(a * b for a, b in zip(r, v)) == 0
    assert len(basis) == ncols - linalg.rank(dense)
    # determinism
    assert basis == linalg.sparse_nullspace(rows, ncols)
    # the basis is the reduced-echelon nullspace basis, whatever the
    # pivot rows: it depends on the matrix, not on the row order
    assert basis == _rref_nullspace(dense, ncols)
    assert basis == linalg.sparse_nullspace(rows[::-1], ncols)

    # rank and rref against the dense Gauss-Jordan reference
    ref_pivots = _dense_rref(dense)[1]
    pivots = linalg.rref(rows, ncols)
    assert list(pivots) == ref_pivots
    assert linalg.rank(dense) == len(ref_pivots)
    # the pivot rows are echelon, coprime integer rows spanning the rows
    for col, row in pivots.items():
        assert min(row) == col and all(isinstance(v, int) for v in row.values())
        assert gcd(*row.values()) == 1
        as_dense = [Q(row.get(i, 0)) for i in range(ncols)]
        assert len(_dense_rref(dense + [as_dense])[1]) == len(ref_pivots)
    # solve: a consistent right-hand side A x, or a random one, which is
    # inconsistent whenever the rows are dependent and it misses the image
    if data.draw(st.booleans()):
        x = [data.draw(coeffs) for _ in range(ncols)]
        b = [sum((a * v for a, v in zip(r, x)), Q(0)) for r in dense]
    else:
        b = [data.draw(coeffs) for _ in range(nrows)]
    assert linalg.solve(dense, b) == _dense_solve(dense, b)
    # span coordinates: the rows as a (possibly dependent) basis
    target = [data.draw(coeffs) for _ in range(ncols)]
    if data.draw(st.booleans()):
        target = [sum((c * r[i] for c, r in zip(b, dense)), Q(0))
                  for i in range(ncols)]
    assert coordinates_in_span(dense, target) == \
        _dense_coordinates(dense, target)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_basis_property(data):
    """One elimination of an independent basis serves every target: the
    block inverse equals the per-column reference, and the coordinates of
    a target in the span equal the dense reference."""
    ncols = data.draw(st.integers(1, 6))
    basis = []
    for row in _draw_dense(data, data.draw(st.integers(0, 6)), ncols):
        if len(_dense_rref(basis + [row])[1]) > len(basis):
            basis.append(row)
    span = linalg.SpanBasis(_sparse(basis), ncols)
    assert span.positions == _dense_rref(basis)[1]
    # one back-substitution of all rows gives the per-column inverse,
    # int or Fraction entry by entry
    reference = free_vector_inverse_rows(_sparse(basis), span.positions)
    assert [[(t, x, type(x)) for t, x in row] for row in span.inverse_rows] \
        == [[(t, x, type(x)) for t, x in row] for row in reference]
    for _ in range(3):
        target = [data.draw(coeffs) for _ in range(ncols)]
        if data.draw(st.booleans()):
            w = [data.draw(coeffs) for _ in basis]
            target = [sum((c * r[i] for c, r in zip(w, basis)), Q(0))
                      for i in range(ncols)]
        coords = _dense_coordinates(basis, target)
        if coords is not None:
            assert span.sparse_coefficients(_sparse([target])[0]) == coords
        # Poly entries at the positions give the same coefficients
        sel = [target[p] for p in span.positions]
        assert span.coefficients([Poly.const(2, x) for x in sel]) == \
            [Poly.const(2, x) for x in span.coefficients(sel)]
    if basis:
        with pytest.raises(ValueError):
            linalg.SpanBasis(_sparse(basis + [basis[-1]]), ncols)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduced_matches_dense_gauss_jordan(data):
    """``reduced(rref(rows))`` is the dense Fraction Gauss-Jordan form,
    entry by entry, int or Fraction included, on int and Fraction inputs
    with zero rows and rows that combine earlier ones."""
    ncols = data.draw(st.integers(1, 7))
    entries = (coeffs if data.draw(st.booleans())
               else st.integers(-10**6, 10**6))
    dense = []
    for _ in range(data.draw(st.integers(0, 7))):
        kind = data.draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            dense.append([0] * ncols)
        elif kind == "combination" and dense:
            a, b = data.draw(coeffs), data.draw(coeffs)
            u, v = data.draw(st.sampled_from(dense)), \
                data.draw(st.sampled_from(dense))
            dense.append([a * x + b * y for x, y in zip(u, v)])
        else:
            dense.append([data.draw(entries) if data.draw(st.booleans())
                          else 0 for _ in range(ncols)])
    red = linalg.reduced(linalg.rref(_sparse(dense), ncols))
    ref, pivots = _dense_rref([[Q(x) for x in row] for row in dense])
    assert list(red) == pivots
    for p, row in zip(pivots, ref):
        expect = {c: exact(x) for c, x in enumerate(row) if x}
        assert [(c, x, type(x)) for c, x in sorted(red[p].items())] == \
            [(c, x, type(x)) for c, x in sorted(expect.items())]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_span_coordinates_check_membership(data):
    """``SpanBasis.coordinates`` of a target in the span equals the dense
    solve, types included; a target that agrees with a span element at
    every position but not elsewhere reads as outside the span."""
    ncols = data.draw(st.integers(1, 6))
    basis = []
    for row in _draw_dense(data, data.draw(st.integers(0, 6)), ncols):
        if len(_dense_rref(basis + [row])[1]) > len(basis):
            basis.append(row)
    span = linalg.SpanBasis(_sparse(basis), ncols)
    w = [data.draw(coeffs) for _ in basis]
    inside = [sum((c * r[i] for c, r in zip(w, basis)), Q(0))
              for i in range(ncols)]
    coords = span.coordinates(_sparse([inside])[0])
    expect = [exact(x) for x in _dense_coordinates(basis, inside)]
    assert [(x, type(x)) for x in coords] == [(x, type(x)) for x in expect]
    off = [c for c in range(ncols) if c not in span.positions]
    if off:
        outside = inside[:]
        outside[data.draw(st.sampled_from(off))] += \
            data.draw(coeffs.filter(bool))
        assert span.coordinates(_sparse([outside])[0]) is None
        # the positions alone cannot tell it
        assert span.sparse_coefficients(_sparse([outside])[0]) == coords


def _loop_coefficients(span, sel):
    """Reference: the loop that multiplies in every truthy entry, which
    is every Poly, zero or not (Poly defines no ``__bool__``)."""
    out = []
    for row in span.inverse_rows:
        acc = Q(0)
        for t, x in row:
            s = sel[t]
            if s:
                acc = acc + s * x
        out.append(acc)
    return out


# independent, with a dense inverse: every coordinate reads every entry
_SPAN3 = [{0: Q(1), 1: Q(2), 2: Q(-1)}, {0: Q(1), 1: Q(-1), 2: Q(1)},
          {1: Q(1), 2: Q(3)}]


def test_span_coefficients_of_zero_polys_stay_polys():
    span = linalg.SpanBasis(_SPAN3, 3)
    sel = [Poly.zero(2)] * 3
    got = span.coefficients(sel)
    assert all(isinstance(x, Poly) and x.is_zero() for x in got)
    _assert_same_entries([got], [_loop_coefficients(span, sel)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_span_coefficients_skip_zero_entries(data):
    """Skipping zero entries of any kind gives the reference's values,
    types and term order, for Poly, Fraction and mixed selections."""
    span = linalg.SpanBasis(_SPAN3, 3)
    kinds = data.draw(st.sampled_from([(Poly,), (Q,), (Poly, Q)]))
    sel = [_draw_entry(data, data.draw(st.sampled_from(kinds)))
           for _ in range(3)]
    _assert_same_entries([span.coefficients(sel)],
                         [_loop_coefficients(span, sel)])


def _rref_nullspace(dense, ncols):
    """Oracle: one vector per free column of the dense reduced row
    echelon form, one at that column and zero at the other free ones."""
    red, pivots = _dense_rref(dense)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Q(0)] * ncols
        vec[fc] = Q(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][fc]
        out.append(vec)
    return out


def test_symmetric_signature():
    m = [[Q(2), Q(0)], [Q(0), Q(-3)]]
    assert linalg.symmetric_signature(m) == (2, 1, 1)
    deg = [[Q(0), Q(1)], [Q(1), Q(0)]]
    rank, pos, neg = linalg.symmetric_signature(deg)
    assert rank == 2 and pos == 1 and neg == 1
    assert linalg.symmetric_signature([[Q(0)]]) == (0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rref_matches_cross_multiplication_oracle(data):
    """The in-place eliminator against the one that rebuilt every row with
    full multipliers, on sparse rational matrices up to 9 x 9, integer
    ones with large entries included."""
    ncols = data.draw(st.integers(1, 9))
    nrows = data.draw(st.integers(0, 9))
    entries = (coeffs if data.draw(st.booleans())
               else st.integers(-10**12, 10**12))
    rows = [{c: v for c in range(ncols)
             if data.draw(st.integers(0, 2)) == 0
             and (v := data.draw(entries))}
            for _ in range(nrows)]
    assert rref_disagreements(rows, ncols) == []


def _symmetric(data, n, zero_diagonal):
    m = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            if data.draw(st.booleans()):
                m[i][j] = m[j][i] = data.draw(coeffs)
    return m


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_symmetric_signature_matches_dense_oracle(data):
    """The sparse signature against dense congruence diagonalization on
    random symmetric rational matrices; half of them have a zero
    diagonal, where the dense one adds a row and column to the pivot."""
    n = data.draw(st.integers(0, 8))
    m = _symmetric(data, n, data.draw(st.booleans()))
    assert linalg.symmetric_signature(m) == dense_symmetric_signature(m)


@pytest.mark.parametrize("m, expected", [
    # dense: a zero pivot swapped with a later nonzero diagonal entry
    ([[0, 1, 0], [1, 0, 3], [0, 3, 2]], (3, 2, 1)),
    # dense: every diagonal entry zero, a row and column added
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], (2, 1, 1)),
    ([[0, 0, 0], [0, 0, 5], [0, 5, 0]], (2, 1, 1)),
    ([[0, 0], [0, 0]], (0, 0, 0)),
])
def test_symmetric_signature_zero_pivots(m, expected):
    assert dense_symmetric_signature(m) == expected
    assert linalg.symmetric_signature(m) == expected


# rank 2: rows 3 and 4 are combinations of rows 1 and 2, which binary
# floating-point elimination does not find (it reports rank 4)
_RANK2_FORM = [[90, -36, -54, 99], [-36, 18, 30, -45],
               [-54, 30, 52, -72], [99, -45, -72, 117]]


@pytest.mark.parametrize("kind", [int, Q])
def test_symmetric_signature_is_exact_on_int_entries(kind):
    m = [[kind(x) for x in row] for row in _RANK2_FORM]
    assert linalg.symmetric_signature(m) == (2, 2, 0)


def test_nilpotent_series():
    n = {(0, 1): Q(1), (0, 2): Q(2), (1, 2): Q(3)}
    u = mat_add(frac_identity(3), dense(n, 3))
    inv = linalg.nilpotent_series(n, 3, linalg.inverse_coeff)
    assert mat_eq(linalg.mat_mul(u, mat_add(frac_identity(3), dense(inv, 3))),
                  frac_identity(3))
    log = linalg.nilpotent_series(n, 3, linalg.log_coeff)
    assert linalg.nilpotent_series(log, 3, linalg.exp_coeff) == n


_X = Poly.var(1, 0)


def _reject_series(series, nil):
    """Run ``series`` on the 2 x 2 matrix N of the sparse map ``nil``: a
    coefficient rule through the sparse series, the dense exponential
    oracle on the dense form of N (zeros and identity of N's ring)."""
    if series is not nilpotent_exp:
        return linalg.nilpotent_series(nil, 2, series)
    one = next(iter(nil.values())) ** 0
    zero = one - one
    mat = [[nil.get((i, j), zero) for j in range(2)] for i in range(2)]
    return nilpotent_exp(mat, [[one, zero], [zero, one]])


@pytest.mark.parametrize("series,bad,poly_bad", [
    # the inverse and the log of I + N for N = [[1, 1], [0, 0]] (N^2 = N)
    # and [[x, 0], [0, 0]]; the dense exponential of [[0, 1], [1, 0]] and
    # [[0, x], [x, 0]]
    (linalg.inverse_coeff, {(0, 0): Q(1), (0, 1): Q(1)}, {(0, 0): _X}),
    (linalg.log_coeff, {(0, 0): Q(1), (0, 1): Q(1)}, {(0, 0): _X}),
    (nilpotent_exp, {(0, 1): Q(1), (1, 0): Q(1)}, {(0, 1): _X, (1, 0): _X}),
])
def test_series_reject_non_unipotent(series, bad, poly_bad):
    """A truncated series would be silently wrong: inputs N with N^n != 0
    raise instead, for Fraction and Poly entries, in the sparse series and
    in the dense oracle the exponential charts are checked against."""
    with pytest.raises(ValueError, match="not nilpotent"):
        _reject_series(series, bad)
    with pytest.raises(ValueError, match="not nilpotent"):
        _reject_series(series, poly_bad)


def test_sparse_exponential_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        linalg.nilpotent_series({(0, 1): Q(1), (1, 0): Q(1)}, 2,
                                linalg.exp_coeff)
    with pytest.raises(ValueError, match="not nilpotent"):
        linalg.nilpotent_series({(0, 1): _X, (1, 0): _X}, 2,
                                linalg.exp_coeff)


# ---------------------------------------------------------------------------
# sparse matrix product against the dense triple loop
# ---------------------------------------------------------------------------

def _dense_mat_mul(a, b):
    """Reference: the dense triple loop, every product summed in
    increasing inner index, zero entries included."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _canonical_type(x):
    """Poly, or the type of the canonical scalar equal to x: int iff x is
    integral, else Fraction."""
    if type(x) is Poly:
        return Poly
    assert type(x) in (int, Q)
    return int if x.denominator == 1 else Q


def _assert_same_entries(got, want, term_order=True):
    """Equal entries of equal canonical type (a Poly, an integral scalar
    or a non-integral one); Poly entries over the same ring with their
    terms in the same order (the order fixes the output bytes of a
    matrix product; ``term_order`` False skips this) and every
    coefficient canonical on both sides."""
    assert len(got) == len(want)
    for rg, rw in zip(got, want):
        assert len(rg) == len(rw)
        for x, y in zip(rg, rw):
            assert _canonical_type(x) is _canonical_type(y)
            assert x == y
            if type(y) is Poly:
                assert x.nvars == y.nvars
                if term_order:
                    assert list(x.terms.items()) == list(y.terms.items())
                assert all(_is_canonical(c) for p in (x, y)
                           for c in p.terms.values())


# few monomials and small coefficients, so sums collide and cancel: a
# cancelled monomial that comes back moves to the end of the term dict
_small = st.sampled_from([Q(-2), Q(-1), Q(1, 2), Q(1), Q(2)])


def _draw_entry(data, kind):
    if kind is Q:
        return data.draw(_small) if data.draw(st.booleans()) else Q(0)
    terms = {}
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(1, 3))):
            mono = tuple(data.draw(st.integers(0, 1)) for _ in range(2))
            terms[mono] = data.draw(_small)
    return Poly(2, terms)


def _draw_matrix(data, kind, nrows, ncols):
    m = [[_draw_entry(data, kind) for _ in range(ncols)]
         for _ in range(nrows)]
    zero = Q(0) if kind is Q else Poly.zero(2)
    for i in data.draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        m[i] = [zero] * ncols
    for j in data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in m:
            row[j] = zero
    return m


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       kinds=st.sampled_from([(Q, Q), (Poly, Poly), (Poly, Q), (Q, Poly)]))
def test_mat_mul_matches_dense_loop(data, kinds):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = _draw_matrix(data, kinds[0], n, k)
    b = _draw_matrix(data, kinds[1], k, m)
    _assert_same_entries(linalg.mat_mul(a, b), _dense_mat_mul(a, b))


def _strictly_upper_after(perm, m, zero):
    """m with every entry off the strictly upper part of the order
    ``perm`` set to zero: nilpotent, but not triangular in the index
    order unless perm is the identity."""
    rank = {p: k for k, p in enumerate(perm)}
    return [[x if rank[i] < rank[j] else zero for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def _dense_identity(zero, n):
    return [[zero + 1 if i == j else zero for j in range(n)]
            for i in range(n)]


def _draw_nilpotent(data, kind, n):
    """A nilpotent n x n matrix, strictly upper in a drawn order.  Half of
    the time it is conjugated by I + c E_ab, so that it may have diagonal
    entries."""
    zero = Q(0) if kind is Q else Poly.zero(2)
    ident = _dense_identity(zero, n)
    perm = data.draw(st.permutations(range(n)))
    nil = _strictly_upper_after(perm, _draw_matrix(data, kind, n, n), zero)
    if data.draw(st.booleans()) and n > 1:
        a, b = data.draw(st.permutations(range(n)))[:2]
        c = data.draw(_small)
        p, p_inv = [row[:] for row in ident], [row[:] for row in ident]
        p[a][b], p_inv[a][b] = ident[0][0] * c, ident[0][0] * -c
        nil = _dense_mat_mul(_dense_mat_mul(p, nil), p_inv)
    return nil


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Q, Poly]),
       rule=st.sampled_from(["exp", "log", "inverse"]))
def test_nilpotent_series_matches_dense(data, kind, rule):
    """The sparse series sum_k c_k N^k of a nilpotent entry map equals the
    dense series with independently written coefficients, for exp, log
    and the inverse: values, types and term order, and no zeros kept."""
    n = data.draw(st.integers(1, 4))
    nil = _draw_nilpotent(data, kind, n)
    got = linalg.nilpotent_series(
        {(i, j): x for i, row in enumerate(nil) for j, x in enumerate(row)},
        n, getattr(linalg, rule + "_coeff"))
    zero = nil[0][0] * 0
    zeros = [[zero] * n for _ in range(n)]
    want = dense_nilpotent_series(nil, _dense_identity(zero, n), zeros,
                                  DENSE_COEFFS[rule])
    assert all(x != 0 for x in got.values())
    _assert_same_entries([[got.get((i, j), zero) for j in range(n)]
                          for i in range(n)], want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Q, Poly]))
def test_sparse_group_exponential_matches_dense(data, kind):
    """Multiplying a matrix by I + F, for F = exp(N) - I of a nilpotent N
    (diagonal entries, and -1 there, included), equals the dense loop
    product with I + F: values, types and term order."""
    n = data.draw(st.integers(1, 4))
    nil = _draw_nilpotent(data, kind, n)
    f = linalg.nilpotent_series(
        {(i, j): x for i, row in enumerate(nil) for j, x in enumerate(row)},
        n, linalg.exp_coeff)
    ident = _dense_identity(nil[0][0] * 0, n)
    unipotent = [[f[i, j] + ident[i][j] if (i, j) in f else ident[i][j]
                  for j in range(n)] for i in range(n)]
    m = _draw_matrix(data, kind, n, n)
    _assert_same_entries(linalg.mul_unipotent(m, f),
                         _dense_mat_mul(m, unipotent))


_ADJOINT_CASES = ([(a, k) for a in ("sl3", "sl4", "sl5", "sp2")
                   for k in ("matrix", "second_kind")]
                  + [("sp3", "second_kind")]
                  + [(a, k) for a in ("sl4", "sp2", "sp3")
                     for k in ("first_kind", "three_factor")]
                  + [("sl3", "second_kind-ad"), ("sl3", "first_kind-ad"),
                     ("sp2", "second_kind-ad"), ("sp2", "three_factor-ad")])


@pytest.mark.parametrize("alg_name,kind", _ADJOINT_CASES)
def test_adjoint_of_point_matches_lifted_dense_path(request, monkeypatch,
                                                    alg_name, kind):
    """tau's adjoint action at the generic point against a reference with
    every product through the dense loop (the generic point as the dense
    product of dense group exponentials, and its inverse, included) and
    the element lifted to constant Polys.  Kinds ending in ``-ad`` use the
    structure-constant (adjoint) realization.  Every element is passed
    as its entry map, and index subsets give the reference's coefficients
    at those indices, in their order.  The conjugation oracle's matrix
    products keep the dense loop's term order; the series summed from
    the structure constants adds its terms in another order, so it is
    compared by value, type and ring."""
    alg = request.getfixturevalue(alg_name)
    kind, _, backend = kind.partition("-")
    real = alg.ad_realization() if backend == "ad" else alg.realization
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "mat_mul", _dense_mat_mul)
        old = Chart(alg, kind, realization=real)
        n = dense_generic_point(old)
        n_inv = dense_generic_point(old, inverse=True)
        want = []
        for k in range(alg.dim):
            elem = [[Poly.const(old.nvars, x) for x in row]
                    for row in dense(real.entries[k], real.size)]
            conj = _dense_mat_mul(_dense_mat_mul(n_inv, elem), n)
            want.append(real.read(range(alg.dim), lambda i, j: conj[i][j]))
    new = Chart(alg, kind, realization=real)
    _assert_same_entries([matrix_adjoint_of_point(new, real.entries[k])
                          for k in range(alg.dim)], want)
    got = [adjoint_of_point(new, real.entries[k]) for k in range(alg.dim)]
    _assert_same_entries(got, want, term_order=False)
    positive = [alg.full_index(r) for r in range(alg.n_pos)]
    for indices in (positive, list(range(alg.dim))[::-3], []):
        got = [adjoint_of_point(new, real.entries[k], indices)
               for k in range(alg.dim)]
        _assert_same_entries(got, [[w[c] for c in indices] for w in want],
                             term_order=False)
