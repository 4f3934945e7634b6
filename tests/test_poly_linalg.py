from __future__ import annotations

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import linalg
from mclab.liealg import Chart, adjoint_of_point
from mclab.poly import Poly, monomials_of_weighted_degree, parse_fraction

from conftest import dense, frac_identity, mat_add, mat_eq
from oracles import (DENSE_COEFFS, coordinates_in_span, dense_generic_point,
                     dense_nilpotent_series, nilpotent_exp)


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


def test_weighted_grading():
    p = Poly(2, {(1, 1): Q(1), (3, 0): Q(2)})
    assert p.weighted_degree([1, 2]) == 3
    parts = p.weighted_parts([1, 2])
    assert set(parts) == {3}
    assert p.is_weighted_homogeneous([1, 2])
    assert not (p + Poly.const(2, 1)).is_weighted_homogeneous([1, 2])


def test_render_and_lift():
    p = Poly(2, {(1, 2): Q(-1, 2), (0, 0): Q(3)})
    assert p.render(["x", "y"]) == "-1/2*x*y^2 + 3"
    lifted = p.lift(3, [2, 0])
    assert lifted == Poly(3, {(2, 0, 1): Q(-1, 2), (0, 0, 0): Q(3)})


def test_monomial_enumeration_deterministic():
    out = monomials_of_weighted_degree([1, 2], 4)
    assert out == [(0, 2), (2, 1), (4, 0)]
    assert monomials_of_weighted_degree([1], 0) == [(0,)]


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
    """Reference product: every term pair summed through
    ``acc.get(m, 0)``, a cancelled monomial popped."""
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = acc.get(m, Q(0)) + c1 * c2
            if s == 0:
                acc.pop(m, None)
            else:
                acc[m] = s
    out = Poly(p.nvars)
    out.terms = acc
    return out


def _assert_same_poly(got, want):
    assert got.nvars == want.nvars
    assert list(got.terms.items()) == list(want.terms.items())


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
    _assert_same_poly(p * q * r, _loop_mul(_loop_mul(p, q), r))


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
    coordinates equal the dense reference, and None marks a target
    outside the span."""
    ncols = data.draw(st.integers(1, 6))
    basis = []
    for row in _draw_dense(data, data.draw(st.integers(0, 6)), ncols):
        if len(_dense_rref(basis + [row])[1]) > len(basis):
            basis.append(row)
    span = linalg.SpanBasis(_sparse(basis), ncols)
    assert span.positions == _dense_rref(basis)[1]
    for _ in range(3):
        target = [data.draw(coeffs) for _ in range(ncols)]
        if data.draw(st.booleans()):
            w = [data.draw(coeffs) for _ in basis]
            target = [sum((c * r[i] for c, r in zip(w, basis)), Q(0))
                      for i in range(ncols)]
        coords = span.coordinates(_sparse([target])[0])
        assert coords == _dense_coordinates(basis, target)
        # Poly entries at the positions give the same coefficients
        sel = [target[p] for p in span.positions]
        assert span.coefficients([Poly.const(2, x) for x in sel]) == \
            [Poly.const(2, x) for x in span.coefficients(sel)]
    if basis:
        with pytest.raises(ValueError):
            linalg.SpanBasis(_sparse(basis + [basis[-1]]), ncols)


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


def _assert_same_entries(got, want):
    """Equal entries of equal type; Poly entries over the same ring with
    their terms in the same order (the order fixes the output bytes)."""
    assert len(got) == len(want)
    for rg, rw in zip(got, want):
        assert len(rg) == len(rw)
        for x, y in zip(rg, rw):
            assert type(x) is type(y)
            assert x == y
            if isinstance(y, Poly):
                assert x.nvars == y.nvars
                assert list(x.terms.items()) == list(y.terms.items())


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
    at those indices, in their order."""
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
    got = [adjoint_of_point(new, real.entries[k]) for k in range(alg.dim)]
    _assert_same_entries(got, want)
    positive = [alg.full_index(r) for r in range(alg.n_pos)]
    for indices in (positive, list(range(alg.dim))[::-3], []):
        got = [adjoint_of_point(new, real.entries[k], indices)
               for k in range(alg.dim)]
        _assert_same_entries(got, [[w[c] for c in indices] for w in want])
