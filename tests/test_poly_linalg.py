from __future__ import annotations

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab import linalg
from mclab.poly import Poly, monomials_of_weighted_degree, parse_fraction


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
    assert linalg.coordinates_in_span(basis, [Q(2), Q(3), Q(5)]) == \
        [Q(2), Q(3)]
    assert linalg.coordinates_in_span(basis, [Q(0), Q(0), Q(1)]) is None
    assert linalg.coordinates_in_span([], [Q(0), Q(0)]) == []
    assert linalg.coordinates_in_span([], [Q(0), Q(1)]) is None


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
    assert linalg.coordinates_in_span(dense, target) == \
        _dense_coordinates(dense, target)


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
    ident = linalg.frac_identity(3)
    n = [[Q(0), Q(1), Q(2)], [Q(0), Q(0), Q(3)], [Q(0), Q(0), Q(0)]]
    u = linalg.mat_add(ident, n)
    inv = linalg.unipotent_inverse(u, ident)
    assert linalg.mat_eq(linalg.mat_mul(u, inv), ident)
    log = linalg.unipotent_log(u, ident)
    exp = linalg.nilpotent_exp(log, ident)
    assert linalg.mat_eq(exp, u)
