"""Definitional oracle for the induced fields.

tau(E) f(n) = d/dt f([exp(-tE) n]) at t = 0, where [g] is the unipotent
factor of g in the big-cell factorization g = n' p (p in the opposite
parabolic).  Here that derivative is computed directly, with dual
numbers over the rationals and an explicit triangular factorization,
and compared against the package's adjoint-action formula.  This check
is independent of every convention choice in the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from mclab.liealg import matrix_chart
from mclab.mcfields import tau

from conftest import dense
from oracles import dense_point, sparse_point


@dataclass(frozen=True)
class Dual:
    """a + t*b with t^2 = 0, over exact rationals."""
    a: Q
    b: Q

    def __eq__(self, o):
        # compares with rationals too: chart extraction's series drops
        # the entries equal to 0
        o = _lift(o)
        return self.a == o.a and self.b == o.b

    def __add__(self, o):
        o = _lift(o)
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-_lift(o))

    def __rsub__(self, o):
        return _lift(o) + (-self)

    def __mul__(self, o):
        o = _lift(o)
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inv(self):
        if self.a == 0:
            raise ZeroDivisionError("non-unit dual number")
        ia = Q(1) / self.a
        return Dual(ia, -self.b * ia * ia)

    def __truediv__(self, o):
        return self * _lift(o).inv()


def _lift(x):
    if isinstance(x, Dual):
        return x
    return Dual(Q(x), Q(0))


def dual_mat(m, slope=None):
    out = []
    for i, row in enumerate(m):
        out.append([Dual(Q(x), Q(slope[i][j]) if slope else Q(0))
                    for j, x in enumerate(row)])
    return out


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Dual(Q(0), Q(0)))
             for j in range(m)] for i in range(n)]


def big_cell_factor(g):
    """Unipotent upper factor of g = n' p with p lower triangular,
    via the reflected LU factorization; entries are dual numbers."""
    n = len(g)
    # reflect through the antidiagonal: J g J has an LU factorization
    # with L lower unipotent; n' = J L J
    r = [[g[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    L = [[Dual(Q(1), Q(0)) if i == j else Dual(Q(0), Q(0))
          for j in range(n)] for i in range(n)]
    U = [row[:] for row in r]
    for c in range(n):
        piv = U[c][c]
        for i in range(c + 1, n):
            f = U[i][c] / piv
            L[i][c] = f
            U[i] = [x - f * y for x, y in zip(U[i], U[c])]
    return [[L[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]


POINTS = {
    3: [[Q(1), Q(-2), Q(3)], [Q(1, 2), Q(2, 3), Q(-5)]],
    4: [[Q(1), Q(-1), Q(2), Q(1, 2), Q(-3), Q(4)],
        [Q(0), Q(2), Q(-1, 3), Q(1), Q(5), Q(-2, 5)]],
}


@pytest.mark.parametrize("size", [3, 4])
def test_tau_equals_definitional_derivative(size, sl3, sl4):
    alg = {3: sl3, 4: sl4}[size]
    chart = matrix_chart(alg)
    for pt in POINTS[size]:
        n_mat = dense_point(chart.point(pt), size)
        for k in range(alg.dim):
            e = alg.realization.entries[k]
            E = dense(e, size)
            # g(t) = exp(-tE) n = (I - tE) n + O(t^2)
            minus_tE = [[Dual(Q(1) if i == j else Q(0), -Q(E[i][j]))
                         for j in range(size)] for i in range(size)]
            g = mat_mul(minus_tE, dual_mat(n_mat))
            factor = big_cell_factor(g)
            # derivative of each chart coordinate at t = 0
            field = tau(alg, chart, e).to_coordinate()
            for r in range(chart.nvars):
                i, j = _entry_position(alg, r)
                assert factor[i][j].a == n_mat[i][j]
                assert factor[i][j].b == field.component(r).eval(pt), (k, r)


def _entry_position(alg, root_id):
    coeffs = alg.rs.root(root_id).coeffs
    i = next(k for k, c in enumerate(coeffs) if c)
    j = max(k for k, c in enumerate(coeffs) if c) + 1
    return i, j


def test_tau_sp2_positive_and_cartan_directions(sp2, chart_sp2):
    """For elements of the unipotent algebra and the Cartan subspace the
    big-cell factor is computable by exact group operations alone."""
    pts = [[Q(1), Q(-2), Q(3), Q(1, 2)], [Q(2, 3), Q(1), Q(0), Q(-1)]]
    for pt in pts:
        n_mat = dense_point(chart_sp2.point(pt), 4)
        # positive root directions: exp(-tE) n stays unipotent, so the
        # factor is the literal product
        for r in range(sp2.rs.n_pos):
            e = sp2.realization.entries[sp2.full_index(r)]
            E = dense(e, 4)
            minus_tE = [[Dual(Q(1) if i == j else Q(0), -Q(E[i][j]))
                         for j in range(4)] for i in range(4)]
            g = mat_mul(minus_tE, dual_mat(n_mat))
            # a coordinate that is exactly 0 comes back as a Fraction
            coords = [_lift(c) for c in chart_sp2.extract(sparse_point(g))]
            field = tau(sp2, chart_sp2, e).to_coordinate()
            for k in range(chart_sp2.nvars):
                assert coords[k].a == pt[k]
                assert coords[k].b == field.component(k).eval(pt)
        # Cartan directions: exp(-tH) n exp(tH) is the factor
        for i in range(sp2.rank):
            h = sp2.realization.cartan[i]
            H = dense(h, 4)
            minus_tH = [[Dual(Q(1) if r == c else Q(0), -Q(H[r][c]))
                         for c in range(4)] for r in range(4)]
            plus_tH = [[Dual(Q(1) if r == c else Q(0), Q(H[r][c]))
                        for c in range(4)] for r in range(4)]
            g = mat_mul(mat_mul(minus_tH, dual_mat(n_mat)), plus_tH)
            coords = [_lift(c) for c in chart_sp2.extract(sparse_point(g))]
            field = tau(sp2, chart_sp2, h).to_coordinate()
            for k in range(chart_sp2.nvars):
                assert coords[k].b == field.component(k).eval(pt)


def test_solution_algebra_invariants(sl3, chart_sl3, sp2, chart_sp2,
                                     sl4, chart_sl4):
    """Isomorphism-class invariants of the solution algebras: the full
    rank-2 slice and the rank-2 C slice both give an 8-dimensional
    perfect algebra with nondegenerate trace form of signature (5, 3) --
    the same invariants as the split rank-2 special linear algebra --
    while the rank-3 type-2 slice gives the 9-dimensional normalizer
    quotient, which is not semisimple."""
    from mclab.hessenberg import type_p_subset, validate
    from mclab.mcfields import solve_mc

    full3 = validate(sl3.rs, set(range(sl3.rs.n_pos)))
    s1 = solve_mc(full3, chart_sl3).algebra_summary()
    assert s1 == {"dimension": 8, "bracket_closed": True,
                  "derived_series": [8, 8], "killing_rank": 8,
                  "killing_signature": [5, 3]}

    sliceC = validate(sp2.rs, {0, 1, 2})
    s2 = solve_mc(sliceC, chart_sp2).algebra_summary()
    assert s2 == s1   # same invariants: the counterexample identification

    t2 = type_p_subset(sl4.rs, 2)
    s3 = solve_mc(t2, chart_sl4).algebra_summary()
    assert s3["dimension"] == 9 and s3["bracket_closed"]
    assert s3["derived_series"][1] < 9   # not perfect: parabolic quotient
