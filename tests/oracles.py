"""Reference oracles that only the tests use.

Each one computes independently, or densely, what the package computes
another way; the tests compare the two exactly.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial

from conftest import dense
from mclab import linalg
from mclab.liealg import Chart, SplitLieAlgebra
from mclab.poly import Poly
from mclab.polybasis import solve_H_of_gamma


def frac_zero(n: int, m: int | None = None):
    m = n if m is None else m
    return [[Q(0)] * m for _ in range(n)]


def nilpotent_exp(nil, identity):
    """exp(N) of a nilpotent matrix as the dense finite series: the
    reference for the charts' sparse group exponential
    ``linalg.nilpotent_exp_sparse``.  Raises ``ValueError`` when N^n != 0."""
    return linalg._nilpotent_series(nil, identity, identity,
                                    lambda k: Q(1, factorial(k)))


def dense_generic_point(chart: Chart, inverse: bool = False):
    """The generic point of an exponential chart as the dense product of
    the dense exponentials (:func:`nilpotent_exp`) of its root groups: the
    reference for the chart's sparse construction.  With ``inverse``, the
    reversed product of the groups' exp(-N).  The matrix-entry charts'
    closed forms are returned as they are, and inverted by the Neumann
    series."""
    nv = chart.nvars
    ident = chart._poly_identity(nv)
    if chart.groups is None:
        point = chart.generic_matrix()
        return linalg.unipotent_inverse(point, ident) if inverse else point
    size = len(ident)
    point = ident
    for group in chart.groups[::-1] if inverse else chart.groups:
        nil = [[Poly.zero(nv)] * size for _ in range(size)]
        for r in group:
            x_r = Poly.var(nv, chart.coord_index(r)) * (-1 if inverse else 1)
            basis = dense(chart.realization.entries[
                chart.algebra.full_index(r)], size)
            nil = linalg.mat_add(nil, [[x_r * x for x in row] for row in basis])
        point = linalg.mat_mul(point, nilpotent_exp(nil, ident))
    return point


def coordinates_in_span(basis: list[list[Q]], target: list[Q]) -> list[Q] | None:
    """Coefficients expressing target over the given basis vectors, or None.

    The dense twin of ``linalg.SpanBasis.coordinates``: one ``solve`` of
    the dense system per target, and the basis may be dependent."""
    a = [[v[i] for v in basis] for i in range(len(target))]
    return linalg.solve(a, list(target))


def extend_H_by_chain(algebra: SplitLieAlgebra, gamma_simple: int,
                      chain: list[int]):
    """H(gamma') from H(gamma) by subtracting one third of each chain
    element's representing Cartan vector."""
    base = solve_H_of_gamma(algebra, gamma_simple)
    out = list(base)
    for d in chain:
        hd = algebra.h_representing(d, "normalization")
        out = [x - Q(1, 3) * y for x, y in zip(out, hd)]
    return tuple(out)


def adjoint_series_of_point(chart: Chart, point, element_coeffs, inverse=True):
    """Same adjoint action through exp(-ad nu) on coefficient vectors.

    ``element_coeffs`` are full-basis coefficients; returns coefficients.
    The point is converted to its logarithm and the finite ad-exponential
    is applied in the adjoint realization.

    This is an independent cross-check of ``liealg.adjoint_of_point``, not a
    fast path: at the generic point of the sp(3) second-kind chart it
    takes about 0.5 s per element (a ``Poly`` matrix log and a dense
    exponential in the 21-dimensional adjoint realization), while
    ``liealg.adjoint_of_point`` takes about 2-3 ms per element once the
    chart's generic inverse is built.
    """
    alg = chart.algebra
    ad = alg.ad_realization()
    if point is None:
        n = chart.generic_matrix()
        ident = chart._poly_identity(chart.nvars)
    else:
        n = chart.point_matrix(point)
        ident = linalg.frac_identity(chart.realization.size)
    nu = linalg.unipotent_log(n, ident)
    nu_coeffs = chart.realization.read(range(chart.realization.dim),
                                       lambda i, j: nu[i][j])
    poly_mode = point is None
    size = ad.size
    if poly_mode:
        ad_nu = [[Poly.zero(chart.nvars) for _ in range(size)] for _ in range(size)]
    else:
        ad_nu = frac_zero(size)
    for k, ck in enumerate(nu_coeffs):
        if (ck.is_zero() if isinstance(ck, Poly) else ck == 0):
            continue
        base = dense(ad.entries[k], size)
        if poly_mode:
            base = [[Poly.const(chart.nvars, x) for x in row] for row in base]
        ad_nu = linalg.mat_add(ad_nu, linalg.mat_scale(base, ck))
    if inverse:
        ad_nu = linalg.mat_scale(ad_nu, Q(-1))
    ident_big = ([[Poly.const(chart.nvars, Q(1) if i == j else Q(0))
                   for j in range(size)] for i in range(size)]
                 if poly_mode else linalg.frac_identity(size))
    expm = nilpotent_exp(ad_nu, ident_big)
    vec = element_coeffs
    out = []
    for i in range(size):
        acc = expm[i][0] * vec[0]
        for j in range(1, size):
            acc = acc + expm[i][j] * vec[j]
        out.append(acc)
    return out
