"""Reference oracles that only the tests use.

Each one computes independently, or densely, what the package computes
another way; the tests compare the two exactly.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial

from conftest import dense, frac_identity, mat_add, mat_scale, mat_sub
from mclab import linalg
from mclab.liealg import Chart, SplitLieAlgebra
from mclab.poly import Poly
from mclab.polybasis import solve_H_of_gamma


def frac_zero(n: int, m: int | None = None):
    m = n if m is None else m
    return [[Q(0)] * m for _ in range(n)]


# the dense series' coefficient rules, written out apart from linalg's
DENSE_COEFFS = {
    "exp": lambda k: Q(1, factorial(k)),
    "log": lambda k: Q((-1) ** (k + 1), k),
    "inverse": lambda k: Q((-1) ** k),
}


def _is_zero_matrix(m) -> bool:
    return all(x.is_zero() if isinstance(x, Poly) else x == 0
               for row in m for x in row)


def dense_nilpotent_series(nil, identity, start, coeff):
    """start + sum_{k >= 1} coeff(k) nil^k of a dense nilpotent matrix,
    summed until nil^k = 0: the reference for ``linalg.nilpotent_series``.

    Raises ``ValueError`` when nil^n != 0 for an n x n matrix.
    """
    out = [row[:] for row in start]
    power = identity
    for k in range(1, len(nil) + 1):
        power = linalg.mat_mul(power, nil)
        if _is_zero_matrix(power):
            return out
        out = mat_add(out, mat_scale(power, coeff(k)))
    raise ValueError("matrix is not nilpotent")


def nilpotent_exp(nil, identity):
    """exp(N) of a nilpotent matrix as the dense finite series."""
    return dense_nilpotent_series(nil, identity, identity, DENSE_COEFFS["exp"])


def unipotent_inverse(a, identity):
    """Inverse of I + N with N nilpotent, by the dense Neumann series."""
    return dense_nilpotent_series(mat_sub(a, identity), identity, identity,
                                  DENSE_COEFFS["inverse"])


def unipotent_log(a, identity):
    """log(I + N) with N nilpotent, by the dense series."""
    nil = mat_sub(a, identity)
    return dense_nilpotent_series(nil, identity, mat_scale(nil, Q(0)),
                                  DENSE_COEFFS["log"])


def closed_form_generic_point(chart: Chart):
    """The matrix-entry chart's generic point in closed form: I + sum_r x_r
    E_r for sl(n), the standard presentation's point for sp(2).  The
    reference for the chart's product of root-group exponentials."""
    alg = chart.algebra
    nv = chart.nvars
    if alg.family == "sl":
        m = chart._poly_identity(nv)
        for k, r in enumerate(chart.coord_roots):
            (i, j), = alg.realization.entries[alg.full_index(r)]
            m[i][j] = m[i][j] + Poly.var(nv, k)
        return m
    u, x, y, z = (Poly.var(nv, k) for k in range(4))
    one, zero = Poly.const(nv, 1), Poly.zero(nv)
    return [
        [one, zero, zero, zero],
        [u * Q(-1, 2), one, zero, zero],
        [z - u * y * Q(1, 2), y, one, u * Q(1, 2)],
        [y - u * x, x * 2, zero, one],
    ]


def dense_generic_point(chart: Chart, inverse: bool = False):
    """The generic point of a chart as the dense product of the dense
    exponentials (:func:`nilpotent_exp`) of its root groups: the reference
    for the chart's sparse construction.  With ``inverse``, the reversed
    product of the groups' exp(-N)."""
    nv = chart.nvars
    ident = chart._poly_identity(nv)
    size = len(ident)
    point = ident
    for group in chart.groups[::-1] if inverse else chart.groups:
        nil = [[Poly.zero(nv)] * size for _ in range(size)]
        for r in group:
            x_r = Poly.var(nv, chart.coord_index(r)) * (-1 if inverse else 1)
            basis = dense(chart.realization.entries[
                chart.algebra.full_index(r)], size)
            nil = mat_add(nil, [[x_r * x for x in row] for row in basis])
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
        ident = frac_identity(chart.realization.size)
    nu = unipotent_log(n, ident)
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
        ad_nu = mat_add(ad_nu, mat_scale(base, ck))
    if inverse:
        ad_nu = mat_scale(ad_nu, Q(-1))
    ident_big = ([[Poly.const(chart.nvars, Q(1) if i == j else Q(0))
                   for j in range(size)] for i in range(size)]
                 if poly_mode else frac_identity(size))
    expm = nilpotent_exp(ad_nu, ident_big)
    vec = element_coeffs
    out = []
    for i in range(size):
        acc = expm[i][0] * vec[0]
        for j in range(1, size):
            acc = acc + expm[i][j] * vec[j]
        out.append(acc)
    return out
