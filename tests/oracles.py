"""Reference oracles that only the tests use.

Each one computes independently, or densely, what the package computes
another way; the tests compare the two exactly.
"""

from __future__ import annotations

import weakref
from fractions import Fraction as Q
from itertools import combinations
from math import factorial, gcd

from conftest import dense, frac_identity, mat_add, mat_scale, mat_sub
from mclab import linalg
from mclab.fields import PolyVectorField
from mclab.hessenberg import analyze
from mclab.mcfields import (NormalizerComparison, normalizer_basis_indices,
                            tau, tau_basis)
from mclab.liealg import (Chart, LieAlgebraError, SplitLieAlgebra,
                          _sparse_bracket, _transpose)
from mclab.poly import Poly, exact
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


_DENSE_POINTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def slice_point(chart: Chart, slice_roots=None, inverse: bool = False):
    """The dense generic point of :func:`dense_generic_point` (its inverse
    with ``inverse``) with every coordinate outside ``slice_roots`` zero,
    none when None.  The slice must be a lower order ideal
    (``Chart._slice``).  The dense products are formed once per chart."""
    roots = set(chart._slice(
        None if slice_roots is None else frozenset(slice_roots)))
    points = _DENSE_POINTS.setdefault(chart, {})
    if inverse not in points:
        points[inverse] = dense_generic_point(chart, inverse)
    cvars = [chart.coord_index(r) for r in chart.coord_roots
             if r not in roots]
    return [[p.at_zero(cvars) for p in row] for row in points[inverse]]


def matrix_adjoint_of_point(chart: Chart, element, indices=None,
                            slice_roots=None):
    """``liealg.adjoint_of_point`` by conjugation: the coefficients of
    n^{-1} E n at the full-basis ``indices`` (all of them, in order, when
    None), with n and n^{-1} the polynomial (slice) point and its inverse
    of :func:`slice_point`.  The reference for the rows of Ad(n^{-1})
    summed from the structure constants.

    ``element`` is an entry map {(p, q): value} in the chart's
    realization.  Only the entries of n^{-1} E n that those coefficients
    read are formed: entry (i, j) is the sum over the nonzeros (p, q) of
    E of n^{-1}[i][p] E[p][q] n[q][j].
    """
    gen = slice_point(chart, slice_roots)
    gen_inv = slice_point(chart, slice_roots, inverse=True)
    e_cols: dict[int, list] = {}        # column q of E: [(p, E[p][q])]
    for (p, q), x in sorted(element.items()):
        if x != 0:
            e_cols.setdefault(q, []).append((p, x))
    zero = Poly.zero(chart.nvars)
    left_rows: dict[int, list] = {}     # row i of n^{-1} E: [(q, value)]

    def entry(i, j):
        left = left_rows.get(i)
        if left is None:
            row = gen_inv[i]
            left = left_rows[i] = [
                (q, x) for q in sorted(e_cols)
                if (x := linalg.sparse_dot(e_cols[q], row.__getitem__,
                                           terms_left=False)) is not None]
        acc = linalg.sparse_dot(left, lambda q: gen[q][j])
        return zero if acc is None else acc

    if indices is None:
        indices = range(chart.realization.dim)
    return chart.realization.read(indices, entry)


def coordinates_in_span(basis: list[list[Q]], target: list[Q]) -> list[Q] | None:
    """Coefficients expressing target over the given basis vectors, or None.

    The dense twin of ``McSolution.coordinates``: one ``solve`` of the
    dense system per target, and the basis may be dependent."""
    a = [[v[i] for v in basis] for i in range(len(target))]
    return linalg.solve(a, list(target))


def decomposition_tables(rs, real):
    """The structure tables with every bracket decomposed over the basis.

    The twin of ``SplitLieAlgebra._derive_tables``, which recomposes each
    bracket as a multiple of one basis element instead: the functionals
    from [H_i, X_r], every unordered root pair (a, b), a < b, and the
    theta scalars, each decomposed by ``real.decompose``, with the same
    checks and messages.  Returns ``(functional, c, h_of_bracket,
    theta_scalar)``, ``c`` in the full (a, b) key order."""
    rank = len(real.cartan)

    def full(root_id):
        return rank + root_id

    entries = real.entries
    functional = []
    for r in range(rs.n_pos):
        vals = []
        x_r = entries[full(r)]
        for i in range(rank):
            comm = _sparse_bracket(entries[i], x_r)
            target = real.decompose(comm)[full(r)]
            if comm != {p: target * x for p, x in x_r.items() if target}:
                raise LieAlgebraError("Cartan element is not diagonal")
            vals.append(target)
        functional.append(tuple(vals))
    half, h_of_bracket = {}, {}
    nroots = 2 * rs.n_pos
    for a in range(nroots):
        for b in range(a + 1, nroots):
            s = rs.add(a, b)
            coeffs = real.decompose(_sparse_bracket(entries[full(a)],
                                                    entries[full(b)]))
            if s is not None:
                if any(x for k, x in enumerate(coeffs) if k != full(s)):
                    raise LieAlgebraError("bracket leaves its root space")
                if coeffs[full(s)]:
                    half[(a, b)] = coeffs[full(s)]
            elif rs.neg(a) == b:
                if a < rs.n_pos:
                    h_of_bracket[a] = tuple(coeffs[:rank])
                if any(coeffs[rank:]):
                    raise LieAlgebraError("[X_a, X_-a] not in the Cartan")
            elif any(coeffs):
                raise LieAlgebraError("bracket of non-summing roots nonzero")
    c = {}
    for a in range(nroots):
        for b in range(nroots):
            if (a, b) in half:
                c[(a, b)] = half[(a, b)]
            elif (b, a) in half:
                c[(a, b)] = -half[(b, a)]
    theta_scalar = {}
    for a in range(nroots):
        coeffs = real.decompose(_transpose(entries[full(a)], -1))
        tgt = full(rs.neg(a))
        if any(x for k, x in enumerate(coeffs) if k != tgt):
            raise LieAlgebraError("theta does not map root space to opposite")
        theta_scalar[a] = coeffs[tgt]
    return functional, c, h_of_bracket, theta_scalar


def free_vector(pivots, fc, ncols):
    """The kernel vector of ``linalg.rref``'s pivot rows with a one at
    free column fc and zeros at the other free columns, by a
    back-substitution of its own, one free column at a time: the
    reference for what ``linalg.reduced`` gives the nullspace and the
    block inverse.

    The substitution runs in integers: the vector is ``num / den`` with
    one common denominator, which grows by the reduced pivot whenever a
    pivot does not divide its row's sum."""
    num = [0] * ncols
    num[fc] = 1
    den = 1
    # a pivot row holds no column left of its pivot, so every pivot
    # right of fc solves to zero
    for col in reversed([c for c in pivots if c < fc]):
        piv = pivots[col]
        s = 0
        for c, v in piv.items():
            if c != col and num[c]:
                s += v * num[c]
        if not s:
            continue
        # num[col] / den = -s / (den * p), over the common denominator
        p = piv[col]
        g = gcd(s, p) if p > 0 else -gcd(s, p)
        s, p = s // g, p // g
        if p != 1:
            num = [x * p for x in num]
            den *= p
        num[col] = -s
    if den == 1:
        return num
    return [exact(Q(x, den)) for x in num]


def gauss_jordan_echelon(vectors, order):
    """Gauss-Jordan on sparse vectors {key: value} in ``Fraction``s: the
    reduced echelon basis of their span, keyed by pivot, each vector
    pivoting at its last key under the sort key ``order``, one there,
    and every other basis vector zero there: the reference for the
    forward map's echelon basis (``mcfields._echelon``)."""
    rows = {}

    def axpy(v, a, row):            # v <- v + a row, zeros dropped
        for u, x in row.items():
            s = v.get(u, 0) + a * x
            if s:
                v[u] = s
            else:
                v.pop(u, None)

    for vec in vectors:
        v = dict(vec)
        for u, row in rows.items():
            x = v.get(u)
            if x:
                axpy(v, -x, row)
        if not v:
            continue
        p = max(v, key=order)
        x = v[p]
        v = {u: exact(Q(c) / x) for u, c in v.items()}
        for row in rows.values():
            y = row.get(p)
            if y:
                axpy(row, -y, v)
        rows[p] = v
    for row in rows.values():
        for u, c in row.items():
            row[u] = exact(c)
    return rows


def free_vector_inverse_rows(vectors, positions):
    """``SpanBasis.inverse_rows`` the per-column way: column k of the
    block inverse is minus the free vector of the k-th identity column of
    [block | I], one back-substitution over 2n columns each."""
    n = len(vectors)
    aug = []
    for t, p in enumerate(positions):
        row = {k: v[p] for k, v in enumerate(vectors) if p in v}
        row[n + t] = 1
        aug.append(row)
    red = linalg.rref(aug, 2 * n)
    cols = [free_vector(red, n + k, 2 * n)[:n] for k in range(n)]
    return [[(t, -x) for t, x in enumerate(row) if x] for row in zip(*cols)]


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
    ``liealg.adjoint_of_point``, summed from the structure constants,
    takes a fraction of a millisecond.
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


class FractionPoly:
    """The polynomial ring operations with every coefficient a
    ``Fraction``, one constructor per coefficient and sums through
    ``terms.get(m, Fraction(0))``: the reference for the values and the
    term order of :class:`mclab.poly.Poly`, whose integral coefficients
    are ints."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {tuple(m): Q(c) for m, c in (terms or {}).items()
                      if c != 0}

    @staticmethod
    def of(p: Poly) -> "FractionPoly":
        return FractionPoly(p.nvars, p.terms)

    def _lift_scalar(self, other):
        if isinstance(other, FractionPoly):
            return other
        return FractionPoly(self.nvars, {(0,) * self.nvars: other})

    def __add__(self, other):
        other = self._lift_scalar(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Q(0)) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        out = FractionPoly(self.nvars)
        out.terms = terms
        return out

    def __neg__(self):
        out = FractionPoly(self.nvars)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-self._lift_scalar(other))

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            c = Q(other)
            out = FractionPoly(self.nvars)
            if c != 0:
                out.terms = {m: cc * c for m, cc in self.terms.items()}
            return out
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = acc.get(m, Q(0)) + c1 * c2
                if s == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = s
        out = FractionPoly(self.nvars)
        out.terms = acc
        return out

    def __pow__(self, k: int):
        out = FractionPoly(self.nvars, {(0,) * self.nvars: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i: int) -> "FractionPoly":
        out = FractionPoly(self.nvars)
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                out.terms[tuple(mm)] = c * m[i]
        return out

    def subs(self, values) -> "FractionPoly":
        vals = {i: self._lift_scalar(v) for i, v in values.items()}
        out = FractionPoly(self.nvars)
        for m, c in self.terms.items():
            term = FractionPoly(self.nvars, {(0,) * self.nvars: c})
            for i, e in enumerate(m):
                if e == 0:
                    continue
                if i in vals:
                    term = term * vals[i] ** e
                else:
                    mono = [0] * self.nvars
                    mono[i] = 1
                    term = term * FractionPoly(self.nvars,
                                               {tuple(mono): 1}) ** e
            out = out + term
        return out

    def lift(self, nvars: int, mapping) -> "FractionPoly":
        out = FractionPoly(nvars)
        for m, c in self.terms.items():
            mm = [0] * nvars
            for i, e in enumerate(m):
                mm[mapping[i]] += e
            out.terms[tuple(mm)] = out.terms.get(tuple(mm), Q(0)) + c
        out.terms = {m: c for m, c in out.terms.items() if c != 0}
        return out


# ---- vector fields as chains of whole-polynomial operations ----------------

def chain_to_coordinate(field) -> dict[int, FractionPoly]:
    """Coordinate-frame components of a field, each a sum of products
    with the frame rows added one whole polynomial at a time."""
    comps = {k: FractionPoly.of(p) for k, p in field.components.items()}
    if field.frame == "coordinate":
        return comps
    rows = field.chart.frame_components(field.slice_roots)
    acc: dict[int, FractionPoly] = {}
    for gamma, f in comps.items():
        for j, a in rows[gamma].items():
            acc[j] = acc.get(j, FractionPoly(f.nvars)) + f * FractionPoly.of(a)
    return acc


def chain_apply(field, f: FractionPoly) -> FractionPoly:
    """The field applied to f as sum_j a_j * (df/dx_j), one whole
    product and one whole sum per coordinate."""
    out = FractionPoly(f.nvars)
    for root_id, comp in chain_to_coordinate(field).items():
        out = out + comp * f.diff(field.chart.coord_index(root_id))
    return out


def composition_bracket(a, b) -> dict[int, Poly]:
    """[a, b] in the coordinate frame as the commutator of the two
    derivations: component k is a(b_k) - b(a_k)."""
    ca, cb = chain_to_coordinate(a), chain_to_coordinate(b)
    zero = FractionPoly(a.chart.nvars)
    out = {}
    for k in set(ca) | set(cb):
        p = chain_apply(a, cb.get(k, zero)) - chain_apply(b, ca.get(k, zero))
        if p.terms:
            out[k] = Poly(p.nvars, p.terms)
    return out


def peel_to_invariant(field) -> dict[int, Poly]:
    """Invariant-frame components of a coordinate-frame field: in height
    order, the residual d/dx_gamma coefficient is the X_gamma component,
    and that multiple of the frame row of X_gamma is subtracted whole.

    Raises ``ValueError`` when a residual is left outside the frame."""
    chart = field.chart
    rows = chart.frame_components(field.slice_roots)
    rs = chart.algebra.rs
    labels = sorted(range(rs.n_pos) if field.slice_roots is None
                    else field.slice_roots, key=lambda g: rs.root(g).height)
    residual = chain_to_coordinate(field)
    out = {}
    for gamma in labels:
        f = residual.pop(gamma, None)
        if f is not None and f.terms:
            out[gamma] = Poly(f.nvars, f.terms)
            for j, a in rows[gamma].items():
                if j != gamma:
                    residual[j] = (residual.get(j, FractionPoly(f.nvars))
                                   - f * FractionPoly.of(a))
    if any(p.terms for p in residual.values()):
        raise ValueError("field has components outside the frame span")
    return out


def full_tau_basis(algebra, chart) -> dict:
    """tau on the full group of every full-basis element, keyed by
    full-basis index: with ``project_to_slice`` the full-group-then-restrict
    reference for ``mcfields.tau_basis``, which reads nu at the slice
    point."""
    return {k: tau(algebra, chart, e)
            for k, e in enumerate(chart.realization.entries)}


def project_to_slice(field, hs):
    """Drop complement components and set complement coordinates to zero:
    a term survives exactly when it has no complement variable.  With
    ``mcfields.tau`` it is the full-group-then-restrict reference for
    ``mcfields.nu``, which reads the slice field at the slice point."""
    chart = field.chart
    cvars = [chart.coord_index(r) for r in hs.C]
    comps = {r: p.at_zero(cvars)
             for r, p in field.to_invariant().components.items() if r in hs.R}
    return PolyVectorField(chart, "invariant", comps, slice_roots=hs.R)


def point_frame(chart: Chart, slice_roots=None) -> dict[int, dict[int, Poly]]:
    """``Chart.frame_components`` read off the slice point's matrices: the
    reference for the frame summed from the structure constants.

    W[k][gamma] is the X_gamma-coefficient of g^{-1} d_k g, with g and
    g^{-1} the polynomial slice point and its inverse (:func:`slice_point`),
    each entry read through the realization's decomposition; the frame
    rows are those of W^{-1}, by the Neumann series of W - I."""
    gen = slice_point(chart, slice_roots)
    gen_inv = slice_point(chart, slice_roots, inverse=True)
    roots = chart._slice(
        None if slice_roots is None else frozenset(slice_roots))
    cols = [chart.algebra.full_index(r) for r in roots]
    zero = Poly.zero(chart.nvars)
    w = []
    for r in roots:
        k = chart.coord_index(r)
        d_cols: dict[int, list] = {}

        def entry(i, j, k=k, d_cols=d_cols):
            # (g^{-1} d_k g)[i][j]
            d_col = d_cols.get(j)
            if d_col is None:
                d_col = d_cols[j] = [
                    (q, d) for q, row in enumerate(gen)
                    if not (d := row[j].diff(k)).is_zero()]
            acc = linalg.sparse_dot(d_col, gen_inv[i].__getitem__,
                                    terms_left=False)
            return zero if acc is None else acc
        w.append(chart.realization.read(cols, entry))
    one = Poly.const(chart.nvars, 1)
    nil = {(k, g): p - one if k == g else p
           for k, row in enumerate(w) for g, p in enumerate(row)}
    w_inv = linalg.nilpotent_series(nil, len(roots), linalg.inverse_coeff)
    rows = {}
    for g, r in enumerate(roots):
        row = rows[r] = {}
        for k, s in enumerate(roots):
            p = w_inv.get((g, k))
            if g == k:
                p = one if p is None else one + p
            if p is not None and not p.is_zero():
                row[s] = p
    return rows


def restricted_frame(chart, slice_roots) -> dict[int, dict[int, Poly]]:
    """The full Maurer-Cartan frame restricted to a slice: slice rows and
    columns, complement coordinates zero, zero entries dropped.  The
    reference for ``Chart.frame_components(slice_roots)``, which forms
    only the slice rows at the slice point."""
    full = chart.frame_components()
    cvars = [chart.coord_index(r)
             for r in chart.coord_roots if r not in slice_roots]
    rows = {}
    for g in chart.coord_roots:
        if g in slice_roots:
            restricted = ((j, p.at_zero(cvars)) for j, p in full[g].items()
                          if j in slice_roots)
            rows[g] = {j: p for j, p in restricted if not p.is_zero()}
    return rows


def subs_project_to_slice(field, hs) -> dict[int, Poly]:
    """Slice components of ``field`` with every complement coordinate
    substituted by zero through ``Poly.subs``."""
    chart = field.chart
    csub = {chart.coord_index(r): 0 for r in hs.C}
    out = {}
    for r, p in field.to_invariant().components.items():
        if r in hs.R:
            q = p.subs(csub)
            if not q.is_zero():
                out[r] = q
    return out


def euclidean_roots(family: str, rank: int):
    """Simple and positive roots of A, B, C, D as Euclidean vectors in
    the standard realization (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Plates I-IV), with C's long roots 2e_i."""
    def e(i):
        return tuple(int(k == i) for k in range(dim))

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    dim = rank + 1 if family == "A" else rank
    simples = [minus(e(i), e(i + 1)) for i in range(dim - 1)]
    pairs = [(e(i), e(j)) for i, j in combinations(range(dim), 2)]
    if family == "A":
        return simples, [minus(x, y) for x, y in pairs]
    positives = [v for x, y in pairs for v in (minus(x, y), plus(x, y))]
    if family == "B":
        simples.append(e(rank - 1))
        positives += [e(i) for i in range(dim)]
    elif family == "C":
        simples.append(plus(e(rank - 1), e(rank - 1)))
        positives += [plus(e(i), e(i)) for i in range(dim)]
    else:
        simples.append(plus(e(rank - 2), e(rank - 1)))
    return simples, positives


class EuclideanRootSystem:
    """The root data that ``mclab.rootsys`` reads off the Cartan matrix,
    computed the long way: from Euclidean vectors, one rational solve
    per positive root for its simple-root coefficients, and the Euclidean
    inner product (scaled by 2 on B, so short roots have squared length
    2).  Ids follow the package contract: positive roots by height, then
    by descending coefficient tuple, and n_pos + k for minus root k."""

    def __init__(self, family: str, rank: int):
        simples, positives = euclidean_roots(family, rank)
        scale = 2 if family == "B" else 1
        self._dot = lambda u, v: scale * sum(x * y for x, y in zip(u, v))
        expanded = []
        for vec in positives:
            a = [[s[i] for s in simples] for i in range(len(vec))]
            sol = linalg.solve(a, list(vec))
            if sol is None or any(Q(c).denominator != 1 for c in sol):
                raise ValueError("root outside the simple-root lattice")
            coeffs = tuple(int(c) for c in sol)
            expanded.append(((sum(coeffs), tuple(-c for c in coeffs)),
                             coeffs, vec))
        expanded.sort()
        self.positive_roots = [coeffs for _, coeffs, _ in expanded]
        pos_vecs = [vec for _, _, vec in expanded]
        self.n_pos = len(pos_vecs)
        self.vectors = pos_vecs + [tuple(-x for x in v) for v in pos_vecs]
        self.cartan_matrix = [
            [Q(2 * self._dot(si, sj), self._dot(sj, sj)) for sj in simples]
            for si in simples]

    def pairing(self, a: int, b: int) -> int:
        return self._dot(self.vectors[a], self.vectors[b])

    def sum_table(self) -> dict[tuple[int, int], int]:
        id_of = {v: k for k, v in enumerate(self.vectors)}
        table = {}
        for a, u in enumerate(self.vectors):
            for b, v in enumerate(self.vectors):
                s = id_of.get(tuple(x + y for x, y in zip(u, v)))
                if s is not None:
                    table[a, b] = s
        return table

    def omega_decomposition(self) -> dict[Q, set[int]]:
        """Positive roots by 2(w, beta)/(w, w), w the highest root:
        0 for Sigma_0, 1 for Sigma_1/2 and 2 for Sigma_1."""
        w = max(range(self.n_pos),
                key=lambda k: sum(self.positive_roots[k]))
        ww = self.pairing(w, w)
        split: dict[Q, set[int]] = {}
        for k in range(self.n_pos):
            split.setdefault(Q(2 * self.pairing(w, k), ww), set()).add(k)
        return split


def cross_rref(rows, ncols):
    """``linalg.rref`` as it eliminated before it updated rows in place:
    every eliminated row is rebuilt as pv * r - a * piv over the union of
    both rows' columns, with the full multipliers, and its content
    removed.  Same pivot choice (shortest row, first on ties)."""
    work = {}
    rows_of_col = {}
    for i, r in enumerate(rows):
        ints = linalg._row_to_int(r)
        if ints:
            work[i] = ints
            for c in ints:
                rows_of_col.setdefault(c, set()).add(i)
    pivots = {}
    for col in range(ncols):
        touched = rows_of_col.pop(col, None)
        if not touched:
            continue
        pr = min(touched, key=lambda i: (len(work[i]), i))
        touched.discard(pr)
        piv = work.pop(pr)
        for c in piv:
            if c != col:
                rows_of_col[c].discard(pr)
        pv = piv[col]
        for i in touched:
            r = work[i]
            a = r[col]
            new = {}
            for c in r.keys() | piv.keys():
                v = r.get(c, 0) * pv - piv.get(c, 0) * a
                if v:
                    new[c] = v
            g = 0
            for v in new.values():
                g = gcd(g, abs(v))
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            for c in r.keys() - new.keys():
                if c != col:
                    rows_of_col[c].discard(i)
            for c in new.keys() - r.keys():
                rows_of_col.setdefault(c, set()).add(i)
            if new:
                work[i] = new
            else:
                del work[i]
        pivots[col] = piv
    return pivots


def rref_disagreements(rows, ncols) -> list[str]:
    """Where ``linalg.rref`` and :func:`cross_rref` differ on one matrix:
    the pivot columns, the reduced-echelon nullspace
    (``linalg.sparse_nullspace`` against the oracle's pivot rows) and the
    row space.  Empty when they agree."""
    new = linalg.rref(rows, ncols)
    old = cross_rref(rows, ncols)
    out = []
    if list(new) != list(old):
        out.append(f"pivot columns {list(new)}, oracle {list(old)}")
    if linalg.sparse_nullspace(rows, ncols) != [
            free_vector(old, fc, ncols)
            for fc in range(ncols) if fc not in old]:
        out.append("nullspace")
    if len(cross_rref([*new.values(), *old.values()], ncols)) != len(old):
        out.append("row space")
    return out


def dense_symmetric_signature(m):
    """(rank, n_plus, n_minus) of a rational symmetric matrix by dense
    congruence diagonalization: a zero pivot is replaced by swapping in a
    later nonzero diagonal entry, or, when there is none, by adding a row
    and column with a nonzero entry in the pivot row."""
    a = [row[:] for row in m]
    n = len(a)
    plus = minus = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for t in range(n):
                    a[k][t], a[swap][t] = a[swap][t], a[k][t]
                for t in range(n):
                    a[t][k], a[t][swap] = a[t][swap], a[t][k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue
                for t in range(n):
                    a[k][t] += a[j][t]
                for t in range(n):
                    a[t][k] += a[t][j]
        d = a[k][k]
        if d == 0:
            continue
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = Q(a[i][k]) / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return plus + minus, plus, minus


def zip_block_rows(system, degree, unknown_index):
    """``McSystem.block_rows`` as it forms every shifted monomial by a
    comprehension over all chart variables: the rows of the block over
    ``unknown_index``, keyed (delta, gamma, monomial) and in key order."""
    chart, rs = system.chart, system.hs.rs
    frame = chart.frame_components(system.hs.R)
    derivative = {
        delta: [(chart.coord_index(j), a.terms) for j, a in row.items()]
        for delta, row in frame.items()}
    terms_of: dict[int, list] = {}
    for delta, gamma in system.equations:
        terms_of.setdefault(gamma, []).append((delta, gamma, None))
        diff = rs.add(gamma, rs.neg(delta))
        if diff is not None and diff < rs.n_pos:
            terms_of.setdefault(diff, []).append(
                (delta, gamma, chart.algebra.c[(delta, diff)]))
    rows: dict[tuple, dict] = {}
    for (g, mono), col in unknown_index.items():
        for delta, gamma, ladder in terms_of.get(g, ()):
            if ladder is not None:
                contrib = {mono: ladder}
            else:
                contrib = {}
                for v, a_terms in derivative[delta]:
                    e = mono[v]
                    if not e:
                        continue
                    for m, c in a_terms.items():
                        m2 = [x + y for x, y in zip(mono, m)]
                        m2[v] -= 1
                        m2 = tuple(m2)
                        contrib[m2] = contrib.get(m2, 0) + c * e
            for m2, cf in contrib.items():
                if cf:
                    rows.setdefault((delta, gamma, m2), {})[col] = cf
    return {k: rows[k] for k in sorted(rows)}


def tau_comparison(hs, chart: Chart, solution,
                   report=None) -> NormalizerComparison:
    """``mcfields.compare_with_normalizer`` through the polynomial fields:
    nu of every normalizer basis element by ``tau_basis`` (the adjoint
    action at the slice point's matrices), containment by
    ``McSolution.contains`` and nu's dimension by one ``rref`` of the
    fields' coefficients.  The reference for the comparison read in the
    prolongation."""
    alg = chart.algebra
    rep = report if report is not None else analyze(hs)
    q_index = normalizer_basis_indices(alg, rep)
    nus = tau_basis(alg, chart, hs, q_index)
    fields = [nus[k] for k in q_index]
    index: dict = {}
    vecs = [{index.setdefault((g, m), len(index)): c
             for g, p in f.components.items() for m, c in p.terms.items()}
            for f in fields]
    nu_dim = len(linalg.rref(vecs, len(index)))
    conj = rep.dims["dim_conjecture"]
    return NormalizerComparison(
        report=rep,
        nu_dimension=nu_dim,
        solver_dimension=solution.dimension,
        nu_contained=all(solution.contains(f) for f in fields),
        equal=nu_dim == solution.dimension,
        kernel_is_complement_ideal=len(q_index) - nu_dim == len(hs.C),
        conjecture_dimension=conj,
        conjecture_matches=conj == solution.dimension,
    )
