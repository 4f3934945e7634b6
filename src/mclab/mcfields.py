"""Multicontact vector fields on Hessenberg slices.

The induced field of an algebra element E is computed from the adjoint
action: along the standard left-invariant frame, the component of tau(E)
labelled by the positive root gamma is minus the g_gamma-coefficient of
Ad(n^{-1}) E at the generic point n.  Its slice field nu(E) on a
Hessenberg set R keeps the components gamma in R at complement
coordinates zero.  Setting x_C = 0 commutes with products and inverses,
so nu(E) is read the same way at the slice point n_R, the generic point
with x_C = 0 (:func:`mclab.liealg.adjoint_of_point`): the full-group
tau(E) is never formed or projected.  The normalizer comparison forms neither:
nu of q / n_C is the forward image of its image in the prolongation,
read from the structure constants (:func:`compare_with_normalizer`).

The multicontact condition on a slice field F = sum f_gamma X_gamma is
the first-order system, over simple roots delta in R and gamma in R,

    X_delta(f_gamma) = 0                          gamma - delta outside
                                                  Sigma_+ u {0}
    X_delta(f_gamma) + c_{delta,gamma-delta} f_{gamma-delta} = 0
                                                  gamma - delta in Sigma_+

(the gamma = delta equations carry a free multiplier and are omitted).
The system is graded twice: by dilation degree, and within a degree by
the root-lattice weight of the unknowns (gamma, monomial).  The basis is
the reduced echelon one, each field pivoting at its last unknown in
solver order, so the coordinates of a field over it are its coefficients
at the basis fields' free unknowns, checked by recomposing the field.

By default the fields come from the Tanaka prolongation g(m) of the
slice algebra (:mod:`mclab.prolong`), which already fixes every
(degree, weight) block and its dimension: a forward map sends each
prolongation basis element A to the field whose components are minus
the X_gamma-coefficients of Ad(n_R^{-1}) A, computed in g(m) through the
prolongation's own bracket, and :func:`mclab.linalg.reduced` puts the
fields of each block in reduced echelon form.  Each block's rank must
equal the prolongation's count, and the system's rows over the fields'
unknowns, applied to each field, must vanish (a product, not an
elimination).  No monomial is enumerated and no polynomial system
eliminated, and whether the solutions stop by the default bound is read
off the prolongation as well.  An explicit degree bound is the
verification mode: it enumerates every monomial of every degree through
the bound and one past it, eliminates each weight block from its own
unknowns, and never consults the prolongation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, lcm
from operator import sub

from . import linalg, prolong
from .fields import PolyVectorField
from .hessenberg import HessenbergSet, HessenbergReport, analyze, validate
from .liealg import (Chart, SplitLieAlgebra, adjoint_of_point,
                     minus_ad_series)
from .poly import Poly, Scalar, monomials_of_weighted_degree


class McError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tau and nu
# ---------------------------------------------------------------------------

def _induced(algebra: SplitLieAlgebra, chart: Chart, element,
             slice_roots=None) -> PolyVectorField:
    """Minus the positive-root coefficients of Ad(n^{-1}) E at the slice
    point n of ``slice_roots`` (the generic point when None), read at the
    slice roots, as an invariant-frame field on that slice."""
    roots = (range(algebra.rs.n_pos) if slice_roots is None
             else sorted(slice_roots))
    coeffs = adjoint_of_point(chart, element,
                              [algebra.full_index(r) for r in roots],
                              slice_roots)
    return PolyVectorField(chart, "invariant",
                           {r: -c for r, c in zip(roots, coeffs)},
                           slice_roots=slice_roots)


def tau(algebra: SplitLieAlgebra, chart: Chart, element) -> PolyVectorField:
    """Multicontact field of an algebra element (an entry map in the
    chart's realization), on the full group."""
    return _induced(algebra, chart, element)


def nu(algebra: SplitLieAlgebra, chart: Chart, hs: HessenbergSet,
       element) -> PolyVectorField:
    """The slice field of an algebra element: the slice components of
    tau(E) at complement coordinates zero, read at the slice point itself
    (:func:`mclab.liealg.adjoint_of_point`), so tau(E) on the full group
    is never formed.  R must be a lower order ideal (``LieAlgebraError``)."""
    return _induced(algebra, chart, element, hs.R)


def tau_basis(algebra: SplitLieAlgebra, chart: Chart, hs: HessenbergSet,
              indices=None) -> dict[int, PolyVectorField]:
    """The fields that the full-basis elements at ``indices`` (all of them
    when None) induce on the slice ``hs``, nu of each, keyed by full-basis
    index: each a dot over the rows of Ad(n_R^{-1}) that the chart keeps."""
    keys = range(algebra.dim) if indices is None else indices
    return {k: nu(algebra, chart, hs, chart.realization.entries[k])
            for k in keys}


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def homogeneous_degree(obj, chart: Chart):
    """Degree of a polynomial or invariant-frame field under the dilation
    grading (coordinate x_gamma has weight ht(gamma), frame field X_gamma
    has weight -ht(gamma)).  Returns None when inhomogeneous."""
    parts = homogeneous_parts(obj, chart)
    if not parts:
        raise McError("zero input has no homogeneous degree")
    if len(parts) == 1:
        return next(iter(parts))
    return None


def homogeneous_parts(obj, chart: Chart):
    weights = chart.weights
    if isinstance(obj, Poly):
        return obj.weighted_parts(weights)
    if isinstance(obj, PolyVectorField):
        inv = obj.to_invariant()
        rs = chart.algebra.rs
        parts: dict[int, dict[int, Poly]] = {}
        for r, p in inv.components.items():
            for w, piece in p.weighted_parts(weights).items():
                d = w - rs.root(r).height
                parts.setdefault(d, {})[r] = piece
        return {
            d: PolyVectorField(chart, "invariant", comps,
                               slice_roots=obj.slice_roots)
            for d, comps in parts.items()
        }
    raise McError(f"cannot grade object of type {type(obj)!r}")


# ---------------------------------------------------------------------------
# the linear system
# ---------------------------------------------------------------------------

@dataclass
class McSystem:
    hs: HessenbergSet
    chart: Chart
    degree_bound: int
    labels: list[int]                      # gamma in R, contract order
    equations: list[tuple[int, int]]       # (delta, gamma) pairs used

    def unknown_monomials(self, degree: int
                          ) -> list[tuple[tuple[int, tuple], tuple]]:
        """Unknowns of the homogeneous block of field degree ``degree``,
        each with its root-lattice weight sum_v m_v root(v) - gamma (a
        coefficient vector over the simple roots): pairs ((gamma,
        monomial), weight) in solver order, by gamma, then by slice
        exponents in lexicographic order.  Every monomial of the degree is
        enumerated by :func:`mclab.poly.monomials_of_weighted_degree` and
        weighed: the verification mode's independent enumeration."""
        rs = self.hs.rs
        slice_vars = [self.chart.coord_index(r) for r in self.labels]
        var_coeffs = [rs.root(r).coeffs for r in self.labels]
        sub_weights = [self.chart.weights[v] for v in slice_vars]
        out = []
        for g in self.labels:
            w = degree + rs.root(g).height
            if w < 0:
                continue
            base = [-c for c in rs.root(g).coeffs]
            for mono in monomials_of_weighted_degree(sub_weights, w):
                weight = base[:]
                full = [0] * self.chart.nvars
                for v, e, coeffs in zip(slice_vars, mono, var_coeffs):
                    if e:
                        full[v] = e
                        for i, c in enumerate(coeffs):
                            weight[i] += e * c
                out.append(((g, tuple(full)), tuple(weight)))
        return out

    @cached_property
    def _tables(self):
        """The frame derivative X_delta of every slice root delta, as
        (variable, terms) pairs, each term the nonzero (variable, exponent)
        pairs of its monomial with its coefficient, and per label g the
        equations an unknown (g, x^n) enters: (delta, gamma, None) through
        X_delta(x^n) when gamma = g, (delta, gamma, c_{delta,g}) through
        the ladder term when gamma - delta = g."""
        chart = self.chart
        rs = self.hs.rs
        frame = chart.frame_components(self.hs.R)
        derivative = {
            delta: [(chart.coord_index(j),
                     [([(v, e) for v, e in enumerate(m) if e], c)
                      for m, c in a.terms.items()])
                     for j, a in row.items()]
            for delta, row in frame.items()}
        terms_of: dict[int, list] = {}
        for delta, gamma in self.equations:
            terms_of.setdefault(gamma, []).append((delta, gamma, None))
            diff = rs.add(gamma, rs.neg(delta))
            if diff is not None and diff < rs.n_pos:
                terms_of.setdefault(diff, []).append(
                    (delta, gamma, chart.algebra.c[(delta, diff)]))
        return derivative, terms_of

    def block_rows(self, degree: int,
                   unknown_index: dict[tuple[int, tuple], int]
                   ) -> dict[tuple, dict[int, Scalar]]:
        """Sparse rows over the unknowns of ``unknown_index``, a block of
        homogeneous degree ``degree``, keyed and ordered by row.

        Row (delta, gamma, m) holds the coefficient of x^m in equation
        (delta, gamma).  An unknown (g, x^n) enters an equation either
        through X_delta(x^n) when gamma = g, or through the ladder term
        c_{delta,g} x^n when gamma - delta = g, never both.
        """
        derivative, terms_of = self._tables
        rows: dict[tuple, dict[int, Scalar]] = {}
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
                        lowered = list(mono)
                        lowered[v] -= 1
                        for exps, c in a_terms:
                            m2 = lowered[:]
                            for u, k in exps:
                                m2[u] += k
                            m2 = tuple(m2)
                            contrib[m2] = contrib.get(m2, 0) + c * e
                for m2, cf in contrib.items():
                    if cf:
                        rows.setdefault((delta, gamma, m2), {})[col] = cf
        return {k: rows[k] for k in sorted(rows)}

    def to_json_dict(self) -> dict:
        rs = self.hs.rs
        return {
            "degree_bound": self.degree_bound,
            "labels": [rs.root_name(g) for g in self.labels],
            "equations": [[rs.root_name(d), rs.root_name(g)]
                          for d, g in self.equations],
        }


def assemble_mc_system(hs: HessenbergSet, chart: Chart,
                       degree_bound: int) -> McSystem:
    if degree_bound < 1:
        raise McError("degree bound must be >= 1")
    rs = hs.rs
    labels = sorted(hs.R)
    simples = [s for s in rs.simple_ids() if s in hs.R]
    equations = []
    for delta in simples:
        for gamma in labels:
            if gamma == delta:
                continue            # free multiplier, no constraint
            diff = rs.add(gamma, rs.neg(delta))
            if diff is not None and diff < rs.n_pos and diff not in hs.R:
                raise McError("Hessenberg closure violated in system assembly")
            equations.append((delta, gamma))
    return McSystem(hs=hs, chart=chart, degree_bound=degree_bound,
                    labels=labels, equations=equations)


@dataclass
class McSolution:
    """Invariant-frame basis fields, each with its free unknown (gamma,
    monomial), its last unknown in solver order: the field is one there
    and every other field zero, or the constructor raises McError.  The
    dimension is the number of basis fields.  ``prolongation`` is the
    Tanaka prolongation the default solve read its fields from; a
    verification-mode solution has none."""
    hs: HessenbergSet
    chart: Chart
    degree_bound: int
    basis: list[PolyVectorField]
    degrees: list[int]
    stabilized: bool
    free_unknowns: list[tuple[int, tuple]]
    bracket_table: list[list[list[Scalar]]] | None = None
    bracket_closed: bool = True
    prolongation: prolong.Prolongation | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.free_unknowns) != len(self.basis):
            raise McError(f"{len(self.basis)} basis fields, "
                          f"{len(self.free_unknowns)} free unknowns")
        for i, (g, mono) in enumerate(self.free_unknowns):
            for j, f in enumerate(self.basis):
                p = f.components.get(g)
                x = 0 if p is None else p.terms.get(mono, 0)
                if x != (1 if i == j else 0):
                    raise McError(
                        f"basis field {j} is {x} at the free unknown of "
                        f"field {i}: the basis is not in reduced echelon "
                        f"form")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    # ---- span --------------------------------------------------------------
    def coordinates(self, field: PolyVectorField) -> list[Scalar] | None:
        """Exact coordinates of a slice field over the basis, or None when
        it is outside the span.  A field of the span has its coefficients
        at the free unknowns as coordinates: they are the span's positions
        (:attr:`_span`)."""
        return self._span.coordinates(_terms(field.to_invariant()))

    @cached_property
    def _span(self) -> _TermSpan:
        """The span of the basis fields' coefficients, the free unknowns
        indexed first: each field is one at its own and zero at the
        others, so the elimination has nothing to eliminate."""
        return _TermSpan([_terms(b) for b in self.basis], self.free_unknowns)

    def contains(self, field: PolyVectorField) -> bool:
        return self.coordinates(field) is not None

    # ---- structure ---------------------------------------------------------
    @cached_property
    def _coordinate_span(self) -> tuple[list[PolyVectorField], _TermSpan]:
        """The basis in the coordinate frame, the frame its brackets are
        computed in, and the span of its coefficients."""
        fields = [b.to_coordinate() for b in self.basis]
        return fields, _TermSpan([_terms(f) for f in fields])

    def compute_brackets(self) -> None:
        """Bracket table over the basis: cell (i, j) holds the coordinates
        of [b_i, b_j] over the basis, or [] when that bracket leaves the
        span, in which case ``bracket_closed`` is False.

        Each basis field is converted to the coordinate frame once and only
        the pairs i < j are bracketed; the other cells follow from
        antisymmetry, [b_j, b_i] = -[b_i, b_j] and [b_i, b_i] = 0.  Each
        bracket is read in the coordinate frame against one span of the
        converted basis, membership checked
        (:meth:`linalg.SpanBasis.coordinates`).
        """
        n = self.dimension
        fields, span = self._coordinate_span
        table: list[list[list[Scalar]]] = [[[] for _ in range(n)]
                                      for _ in range(n)]
        closed = True
        for i in range(n):
            table[i][i] = [0] * n
            for j in range(i + 1, n):
                coords = span.coordinates(
                    _terms(fields[i].bracket(fields[j])))
                if coords is None:
                    closed = False
                else:
                    table[i][j] = coords
                    table[j][i] = [-x for x in coords]
        self.bracket_table = table
        self.bracket_closed = closed

    def algebra_summary(self) -> dict:
        """Dimension, derived-series dimensions, and the rank/signature of
        the trace form (a, b) -> tr(ad a ad b) of the bracket table; only
        dimension and closure when the brackets leave the span.  Both the
        derived series and the trace form work on the nonzero structure
        constants (``_ad_columns``)."""
        if self.bracket_table is None:
            self.compute_brackets()
        n = self.dimension
        if not self.bracket_closed:
            return {"dimension": n, "bracket_closed": False}
        ad = _ad_columns(self.bracket_table)
        rank_k, pos_k, neg_k = linalg.symmetric_signature(_trace_form(ad))
        return {
            "dimension": n,
            "bracket_closed": True,
            "derived_series": _derived_series(ad),
            "killing_rank": rank_k,
            "killing_signature": [pos_k, neg_k],
        }

    def to_json_dict(self) -> dict:
        rs = self.hs.rs
        names = self.chart.var_names
        out = {
            "R": [rs.root_name(g) for g in sorted(self.hs.R)],
            "degree_bound": self.degree_bound,
            "dimension": self.dimension,
            "stabilized": self.stabilized,
            "degrees": list(self.degrees),
            "basis": [
                {rs.root_name(g): p.render(names)
                 for g, p in sorted(f.components.items())}
                for f in self.basis
            ],
        }
        if self.bracket_table is not None:
            out["bracket_closed"] = self.bracket_closed
            out["bracket_table"] = [
                [[str(x) for x in cell] for cell in row]
                for row in self.bracket_table
            ]
        return out


def _ad_columns(table: list[list[list[Scalar]]]
                ) -> list[dict[int, dict[int, Scalar]]]:
    """ad of each basis element as sparse columns: ``ad[i][j]`` maps k to
    the nonzero coefficients of b_k in [b_i, b_j]; zero brackets are
    left out."""
    ad = []
    for row in table:
        cols = {}
        for j, cell in enumerate(row):
            col = {k: x for k, x in enumerate(cell) if x}
            if col:
                cols[j] = col
        ad.append(cols)
    return ad


def _trace_form(ad: list[dict[int, dict[int, Scalar]]]) -> list[list[Scalar]]:
    """The form tr(ad_i ad_j), summed over the nonzero entries
    (ad_i)_pq = ad[i][q][p] only, each times (ad_j)_qp.  The form is
    symmetric, so the upper triangle is computed and mirrored."""
    n = len(ad)
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            adj = ad[j]
            s = 0
            for q, col in ad[i].items():
                for p, x in col.items():
                    y = adj.get(p, {}).get(q)
                    if y:
                        s += x * y
            form[i][j] = form[j][i] = s
    return form


def _derived_series(ad: list[dict[int, dict[int, Scalar]]]) -> list[int]:
    """Dimensions of the derived series, down to zero or a fixed term.

    Each term is spanned by the brackets of pairs of the previous term's
    pivot rows; by antisymmetry the pairs u < v suffice."""
    n = len(ad)
    span: list[dict[int, int]] = [{i: 1} for i in range(n)]
    dims = [n]
    while True:
        prods = []
        for a, u in enumerate(span):
            for v in span[a + 1:]:
                w: dict[int, Scalar] = {}
                for i, ui in u.items():
                    cols = ad[i]
                    for j, vj in v.items():
                        col = cols.get(j)
                        if col:
                            for k, ck in col.items():
                                w[k] = w.get(k, 0) + ui * vj * ck
                prods.append(w)
        span = list(linalg.rref(prods, n).values())
        dims.append(len(span))
        if len(span) in (0, dims[-2]):
            return dims


class _TermSpan(linalg.SpanBasis):
    """A :class:`linalg.SpanBasis` of vectors {key: value} over any
    hashable keys, indexed as they first appear, after ``first``."""

    def __init__(self, vectors: list[dict], first=()):
        self.index = {u: c for c, u in enumerate(first)}
        super().__init__([{self.index.setdefault(u, len(self.index)): x
                           for u, x in v.items()} for v in vectors],
                         len(self.index))

    def coordinates(self, terms: dict) -> list[Scalar] | None:
        """Coordinates of {key: value}, zeros left out, or None outside
        the span, which holds every target with a key no vector has."""
        target = {}
        for u, x in terms.items():
            col = self.index.get(u)
            if col is None:
                return None
            target[col] = x
        return super().coordinates(target)


def _terms(field: PolyVectorField) -> dict[tuple[int, tuple], Scalar]:
    """A field's coefficients {(label, monomial): value}, in its frame."""
    return {(g, m): x for g, p in field.components.items()
            for m, x in p.terms.items()}


def _solve_block(system: McSystem, degree: int
                 ) -> tuple[list[PolyVectorField], list[tuple[int, tuple]]]:
    """Solutions of one homogeneous degree and their free unknowns, by
    elimination, one weight block at a time: the verification mode.

    Each weight block is assembled from its own unknowns.  The equations
    are homogeneous for the weight, so no row may come from two weight
    blocks; one that does is a defect in the assembly and raises McError
    (the equivariance certificate).  A block-diagonal matrix has the same
    pivot columns as its blocks taken one at a time, so ordering the
    merged basis by free unknown (the last one with a nonzero entry, in
    solver order) gives exactly the basis of one elimination over the
    whole degree block.
    """
    blocks: dict[tuple, list[tuple[int, tuple[int, tuple]]]] = {}
    for k, (u, w) in enumerate(system.unknown_monomials(degree)):
        blocks.setdefault(w, []).append((k, u))
    found = []          # (position, free unknown, components) per solution
    weight_of_row: dict[tuple, tuple] = {}
    for w, unknowns in blocks.items():
        rows = system.block_rows(
            degree, {u: c for c, (_, u) in enumerate(unknowns)})
        for key in rows:
            other = weight_of_row.setdefault(key, w)
            if other != w:
                raise McError(
                    "multicontact equation mixes root-lattice weights "
                    f"{sorted([other, w])}: the system is not equivariant")
        for vec in linalg.sparse_nullspace(list(rows.values()), len(unknowns)):
            comps: dict[int, dict] = {}
            for c, x in enumerate(vec):
                if x:
                    g, mono = unknowns[c][1]
                    comps.setdefault(g, {})[mono] = x
                    last = c
            found.append((*unknowns[last], comps))
    found.sort(key=lambda entry: entry[0])
    return ([_slice_field(system, comps) for *_, comps in found],
            [u for _, u, _ in found])


def _slice_field(system: McSystem, comps: dict[int, dict]) -> PolyVectorField:
    nvars = system.chart.nvars
    return PolyVectorField(
        system.chart, "invariant",
        {g: Poly._of(nvars, t) for g, t in comps.items()},
        slice_roots=system.hs.R)


# ---------------------------------------------------------------------------
# fields from the prolongation
# ---------------------------------------------------------------------------

def _forward_fields(tanaka: prolong.Prolongation, chart: Chart,
                    hs: HessenbergSet, degree: int, weight: tuple
                    ) -> list[dict[tuple[int, tuple], Scalar]]:
    """The field F_A of every basis element A of g_{degree, weight}, as its
    coefficients {(gamma, monomial): value}, up to a positive integer
    factor, which leaves the span of a block as it is: F_A's invariant
    component gamma is minus the X_gamma-coefficient of Ad(n_R^{-1}) A =
    exp(-ad N_m) ... exp(-ad N_1) A, where n_R = exp(N_1) ... exp(N_m) is
    the slice point over the chart's factor groups, N_i = sum x_r X_r over
    the roots r of group i that lie in R.  [X_r] acts through the
    prolongation's ``bracket``, and each series is summed over its common
    denominator M! (:func:`mclab.liealg.minus_ad_series`), so integer
    coefficients stay integers."""
    shift = {r: (hs.rs.root(r).height, hs.rs.root(r).coeffs) for r in hs.R}

    def bracket(key, r):
        # [A, X_r] for A the i-th basis element of g_{k, w}
        k, w, i = key
        br = tanaka.bracket(k, w, i, r)
        if not br:
            return None
        height, coeffs = shift[r]
        return (k - height, tuple(map(sub, w, coeffs))), br

    groups = [[(r, chart.coord_index(r)) for r in g if r in hs.R]
              for g in chart.groups]
    one = (0,) * chart.nvars
    out = []
    for i in range(len(tanaka.basis.get((degree, weight), ()))):
        y = {(degree, weight, i): {one: 1}}
        for group in groups:
            if group:
                y = minus_ad_series(
                    bracket, group, y,
                    lambda j, last: factorial(last) // factorial(j))
        out.append({(tanaka.basis[k, w][0], m): -c
                    for (k, w, _), t in y.items() if k < 0
                    for m, c in t.items() if c})
    return out


def _echelon(vectors: list[dict], order) -> dict[tuple[int, tuple], dict]:
    """The reduced echelon basis of the span of sparse vectors over the
    unknowns, keyed by pivot: :func:`linalg.rref` and
    :func:`linalg.reduced` over their unknowns in descending order of the
    sort key ``order``, so that each basis vector is one at its last
    unknown, its pivot, and every other one is zero there."""
    unknowns = sorted({u for v in vectors for u in v}, key=order, reverse=True)
    col = {u: c for c, u in enumerate(unknowns)}
    red = linalg.reduced(linalg.rref(
        [{col[u]: x for u, x in v.items()} for v in vectors], len(unknowns)))
    return {unknowns[p]: {unknowns[c]: x for c, x in row.items()}
            for p, row in red.items()}


def _certify(system: McSystem, degree: int, weight: tuple,
             fields: list[dict]) -> None:
    """Every row of the multicontact system, over the unknowns the fields
    use, dotted with each field's coefficients is 0, or McError names the
    degree and the weight: a product, not an elimination.  Each field is
    scaled to integers first, which does not change the verdict."""
    index: dict[tuple[int, tuple], int] = {}
    for f in fields:
        for u in f:
            index.setdefault(u, len(index))
    entries: list[list] = [[] for _ in index]       # column: (row, value)
    for key, row in system.block_rows(degree, index).items():
        for c, x in row.items():
            entries[c].append((key, x))
    for f in fields:
        den = lcm(*(x.denominator for x in f.values()))
        acc: dict[tuple, Scalar] = {}
        for u, x in f.items():
            a = x.numerator * (den // x.denominator)
            for key, y in entries[index[u]]:
                acc[key] = acc.get(key, 0) + a * y
        if any(acc.values()):
            raise McError(
                f"degree {degree}, weight {list(weight)}: a field from the "
                f"prolongation violates the multicontact equations")


def solve_mc(hs: HessenbergSet, chart: Chart,
             degree_bound: int | None = None) -> McSolution:
    """Exact basis of the multicontact solution space on the slice, for
    degrees -h .. degree_bound (h the highest-root height, default bound
    2h), in reduced echelon form: per degree, each field is one at its
    free unknown, its last unknown in solver order, and every other field
    is zero there.

    By default the fields are the forward images F_A of the basis of the
    Tanaka prolongation through degree 2h + 1 (:func:`_forward_fields`),
    put in reduced echelon form per (degree, weight) block
    (:func:`_echelon`, in solver order) and merged per degree by free
    unknown.  Each block's rank must equal the
    prolongation's count, and its fields must pass the certificate
    (:func:`_certify`), or McError names the degree and the weight.  That
    they are all the solutions is the prolongation theorem (N. Tanaka, J.
    Math. Kyoto Univ. 10, 1970; K. Yamaguchi, Adv. Stud. Pure Math. 22,
    1993): a multicontact field of degree k >= 0 is an element of g_k,
    fixed by its brackets with the simple frame fields, which generate
    the slice algebra; so no degree from the prolongation's stop on has
    solutions.  The result reports ``degree_bound`` 2h, and
    ``stabilized`` is read off the prolongation: True when it stops by
    degree 2h + 1.  A slice whose prolongation never empties through
    2h + 1 (infinite type) is solved through 2h and is not stabilized.

    An explicit ``degree_bound`` is the verification mode, which never
    consults the prolongation: every monomial of every degree up to the
    bound is enumerated and every weight block eliminated
    (:func:`_solve_block`); ``stabilized`` records whether degree
    degree_bound + 1 is empty, by one more solve.
    """
    h = hs.rs.highest_root.height
    verify = degree_bound is not None
    if not verify:
        degree_bound = 2 * h
    system = assemble_mc_system(hs, chart, degree_bound)
    basis: list[PolyVectorField] = []
    free_unknowns: list[tuple[int, tuple]] = []
    degrees: list[int] = []
    if verify:
        for d in range(-h, degree_bound + 1):
            block, free = _solve_block(system, d)
            basis.extend(block)
            free_unknowns.extend(free)
            degrees.extend([d] * len(block))
        stabilized = not _solve_block(system, degree_bound + 1)[0]
    else:
        tanaka = prolong.prolong(hs, chart.algebra.c, degree_bound + 1)
        # solver order: by gamma, then by slice exponents
        slice_vars = [chart.coord_index(r) for r in system.labels]

        def order(u):
            return u[0], [u[1][v] for v in slice_vars]

        for d in range(-h, degree_bound + 1):
            counts = tanaka.blocks.get(d, {})
            found: dict[tuple[int, tuple], dict] = {}
            for w in sorted(counts.keys()
                            | {w for k, w in tanaka.basis if k == d}):
                rows = _echelon(
                    _forward_fields(tanaka, chart, hs, d, w), order)
                if len(rows) != counts.get(w, 0):
                    raise McError(
                        f"degree {d}, weight {list(w)}: {len(rows)} "
                        f"solution(s), the prolongation gives "
                        f"{counts.get(w, 0)}")
                _certify(system, d, w, list(rows.values()))
                found.update(rows)
            for u in sorted(found, key=order):
                comps: dict[int, dict] = {}
                for g, m in sorted(found[u], key=order):
                    comps.setdefault(g, {})[m] = found[u][g, m]
                basis.append(_slice_field(system, comps))
                free_unknowns.append(u)
                degrees.append(d)
        stabilized = tanaka.finite_type
    return McSolution(hs=hs, chart=chart, degree_bound=degree_bound,
                      basis=basis, degrees=degrees, stabilized=stabilized,
                      free_unknowns=free_unknowns,
                      prolongation=None if verify else tanaka)


# ---------------------------------------------------------------------------
# normalizer comparison
# ---------------------------------------------------------------------------

@dataclass
class NormalizerComparison:
    report: HessenbergReport
    nu_dimension: int
    solver_dimension: int
    nu_contained: bool
    equal: bool
    kernel_is_complement_ideal: bool
    conjecture_dimension: int
    conjecture_matches: bool

    def to_json_dict(self) -> dict:
        return {
            "dim_q": self.report.dims["dim_q"],
            "dim_q_mod_nC": self.report.dims["dim_q_mod_nC"],
            "nu_dimension": self.nu_dimension,
            "solver_dimension": self.solver_dimension,
            "nu_contained_in_solver": self.nu_contained,
            "equal": self.equal,
            "kernel_is_complement_ideal": self.kernel_is_complement_ideal,
            "conjecture_dimension": self.conjecture_dimension,
            "conjecture_matches": self.conjecture_matches,
            "hypothesis_I": self.report.hypothesis_I,
            "hypothesis_II": self.report.hypothesis_II,
        }


def normalizer_basis_indices(algebra: SplitLieAlgebra,
                             report: HessenbergReport) -> list[int]:
    """Full-basis indices spanning the normalizer of the complement ideal."""
    idx = list(range(algebra.rank))
    idx += [algebra.full_index(r) for r in range(algebra.rs.n_pos)]
    idx += [algebra.full_index(r) for r in sorted(report.normalizer_support)]
    return idx


def compare_with_normalizer(hs: HessenbergSet, chart: Chart,
                            solution: McSolution,
                            report: HessenbergReport | None = None
                            ) -> NormalizerComparison:
    """nu of q / n_C against the solution space, for q the normalizer of
    the complement ideal n_C, read in the prolongation g(m) of the slice
    algebra m = n_R / n_C (N. Tanaka, J. Math. Kyoto Univ. 10, 1970; K.
    Yamaguchi, Adv. Stud. Pure Math. 22, 1993): the default solve's fields
    are the forward images of g(m), so nu(E) is the forward image of
    iota(E), where iota: q / n_C -> g(m) sends X_gamma with gamma in R to
    itself, n_C to 0, and E of degree >= 0 to the map gamma ->
    iota([E, X_gamma]).  [E, X_gamma] comes from ``functional``, ``c`` and
    ``h_of_bracket``, so no polynomial is formed.

    iota(E) is read in its (degree, weight) block of g(m) through one
    :class:`linalg.SpanBasis` per block, membership checked, by
    increasing degree, since its values are lower images.  nu's dimension
    is the rank of the images; nu lies in the solution space when every
    nonzero image recomposes at a degree <= ``degree_bound``.  An image
    that cannot be formed, because a lower one it needs does not
    recompose, reads as not contained and is left out of the rank.  The
    prolongation is the solution's own, or, for a verification-mode
    solution, one through the highest-root height h, the top degree of
    q / n_C.
    """
    if not solution.stabilized:
        raise McError("solution dimension is not stabilized")
    alg = chart.algebra
    rs = alg.rs
    rep = report if report is not None else analyze(hs)
    q_index = normalizer_basis_indices(alg, rep)
    tanaka = solution.prolongation or prolong.prolong(
        hs, alg.c, rs.highest_root.height)
    zero = (0,) * rs.rank
    # iota of the Cartan basis, then of the X_r, r in the normalizer
    # support, by height: (full index, root or None, degree, weight)
    elements = [(i, None, 0, zero) for i in range(alg.rank)]
    elements += [(alg.full_index(r), r, -rs.root(r).height,
                  tuple(-x for x in rs.root(r).coeffs))
                 for r in sorted(rep.normalizer_support,
                                 key=lambda r: (-rs.root(r).height, r))]
    spans: dict[tuple, _TermSpan] = {}
    coords: dict[int, list | None] = {}     # over the block basis
    index: dict[tuple, int] = {}
    images = []
    contained = True
    for e, r, k, w in elements:
        image: dict[tuple[int, int], Scalar] = {}
        formed = True
        for g in sorted(hs.R):
            # [E, X_g] as (coordinates of a value of iota, scalar) pairs
            if r is None:                   # [H_e, X_g] = g(H_e) X_g
                terms = [([1], alg.functional[g][e])]
            elif (s := rs.add(r, g)) is None:
                # [X_-g, X_g] = -[X_g, X_-g], a Cartan element
                terms = ([(coords[i], -h) for i, h
                          in enumerate(alg.h_of_bracket[g])]
                         if r == rs.neg(g) else [])
            elif s < rs.n_pos:      # in m: s < g lies in R, a lower set
                terms = [([1], alg.c.get((r, g), 0))]
            else:
                # X_s lies in q, which holds n, so it came earlier
                terms = [(coords[alg.full_index(s)], alg.c.get((r, g), 0))]
            for vec, x in terms:
                if not x:
                    continue
                if vec is None:
                    formed = False
                    break
                for j, y in enumerate(vec):
                    image[g, j] = image.get((g, j), 0) + x * y
        if not formed:
            coords[e] = None
            contained = False
            continue
        image = {u: y for u, y in image.items() if y}
        span = spans.get((k, w))
        if span is None:
            span = spans[k, w] = _TermSpan(
                [{(g, j): y for g, vals in a.items() for j, y in vals.items()}
                 for a in tanaka.basis.get((k, w), ())])
        coords[e] = span.coordinates(image)
        images.append({index.setdefault((k, w, *u), len(index)): y
                       for u, y in image.items()})
        if coords[e] is None or (image and k > solution.degree_bound):
            contained = False
    nu_dim = len(hs.R) + len(linalg.rref(images, len(index)))
    kernel_dim = len(q_index) - nu_dim
    kernel_ok = kernel_dim == len(hs.C)
    conj = rep.dims["dim_conjecture"]
    return NormalizerComparison(
        report=rep,
        nu_dimension=nu_dim,
        solver_dimension=solution.dimension,
        nu_contained=contained,
        equal=nu_dim == solution.dimension,
        kernel_is_complement_ideal=kernel_ok,
        conjecture_dimension=conj,
        conjecture_matches=conj == solution.dimension,
    )


# ---------------------------------------------------------------------------
# dark-zone reduction
# ---------------------------------------------------------------------------

@dataclass
class ZoneReduction:
    zones: list[frozenset[int]]
    zone_solutions: list[McSolution]
    full_solution: McSolution
    additive: bool
    lifts_contained: bool

    def to_json_dict(self) -> dict:
        rs = self.full_solution.hs.rs
        return {
            "zones": [[rs.root_name(g) for g in sorted(z)] for z in self.zones],
            "zone_dimensions": [s.dimension for s in self.zone_solutions],
            "full_dimension": self.full_solution.dimension,
            "additive": self.additive,
            "lifts_contained": self.lifts_contained,
        }


def reduce_by_dark_zones(hs: HessenbergSet, chart: Chart,
                         degree_bound: int | None = None) -> ZoneReduction:
    rep = analyze(hs)
    full = solve_mc(hs, chart, degree_bound)
    zone_solutions = []
    lifted_ok = True
    total = 0
    for zone in rep.dark_zones:
        zhs = validate(hs.rs, zone)
        zsol = solve_mc(zhs, chart, degree_bound)
        zone_solutions.append(zsol)
        total += zsol.dimension
        for f in zsol.basis:
            lifted = PolyVectorField(chart, "invariant", dict(f.components),
                                     slice_roots=hs.R)
            if not full.contains(lifted):
                lifted_ok = False
    return ZoneReduction(
        zones=list(rep.dark_zones),
        zone_solutions=zone_solutions,
        full_solution=full,
        additive=total == full.dimension,
        lifts_contained=lifted_ok,
    )
