"""Multicontact vector fields on Hessenberg slices.

The induced field of an algebra element E is computed from the adjoint
action: along the standard left-invariant frame, the component of tau(E)
labelled by the positive root gamma is minus the g_gamma-coefficient of
Ad(n^{-1}) E.  Projecting to the slice of a Hessenberg set drops the
complement components and sets the complement coordinates to zero.

The multicontact condition on a slice field F = sum f_gamma X_gamma is
the first-order system, over simple roots delta in R and gamma in R,

    X_delta(f_gamma) = 0                          gamma - delta outside
                                                  Sigma_+ u {0}
    X_delta(f_gamma) + c_{delta,gamma-delta} f_{gamma-delta} = 0
                                                  gamma - delta in Sigma_+

(the gamma = delta equations carry a free multiplier and are omitted).
The system is graded twice: by dilation degree, and within a degree by
the root-lattice weight of the unknowns.  Each weight block is solved
separately by exact fraction-free elimination.

By default only the blocks that the Tanaka prolongation of the slice
algebra (:mod:`mclab.prolong`) finds nonzero are assembled and
eliminated, each nullity checked against the prolongation's count; the
degrees where the prolongation is zero, the largest blocks of a solve,
are never formed.  An explicit degree bound is the verification mode:
it eliminates every weight block of every degree through the bound and
never consults the prolongation.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction as Q

from . import linalg, prolong
from .fields import PolyVectorField
from .hessenberg import HessenbergSet, HessenbergReport, analyze, validate
from .liealg import Chart, SplitLieAlgebra, adjoint_of_point
from .poly import Poly, monomials_of_weighted_degree


class McError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tau and projection
# ---------------------------------------------------------------------------

def tau(algebra: SplitLieAlgebra, chart: Chart, element) -> PolyVectorField:
    """Multicontact field of an algebra element (an entry map in the
    chart's realization), on the full group."""
    coeffs = adjoint_of_point(chart, element, [
        algebra.full_index(r) for r in range(algebra.rs.n_pos)])
    comps = {r: c * Q(-1) for r, c in enumerate(coeffs) if not c.is_zero()}
    return PolyVectorField(chart, "invariant", comps)


def tau_basis(algebra: SplitLieAlgebra, chart: Chart,
              indices=None) -> dict[int, PolyVectorField]:
    """tau of the full-basis elements at ``indices`` (all of them when
    None), keyed by full-basis index.  Each is computed once per chart,
    when first asked for, and cached."""
    cache = getattr(chart, "_tau_basis_cache", None)
    if cache is None:
        cache = chart._tau_basis_cache = {}
    keys = range(algebra.dim) if indices is None else indices
    for k in keys:
        if k not in cache:
            cache[k] = tau(algebra, chart, chart.realization.entries[k])
    return {k: cache[k] for k in keys}


def project_to_slice(field: PolyVectorField, hs: HessenbergSet) -> PolyVectorField:
    """Drop complement components and set complement coordinates to zero."""
    chart = field.chart
    inv = field.to_invariant()
    csub = {chart.coord_index(r): Q(0) for r in hs.C}
    comps = {}
    for r, p in inv.components.items():
        if r in hs.R:
            q = p.subs(csub)
            if not q.is_zero():
                comps[r] = q
    return PolyVectorField(chart, "invariant", comps, slice_roots=hs.R)


def nu(algebra: SplitLieAlgebra, chart: Chart, hs: HessenbergSet,
       element) -> PolyVectorField:
    return project_to_slice(tau(algebra, chart, element), hs)


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

    def unknown_monomials(self, degree: int,
                          weights=None) -> list[tuple[int, tuple]]:
        """Unknowns of the homogeneous block of field degree ``degree``:
        pairs (gamma, monomial) in deterministic order.  With ``weights``
        (a container of root-lattice weights) only the unknowns of those
        weights."""
        chart = self.chart
        rs = self.hs.rs
        slice_vars = [chart.coord_index(r) for r in self.labels]
        out = []
        for g in self.labels:
            w = degree + rs.root(g).height
            if w < 0:
                continue
            sub_weights = [chart.weights[v] for v in slice_vars]
            for mono in monomials_of_weighted_degree(sub_weights, w):
                full = [0] * chart.nvars
                for v, e in zip(slice_vars, mono):
                    full[v] = e
                out.append((g, tuple(full)))
        if weights is None:
            return out
        return [u for u, w in zip(out, _unknown_weights(self, out))
                if w in weights]

    def block_rows(self, degree: int,
                   unknown_index: dict[tuple[int, tuple], int]):
        """Sparse rows of the block for one homogeneous degree.

        Row (delta, gamma, m) holds the coefficient of x^m in equation
        (delta, gamma).  An unknown (g, x^n) enters an equation either
        through X_delta(x^n) when gamma = g, or through the ladder term
        c_{delta,g} x^n when gamma - delta = g, never both.
        """
        chart = self.chart
        rs = self.hs.rs
        alg = chart.algebra
        frame = chart.frame_components(self.hs.R)
        derivative = {
            delta: [(chart.coord_index(j), a.terms) for j, a in row.items()]
            for delta, row in frame.items()}
        terms_of: dict[int, list] = {}
        for delta, gamma in self.equations:
            terms_of.setdefault(gamma, []).append((delta, gamma, None))
            diff = rs.add(gamma, rs.neg(delta))
            if diff is not None and diff < rs.n_pos:
                terms_of.setdefault(diff, []).append(
                    (delta, gamma, alg.c[(delta, diff)]))
        rows: dict[tuple, dict[int, Q]] = {}
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
        return [rows[k] for k in sorted(rows)]

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
    hs: HessenbergSet
    chart: Chart
    degree_bound: int
    basis: list[PolyVectorField]
    degrees: list[int]
    dimension: int
    stabilized: bool
    bracket_table: list[list[list[Q]]] | None = None
    bracket_closed: bool = True
    _span: tuple[dict, linalg.SpanBasis] | None = dc_field(
        default=None, repr=False, compare=False)

    # ---- span helpers ------------------------------------------------------
    def monomial_index(self) -> dict[tuple[int, tuple], int]:
        seen: dict[tuple[int, tuple], int] = {}
        for f in self.basis:
            for g, p in f.components.items():
                for m in p.monomials():
                    seen.setdefault((g, m), len(seen))
        return seen

    def flatten(self, field: PolyVectorField,
                index: dict[tuple[int, tuple], int]) -> dict[int, Q] | None:
        """Sparse coefficient vector {column: value} of a slice field over
        the solution monomials; None when the field involves monomials
        outside the span support."""
        vec = {}
        inv = field.to_invariant()
        for g, p in inv.components.items():
            for m, c in p.terms.items():
                key = (g, m)
                if key not in index:
                    return None
                vec[index[key]] = c
        return vec

    def span(self) -> tuple[dict[tuple[int, tuple], int], linalg.SpanBasis]:
        """The monomial index and the basis eliminated over it, once."""
        if self._span is None:
            index = self.monomial_index()
            self._span = (index, linalg.SpanBasis(
                [self.flatten(b, index) for b in self.basis],
                len(index)))
        return self._span

    def coordinates(self, field: PolyVectorField) -> list[Q] | None:
        """Exact coordinates of a slice field over the basis, or None when
        it is outside the span."""
        index, span = self.span()
        vec = self.flatten(field, index)
        return None if vec is None else span.coordinates(vec)

    def contains(self, field: PolyVectorField) -> bool:
        return self.coordinates(field) is not None

    # ---- structure ---------------------------------------------------------
    def compute_brackets(self) -> None:
        """Bracket table over the basis: cell (i, j) holds the coordinates
        of [b_i, b_j] over the basis, or [] when that bracket leaves the
        span, in which case ``bracket_closed`` is False.

        Each basis field is converted to the coordinate frame once and only
        the pairs i < j are bracketed; the other cells follow from
        antisymmetry, [b_j, b_i] = -[b_i, b_j] and [b_i, b_i] = 0.
        """
        n = self.dimension
        fields = [b.to_coordinate() for b in self.basis]
        table: list[list[list[Q]]] = [[[] for _ in range(n)]
                                      for _ in range(n)]
        closed = True
        for i in range(n):
            table[i][i] = [Q(0)] * n
            for j in range(i + 1, n):
                coords = self.coordinates(fields[i].bracket(fields[j]))
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _ad_columns(table: list[list[list[Q]]]
                ) -> list[dict[int, dict[int, Q]]]:
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


def _trace_form(ad: list[dict[int, dict[int, Q]]]) -> list[list[Q]]:
    """The form tr(ad_i ad_j), summed over the nonzero entries
    (ad_i)_pq = ad[i][q][p] only, each times (ad_j)_qp.  The form is
    symmetric, so the upper triangle is computed and mirrored."""
    n = len(ad)
    form = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            adj = ad[j]
            s = Q(0)
            for q, col in ad[i].items():
                for p, x in col.items():
                    y = adj.get(p, {}).get(q)
                    if y:
                        s += x * y
            form[i][j] = form[j][i] = s
    return form


def _derived_series(ad: list[dict[int, dict[int, Q]]]) -> list[int]:
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
                w: dict[int, Q] = {}
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


def _unknown_weights(system: McSystem,
                     unknowns: list[tuple[int, tuple]]) -> list[tuple]:
    """Root-lattice weight sum_v m_v root(v) - gamma of each unknown
    (gamma, x^m), as a coefficient vector over the simple roots."""
    rs = system.hs.rs
    coord_coeffs = [rs.root(r).coeffs for r in system.chart.coord_roots]
    out = []
    for g, mono in unknowns:
        w = [-c for c in rs.root(g).coeffs]
        for v, e in enumerate(mono):
            if e:
                for i, c in enumerate(coord_coeffs[v]):
                    w[i] += e * c
        out.append(tuple(w))
    return out


def _weight_blocks(weights: list[tuple], rows: list[dict[int, Q]]
                   ) -> list[tuple[tuple, list[int], list[dict[int, Q]]]]:
    """Split a degree block into its root-lattice weight blocks.

    Returns, per weight, the weight, the block's columns in ascending
    order and its rows in their original order.  The equations are
    homogeneous for the weight, so every row must touch a single weight
    block; a row that does not is a defect in the assembly and raises
    McError.
    """
    cols: dict[tuple, list[int]] = {}
    for k, w in enumerate(weights):
        cols.setdefault(w, []).append(k)
    block_rows: dict[tuple, list[dict[int, Q]]] = {w: [] for w in cols}
    for row in rows:
        touched = {weights[c] for c, v in row.items() if v}
        if len(touched) != 1:
            raise McError("multicontact equation mixes root-lattice weights "
                          f"{sorted(touched)}: the system is not equivariant")
        block_rows[touched.pop()].append(row)
    return [(w, cols[w], block_rows[w]) for w in cols]


def _solve_block(system: McSystem, degree: int, wanted=None
                 ) -> tuple[list[PolyVectorField], dict[tuple, int]]:
    """Solutions of one homogeneous degree, one weight block at a time,
    and the nullity of each weight block eliminated.

    A block-diagonal matrix has the same pivot columns as its blocks
    taken one at a time, so ordering the merged basis by free column (the
    largest index with a nonzero entry) gives exactly the basis of one
    elimination over the whole degree block.  For the same reason,
    ``wanted`` (a container of root-lattice weights) restricts the solve
    to those weight blocks without changing their basis: only their
    unknowns are assembled.  None means every weight block.
    """
    unknowns = system.unknown_monomials(degree, wanted)
    if not unknowns:
        return [], {}
    index = {u: k for k, u in enumerate(unknowns)}
    rows = system.block_rows(degree, index)
    solutions: list[list[tuple[int, Q]]] = []     # (column, value) pairs
    nullity: dict[tuple, int] = {}
    for w, cols, brows in _weight_blocks(_unknown_weights(system, unknowns),
                                         rows):
        local = {c: k for k, c in enumerate(cols)}
        null = linalg.sparse_nullspace(
            [{local[c]: v for c, v in r.items()} for r in brows], len(cols))
        nullity[w] = len(null)
        solutions += [[(cols[k], x) for k, x in enumerate(vec) if x != 0]
                      for vec in null]
    solutions.sort(key=lambda entries: entries[-1][0])
    chart = system.chart
    out = []
    for entries in solutions:
        comps: dict[int, Poly] = {}
        for k, x in entries:
            g, mono = unknowns[k]
            comps.setdefault(g, Poly.zero(chart.nvars)).terms[mono] = x
        out.append(PolyVectorField(chart, "invariant", comps,
                                   slice_roots=system.hs.R))
    return out, nullity


def solve_mc(hs: HessenbergSet, chart: Chart,
             degree_bound: int | None = None) -> McSolution:
    """Exact basis of the multicontact solution space on the slice.

    Degrees -h .. degree_bound are solved one block at a time, where h is
    the highest-root height; the default bound is 2h.

    By default the blocks to solve come from the Tanaka prolongation of
    the slice algebra (:func:`mclab.prolong.prolong`, from the structure
    constants alone): from degree 0 on, only the (degree, weight) blocks
    it finds nonzero are assembled and eliminated, up to the last degree
    before its stop, the first k >= 0 with g_k = 0.  Below degree 0 (m
    itself, a few unknowns) every weight block is eliminated.  Each
    eliminated block's nullity must equal the prolongation's count (0 for
    a weight it does not list), or McError names the degree and the
    weight.  No degree from the stop on has solutions (N. Tanaka, J.
    Math. Kyoto Univ. 10, 1970; K. Yamaguchi, Adv. Stud. Pure Math. 22,
    1993): for F of degree d + 1, [X, F] lies in degree d for every
    simple frame field X, hence vanishes; the simple fields generate the
    slice algebra, so F commutes with all of it and would have negative
    degree, hence F = 0, and so on upwards.  The result reports
    ``degree_bound`` 2h and ``stabilized`` True.  A slice whose
    prolongation never empties through 2h + 1 (infinite type) is solved
    through 2h, then the nonzero blocks of degree 2h + 1 count the
    solutions past the bound, which are warned about, and ``stabilized``
    is False.

    An explicit ``degree_bound`` is the verification mode, which never
    consults the prolongation: every weight block of every degree up to
    the bound is eliminated, and ``stabilized`` records whether the
    degree degree_bound + 1 is empty.
    """
    h = hs.rs.highest_root.height
    verify = degree_bound is not None
    if not verify:
        degree_bound = 2 * h
        tanaka = prolong.prolong(hs, chart.algebra.c, degree_bound + 1)
    system = assemble_mc_system(hs, chart, degree_bound)

    checks = []         # (degree, nullity per weight, prolongation's)

    def solve(d):
        if verify:
            return _solve_block(system, d)[0]
        counts = tanaka.blocks.get(d, {})
        if d >= 0 and not counts:
            return []
        block, nullity = _solve_block(system, d, counts if d >= 0 else None)
        checks.append((d, nullity, counts))
        return block

    basis: list[PolyVectorField] = []
    degrees: list[int] = []
    for d in range(-h, degree_bound + 1):
        block = solve(d)
        basis.extend(block)
        degrees.extend([d] * len(block))
    extra = solve(degree_bound + 1)
    # counts are compared once every degree is assembled, so that a defect
    # in the assembly is reported by its own certificate first
    for d, nullity, counts in checks:
        for w in sorted(nullity.keys() | counts.keys()):
            if nullity.get(w, 0) != counts.get(w, 0):
                raise McError(
                    f"degree {d}, weight {list(w)}: {nullity.get(w, 0)} "
                    f"solution(s), the prolongation gives "
                    f"{counts.get(w, 0)}")
    stabilized = not extra
    if not stabilized:
        warnings.warn(
            f"multicontact dimension not stabilized at bound "
            f"{degree_bound}: {len(extra)} further solution(s) at the "
            f"next degree", stacklevel=2)
    return McSolution(hs=hs, chart=chart, degree_bound=degree_bound,
                      basis=basis, degrees=degrees, dimension=len(basis),
                      stabilized=stabilized)


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
    if not solution.stabilized:
        raise McError("solution dimension is not stabilized")
    alg = chart.algebra
    rep = report if report is not None else analyze(hs)
    q_index = normalizer_basis_indices(alg, rep)
    taus = tau_basis(alg, chart, q_index)
    fields = [project_to_slice(taus[k], hs) for k in q_index]

    # the solution's monomials keep their indices in the wider index, so
    # its eliminated basis decides containment
    index, span = solution.span()
    index = dict(index)
    for f in fields:
        for g, p in f.components.items():
            for m in p.monomials():
                index.setdefault((g, m), len(index))
    contained = True
    nu_vecs = []
    for f in fields:
        v = solution.flatten(f, index)
        if v is None:
            raise McError("field outside the joint monomial support")
        nu_vecs.append(v)
        if span.coordinates(v) is None:
            contained = False
    nu_dim = len(linalg.rref(nu_vecs, len(index)))
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
