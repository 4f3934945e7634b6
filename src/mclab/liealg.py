"""Split Lie algebras with exact structure constants and charts.

Matrix realizations of sl(n, R) and sp(l, R) are built over the rationals.
The basis is {H_i} for the Cartan subspace plus one vector X_gamma per
(positive or negative) restricted root, scaled so that, where rationally
possible, the normalization form B0 (a positive rational multiple of the
trace form) satisfies B0(X_gamma, X_{-gamma}) = 1.  With that scaling the
classical structure-constant identities hold exactly.

One bracket table serves every layer: ``SplitLieAlgebra.structure`` maps
(i, j) to the nonzero coefficients of [e_i, e_j] over the full basis
(Cartan first, then the roots by id), filled while the root tables
``functional``, ``c`` and ``h_of_bracket`` are derived.  The adjoint
realization is read off it, and the adjoint action reads it transposed.

Charts parametrize the Iwasawa group N = exp(n).  Every chart can produce
a generic point (polynomials in the chart coordinates), extract
coordinates back from a point, multiply points, and compute its
left-invariant frame, all in exact arithmetic.  Every chart kind is one
construction: an ordered product of exponentials of root groups, fixed
per chart as ``Chart.groups``.  The first kind has one group, the second
kind one per root, the three-factor chart three; the matrix-entry charts
are the second kind in the root order whose product is the matrix-entry
point.  Frame fields are the standard ones generated by right translation
along the one-parameter subgroups of the basis vectors.  They are read
off the Maurer-Cartan form of the generic point g: the coefficients
W[k][gamma] of g^{-1} d_k g form a unitriangular matrix (contract order),
and X = W^{-1} d, one formula for every chart kind.

One rule fixes the representation: algebra and group elements are both
sparse entry maps ``{(i, j): value}`` of a matrix.  An algebra element (a
basis element, a group exponential minus I, a log) is its matrix; a point
n of N (the generic point, products) is n - I, and points multiply by
:func:`mclab.linalg.unipotent_product`.

The chart layer computes only what is read.  The generic point is the
product of each root group's exp(N) - I, and extraction peels with the
same group exponential, all by one sparse nilpotent series
(:func:`mclab.linalg.nilpotent_series`).  The frame and the adjoint
action Ad(n^{-1}) E form no group element: one (-ad N)-power loop over
the structure constants (:func:`minus_ad_series`) sums only the rows
asked for, on a Hessenberg slice at the slice point, the generic point
with the complement coordinates zero.
"""

from __future__ import annotations

from fractions import Fraction as Q

from . import linalg
from .fields import PolyVectorField
from .hessenberg import closure_witness
from .poly import Poly, Scalar, exact, finish
from .rootsys import RootSystem, build_root_system


class LieAlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

class Realization:
    """A faithful model of the algebra by ``size x size`` matrices, with
    exact decomposition.

    The basis [cartan..., pos..., neg...] is ``entries``: one sparse entry
    map ``{(i, j): value}`` per element, kept without zeros and with its
    values as canonical exact scalars (:func:`mclab.poly.exact`).
    ``cartan`` is its first ``len(cartan)`` maps.
    """

    def __init__(self, size, cartan, pos, neg):
        self.size = size
        self.entries = [{p: exact(x) for p, x in e.items() if x}
                        for e in [*cartan, *pos, *neg]]
        for e in self.entries:
            for i, j in e:
                if not (0 <= i < size and 0 <= j < size):
                    raise LieAlgebraError(
                        f"entry position {(i, j)} outside {size} x {size}")
        self.cartan = self.entries[:len(cartan)]
        self.dim = len(self.entries)
        # the matrix positions read off are the pivot columns of the
        # dim x size^2 matrix of flattened basis elements: the
        # lexicographically first entries giving an invertible d x d block
        flat = [{i * self.size + j: x for (i, j), x in e.items()}
                for e in self.entries]
        try:
            self._span = linalg.SpanBasis(flat, self.size * self.size)
        except ValueError:
            raise LieAlgebraError("realization basis is not independent")

    def decompose(self, m):
        """Coefficients of the entry map m over [cartan..., pos..., neg...];
        exact, in time following its entries.  Only the decomposition
        positions are read, so the element must lie in the algebra; a
        caller that cannot be sure of that asks for :meth:`coordinates`.
        """
        return self._span.sparse_coefficients(self._flat(m))

    def coordinates(self, m):
        """:meth:`decompose` of an entry map m without zeros, or None when
        m lies outside the algebra (:meth:`linalg.SpanBasis.coordinates`)."""
        return self._span.coordinates(self._flat(m))

    def _flat(self, m):
        n = self.size
        return {i * n + j: x for (i, j), x in m.items()}


def _sparse_bracket(a, b):
    """[A, B] = AB - BA of sparse entry maps {(i, j): value}, zeros dropped."""
    out: dict[tuple[int, int], Scalar] = {}
    for (i, k), x in a.items():
        for (l, j), y in b.items():
            if k == l:      # A[i][k] B[k][j] adds to (AB)[i][j]
                out[i, j] = out.get((i, j), 0) + x * y
            if j == i:      # B[l][i] A[i][k] adds to (BA)[l][k]
                out[l, k] = out.get((l, k), 0) - y * x
    return {p: v for p, v in out.items() if v}


def _transpose(m, scale=1):
    """scale * m^T of an entry map."""
    return {(j, i): scale * x for (i, j), x in m.items()}


def _multiple(m, x):
    """The exact scalar c with m == c * x for entry maps m and x (x not
    empty, neither holding zeros), or None when m is no multiple of x.

    c is read at one entry of x, an int when the division is exact, and
    then checked at every entry; an empty m gives 0."""
    p, v = next(iter(x.items()))
    u = m.get(p, 0)
    c = (u // v if type(u) is int and type(v) is int and not u % v
         else exact(Q(u, v)))
    if m != ({q: c * w for q, w in x.items()} if c else {}):
        return None
    return c


# ---------------------------------------------------------------------------
# the algebra object
# ---------------------------------------------------------------------------

class SplitLieAlgebra:
    def __init__(self, rs: RootSystem, family: str, param: int,
                 realization: Realization, normalized: bool,
                 killing_factor: Scalar, b0_lambda: Scalar | None):
        self.rs = rs
        self.family = family
        self.param = param
        self.realization = realization
        self.normalized = normalized
        self.killing_factor = killing_factor
        self.b0_lambda = b0_lambda
        self.rank = rs.rank
        self.n_pos = rs.n_pos
        self.dim = realization.dim
        # lazily filled caches of immutable results
        self._ad_realization: Realization | None = None
        self._transposed: dict | None = None
        self._cartan_gram: dict[str, list[list[Scalar]]] = {}
        self._h_rep: dict[tuple[int, str], tuple[Scalar, ...]] = {}
        self._derive_tables()

    # full-basis indexing: cartan 0..rank-1, then roots by id
    def full_index(self, root_id: int) -> int:
        return self.rank + root_id

    def _derive_tables(self):
        """The tables by recomposition: [H_i, X_r], [X_a, X_b] for a root
        a + b and theta(X_a) = -X_a^T each lie in one root space, so each
        is an exact multiple of one basis element (Carter, Simple Groups
        of Lie Type, 4.1-4.2), read at one entry and checked at all of
        them.  Only [X_a, X_-a] is decomposed over the basis, membership
        checked, and must have no root part.

        The same loops fill ``structure``, the one bracket table over the
        full basis: ``structure[i, j]`` maps k to the nonzero coefficient
        of e_k in [e_i, e_j], k ascending, zero brackets left out."""
        rs = self.rs
        real = self.realization
        rank, n_pos = self.rank, rs.n_pos
        entries = real.entries[rank:]           # the root vectors, by id
        # each cell goes in with its negative: [e_j, e_i] = -[e_i, e_j]
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        self.structure = table
        # root functionals over the Cartan basis
        self.functional: list[tuple[Scalar, ...]] = []
        for r, x_r in enumerate(entries[:n_pos]):
            vals = []
            p, n = rank + r, rank + rs.neg(r)
            for i, h in enumerate(real.cartan):
                v = _multiple(_sparse_bracket(h, x_r), x_r)
                if v is None:
                    raise LieAlgebraError("Cartan element is not diagonal")
                vals.append(v)
                if v:
                    table[i, p], table[p, i] = {p: v}, {p: -v}
                    table[i, n], table[n, i] = {n: -v}, {n: v}
            self.functional.append(tuple(vals))
        # structure constants for root pairs: [X_b, X_a] = -[X_a, X_b]
        # exactly and [X_a, X_a] = 0, so only the pairs a < b are
        # bracketed; a check failing at (b, a) fails at (a, b) first
        half: dict[tuple[int, int], Scalar] = {}
        self.h_of_bracket: dict[int, tuple[Scalar, ...]] = {}
        nroots = 2 * n_pos
        for a in range(nroots):
            for b in range(a + 1, nroots):
                s = rs.add(a, b)
                comm = _sparse_bracket(entries[a], entries[b])
                if s is not None:
                    c = _multiple(comm, entries[s])
                    if c is None:
                        raise LieAlgebraError("bracket leaves its root space")
                    if c:
                        half[a, b] = c
                        i, j, k = rank + a, rank + b, rank + s
                        table[i, j], table[j, i] = {k: c}, {k: -c}
                elif rs.neg(a) == b:        # a positive, as a < b
                    coords = real.coordinates(comm)
                    if coords is None or any(coords[rank:]):
                        raise LieAlgebraError("[X_a, X_-a] not in the Cartan")
                    self.h_of_bracket[a] = tuple(coords[:rank])
                    if cell := {k: x for k, x in enumerate(coords[:rank])
                                if x}:
                        table[rank + a, rank + b] = cell
                        table[rank + b, rank + a] = {k: -x for k, x
                                                     in cell.items()}
                elif comm:
                    raise LieAlgebraError("bracket of non-summing roots nonzero")
        # keys in the full (a, b) order, which the JSON output follows
        self.c: dict[tuple[int, int], Scalar] = dict(sorted(
            [*half.items(), *(((b, a), -c) for (a, b), c in half.items())]))
        # theta scalars: theta(X_a) = s * X_{-a}, theta(m) = -m^T
        self.theta_scalar: dict[int, Scalar] = {}
        for a in range(nroots):
            s = _multiple(_transpose(entries[a], -1), entries[rs.neg(a)])
            if s is None:
                raise LieAlgebraError("theta does not map root space to opposite")
            self.theta_scalar[a] = s

    def transposed(self) -> dict[tuple[int, int], dict[int, Scalar]]:
        """The bracket table read by row: ``transposed()[k, j]`` maps i to
        the nonzero coefficient of e_k in [e_i, e_j], so it is the
        functional e_k*([., e_j]).  Built once."""
        if self._transposed is None:
            out: dict[tuple[int, int], dict[int, Scalar]] = {}
            for (i, j), cell in self.structure.items():
                for k, x in cell.items():
                    out.setdefault((k, j), {})[i] = x
            self._transposed = out
        return self._transposed

    # ---- bilinear forms ----------------------------------------------------
    def trace_form(self, m1, m2) -> Scalar:
        """tr(m1 m2) of two entry maps: m1[i, j] * m2[j, i] summed over the
        entries of m1."""
        return exact(sum(x * m2[j, i] for (i, j), x in m1.items()
                         if (j, i) in m2))

    def killing(self, m1, m2) -> Scalar:
        return exact(self.killing_factor * self.trace_form(m1, m2))

    def b0(self, m1, m2) -> Scalar:
        if self.b0_lambda is None:
            raise LieAlgebraError("no rational normalization form for this algebra")
        return self.b0_lambda * self.trace_form(m1, m2)

    def alpha_value(self, root_id: int, h_coeffs) -> Scalar:
        """Value of the root functional on a Cartan element (coefficients):
        alpha(H_i) is read off [H_i, X_alpha] in the bracket table."""
        j, get = self.rank + root_id, self.structure.get
        h = [exact(c) for c in h_coeffs]
        return exact(sum(c * cell[j] for i, c in enumerate(h)
                         if (cell := get((i, j)))))

    def h_representing(self, root_id: int, form: str = "normalization"):
        """Cartan coefficients of H_alpha with B(H, H_alpha) = alpha(H)."""
        if form == "normalization":
            pair = self.b0
        elif form == "killing":
            pair = self.killing
        else:
            raise LieAlgebraError(f"unknown form {form!r}")
        key = (root_id, form)
        if key not in self._h_rep:
            gram = self._cartan_gram.get(form)
            if gram is None:
                cartan = self.realization.cartan
                gram = [[pair(hi, hj) for hj in cartan] for hi in cartan]
                self._cartan_gram[form] = gram
            j = self.rank + root_id
            sol = linalg.solve(gram, [self.structure.get((i, j), {}).get(j, 0)
                                      for i in range(self.rank)])
            if sol is None:
                raise LieAlgebraError("degenerate Cartan Gram matrix")
            self._h_rep[key] = tuple(sol)
        return self._h_rep[key]

    # ---- adjoint realization --------------------------------------------------
    def ad_realization(self) -> Realization:
        """Faithful realization by adjoint matrices, read off the bracket
        table: column j of ad(e_i) is ``structure[i, j]``."""
        if self._ad_realization is None:
            ads = [{(k, j): x for j in range(self.dim)
                    for k, x in self.structure.get((i, j), {}).items()}
                   for i in range(self.dim)]
            r, p = self.rank, self.rank + self.n_pos
            self._ad_realization = Realization(self.dim, ads[:r], ads[r:p],
                                               ads[p:])
        return self._ad_realization


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _sl_position(coeffs) -> tuple[int, int]:
    first = next(i for i, c in enumerate(coeffs) if c)
    last = max(i for i, c in enumerate(coeffs) if c)
    return first, last + 1


def build_sl(n: int) -> SplitLieAlgebra:
    if n < 2:
        raise LieAlgebraError("sl(n) requires n >= 2")
    rs = build_root_system("A", n - 1)
    cartan = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    pos, neg = [], []
    for r in rs.positive_roots:
        i, j = _sl_position(r.coeffs)
        pos.append({(i, j): 1})
        neg.append({(j, i): 1})
    real = Realization(n, cartan, pos, neg)
    return SplitLieAlgebra(rs, "sl", n, real, normalized=True,
                           killing_factor=2 * n, b0_lambda=1)


def build_sp(l: int) -> SplitLieAlgebra:
    """sp(l, R); for l = 2 the realization and root labels follow the
    standard 4x4 presentation with basis (E_U, E_X, E_Y, E_Z)."""
    if l < 2:
        raise LieAlgebraError("sp(l) requires l >= 2")
    rs = build_root_system("C", l)
    if l == 2:
        cartan = [{(0, 0): 1, (2, 2): -1}, {(1, 1): 1, (3, 3): -1}]
        # E_U, E_X, E_Y, E_Z in contract order: a, b, a+b, 2a+b
        pos = [{(1, 0): Q(-1, 2), (2, 3): Q(1, 2)}, {(3, 1): 2},
               {(2, 1): 1, (3, 0): 1}, {(2, 0): 1}]
        scalars = [2, Q(1, 4), Q(1, 2), 1]
        neg = [_transpose(m, s) for m, s in zip(pos, scalars)]
        real = Realization(4, cartan, pos, neg)
        return SplitLieAlgebra(rs, "sp", 2, real, normalized=True,
                               killing_factor=2 * l + 2, b0_lambda=1)
    cartan = [{(i, i): 1, (l + i, l + i): -1} for i in range(l)]
    # epsilon-vector of each positive root
    simple_eps = []
    for i in range(l - 1):
        v = [0] * l
        v[i], v[i + 1] = 1, -1
        simple_eps.append(v)
    v = [0] * l
    v[l - 1] = 2
    simple_eps.append(v)
    pos, neg = [], []
    for r in rs.positive_roots:
        eps = [sum(c * simple_eps[k][i] for k, c in enumerate(r.coeffs))
               for i in range(l)]
        if 2 in eps:
            i = eps.index(2)
            m = {(i, l + i): 1}
        else:
            i = eps.index(1)
            if -1 in eps:
                j = eps.index(-1)
                m = {(i, j): 1, (l + j, l + i): -1}
            else:
                j = eps.index(1, i + 1)
                m = {(i, l + j): 1, (j, l + i): 1}
        pos.append(m)
        neg.append(_transpose(m))
    real = Realization(2 * l, cartan, pos, neg)
    return SplitLieAlgebra(rs, "sp", l, real, normalized=False,
                           killing_factor=2 * l + 2, b0_lambda=None)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

_REFERENCE_NAMES = {
    ("sl", 3): ["x", "y", "u"],
    ("sl", 4): ["x", "y", "t", "u", "v", "z"],
    ("sp", 2): ["u", "x", "y", "z"],
}


class Chart:
    """A polynomial coordinate system on N = exp(n).  Coordinate k is the
    coefficient of the positive root with id k, in every chart kind."""

    def __init__(self, algebra: SplitLieAlgebra, kind: str,
                 realization: Realization | None = None,
                 var_names: list[str] | None = None):
        self.algebra = algebra
        self.kind = kind
        self.realization = realization or algebra.realization
        rs = algebra.rs
        self.nvars = rs.n_pos
        self.weights = [rs.root(r).height for r in range(self.nvars)]
        if var_names is not None:
            self.var_names = var_names
        else:
            names = _REFERENCE_NAMES.get((algebra.family, algebra.param))
            if names is not None and kind == "matrix" and self.nvars == len(names):
                self.var_names = names
            else:
                self.var_names = [
                    "x_" + "".join(str(c) for c in rs.root(r).coeffs)
                    for r in range(self.nvars)]
        # g = exp(sum_{r in G_1} x_r X_r) ... exp(sum_{r in G_m} x_r X_r)
        # over the root groups G_i.  The matrix-entry charts are second-kind
        # charts in the one root order whose product is I + sum x_r X_r
        # for sl(n) (rows descending, contract order within a row) and the
        # standard presentation's point for sp(2) (b, a+b, a, 2a+b)
        if kind == "matrix":
            if algebra.family == "sl":
                order = sorted(range(self.nvars), key=lambda r: -_sl_position(
                    rs.root(r).coeffs)[0])
            elif algebra.family == "sp" and algebra.param == 2:
                order = [rs.id_of(c) for c in ((0, 1), (1, 1), (1, 0), (2, 1))]
            else:
                raise LieAlgebraError(
                    "matrix chart unavailable for this algebra")
            self.groups = [[r] for r in order]
        elif kind == "first_kind":
            self.groups = [list(range(self.nvars))]
        elif kind == "second_kind":
            self.groups = [[r] for r in range(self.nvars)]
        elif kind == "three_factor":
            od = rs.omega_decompose()
            groups = [[rs.highest_root.id], sorted(od.sigma_half),
                      sorted(od.sigma0)]
            self.groups = [g for g in groups if g]
        else:
            raise LieAlgebraError(f"unknown chart kind {kind!r}")
        # extraction peels one group at a time from this end (see extract)
        self._peel_left = kind in ("matrix", "second_kind")
        self._generic = None
        # slice: (its factor groups from the last, {k: row k of Ad(n^-1)})
        self._ad_rows: dict = {}
        self._frame_cache: dict = {}

    # ---- generic point -------------------------------------------------------
    def generic_point(self):
        """The generic point n - I as an entry map, coordinate k as
        variable k: exp(sum_{r in G} x_r X_r) multiplied over the factor
        groups G in order, built once."""
        if self._generic is None:
            u: dict = {}
            for group in self.groups:
                xs = [Poly.var(self.nvars, r) for r in group]
                u = linalg.unipotent_product(u, self._group_exp(group, xs))
            self._generic = u
        return self._generic

    def _slice(self, slice_roots) -> list[int]:
        """The roots of ``slice_roots`` (every positive root when None) in
        coordinate order.  Raises ``LieAlgebraError`` unless they are
        positive root ids, hence coordinates, forming a lower order ideal:
        only then is the complement n_C an ideal of n, so that g^{-1} d_k g
        lies in n_C for every complement coordinate k."""
        if slice_roots is None:
            return list(range(self.nvars))
        key = frozenset(slice_roots)
        if not key.issubset(range(self.nvars)):
            raise LieAlgebraError(
                "slice roots outside the chart's coordinates")
        witness = closure_witness(self.algebra.rs, key)
        if witness is not None:
            name = self.algebra.rs.root_name
            a, b, d = witness
            raise LieAlgebraError(
                f"slice roots are not a lower order ideal: {name(a)} - "
                f"{name(b)} = {name(d)} is missing")
        return sorted(key)

    def _group_exp(self, group, coeffs):
        """exp(sum_r c_r X_r) - I over the roots r of one factor group, as
        a sparse entry map: the one group exponential of the chart."""
        nil: dict = {}
        entries = self.realization.entries
        for r, c in zip(group, coeffs):
            for p, x in entries[self.algebra.full_index(r)].items():
                acc = nil.get(p)
                nil[p] = c * x if acc is None else acc + c * x
        return linalg.nilpotent_series(nil, self.realization.size,
                                       linalg.exp_coeff)

    # ---- extraction -----------------------------------------------------------
    def extract(self, u):
        """Chart coordinates of the point n given as the entry map u of
        n - I; entries may be exact scalars or Poly.

        The charts peel one factor group at a time from the entry map C of
        the remaining product minus I: the log of I + C, decomposed over
        the basis, gives the coefficients of the group at one end, and
        multiplying by the inverse exponential I + P removes it,
        C <- P + C + PC (C + P + CP on the right).  Second-kind and
        matrix-entry charts peel from the left.  First-kind and
        three-factor charts peel from the right: the roots of the earlier
        groups span an ideal of n, so modulo it the product is the
        exponential of its last group alone.  From the left, the highest
        root's coefficient would pick up Baker-Campbell-Hausdorff brackets.
        """
        full_index = self.algebra.full_index
        size = self.realization.size
        order = self.groups if self._peel_left else self.groups[::-1]
        vals: dict[int, object] = {}
        for k, group in enumerate(order):
            log = linalg.nilpotent_series(u, size, linalg.log_coeff)
            coeffs = self.realization.decompose(log)
            cs = [coeffs[full_index(r)] for r in group]
            vals.update(zip(group, cs))
            if k + 1 < len(order):
                peel = self._group_exp(group, [-c for c in cs])
                u = (linalg.unipotent_product(peel, u) if self._peel_left
                     else linalg.unipotent_product(u, peel))
        return [vals[r] for r in range(self.nvars)]

    # ---- points ---------------------------------------------------------------
    def point(self, values):
        """The point n - I at rational coordinates, an entry map without
        zeros."""
        values = [exact(v) for v in values]
        return {p: v for p, x in self.generic_point().items()
                if (v := x.eval(values))}

    def coords_of_point(self, u) -> list[Scalar]:
        """Coordinates of the rational point n of N given as the entry map
        u of n - I.  The point is recomposed from them, so a map outside N
        raises ``LieAlgebraError`` (a non-unipotent one may raise the log
        series' ``ValueError``)."""
        coords = [c.constant_value() if type(c) is Poly else exact(c)
                  for c in self.extract(u)]
        if self.point(coords) != {p: x for p, x in u.items() if x}:
            raise LieAlgebraError("map is not a point of the chart's group")
        return coords

    def multiply(self, pa, pb) -> list[Scalar]:
        return self.coords_of_point(
            linalg.unipotent_product(self.point(pa), self.point(pb)))

    # ---- frame ------------------------------------------------------------------
    def frame_components(self, slice_roots=None) -> dict[int, dict[int, Poly]]:
        """Row gamma: coefficients of d/dx_j in the frame field X_gamma, on
        the slice of ``slice_roots`` (the whole group when None): rows and
        columns gamma, j in the slice, complement coordinates zero.

        The frame comes from the Maurer-Cartan form of the slice point
        n = exp(N_1) ... exp(N_m), N_i = sum x_r X_r over the roots r of
        factor group i in the slice (Varadarajan, GTM 102, Thm 2.14.3):
        W[k][gamma] is the coefficient of X_gamma in n^{-1} d_k n, so
        d_k = sum_gamma W[k][gamma] X_gamma as left-invariant fields.  For
        k in group i,

            n^{-1} d_k n = exp(-ad N_m) ... exp(-ad N_{i+1})
                           sum_j (-ad N_i)^j X_k / (j + 1)!,

        summed in the algebra from the structure constants alone
        (:func:`minus_ad_series`): no group point is formed.  W is
        unitriangular in contract (height) order, hence X_gamma =
        sum_k (W^{-1})[gamma][k] d_k, with W^{-1} from the finite Neumann
        series of W - I.  The formula is the same for every chart kind;
        only the groups differ.

        On a slice R only the rows k and columns gamma in R are formed.
        Its complement C is an upper set, so n_C is an ideal and
        n^{-1} d_k n lies in n_C for k in C: the full W is block
        triangular, (W^{-1})_RR = (W_RR)^{-1}, and setting x_C = 0 commutes
        with d_k for k in R, with products and with inverses.  So the
        slice rows are those of the full frame at x_C = 0, and W_RR is
        summed in n_R / n_C, where [X_a, X_b] is c_{a,b} X_{a+b} when a + b
        lies in R and 0 otherwise (Tanaka, J. Math. Kyoto Univ. 10, 1970).
        """
        key = None if slice_roots is None else frozenset(slice_roots)
        rows = self._frame_cache.get(key)
        if rows is not None:
            return rows
        roots = self._slice(key)
        pos = {r: t for t, r in enumerate(roots)}
        add, c = self.algebra.rs.add, self.algebra.c

        def bracket(row_root, r):
            # [X_a, X_r] in n_R / n_C, in the row of W that X_a belongs to
            k, a = row_root
            s, x = add(a, r), c.get((a, r))
            return ((k,), {s: x}) if x and s in pos else None

        unit = (0,) * self.nvars
        w: dict[tuple[int, int], dict] = {}     # (k, gamma): W[k][gamma]
        for group in self.groups:
            kept = [r for r in group if r in pos]
            if kept:
                w = minus_ad_series(bracket, kept, w,
                                    lambda j, last: linalg.exp_coeff(j))
                w.update(minus_ad_series(
                    bracket, kept, {(r, r): {unit: 1} for r in kept},
                    lambda j, last: linalg.exp_coeff(j + 1)))
        # W - I: the diagonal is one, as (-ad N) raises the height
        nil = {(pos[k], pos[g]): finish(self.nvars,
                                        {m: x for m, x in t.items() if x})
               for (k, g), t in w.items() if k != g}
        # (W^{-1} - I)[g][k], the diagonal's one added back
        w_inv = linalg.nilpotent_series(nil, len(roots), linalg.inverse_coeff)
        one = Poly.const(self.nvars, 1)
        rows = {}
        for g, r in enumerate(roots):
            row = rows[r] = {}
            for k, s in enumerate(roots):
                p = w_inv.get((g, k))
                if g == k:
                    p = one if p is None else one + p
                if p is not None and not p.is_zero():
                    row[s] = p
        self._frame_cache[key] = rows
        return rows

    def frame_field(self, root_id: int, slice_roots=None) -> PolyVectorField:
        rows = self.frame_components(slice_roots)
        return PolyVectorField(self, "coordinate", dict(rows[root_id]),
                               slice_roots=None if slice_roots is None
                               else frozenset(slice_roots))

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "coordinates": [self.algebra.rs.root_name(r)
                            for r in range(self.nvars)],
            "variables": list(self.var_names),
        }
        if self.kind == "matrix" and self.algebra.family == "sl":
            out["positions"] = {
                self.var_names[r]: list(_sl_position(
                    self.algebra.rs.root(r).coeffs))
                for r in range(self.nvars)}
        return out


def matrix_chart(algebra: SplitLieAlgebra) -> Chart:
    return Chart(algebra, "matrix")


def first_kind_chart(algebra: SplitLieAlgebra, realization=None) -> Chart:
    return Chart(algebra, "first_kind", realization=realization)


def second_kind_chart(algebra: SplitLieAlgebra, realization=None) -> Chart:
    return Chart(algebra, "second_kind", realization=realization)


def three_factor_chart(algebra: SplitLieAlgebra) -> Chart:
    """Chart n = exp(z Z) exp(sum y_a Y_a) exp(sum x_b X_b).

    Coordinates are stored in contract order like every other chart; the
    z/y/x grouping lives in the factor structure and the variable names.
    """
    rs = algebra.rs
    od = rs.omega_decompose()
    names = []
    for r in range(rs.n_pos):
        tag = "".join(str(c) for c in rs.root(r).coeffs)
        if r == rs.highest_root.id:
            names.append("z")
        elif r in od.sigma_half:
            names.append(f"y_{tag}")
        else:
            names.append(f"x_{tag}")
    return Chart(algebra, "three_factor", var_names=names)


def default_chart(algebra: SplitLieAlgebra) -> Chart:
    if algebra.family == "sl" or (algebra.family == "sp" and algebra.param == 2):
        return matrix_chart(algebra)
    return second_kind_chart(algebra)


# ---------------------------------------------------------------------------
# adjoint action
# ---------------------------------------------------------------------------

def minus_ad_series(bracket, group, y: dict, coeff) -> dict:
    """sum_j coeff(j, M) (-ad N)^j y for N = sum_r x_r X_r over one factor
    group and y an element with polynomial coefficients {key: terms},
    where M is the last power of -ad N that does not vanish on y.
    (-ad N) z = sum_r x_r [z, X_r], where ``bracket(key, r)`` gives
    [X_key, X_r] as a pair (prefix, {j: scalar}) over the keys
    prefix + (j,), or None when it is zero, and ``group`` lists the roots
    r, x_r being variable r.  The powers end because ad X_r raises the
    height.  Each power holds no zero, but two powers may cancel in the
    sum, whose zeros the caller drops.  This is the one (-ad N)-power
    loop: with coeff 1/j! it is exp(-ad N) y, with 1/(j + 1)! the dexp
    series of the frame, and with M!/j! it is M! exp(-ad N) y in
    integers."""
    powers = [y]
    while True:
        nxt: dict = {}
        for key, t in powers[-1].items():
            for r in group:
                br = bracket(key, r)
                if br is None:
                    continue
                prefix, values = br
                shifted = [(m[:r] + (m[r] + 1,) + m[r + 1:], x)
                           for m, x in t.items()]
                for j, b in values.items():
                    acc = nxt.setdefault((*prefix, j), {})
                    for m, x in shifted:
                        acc[m] = acc.get(m, 0) + b * x
        nxt = {key: t for key, acc in nxt.items()
               if (t := {m: x for m, x in acc.items() if x})}
        if not nxt:
            break
        powers.append(nxt)
    last = len(powers) - 1
    out: dict = {}
    for j, power in enumerate(powers):
        f = coeff(j, last)
        for key, t in power.items():
            dest = out.setdefault(key, {})
            for m, x in t.items():
                dest[m] = dest.get(m, 0) + f * x
    return out


def adjoint_of_point(chart: Chart, element, indices=None, slice_roots=None):
    """Coefficients of Ad(n^{-1}) E at the generic point n, polynomials in
    the chart coordinates, at the full-basis ``indices`` (all of them, in
    order, when None).  With ``slice_roots`` n is the slice point n_R, the
    generic point with every coordinate outside R zero; R must be a lower
    order ideal (:meth:`Chart._slice`).  ``element`` is an entry map
    {(p, q): value} in the chart's realization.

    For n = exp(N_1) ... exp(N_m) over the factor groups (their roots in
    R), Ad(n^{-1}) = exp(-ad N_m) ... exp(-ad N_1) (Varadarajan, GTM 102,
    Thm 2.14.3).  Its row k, e_k* exp(-ad N_m) ... exp(-ad N_1), is summed
    from the last group by :func:`minus_ad_series` over the transposed
    bracket table: e_k*([., X_r]) is ``transposed()[k, X_r]``, one lookup
    whatever kind of basis element e_k is.  The coefficient at k is the
    row dotted with the coordinates of E.  Rows are kept on the chart per
    slice and index, so one row serves every element, and no group point
    is formed.
    """
    alg = chart.algebra
    coords = chart.realization.coordinates(
        {p: x for p, x in element.items() if x})
    if coords is None:
        raise LieAlgebraError("element outside the algebra")
    key = None if slice_roots is None else frozenset(slice_roots)
    cached = chart._ad_rows.get(key)
    if cached is None:
        roots = set(chart._slice(key))
        groups = [kept for g in chart.groups[::-1]
                  if (kept := [r for r in g if r in roots])]
        cached = chart._ad_rows[key] = (groups, {})
    groups, rows = cached
    rank, nvars, transposed = alg.rank, chart.nvars, alg.transposed()

    def dual_bracket(key, r):
        # e_k*([., X_r]) over the full basis, for the key (k,)
        cell = transposed.get((key[0], rank + r))
        return ((), cell) if cell else None

    out = []
    for k in range(chart.realization.dim) if indices is None else indices:
        row = rows.get(k)
        if row is None:
            row = {(k,): {(0,) * nvars: 1}}
            for group in groups:
                row = minus_ad_series(dual_bracket, group, row,
                                      lambda j, last: linalg.exp_coeff(j))
            row = rows[k] = [
                (i, t) for (i,), acc in sorted(row.items())
                if (t := {m: exact(x) for m, x in acc.items() if x})]
        acc: dict = {}
        for i, t in row:
            if c := coords[i]:
                for m, x in t.items():
                    acc[m] = acc.get(m, 0) + c * x
        out.append(finish(nvars, {m: x for m, x in acc.items() if x}))
    return out
