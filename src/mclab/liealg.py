"""Split Lie algebras with exact structure constants and charts.

Matrix realizations of sl(n, R) and sp(l, R) are built over the rationals.
The basis is {H_i} for the Cartan subspace plus one vector X_gamma per
(positive or negative) restricted root, scaled so that, where rationally
possible, the normalization form B0 (a positive rational multiple of the
trace form) satisfies B0(X_gamma, X_{-gamma}) = 1.  With that scaling the
classical structure-constant identities hold exactly.

Charts parametrize the Iwasawa group N = exp(n).  Every chart can produce
a generic point (a matrix of polynomials in the chart coordinates),
extract coordinates back from a matrix, multiply points, and compute its
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

One rule fixes the representation: an algebra element (a basis element,
a group exponential minus I, a log) is a sparse entry map
``{(i, j): value}`` of a matrix, and a group element (the generic point,
its inverse, products) is a matrix.

The chart layer computes only what is read.  The generic point
multiplies in each root group's exp(N) - I as a sparse entry map,
re-forming only the columns it touches; its inverse multiplies in the
groups' exp(-N) in reverse order, and extraction peels with the same
group exponential.  exp, the log and W^{-1} are one sparse nilpotent
series (:func:`mclab.linalg.nilpotent_series`).  The frame and the
adjoint action Ad(n^{-1}) E at the generic point form only the
coefficients their callers ask for, each from the few matrix entries that
its row of the decomposition inverse names (:meth:`Realization.read`).
"""

from __future__ import annotations

from fractions import Fraction as Q

from . import linalg
from .fields import PolyVectorField
from .poly import Poly
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
    map ``{(i, j): value}`` per element, kept without zeros.  ``cartan``
    is its first ``len(cartan)`` maps.
    """

    def __init__(self, size, cartan, pos, neg):
        self.size = size
        self.entries = [{p: x for p, x in e.items() if x}
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
        self._positions = [divmod(t, self.size) for t in self._span.positions]

    def decompose(self, m):
        """Coefficients of the entry map m over [cartan..., pos..., neg...];
        exact, in time following its entries.  Only the decomposition
        positions are read, so the element must lie in the algebra
        (callers bracket or transpose basis elements, so it always does).
        """
        n = self.size
        return self._span.sparse_coefficients(
            {i * n + j: x for (i, j), x in m.items()})

    def read(self, indices, entry):
        """Coefficients at the full-basis ``indices`` of the algebra element
        whose matrix entry (i, j) is ``entry(i, j)``.  Only the entries
        named by the inverse rows of those coefficients are asked for,
        each once."""
        inverse_rows = self._span.inverse_rows
        sel = {}
        for c in indices:
            for t, _ in inverse_rows[c]:
                if t not in sel:
                    sel[t] = entry(*self._positions[t])
        return self._span.coefficients(sel, indices)


def _sparse_bracket(a, b):
    """[A, B] = AB - BA of sparse entry maps {(i, j): value}, zeros dropped."""
    out: dict[tuple[int, int], Q] = {}
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


# ---------------------------------------------------------------------------
# the algebra object
# ---------------------------------------------------------------------------

class SplitLieAlgebra:
    def __init__(self, rs: RootSystem, family: str, param: int,
                 realization: Realization, normalized: bool,
                 killing_factor: Q, b0_lambda: Q | None):
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
        self._cartan_gram: dict[str, list[list[Q]]] = {}
        self._h_rep: dict[tuple[int, str], tuple[Q, ...]] = {}
        self._derive_tables()

    # full-basis indexing: cartan 0..rank-1, then roots by id
    def full_index(self, root_id: int) -> int:
        return self.rank + root_id

    def _derive_tables(self):
        rs = self.rs
        real = self.realization
        entries = real.entries
        # root functionals over the Cartan basis
        self.functional: list[tuple[Q, ...]] = []
        for r in range(rs.n_pos):
            vals = []
            x_r = entries[self.full_index(r)]
            for i in range(self.rank):
                comm = _sparse_bracket(entries[i], x_r)
                target = real.decompose(comm)[self.full_index(r)]
                # recomposition: [H_i, X_r] must be target * X_r exactly
                if comm != {p: target * x for p, x in x_r.items() if target}:
                    raise LieAlgebraError("Cartan element is not diagonal")
                vals.append(target)
            self.functional.append(tuple(vals))
        # structure constants for root pairs: [X_b, X_a] = -[X_a, X_b]
        # exactly and [X_a, X_a] = 0, so only the pairs a < b are
        # bracketed; a check failing at (b, a) fails at (a, b) first
        half: dict[tuple[int, int], Q] = {}
        self.h_of_bracket: dict[int, tuple[Q, ...]] = {}
        nroots = 2 * rs.n_pos
        for a in range(nroots):
            for b in range(a + 1, nroots):
                s = rs.add(a, b)
                comm = _sparse_bracket(entries[self.full_index(a)],
                                       entries[self.full_index(b)])
                coeffs = real.decompose(comm)
                if s is not None:
                    c = coeffs[self.full_index(s)]
                    rest = [x for k, x in enumerate(coeffs)
                            if k != self.full_index(s) and x != 0]
                    if rest:
                        raise LieAlgebraError("bracket leaves its root space")
                    if c != 0:
                        half[(a, b)] = c
                elif rs.neg(a) == b:
                    if a < rs.n_pos:
                        self.h_of_bracket[a] = tuple(coeffs[:self.rank])
                    if any(x != 0 for x in coeffs[self.rank:]):
                        raise LieAlgebraError("[X_a, X_-a] not in the Cartan")
                else:
                    if any(x != 0 for x in coeffs):
                        raise LieAlgebraError("bracket of non-summing roots nonzero")
        # keys in the full (a, b) order, which the JSON output follows
        self.c: dict[tuple[int, int], Q] = {}
        for a in range(nroots):
            for b in range(nroots):
                if (a, b) in half:
                    self.c[(a, b)] = half[(a, b)]
                elif (b, a) in half:
                    self.c[(a, b)] = -half[(b, a)]
        # theta scalars: theta(X_id) = s * X_{-id}, theta(m) = -m^T
        self.theta_scalar: dict[int, Q] = {}
        for a in range(nroots):
            coeffs = real.decompose(_transpose(entries[self.full_index(a)], -1))
            tgt = self.full_index(rs.neg(a))
            if any(x != 0 for k, x in enumerate(coeffs) if k != tgt):
                raise LieAlgebraError("theta does not map root space to opposite")
            self.theta_scalar[a] = coeffs[tgt]

    # ---- bilinear forms ----------------------------------------------------
    def trace_form(self, m1, m2) -> Q:
        """tr(m1 m2) of two entry maps: m1[i, j] * m2[j, i] summed over the
        entries of m1."""
        return sum((x * m2[j, i] for (i, j), x in m1.items() if (j, i) in m2),
                   Q(0))

    def killing(self, m1, m2) -> Q:
        return self.killing_factor * self.trace_form(m1, m2)

    def b0(self, m1, m2) -> Q:
        if self.b0_lambda is None:
            raise LieAlgebraError("no rational normalization form for this algebra")
        return self.b0_lambda * self.trace_form(m1, m2)

    def alpha_value(self, root_id: int, h_coeffs) -> Q:
        """Value of the root functional on a Cartan element (coefficients)."""
        if root_id < self.n_pos:
            vals = self.functional[root_id]
            sign = 1
        else:
            vals = self.functional[root_id - self.n_pos]
            sign = -1
        return sign * sum((Q(c) * v for c, v in zip(h_coeffs, vals)), Q(0))

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
            if root_id < self.n_pos:
                rhs = list(self.functional[root_id])
            else:
                rhs = [-v for v in self.functional[root_id - self.n_pos]]
            sol = linalg.solve(gram, rhs)
            if sol is None:
                raise LieAlgebraError("degenerate Cartan Gram matrix")
            self._h_rep[key] = tuple(sol)
        return self._h_rep[key]

    # ---- adjoint realization --------------------------------------------------
    def ad_realization(self) -> Realization:
        """Faithful realization by adjoint matrices (structure constants
        only), read off sparse brackets of the basis entry maps."""
        if self._ad_realization is None:
            real = self.realization

            def ad_map(x):
                # column k: the coefficients of [x, basis k], zeros and all
                return {(i, k): c for k, e in enumerate(real.entries)
                        for i, c in enumerate(
                            real.decompose(_sparse_bracket(x, e)))}

            ads = [ad_map(x) for x in real.entries]
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
    cartan = [{(i, i): Q(1), (i + 1, i + 1): Q(-1)} for i in range(n - 1)]
    pos, neg = [], []
    for r in rs.positive_roots:
        i, j = _sl_position(r.coeffs)
        pos.append({(i, j): Q(1)})
        neg.append({(j, i): Q(1)})
    real = Realization(n, cartan, pos, neg)
    return SplitLieAlgebra(rs, "sl", n, real, normalized=True,
                           killing_factor=Q(2 * n), b0_lambda=Q(1))


def build_sp(l: int) -> SplitLieAlgebra:
    """sp(l, R); for l = 2 the realization and root labels follow the
    standard 4x4 presentation with basis (E_U, E_X, E_Y, E_Z)."""
    if l < 2:
        raise LieAlgebraError("sp(l) requires l >= 2")
    rs = build_root_system("C", l)
    if l == 2:
        cartan = [{(0, 0): Q(1), (2, 2): Q(-1)}, {(1, 1): Q(1), (3, 3): Q(-1)}]
        # E_U, E_X, E_Y, E_Z in contract order: a, b, a+b, 2a+b
        pos = [{(1, 0): Q(-1, 2), (2, 3): Q(1, 2)}, {(3, 1): Q(2)},
               {(2, 1): Q(1), (3, 0): Q(1)}, {(2, 0): Q(1)}]
        scalars = [Q(2), Q(1, 4), Q(1, 2), Q(1)]
        neg = [_transpose(m, s) for m, s in zip(pos, scalars)]
        real = Realization(4, cartan, pos, neg)
        return SplitLieAlgebra(rs, "sp", 2, real, normalized=True,
                               killing_factor=Q(2 * l + 2), b0_lambda=Q(1))
    cartan = [{(i, i): Q(1), (l + i, l + i): Q(-1)} for i in range(l)]
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
            m = {(i, l + i): Q(1)}
        else:
            i = eps.index(1)
            if -1 in eps:
                j = eps.index(-1)
                m = {(i, j): Q(1), (l + j, l + i): Q(-1)}
            else:
                j = eps.index(1, i + 1)
                m = {(i, l + j): Q(1), (j, l + i): Q(1)}
        pos.append(m)
        neg.append(_transpose(m))
    real = Realization(2 * l, cartan, pos, neg)
    return SplitLieAlgebra(rs, "sp", l, real, normalized=False,
                           killing_factor=Q(2 * l + 2), b0_lambda=None)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

_REFERENCE_NAMES = {
    ("sl", 3): ["x", "y", "u"],
    ("sl", 4): ["x", "y", "t", "u", "v", "z"],
    ("sp", 2): ["u", "x", "y", "z"],
}


class Chart:
    """A polynomial coordinate system on N = exp(n)."""

    def __init__(self, algebra: SplitLieAlgebra, kind: str,
                 realization: Realization | None = None,
                 coord_roots: list[int] | None = None,
                 var_names: list[str] | None = None):
        self.algebra = algebra
        self.kind = kind
        self.realization = realization or algebra.realization
        rs = algebra.rs
        self.coord_roots = coord_roots or list(range(rs.n_pos))
        self.nvars = len(self.coord_roots)
        self._index = {r: k for k, r in enumerate(self.coord_roots)}
        self.weights = [rs.root(r).height for r in self.coord_roots]
        if var_names is not None:
            self.var_names = var_names
        else:
            names = _REFERENCE_NAMES.get((algebra.family, algebra.param))
            if names is not None and kind == "matrix" and self.nvars == len(names):
                self.var_names = names
            else:
                self.var_names = [
                    "x_" + "".join(str(c) for c in rs.root(r).coeffs)
                    for r in self.coord_roots]
        # g = exp(sum_{r in G_1} x_r X_r) ... exp(sum_{r in G_m} x_r X_r)
        # over the root groups G_i.  The matrix-entry charts are second-kind
        # charts in the one root order whose product is I + sum x_r X_r
        # for sl(n) (rows descending, contract order within a row) and the
        # standard presentation's point for sp(2) (b, a+b, a, 2a+b)
        if kind == "matrix":
            if algebra.family == "sl":
                order = sorted(self.coord_roots, key=lambda r: -_sl_position(
                    rs.root(r).coeffs)[0])
            elif algebra.family == "sp" and algebra.param == 2:
                order = [rs.id_of(c) for c in ((0, 1), (1, 1), (1, 0), (2, 1))]
            else:
                raise LieAlgebraError(
                    "matrix chart unavailable for this algebra")
            self.groups = [[r] for r in order]
        elif kind == "first_kind":
            self.groups = [self.coord_roots]
        elif kind == "second_kind":
            self.groups = [[r] for r in self.coord_roots]
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
        self._generic_inv = None
        self._frame_cache: dict = {}

    # ---- ring helpers -------------------------------------------------------
    def coord_index(self, root_id: int) -> int:
        return self._index[root_id]

    def _poly_identity(self, nvars):
        size = self.realization.size
        return [[Poly.const(nvars, Q(1) if i == j else Q(0))
                 for j in range(size)] for i in range(size)]

    # ---- generic point -------------------------------------------------------
    def generic_matrix(self):
        """Generic point with coordinate k as variable k."""
        if self._generic is None:
            self._generic = self._group_product(self.groups, 1)
        return self._generic

    def generic_inverse(self):
        """g^{-1} at the generic point: the reversed product of the factor
        groups' exp(-N)."""
        if self._generic_inv is None:
            self._generic_inv = self._group_product(self.groups[::-1], -1)
        return self._generic_inv

    def _group_product(self, groups, sign):
        """exp(sign * sum_{r in G} x_r X_r) multiplied over ``groups`` in
        order, at the generic point."""
        m = self._poly_identity(self.nvars)
        for group in groups:
            xs = [Poly.var(self.nvars, self._index[r]) * sign for r in group]
            m = linalg.mul_unipotent(m, self._group_exp(group, xs))
        return m

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
    def extract(self, m):
        """Chart coordinates of a group matrix; entries may be Fraction or Poly.

        The charts peel one factor group at a time from the entry map
        C = m - I of the remaining product: the log of I + C, read at the
        decomposition positions, gives the coefficients of the group at
        one end, and multiplying by the inverse exponential I + P removes
        it, C <- C + P + PC (CP on the right).  Second-kind and
        matrix-entry charts peel from the left.  First-kind and
        three-factor charts peel from the right: the roots of the earlier
        groups span an ideal of n, so modulo it the product is the
        exponential of its last group alone.  From the left, the highest
        root's coefficient would pick up Baker-Campbell-Hausdorff brackets.
        """
        alg = self.algebra
        size = self.realization.size
        zero = m[0][0] * 0
        cur = {}
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                cur[i, j] = x - 1 if i == j else x
        order = self.groups if self._peel_left else self.groups[::-1]
        vals: dict[int, object] = {}
        for k, group in enumerate(order):
            log = linalg.nilpotent_series(cur, size, linalg.log_coeff)
            cs = self.realization.read([alg.full_index(r) for r in group],
                                       lambda i, j: log.get((i, j), zero))
            vals.update(zip(group, cs))
            if k + 1 < len(order):
                peel = self._group_exp(group, [-c for c in cs])
                prod = (linalg.sparse_mul(peel, cur) if self._peel_left
                        else linalg.sparse_mul(cur, peel))
                for p, x in (*peel.items(), *prod.items()):
                    acc = cur.get(p)
                    cur[p] = x if acc is None else acc + x
        return [vals[r] for r in self.coord_roots]

    # ---- points ---------------------------------------------------------------
    def point_matrix(self, values):
        values = [Q(v) for v in values]
        gen = self.generic_matrix()
        return [[entry.eval(values) for entry in row] for row in gen]

    def coords_of_matrix(self, m) -> list[Q]:
        """Coordinates of a rational matrix of N.  The point is recomposed
        from them, so a matrix outside N raises ``LieAlgebraError`` (a
        non-unipotent one may raise the log series' ``ValueError``)."""
        coords = [Q(c) if not isinstance(c, Poly) else c.constant_value()
                  for c in self.extract(m)]
        if self.point_matrix(coords) != m:
            raise LieAlgebraError("matrix is not a point of the chart's group")
        return coords

    def multiply(self, pa, pb) -> list[Q]:
        prod = linalg.mat_mul(self.point_matrix(pa), self.point_matrix(pb))
        return self.coords_of_matrix(prod)

    # ---- frame ------------------------------------------------------------------
    def frame_components(self, slice_roots=None) -> dict[int, dict[int, Poly]]:
        """Row gamma: coefficients of d/dx_j in the frame field X_gamma.

        The frame comes from the Maurer-Cartan form of the generic point g
        (Varadarajan, GTM 102, Thm 2.14.3): W[k][gamma] is the coefficient
        of X_gamma in g^{-1} d_k g, so d_k = sum_gamma W[k][gamma] X_gamma
        as left-invariant fields.  W is unitriangular in contract (height)
        order, hence X_gamma = sum_k (W^{-1})[gamma][k] d_k, with W^{-1}
        from the finite Neumann series of W - I.  The formula is the same
        for every chart kind; only the generic point differs.

        With ``slice_roots`` the complement coordinates are set to zero and
        only slice rows/columns are kept.
        """
        key = None if slice_roots is None else frozenset(slice_roots)
        if key in self._frame_cache:
            return self._frame_cache[key]
        if key is not None:
            full = self.frame_components(None)
            csub = {self.coord_index(r): Q(0)
                    for r in self.coord_roots if r not in key}
            rows = {}
            for g in key:
                restricted = ((j, p.subs(csub)) for j, p in full[g].items()
                              if j in key)
                rows[g] = {j: p for j, p in restricted if not p.is_zero()}
            self._frame_cache[key] = rows
            return rows
        gen = self.generic_matrix()
        gen_inv = self.generic_inverse()
        cols = [self.algebra.full_index(r) for r in self.coord_roots]
        zero = Poly.zero(self.nvars)
        w = []
        for k in range(self.nvars):
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
            w.append(self.realization.read(cols, entry))
        one = Poly.const(self.nvars, 1)
        nil = {(k, g): p - one if k == g else p
               for k, row in enumerate(w) for g, p in enumerate(row)}
        # (W^{-1} - I)[g][k], the diagonal's one added back
        w_inv = linalg.nilpotent_series(nil, self.nvars, linalg.inverse_coeff)
        rows = {}
        for g, r in enumerate(self.coord_roots):
            row = rows[r] = {}
            for k, s in enumerate(self.coord_roots):
                p = w_inv.get((g, k))
                if g == k:
                    p = one if p is None else one + p
                if p is not None and not p.is_zero():
                    row[s] = p
        self._frame_cache[None] = rows
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
                            for r in self.coord_roots],
            "variables": list(self.var_names),
        }
        if self.kind == "matrix" and self.algebra.family == "sl":
            out["positions"] = {
                self.var_names[k]: list(_sl_position(
                    self.algebra.rs.root(r).coeffs))
                for k, r in enumerate(self.coord_roots)}
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

def adjoint_of_point(chart: Chart, element, indices=None):
    """Coefficients of Ad(n^{-1}) E at the generic point n, polynomials in
    the chart coordinates, at the full-basis ``indices`` (all of them, in
    order, when None).

    ``element`` is an entry map {(p, q): value} in the chart's
    realization.  Only the entries of n^{-1} E n that those coefficients
    read are formed: entry (i, j) is the sum over the
    nonzeros (p, q) of E of n^{-1}[i][p] E[p][q] n[q][j], its products
    added as the two matrix products n^{-1} E and (n^{-1} E) n add them.
    """
    gen, gen_inv = chart.generic_matrix(), chart.generic_inverse()
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
