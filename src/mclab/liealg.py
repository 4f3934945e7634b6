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
left-invariant frame, all in exact arithmetic.  Frame fields are the
standard ones generated by right translation along the one-parameter
subgroups of the basis vectors.
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
    """A faithful matrix model of the algebra, with exact decomposition."""

    def __init__(self, label: str, cartan, pos, neg):
        self.label = label
        self.cartan = cartan
        self.pos = pos
        self.neg = neg
        self.size = len(cartan[0])
        self.identity = linalg.frac_identity(self.size)
        self._all = list(cartan) + list(pos) + list(neg)
        self.dim = len(self._all)
        self._prepare_decomposition()

    def _prepare_decomposition(self):
        # the matrix positions read off are the pivot columns of the
        # dim x size^2 matrix of flattened basis matrices: the
        # lexicographically first entries giving an invertible d x d block
        flat = [{t: v for t, v in enumerate(x for row in b for x in row) if v}
                for b in self._all]
        pivots = linalg.rref(flat, self.size * self.size)
        if len(pivots) != self.dim:
            raise LieAlgebraError("realization basis is not independent")
        self._positions = [divmod(t, self.size) for t in pivots]
        block = [[b[i][j] for b in self._all] for i, j in self._positions]
        cols = [linalg.solve(block, unit)
                for unit in linalg.frac_identity(self.dim)]
        self._block_inv = [list(row) for row in zip(*cols)]

    def decompose(self, m):
        """Coefficients of m over [cartan..., pos..., neg...]; exact.

        Works for Fraction or Poly entries.  The element must lie in the
        algebra (callers conjugate algebra elements, so it always does).
        """
        sel = [m[i][j] for (i, j) in self._positions]
        out = []
        for k in range(self.dim):
            acc = sel[0] * self._block_inv[k][0]
            for t in range(1, self.dim):
                acc = acc + sel[t] * self._block_inv[k][t]
            out.append(acc)
        return out

    def compose(self, coeffs):
        out = [[Q(0)] * self.size for _ in range(self.size)]
        for c, b in zip(coeffs, self._all):
            if c == 0:
                continue
            for i in range(self.size):
                for j in range(self.size):
                    if b[i][j]:
                        out[i][j] += c * b[i][j]
        return out

    def basis_matrix(self, full_index: int):
        return self._all[full_index]


def _elementary(n: int, i: int, j: int, c=Q(1)):
    m = [[Q(0)] * n for _ in range(n)]
    m[i][j] = Q(c)
    return m


def _bracket(a, b):
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def _transpose(m):
    return [list(row) for row in zip(*m)]


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
        self._ad_realization: Realization | None = None
        self._derive_tables()

    # full-basis indexing: cartan 0..rank-1, then roots by id
    def full_index(self, root_id: int) -> int:
        return self.rank + root_id

    def root_matrix(self, root_id: int):
        if root_id < self.n_pos:
            return self.realization.pos[root_id]
        return self.realization.neg[root_id - self.n_pos]

    def cartan_element(self, coeffs):
        out = [[Q(0)] * self.realization.size for _ in range(self.realization.size)]
        for c, h in zip(coeffs, self.realization.cartan):
            out = linalg.mat_add(out, linalg.mat_scale(h, Q(c)))
        return out

    def _derive_tables(self):
        rs = self.rs
        real = self.realization
        # root functionals over the Cartan basis
        self.functional: list[tuple[Q, ...]] = []
        for r in range(rs.n_pos):
            vals = []
            for i in range(self.rank):
                comm = _bracket(real.cartan[i], real.pos[r])
                coeffs = real.decompose(comm)
                target = coeffs[self.full_index(r)]
                check = real.compose(
                    [c if k == self.full_index(r) else Q(0)
                     for k, c in enumerate(coeffs)])
                if not linalg.mat_eq(check, comm):
                    raise LieAlgebraError("Cartan element is not diagonal")
                vals.append(target)
            self.functional.append(tuple(vals))
        # structure constants for root pairs
        self.c: dict[tuple[int, int], Q] = {}
        self.h_of_bracket: dict[int, tuple[Q, ...]] = {}
        nroots = 2 * rs.n_pos
        for a in range(nroots):
            for b in range(nroots):
                s = rs.add(a, b)
                comm = _bracket(self.root_matrix(a), self.root_matrix(b))
                coeffs = real.decompose(comm)
                if s is not None:
                    c = coeffs[self.full_index(s)]
                    rest = [x for k, x in enumerate(coeffs)
                            if k != self.full_index(s) and x != 0]
                    if rest:
                        raise LieAlgebraError("bracket leaves its root space")
                    if c != 0:
                        self.c[(a, b)] = c
                elif rs.neg(a) == b:
                    if a < rs.n_pos:
                        self.h_of_bracket[a] = tuple(coeffs[:self.rank])
                    if any(x != 0 for x in coeffs[self.rank:]):
                        raise LieAlgebraError("[X_a, X_-a] not in the Cartan")
                else:
                    if any(x != 0 for x in coeffs):
                        raise LieAlgebraError("bracket of non-summing roots nonzero")
        # theta scalars: theta(X_id) = s * X_{-id}
        self.theta_scalar: dict[int, Q] = {}
        for a in range(nroots):
            th = linalg.mat_scale(_transpose(self.root_matrix(a)), Q(-1))
            coeffs = real.decompose(th)
            tgt = self.full_index(rs.neg(a))
            if any(x != 0 for k, x in enumerate(coeffs) if k != tgt):
                raise LieAlgebraError("theta does not map root space to opposite")
            self.theta_scalar[a] = coeffs[tgt]

    # ---- bilinear forms ----------------------------------------------------
    def trace_form(self, m1, m2) -> Q:
        prod = linalg.mat_mul(m1, m2)
        return sum((prod[i][i] for i in range(len(prod))), Q(0))

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
        gram = [[pair(hi, hj) for hj in self.realization.cartan]
                for hi in self.realization.cartan]
        if root_id < self.n_pos:
            rhs = list(self.functional[root_id])
        else:
            rhs = [-v for v in self.functional[root_id - self.n_pos]]
        sol = linalg.solve(gram, rhs)
        if sol is None:
            raise LieAlgebraError("degenerate Cartan Gram matrix")
        return tuple(sol)

    def solve_H0(self):
        """Cartan coefficients of H_0 with delta(H_0) = -1 for all simples."""
        simples = self.rs.simple_ids()
        a = [[self.functional[s][j] for j in range(self.rank)] for s in simples]
        sol = linalg.solve(a, [Q(-1)] * self.rank)
        if sol is None:
            raise LieAlgebraError("Cartan matrix unexpectedly singular")
        return tuple(sol)

    # ---- adjoint realization --------------------------------------------------
    def ad_realization(self) -> Realization:
        """Faithful realization by adjoint matrices (structure constants only)."""
        if self._ad_realization is None:
            real = self.realization

            def ad_matrix(m):
                cols = []
                for k in range(self.dim):
                    cols.append(real.decompose(_bracket(m, real.basis_matrix(k))))
                return [[cols[j][i] for j in range(self.dim)]
                        for i in range(self.dim)]

            cartan = [ad_matrix(h) for h in real.cartan]
            pos = [ad_matrix(x) for x in real.pos]
            neg = [ad_matrix(x) for x in real.neg]
            self._ad_realization = Realization("adjoint", cartan, pos, neg)
        return self._ad_realization

    def structure_json_dict(self) -> dict:
        rs = self.rs
        triples = []
        for (a, b), c in sorted(self.c.items()):
            triples.append([rs.root_name(a), rs.root_name(b), str(c)])
        return {
            "family": self.family,
            "param": self.param,
            "normalized": self.normalized,
            "killing_factor": str(self.killing_factor),
            "structure_constants": triples,
            "theta_scalars": {rs.root_name(a): str(s)
                              for a, s in sorted(self.theta_scalar.items())},
            "cartan_brackets": {rs.root_name(a): [str(x) for x in v]
                                for a, v in sorted(self.h_of_bracket.items())},
        }


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
    cartan = [linalg.mat_sub(_elementary(n, i, i), _elementary(n, i + 1, i + 1))
              for i in range(n - 1)]
    pos, neg = [], []
    for r in rs.positive_roots:
        i, j = _sl_position(r.coeffs)
        pos.append(_elementary(n, i, j))
        neg.append(_elementary(n, j, i))
    real = Realization("matrix", cartan, pos, neg)
    return SplitLieAlgebra(rs, "sl", n, real, normalized=True,
                           killing_factor=Q(2 * n), b0_lambda=Q(1))


def _sp2_reference_basis():
    EU = [[Q(0)] * 4 for _ in range(4)]
    EU[1][0] = Q(-1, 2)
    EU[2][3] = Q(1, 2)
    EX = _elementary(4, 3, 1, 2)
    EY = [[Q(0)] * 4 for _ in range(4)]
    EY[2][1] = Q(1)
    EY[3][0] = Q(1)
    EZ = _elementary(4, 2, 0)
    return EU, EX, EY, EZ


def build_sp(l: int) -> SplitLieAlgebra:
    """sp(l, R); for l = 2 the realization and root labels follow the
    standard 4x4 presentation with basis (E_U, E_X, E_Y, E_Z)."""
    if l < 2:
        raise LieAlgebraError("sp(l) requires l >= 2")
    rs = build_root_system("C", l)
    if l == 2:
        EU, EX, EY, EZ = _sp2_reference_basis()
        cartan = [
            [[Q(x) for x in row] for row in
             [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]],
            [[Q(x) for x in row] for row in
             [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]],
        ]
        pos = [EU, EX, EY, EZ]          # contract order: a, b, a+b, 2a+b
        scalars = [Q(2), Q(1, 4), Q(1, 2), Q(1)]
        neg = [linalg.mat_scale(_transpose(m), s) for m, s in zip(pos, scalars)]
        real = Realization("matrix", cartan, pos, neg)
        return SplitLieAlgebra(rs, "sp", 2, real, normalized=True,
                               killing_factor=Q(2 * l + 2), b0_lambda=Q(1))
    size = 2 * l
    cartan = [linalg.mat_sub(_elementary(size, i, i),
                             _elementary(size, l + i, l + i))
              for i in range(l)]
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
            m = _elementary(size, i, l + i)
        else:
            i = eps.index(1)
            if -1 in eps:
                j = eps.index(-1)
                m = linalg.mat_sub(_elementary(size, i, j),
                                   _elementary(size, l + j, l + i))
            else:
                j = eps.index(1, i + 1)
                m = linalg.mat_add(_elementary(size, i, l + j),
                                   _elementary(size, j, l + i))
        pos.append(m)
        neg.append(_transpose(m))
    real = Realization("matrix", cartan, pos, neg)
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

    def _lift_const(self, m, nvars):
        return [[Poly.const(nvars, x) for x in row] for row in m]

    # ---- generic point -------------------------------------------------------
    def generic_matrix(self):
        if self._generic is None:
            self._generic = self._build_generic(self.nvars, 0)
        return self._generic

    def generic_inverse(self):
        if self._generic_inv is None:
            self._generic_inv = linalg.unipotent_inverse(
                self.generic_matrix(), self._poly_identity(self.nvars))
        return self._generic_inv

    def _build_generic(self, nvars: int, offset: int):
        """Generic point with coordinate k as variable offset+k of a ring
        with ``nvars`` variables."""
        alg = self.algebra
        size = self.realization.size
        ident = self._poly_identity(nvars)
        if self.kind == "matrix":
            if alg.family == "sl":
                m = self._poly_identity(nvars)
                for k, r in enumerate(self.coord_roots):
                    i, j = _sl_position(alg.rs.root(r).coeffs)
                    m[i][j] = m[i][j] + Poly.var(nvars, offset + k)
                return m
            if alg.family == "sp" and alg.param == 2:
                u = Poly.var(nvars, offset + 0)
                x = Poly.var(nvars, offset + 1)
                y = Poly.var(nvars, offset + 2)
                z = Poly.var(nvars, offset + 3)
                one = Poly.const(nvars, 1)
                zero = Poly.zero(nvars)
                return [
                    [one, zero, zero, zero],
                    [u * Q(-1, 2), one, zero, zero],
                    [z - u * y * Q(1, 2), y, one, u * Q(1, 2)],
                    [y - u * x, x * 2, zero, one],
                ]
            raise LieAlgebraError("matrix chart unavailable for this algebra")
        if self.kind == "first_kind":
            nil = [[Poly.zero(nvars) for _ in range(size)] for _ in range(size)]
            for k, r in enumerate(self.coord_roots):
                term = self._lift_const(self.realization.pos[r], nvars)
                term = linalg.mat_scale(term, Poly.var(nvars, offset + k))
                nil = linalg.mat_add(nil, term)
            return linalg.nilpotent_exp(nil, ident)
        if self.kind == "second_kind":
            m = ident
            for k, r in enumerate(self.coord_roots):
                nil = self._lift_const(self.realization.pos[r], nvars)
                nil = linalg.mat_scale(nil, Poly.var(nvars, offset + k))
                m = linalg.mat_mul(m, linalg.nilpotent_exp(nil, ident))
            return m
        if self.kind == "three_factor":
            groups = self._three_factor_groups()
            m = ident
            for group in groups:
                nil = [[Poly.zero(nvars) for _ in range(size)]
                       for _ in range(size)]
                for r in group:
                    k = self.coord_index(r)
                    term = self._lift_const(self.realization.pos[r], nvars)
                    nil = linalg.mat_add(
                        nil, linalg.mat_scale(term, Poly.var(nvars, offset + k)))
                m = linalg.mat_mul(m, linalg.nilpotent_exp(nil, ident))
            return m
        raise LieAlgebraError(f"unknown chart kind {self.kind!r}")

    def _three_factor_groups(self):
        od = self.algebra.rs.omega_decompose()
        omega = self.algebra.rs.highest_root.id
        half = sorted(od.sigma_half)
        zero = sorted(od.sigma0)
        return [[omega], half, zero]

    # ---- extraction -----------------------------------------------------------
    def extract(self, m):
        """Chart coordinates of a group matrix; entries may be Fraction or Poly."""
        alg = self.algebra
        if self.kind == "matrix":
            if alg.family == "sl":
                out = []
                for r in self.coord_roots:
                    i, j = _sl_position(alg.rs.root(r).coeffs)
                    out.append(m[i][j])
                return out
            u = m[1][0] * Q(-2)
            x = m[3][1] * Q(1, 2)
            y = m[2][1]
            z = m[2][0] + u * y * Q(1, 2)
            return [u, x, y, z]
        ident = self._ident_like(m)
        if self.kind == "first_kind":
            w = linalg.unipotent_log(m, ident)
            coeffs = self.realization.decompose(w)
            return [coeffs[self.algebra.full_index(r)] for r in self.coord_roots]
        if self.kind == "second_kind":
            out = []
            cur = m
            for r in self.coord_roots:
                w = linalg.unipotent_log(cur, ident)
                c = self.realization.decompose(w)[self.algebra.full_index(r)]
                out.append(c)
                gen = self._scaled_generator(r, c, ident, negate=True)
                cur = linalg.mat_mul(gen, cur)
            return out
        if self.kind == "three_factor":
            groups = self._three_factor_groups()
            vals: dict[int, object] = {}
            cur = m
            for group in reversed(groups):
                if not group:
                    continue
                w = linalg.unipotent_log(cur, ident)
                coeffs = self.realization.decompose(w)
                nil = linalg.mat_scale(ident, Q(0))
                for r in group:
                    c = coeffs[self.algebra.full_index(r)]
                    vals[r] = c
                    base = self.realization.pos[r]
                    if isinstance(c, Poly):
                        base = self._lift_const(base, c.nvars)
                    nil = linalg.mat_add(nil, linalg.mat_scale(base, c))
                peel = linalg.nilpotent_exp(linalg.mat_scale(nil, Q(-1)), ident)
                cur = linalg.mat_mul(cur, peel)
            return [vals[r] for r in self.coord_roots]
        raise LieAlgebraError(f"unknown chart kind {self.kind!r}")

    def _ident_like(self, m):
        probe = m[0][0]
        if isinstance(probe, Poly):
            return self._poly_identity(probe.nvars)
        return linalg.frac_identity(self.realization.size)

    def _scaled_generator(self, root_id: int, scalar, ident, negate=False):
        base = self.realization.pos[root_id]
        if isinstance(scalar, Poly):
            nil = self._lift_const(base, scalar.nvars)
        else:
            nil = [row[:] for row in base]
        c = scalar * Q(-1) if negate else scalar
        return linalg.nilpotent_exp(linalg.mat_scale(nil, c), ident)

    # ---- points ---------------------------------------------------------------
    def point_matrix(self, values):
        values = [Q(v) for v in values]
        gen = self.generic_matrix()
        return [[entry.eval(values) for entry in row] for row in gen]

    def coords_of_matrix(self, m) -> list[Q]:
        return [Q(c) if not isinstance(c, Poly) else c.constant_value()
                for c in self.extract(m)]

    def multiply(self, pa, pb) -> list[Q]:
        prod = linalg.mat_mul(self.point_matrix(pa), self.point_matrix(pb))
        return self.coords_of_matrix(prod)

    def identity_coords(self) -> list[Q]:
        return [Q(0)] * self.nvars

    def inverse(self, pa) -> list[Q]:
        m = self.point_matrix(pa)
        ident = linalg.frac_identity(self.realization.size)
        return self.coords_of_matrix(linalg.unipotent_inverse(m, ident))

    # ---- frame ------------------------------------------------------------------
    def frame_components(self, slice_roots=None) -> dict[int, dict[int, Poly]]:
        """Row gamma: coefficients of d/dx_j in the frame field X_gamma.

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
                rows[g] = {
                    j: p.subs(csub) for j, p in full[g].items()
                    if j in key and not p.subs(csub).is_zero()
                }
            self._frame_cache[key] = rows
            return rows
        ext = self.nvars + 1
        eps = self.nvars
        gen = self._build_generic(ext, 0)
        ident = self._poly_identity(ext)
        rows: dict[int, dict[int, Poly]] = {}
        for r in self.coord_roots:
            step = self._lift_const(self.realization.pos[r], ext)
            step = linalg.mat_scale(step, Poly.var(ext, eps))
            moved = linalg.mat_mul(gen, linalg.mat_add(ident, step))
            coords = self.extract(moved)
            row = {}
            for k, c in enumerate(coords):
                d = c.diff(eps).subs({eps: 0})
                if not d.is_zero():
                    # eps exponent is zero everywhere; drop that slot
                    row[self.coord_roots[k]] = d.lift(
                        self.nvars, list(range(self.nvars)) + [0])
            rows[r] = row
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


def left_invariant_frame(chart: Chart) -> list[PolyVectorField]:
    """One frame field per positive root, in chart coordinate components."""
    return [chart.frame_field(r) for r in chart.coord_roots]


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
# group operations and adjoint action
# ---------------------------------------------------------------------------

def group_multiply(chart: Chart, pa, pb) -> list[Q]:
    return chart.multiply(pa, pb)


def adjoint_of_point(chart: Chart, point, element, inverse=True):
    """Coefficients of Ad(n^{-1}) E (or Ad(n) E) over the full basis.

    ``point`` is a coordinate sequence (Fractions) or None for the generic
    point, in which case coefficients are polynomials in the chart
    coordinates.  ``element`` is a matrix in the chart's realization.
    """
    if point is None:
        n = chart.generic_matrix()
        n_inv = chart.generic_inverse()
        elem = chart._lift_const(element, chart.nvars)
    else:
        n = chart.point_matrix(point)
        ident = linalg.frac_identity(chart.realization.size)
        n_inv = linalg.unipotent_inverse(n, ident)
        elem = element
    if inverse:
        conj = linalg.mat_mul(linalg.mat_mul(n_inv, elem), n)
    else:
        conj = linalg.mat_mul(linalg.mat_mul(n, elem), n_inv)
    return chart.realization.decompose(conj)


def adjoint_series_of_point(chart: Chart, point, element_coeffs, inverse=True):
    """Same adjoint action through exp(-ad nu) on coefficient vectors.

    ``element_coeffs`` are full-basis coefficients; returns coefficients.
    The point is converted to its logarithm and the finite ad-exponential
    is applied in the adjoint realization.
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
    nu_coeffs = chart.realization.decompose(nu)
    poly_mode = point is None
    size = ad.size
    if poly_mode:
        ad_nu = [[Poly.zero(chart.nvars) for _ in range(size)] for _ in range(size)]
    else:
        ad_nu = linalg.frac_zero(size)
    for k, ck in enumerate(nu_coeffs):
        if (ck.is_zero() if isinstance(ck, Poly) else ck == 0):
            continue
        base = ad.basis_matrix(k)
        if poly_mode:
            base = [[Poly.const(chart.nvars, x) for x in row] for row in base]
        ad_nu = linalg.mat_add(ad_nu, linalg.mat_scale(base, ck))
    if inverse:
        ad_nu = linalg.mat_scale(ad_nu, Q(-1))
    ident_big = ([[Poly.const(chart.nvars, Q(1) if i == j else Q(0))
                   for j in range(size)] for i in range(size)]
                 if poly_mode else linalg.frac_identity(size))
    expm = linalg.nilpotent_exp(ad_nu, ident_big)
    vec = element_coeffs
    out = []
    for i in range(size):
        acc = expm[i][0] * vec[0]
        for j in range(1, size):
            acc = acc + expm[i][j] * vec[j]
        out.append(acc)
    return out
