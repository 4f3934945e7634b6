"""Exact linear and matrix algebra helpers.

Matrices are lists of lists whose entries are exact scalars or any ring
element supporting ``+``, ``-``, ``*`` (e.g. :class:`mclab.poly.Poly`).
Scalars follow the rule of :mod:`mclab.poly`: an ``int`` when integral,
else a ``Fraction``, never an approximate number, and divided only
through ``Fraction``.  Every scalar computed here is returned in that
form, whatever the form of the scalars given.

The exponential, the log and the unipotent inverse are one finite series
in a nilpotent matrix N given as a sparse entry map, summed until its
power vanishes (:func:`nilpotent_series`, one coefficient rule each).
exp(N) - I is multiplied into a matrix by :func:`mul_unipotent`; the one
product of whole matrices, :func:`mat_mul`, serves the chart's group law.

There is one eliminator, :func:`rref`: a sparse fraction-free elimination
over the integers with deterministic (leftmost-column) pivoting, which
updates rows in place with gcd-reduced multipliers, so every basis this
package produces is reproducible bit for bit.  It returns the integer
pivot rows of a row echelon form keyed by pivot column, and there is one
back-substitution, :func:`reduced`, which turns them into the reduced
row echelon form, fixed by the row space alone.  ``rank`` counts the
pivot columns; ``sparse_nullspace`` reads the reduced rows at the free
columns, ``solve`` at the augmented column, and :class:`SpanBasis` at
the identity part of [vectors | I], which is the inverse of the vectors'
block at their pivot columns.  The solver's forward map takes its
echelon basis from the reduced form as well.  The signature of a
symmetric form, :func:`symmetric_signature`, is congruence
diagonalization, not row reduction, and eliminates over its nonzero
entries only.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial, gcd, lcm
from typing import Callable

from .poly import Poly, Scalar, exact

Matrix = list
_ZERO = 0


# ---------------------------------------------------------------------------
# generic matrix arithmetic
# ---------------------------------------------------------------------------

def _canonical(x):
    """x with an integral Fraction made an int; other ring elements are
    returned as they are."""
    return exact(x) if type(x) is Q else x


def _is_zero(x) -> bool:
    # an exact type test: isinstance against Fraction goes through
    # ABCMeta.__instancecheck__ for every int and Poly
    return x.is_zero() if type(x) is Poly else x == 0


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product that skips zero entries, row by row (Gustavson,
    ACM TOMS 4(3), 1978).

    The nonzero products of each output entry are summed in increasing
    inner index, the order of the dense triple loop, so every ``Poly``
    entry keeps the dense loop's term order.  An entry with no nonzero
    product is the dense loop's own zero ``a[i][0] * b[0][j]``, which
    keeps its type and ring.  The result equals the dense loop's when
    the entries of each operand are of one kind (all ``Fraction`` or all
    ``Poly`` over one ring).
    """
    m = len(b[0])
    b_rows = [[(j, y) for j, y in enumerate(row) if not _is_zero(y)]
              for row in b]
    out = []
    for ai in a:
        row = [None] * m
        for x, bt in zip(ai, b_rows):
            if not bt or _is_zero(x):
                continue
            for j, y in bt:
                acc = row[j]
                row[j] = x * y if acc is None else acc + x * y
        out.append([_canonical(ai[0] * b[0][j] if acc is None else acc)
                    for j, acc in enumerate(row)])
    return out


# ---------------------------------------------------------------------------
# sparse unipotent factors
# ---------------------------------------------------------------------------

def sparse_dot(terms, factor, terms_left: bool = True):
    """Sum of x * factor(q) (factor(q) * x when not ``terms_left``) over
    the (q, x) of ``terms``, skipping zero factors; None when no product
    is formed.

    The products are added in the order of ``terms``.  Sorted by q, that
    is the order in which :func:`mat_mul` adds the products of an entry,
    so every ``Poly`` keeps the term order of the matrix product.  The
    nilpotent series, the adjoint action and the frame of
    :mod:`mclab.liealg` sum their entries here.
    """
    acc = None
    for q, x in terms:
        if _is_zero(x):
            continue
        y = factor(q)
        if _is_zero(y):
            continue
        t = x * y if terms_left else y * x
        acc = t if acc is None else acc + t
    return _canonical(acc)


def sparse_mul(a: dict, b: dict) -> dict:
    """Product of sparse entry maps {(i, j): value}, zeros dropped."""
    a_rows: dict[int, list] = {}
    for (i, q), x in sorted(a.items()):
        a_rows.setdefault(i, []).append((q, x))
    b_cols: dict[int, dict] = {}
    for (q, j), y in b.items():
        b_cols.setdefault(j, {})[q] = y
    out: dict = {}
    for i, row in a_rows.items():
        for j, col in b_cols.items():
            acc = sparse_dot(row, lambda q: col.get(q, _ZERO))
            if acc is not None and not _is_zero(acc):
                out[i, j] = acc
    return out


# coefficient rules c_k of the series sum_{k >= 1} c_k N^k:
# exp(N) - I, log(I + N) and (I + N)^{-1} - I
def exp_coeff(k: int) -> Scalar:
    return exact(Q(1, factorial(k)))


def log_coeff(k: int) -> Scalar:
    return exact(Q((-1) ** (k + 1), k))


def inverse_coeff(k: int) -> Scalar:
    return (-1) ** k


def nilpotent_series(nil: dict, size: int,
                     coeff: Callable[[int], Scalar]) -> dict:
    """sum_{k >= 1} coeff(k) N^k for a nilpotent size x size matrix N
    given as a sparse entry map, as an entry map without zeros.

    With :func:`exp_coeff` it is exp(N) - I, with :func:`log_coeff`
    log(I + N), with :func:`inverse_coeff` (I + N)^{-1} - I.  The terms
    are added in increasing k and each power is a :func:`sparse_mul`, so
    every entry equals, term order included, the one of the dense series.
    Raises ``ValueError`` when N^size != 0: the truncated series would
    then be silently wrong.
    """
    nil = {p: v for p, v in nil.items() if not _is_zero(v)}
    c = coeff(1)
    out = {p: v * c for p, v in nil.items()}
    power = nil
    for k in range(2, size + 1):
        power = sparse_mul(power, nil)
        if not power:
            break
        c = coeff(k)
        for p, v in power.items():
            acc = out.get(p)
            out[p] = v * c if acc is None else acc + v * c
    else:
        if power:
            raise ValueError("matrix is not nilpotent")
    return {p: _canonical(v) for p, v in out.items() if not _is_zero(v)}


def mul_unipotent(m: Matrix, f: dict) -> Matrix:
    """m (I + F) for a square m and F a sparse entry map.

    Only the columns that F touches are formed again, each entry as the
    :func:`sparse_dot` of that column of I + F with a row of m; the others
    are those of m.  The diagonal of I + F is F's plus an exact one.
    """
    cols: dict[int, dict[int, object]] = {}
    for (i, j), x in f.items():
        cols.setdefault(j, {})[i] = x
    out = [row[:] for row in m]
    for j, col in cols.items():
        col[j] = col[j] + 1 if j in col else 1
        terms = sorted(col.items())
        for i, row in enumerate(m):
            acc = sparse_dot(terms, row.__getitem__, terms_left=False)
            out[i][j] = _canonical(m[i][j] * 0) if acc is None else acc
    return out


# ---------------------------------------------------------------------------
# sparse fraction-free elimination
# ---------------------------------------------------------------------------

def _row_to_int(row: dict[int, Scalar]) -> dict[int, int]:
    if all(type(v) is int for v in row.values()):
        ints = {c: v for c, v in row.items() if v}
    else:
        den = lcm(*(v.denominator for v in row.values()))
        ints = {c: int(v * den) for c, v in row.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def rref(rows: list[dict[int, Scalar]],
         ncols: int) -> dict[int, dict[int, int]]:
    """Row echelon form of a sparse rational matrix: the only eliminator.

    Rows map column -> value.  Fraction-free: rows are scaled to coprime
    integers and eliminated in place by cross-multiplication with the
    multipliers divided by their gcd, removing integer content after
    every step.  Columns are eliminated left to right, so
    the pivot columns are those independent of the columns before them.
    Returns the integer pivot rows keyed by pivot column, in ascending
    order; a pivot row holds no column left of its pivot.  The pivot row
    may be chosen freely, since everything built on this depends only on
    the pivot columns and the row space; the shortest remaining row
    (first in input order on ties) keeps fill-in small.  A column-to-rows
    index finds it, and the rows to eliminate, without a scan.
    """
    work: dict[int, dict[int, int]] = {}
    rows_of_col: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        ints = _row_to_int(r)
        if ints:
            work[i] = ints
            for c in ints:
                rows_of_col.setdefault(c, set()).add(i)
    pivots: dict[int, dict[int, int]] = {}
    for col in range(ncols):
        touched = rows_of_col.pop(col, None)
        if not touched:
            continue
        if len(touched) == 1:
            pr = touched.pop()
        else:
            pr = min((len(work[i]), i) for i in touched)[1]
            touched.discard(pr)
        piv = work.pop(pr)
        for c in piv:
            if c != col:
                rows_of_col[c].discard(pr)
        pv = piv[col]
        rest = [(c, v) for c, v in piv.items() if c != col]
        for i in touched:
            # r <- (pv r - a piv) / gcd(a, pv), in place
            r = work[i]
            a = r.pop(col)
            g = gcd(a, pv)
            mr, mp = pv // g, a // g
            if mr != 1:
                for c in r:
                    r[c] *= mr
            for c, v in rest:
                y = mp * v
                x = r.get(c)
                if x is None:
                    r[c] = -y
                    rows_of_col.setdefault(c, set()).add(i)
                elif x == y:
                    del r[c]
                    rows_of_col[c].discard(i)
                else:
                    r[c] = x - y
            if not r:
                del work[i]
                continue
            g = gcd(*r.values())
            if g > 1:
                for c in r:
                    r[c] //= g
        pivots[col] = piv
    return pivots


def reduced(pivots: dict[int, dict[int, int]]
            ) -> dict[int, dict[int, Scalar]]:
    """The reduced row echelon form of :func:`rref`'s pivot rows: per
    pivot column p, the row of their span that is one at p and zero at
    the other pivot columns, zeros left out, in exact scalars.

    One back-substitution from the last pivot up, in integers and in
    place like the elimination: row p takes out each later pivot q it
    holds as r <- (d r - a row_q) / gcd(a, d), a = r[q], where row_q is
    coprime with the entry d > 0 at q, and is then made so itself.
    """
    done: dict[int, dict[int, int]] = {}
    for p in reversed(pivots):
        r = dict(pivots[p])
        for q in [q for q in r if q in done]:
            row = done[q]
            a = r.pop(q)
            d = row[q]
            g = gcd(a, d)
            if g != d:
                d //= g
                for c in r:
                    r[c] *= d
            a //= g
            for c, v in row.items():
                if c != q:
                    x = r.get(c, 0) - a * v
                    if x:
                        r[c] = x
                    else:
                        del r[c]
        g = gcd(*r.values())
        if r[p] < 0:
            g = -g
        if g != 1:
            for c in r:
                r[c] //= g
        done[p] = r
    out = {}
    for p in pivots:
        r = done[p]
        d = r[p]
        out[p] = r if d == 1 else {c: exact(Q(v, d)) for c, v in r.items()}
    return out


def _sparse(rows: list[list[Scalar]]) -> list[dict[int, Scalar]]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def sparse_nullspace(rows: list[dict[int, Scalar]],
                     ncols: int) -> list[list[Scalar]]:
    """Exact nullspace basis of a sparse rational matrix.

    One vector per free column f of :func:`rref`, with a one at f and
    zeros at the other free columns: the reduced-echelon nullspace basis,
    fixed by the matrix alone, whatever pivot rows the elimination took.
    Its entry at a pivot p is minus the entry at f of the reduced row p
    (:func:`reduced`).
    """
    pivots = rref(rows, ncols)
    if len(pivots) == ncols:
        return []
    red = reduced(pivots)
    basis = {}
    for f in range(ncols):
        if f not in red:
            vec = basis[f] = [0] * ncols
            vec[f] = 1
    for p, row in red.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


def rank(rows: list[list[Scalar]]) -> int:
    return len(rref(_sparse(rows), max(map(len, rows), default=0)))


def solve(a: list[list[Scalar]], b: list[Scalar]) -> list[Scalar] | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are pinned to zero, so the result is deterministic:
    each pivot variable is the augmented column of its reduced row.
    """
    ncols = len(a[0]) if a else 0
    aug = _sparse([[*row, bb] for row, bb in zip(a, b)])
    red = reduced(rref(aug, ncols + 1))
    if ncols in red:
        return None
    return [red[c].get(ncols, 0) if c in red else 0 for c in range(ncols)]


class SpanBasis:
    """Exact coordinates over a fixed list of independent sparse vectors.

    The list is eliminated once, however many targets are then reduced
    against it: one :func:`rref` of [vectors | I] and its :func:`reduced`
    form [R | S].  The pivot columns of the vectors are the ``positions``;
    R is the identity there, so S inverts the block of the vectors at the
    positions, and the coordinates of a span element are its entries at
    the positions times S.  ``inverse_rows`` holds S transposed, each row
    sorted by position slot, with its zero entries dropped.
    :meth:`coefficients` and :meth:`sparse_coefficients` read the
    positions only; :meth:`coordinates` also checks membership.
    """

    def __init__(self, vectors: list[dict[int, Scalar]], ncols: int):
        n = len(vectors)
        pivots = rref([{**v, ncols + i: 1} for i, v in enumerate(vectors)],
                      ncols + n)
        if any(p >= ncols for p in pivots):
            raise ValueError("span vectors are not independent")
        self.vectors = vectors
        self.positions = list(pivots)
        # a non-pivot column of the vectors changes no entry of S
        red = reduced({p: {c: v for c, v in row.items()
                           if c >= ncols or c in pivots}
                       for p, row in pivots.items()})
        self.inverse_rows: list[list] = [[] for _ in range(n)]
        for t, p in enumerate(self.positions):
            for c, x in red[p].items():
                if c >= ncols:
                    self.inverse_rows[c - ncols].append((t, x))
        # the inverse rows reading each position, for sparse targets
        self._slot = {p: t for t, p in enumerate(self.positions)}
        self._rows_at: list[list[int]] = [[] for _ in self.positions]
        for c, row in enumerate(self.inverse_rows):
            for t, _ in row:
                self._rows_at[t].append(c)

    def coefficients(self, sel, rows=None) -> list:
        """Coordinates of the span element whose entry at ``positions[t]``
        is ``sel[t]`` (a list, or a map holding every slot read).  With
        ``rows`` only those coordinates, in that order.  Entries may be
        exact scalars or Poly; zero entries are skipped, but a zero Poly
        still makes its coordinate a Poly.  A scalar coordinate is an int
        when integral and a Fraction otherwise, whatever the type of the
        entries.  Membership is not checked."""
        inv = self.inverse_rows
        out = []
        for c in range(len(inv)) if rows is None else rows:
            acc = _ZERO
            for t, x in inv[c]:
                s = sel[t]
                if not _is_zero(s):
                    acc = acc + s * x
                elif type(s) is Poly and type(acc) is not Poly:
                    acc = s + acc
            out.append(_canonical(acc))
        return out

    def sparse_coefficients(self, target: dict) -> list:
        """:meth:`coefficients` of a sparse target {column: value}, in time
        proportional to its entries: only the inverse rows that read one
        of them are summed, and every other coordinate is zero."""
        sel = {}
        for col, v in target.items():
            t = self._slot.get(col)
            if t is not None:
                sel[t] = v
        rows = sorted({c for t in sel for c in self._rows_at[t]})
        for c in rows:
            for t, _ in self.inverse_rows[c]:
                sel.setdefault(t, _ZERO)
        out = [_ZERO] * len(self.inverse_rows)
        for c, x in zip(rows, self.coefficients(sel, rows)):
            out[c] = x
        return out

    def coordinates(self, target: dict) -> list | None:
        """:meth:`sparse_coefficients` of a sparse target {column: value}
        without zeros, or None when it is outside the span: the
        coordinates are checked by recomposing the target from them."""
        coords = self.sparse_coefficients(target)
        recomposed: dict = {}
        for c, vec in zip(coords, self.vectors):
            if c:
                for k, x in vec.items():
                    recomposed[k] = recomposed.get(k, 0) + c * x
        return coords if {k: x for k, x in recomposed.items()
                          if x} == target else None


# ---------------------------------------------------------------------------
# symmetric forms
# ---------------------------------------------------------------------------

def symmetric_signature(m: list[list[Scalar]]) -> tuple[int, int, int]:
    """(rank, n_plus, n_minus) of a rational symmetric matrix.

    Congruence diagonalization over the rationals, exact, on the nonzero
    entries only: the form is kept as sparse rows, and each step takes
    the first index with a nonzero diagonal entry d as pivot and
    subtracts the rank-one form (row row^T) / d.  When every diagonal
    entry left is zero, the first nonzero row k gets its first neighbour
    j added, as a row and a column, which makes the diagonal entry
    2 a_kj nonzero.
    """
    a = {}
    for i, row in enumerate(m):
        r = {j: x for j, x in enumerate(row) if x != 0}
        if r:
            a[i] = r
    plus = minus = 0
    while a:
        k = next((i for i, r in a.items() if i in r), None)
        if k is None:
            k = min(a)
            rk = a[k]
            j = min(rk)
            for t, x in a[j].items():
                rk[t] = rk.get(t, 0) + x
            rk[k] = 2 * a[j][k]
            for t, x in list(rk.items()):
                if t == k:
                    continue
                if x:
                    a[t][k] = x
                else:
                    del rk[t], a[t][k]
        rk = a.pop(k)
        d = rk.pop(k)
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i, x in rk.items():
            r = a[i]
            del r[k]
            f = Q(x) / d
            for t, y in rk.items():
                v = r.get(t, 0) - f * y
                if v:
                    r[t] = v
                else:
                    r.pop(t, None)
            if not r:
                del a[i]
    return plus + minus, plus, minus
