"""Exact linear and matrix algebra helpers.

Matrices are lists of lists whose entries are either ``Fraction`` or any
ring element supporting ``+``, ``-``, ``*`` (e.g. :class:`mclab.poly.Poly`).
The exponential, the log and the unipotent inverse are one finite series
in a nilpotent matrix N given as a sparse entry map, summed until its
power vanishes (:func:`nilpotent_series`, one coefficient rule each).
exp(N) - I is multiplied into a matrix by :func:`mul_unipotent`; the one
product of whole matrices, :func:`mat_mul`, serves the chart's group law.

There is one eliminator, :func:`rref`: a sparse fraction-free elimination
over the integers with deterministic (leftmost-column) pivoting, so every
basis this package produces is reproducible bit for bit.  It returns the
integer pivot rows of a row echelon form keyed by pivot column; ``rank``,
``solve``, ``sparse_nullspace`` and the span coordinates of
:class:`SpanBasis` are read off them.  The rows are not reduced, but the
name ``rref`` stays: the pivot columns and the row space are those of the
reduced form, and it is the name external tooling (the benchmark's layer
trace) wraps and reports.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial, gcd
from typing import Callable

from .poly import Poly

Matrix = list
_ZERO = Q(0)


# ---------------------------------------------------------------------------
# generic matrix arithmetic
# ---------------------------------------------------------------------------

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
        out.append([ai[0] * b[0][j] if acc is None else acc
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
    return acc


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
def exp_coeff(k: int) -> Q:
    return Q(1, factorial(k))


def log_coeff(k: int) -> Q:
    return Q((-1) ** (k + 1), k)


def inverse_coeff(k: int) -> Q:
    return Q((-1) ** k)


def nilpotent_series(nil: dict, size: int, coeff: Callable[[int], Q]) -> dict:
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
    return {p: v for p, v in out.items() if not _is_zero(v)}


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
        col[j] = col[j] + 1 if j in col else Q(1)
        terms = sorted(col.items())
        for i, row in enumerate(m):
            acc = sparse_dot(terms, row.__getitem__, terms_left=False)
            out[i][j] = m[i][j] * 0 if acc is None else acc
    return out


# ---------------------------------------------------------------------------
# sparse fraction-free elimination
# ---------------------------------------------------------------------------

def _row_to_int(row: dict[int, Q]) -> dict[int, int]:
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    ints = {c: int(v * den) for c, v in row.items() if v}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def rref(rows: list[dict[int, Q]], ncols: int) -> dict[int, dict[int, int]]:
    """Row echelon form of a sparse rational matrix: the only eliminator.

    Rows map column -> value.  Fraction-free: rows are scaled to coprime
    integers and eliminated by cross-multiplication, removing integer
    content after every step.  Columns are eliminated left to right, so
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


def _free_vector(pivots: dict[int, dict[int, int]], fc: int,
                 ncols: int) -> list[Q]:
    """The kernel vector with a one at free column fc and zeros at the
    other free columns, by back-substitution through the pivot rows."""
    vec = [Q(0)] * ncols
    vec[fc] = Q(1)
    # a pivot row holds no column left of its pivot, so every pivot
    # right of fc solves to zero
    for col in reversed([c for c in pivots if c < fc]):
        piv = pivots[col]
        s = Q(0)
        for c, v in piv.items():
            if c != col and vec[c]:
                s += v * vec[c]
        vec[col] = -s / piv[col]
    return vec


def _sparse(rows: list[list[Q]]) -> list[dict[int, Q]]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def sparse_nullspace(rows: list[dict[int, Q]], ncols: int) -> list[list[Q]]:
    """Exact nullspace basis of a sparse rational matrix.

    One vector per free column f of :func:`rref`, with a one at f and
    zeros at the other free columns: the reduced-echelon nullspace basis,
    fixed by the matrix alone, whatever pivot rows the elimination took.
    """
    pivots = rref(rows, ncols)
    return [_free_vector(pivots, fc, ncols)
            for fc in range(ncols) if fc not in pivots]


def rank(rows: list[list[Q]]) -> int:
    return len(rref(_sparse(rows), max(map(len, rows), default=0)))


def solve(a: list[list[Q]], b: list[Q]) -> list[Q] | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are pinned to zero, so the result is deterministic.
    """
    ncols = len(a[0]) if a else 0
    aug = _sparse([[*row, bb] for row, bb in zip(a, b)])
    pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    return [-x for x in _free_vector(pivots, ncols, ncols + 1)[:ncols]]


class SpanBasis:
    """Exact coordinates over a fixed list of independent sparse vectors.

    The list is eliminated once, however many targets are then reduced
    against it.  Its pivot positions (the pivot columns of :func:`rref`)
    give an invertible block; the rows of the block inverse, with their
    zero entries dropped, turn the entries of a target at those positions
    into its coordinates.  The inverse comes from one elimination of
    [block | I]: column k of the inverse is minus the free vector of the
    k-th identity column.
    """

    def __init__(self, vectors: list[dict[int, Q]], ncols: int):
        pivots = rref(vectors, ncols)
        n = len(vectors)
        if len(pivots) != n:
            raise ValueError("span vectors are not independent")
        self.vectors = vectors
        self.positions = list(pivots)
        aug = []
        for t, p in enumerate(self.positions):
            row = {k: v[p] for k, v in enumerate(vectors) if p in v}
            row[n + t] = Q(1)
            aug.append(row)
        red = rref(aug, 2 * n)
        cols = [_free_vector(red, n + k, 2 * n)[:n] for k in range(n)]
        self.inverse_rows = [[(t, -x) for t, x in enumerate(row) if x]
                             for row in zip(*cols)]
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
        Fraction or Poly; zero entries are skipped, but a zero Poly still
        makes its coordinate a Poly.  Membership is not checked."""
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
            out.append(acc)
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

    def coordinates(self, target: dict[int, Q]) -> list[Q] | None:
        """Coordinates of a sparse target, or None when it is outside the
        span; membership is verified by recomposing the target."""
        coeffs = self.sparse_coefficients(target)
        recomposed: dict[int, Q] = {}
        for c, v in zip(coeffs, self.vectors):
            if c:
                for col, x in v.items():
                    recomposed[col] = recomposed.get(col, 0) + c * x
        if ({c: x for c, x in recomposed.items() if x}
                != {c: x for c, x in target.items() if x}):
            return None
        return coeffs


# ---------------------------------------------------------------------------
# symmetric forms
# ---------------------------------------------------------------------------

def symmetric_signature(m: list[list[Q]]) -> tuple[int, int, int]:
    """(rank, n_plus, n_minus) of a rational symmetric matrix.

    Congruence diagonalization over the rationals; exact.
    """
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
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return plus + minus, plus, minus
