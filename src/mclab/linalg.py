"""Exact linear algebra helpers.

Vectors and matrices are sparse: an entry map ``{(i, j): value}`` for a
matrix, ``{column: value}`` for a row; only :func:`rank`, :func:`solve`
and :func:`symmetric_signature` take their small rational matrices as
lists of lists.  Entries are exact scalars or any ring element
supporting ``+``, ``-``, ``*`` (e.g. :class:`mclab.poly.Poly`).
Scalars follow the rule of :mod:`mclab.poly`: an ``int`` when integral,
else a ``Fraction``, never an approximate number, and divided only
through ``Fraction``.  Every scalar computed here is returned in that
form, whatever the form of the scalars given.

There is one matrix product, :func:`sparse_mul`.  A unipotent matrix
I + A is kept as the entry map A, and :func:`unipotent_product` is its
group law, A + B + AB.  The exponential, the log and the unipotent
inverse are one finite series in a nilpotent matrix N, summed until its
power vanishes (:func:`nilpotent_series`, one coefficient rule each).

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

_ZERO = 0


# ---------------------------------------------------------------------------
# sparse matrix arithmetic
# ---------------------------------------------------------------------------

def _canonical(x):
    """x with an integral Fraction made an int; other ring elements are
    returned as they are."""
    return exact(x) if type(x) is Q else x


def _is_zero(x) -> bool:
    # an exact type test: isinstance against Fraction goes through
    # ABCMeta.__instancecheck__ for every int and Poly
    return x.is_zero() if type(x) is Poly else x == 0


def sparse_mul(a: dict, b: dict) -> dict:
    """Product of sparse entry maps {(i, j): value}, zeros dropped.

    The nonzero products of an entry are added in increasing inner index,
    the order of the dense triple loop, so the powers of
    :func:`nilpotent_series` keep the dense series' term order.
    """
    a_rows: dict[int, list] = {}
    for (i, q), x in sorted(a.items()):
        if not _is_zero(x):
            a_rows.setdefault(i, []).append((q, x))
    b_cols: dict[int, dict] = {}
    for (q, j), y in b.items():
        if not _is_zero(y):
            b_cols.setdefault(j, {})[q] = y
    out: dict = {}
    for i, row in a_rows.items():
        for j, col in b_cols.items():
            acc = None
            for q, x in row:
                y = col.get(q)
                if y is not None:
                    acc = x * y if acc is None else acc + x * y
            if acc is not None and not _is_zero(acc):
                out[i, j] = _canonical(acc)
    return out


def unipotent_product(a: dict, b: dict) -> dict:
    """(I + A)(I + B) - I = A + B + AB of sparse entry maps, zeros
    dropped: the group law of points stored as n - I."""
    out = dict(a)
    for p, x in (*b.items(), *sparse_mul(a, b).items()):
        acc = out.get(p)
        out[p] = x if acc is None else acc + x
    return {p: _canonical(v) for p, v in out.items() if not _is_zero(v)}


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
    :meth:`sparse_coefficients` reads the positions only;
    :meth:`coordinates` also checks membership.
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

    def sparse_coefficients(self, target: dict) -> list:
        """Coordinates of the span element whose entry at column c is
        ``target[c]``, read at the positions only: membership is not
        checked.  Entries may be exact scalars or Poly, and Poly entries
        give Poly coordinates; a scalar coordinate is an int when integral
        and a Fraction otherwise, whatever the type of the entries.  Time
        is proportional to the entries: only the inverse rows that read a
        nonzero one are summed, and every other coordinate is zero."""
        sel = {}
        for col, v in target.items():
            t = self._slot.get(col)
            if t is not None and not _is_zero(v):
                sel[t] = v
        out = [_ZERO] * len(self.inverse_rows)
        for c in {c for t in sel for c in self._rows_at[t]}:
            acc = _ZERO
            for t, x in self.inverse_rows[c]:
                s = sel.get(t)
                if s is not None:
                    acc = acc + s * x
            out[c] = _canonical(acc)
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
