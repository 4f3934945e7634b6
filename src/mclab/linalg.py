"""Exact linear and matrix algebra helpers.

Matrices are lists of lists whose entries are either ``Fraction`` or any
ring element supporting ``+``, ``-``, ``*`` (e.g. :class:`mclab.poly.Poly`).

There is one eliminator, :func:`rref`: a sparse fraction-free elimination
over the integers with deterministic (leftmost-column) pivoting, so every
basis this package produces is reproducible bit for bit.  It returns the
integer pivot rows of a row echelon form keyed by pivot column; ``rank``,
``solve``, ``coordinates_in_span`` and ``sparse_nullspace`` are read off
them.  The rows are not reduced, but the name ``rref`` stays: the pivot
columns and the row space are those of the reduced form, and it is the
name external tooling (the benchmark's layer trace) wraps and reports.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Callable

Matrix = list


# ---------------------------------------------------------------------------
# generic matrix arithmetic
# ---------------------------------------------------------------------------

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def frac_identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def frac_zero(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Q(0)] * m for _ in range(n)]


def mat_map(a: Matrix, f: Callable) -> Matrix:
    return [[f(x) for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def unipotent_inverse(a: Matrix, identity: Matrix) -> Matrix:
    """Inverse of I + N with N nilpotent, by the finite Neumann series."""
    n = len(a)
    nil = mat_sub(a, identity)
    out = [row[:] for row in identity]
    power = [row[:] for row in identity]
    for k in range(1, n + 1):
        power = mat_mul(power, nil)
        if all(_is_zeroish(x) for row in power for x in row):
            break
        out = mat_add(out, power) if k % 2 == 0 else mat_sub(out, power)
    return out


def _is_zeroish(x) -> bool:
    if isinstance(x, Q) or isinstance(x, int):
        return x == 0
    return x.is_zero()


def nilpotent_exp(nil: Matrix, identity: Matrix) -> Matrix:
    n = len(nil)
    out = [row[:] for row in identity]
    power = [row[:] for row in identity]
    fact = Q(1)
    for k in range(1, n + 1):
        power = mat_mul(power, nil)
        if all(_is_zeroish(x) for row in power for x in row):
            break
        fact *= k
        out = mat_add(out, mat_scale(power, Q(1) / fact))
    return out


def unipotent_log(a: Matrix, identity: Matrix) -> Matrix:
    n = len(a)
    nil = mat_sub(a, identity)
    out = [[x * Q(0) for x in row] for row in nil]
    power = [row[:] for row in identity]
    for k in range(1, n + 1):
        power = mat_mul(power, nil)
        if all(_is_zeroish(x) for row in power for x in row):
            break
        sign = Q(1, k) if k % 2 == 1 else Q(-1, k)
        out = mat_add(out, mat_scale(power, sign))
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


def coordinates_in_span(basis: list[list[Q]], target: list[Q]) -> list[Q] | None:
    """Coefficients expressing target over the given basis vectors, or None."""
    a = [[v[i] for v in basis] for i in range(len(target))]
    return solve(a, list(target))


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
