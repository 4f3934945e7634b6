"""Tanaka prolongation of a Hessenberg slice algebra, from the structure
constants alone.

The slice algebra m = n_R / n_C is graded by height: m_{-k} is spanned
by the X_gamma with gamma in R of height k, and [X_a, X_b] is
c_{a,b} X_{a+b} when a + b lies in R and 0 otherwise (``c`` is
``SplitLieAlgebra.c``).  The multicontact structure fixes g_0: the
degree-0 derivations of m that keep every simple line R X_delta.  For
k >= 1, g_k is the space of degree-k maps phi from m to
m + g_0 + ... + g_{k-1} with

    phi([X, Y]) = [phi X, Y] + [X, phi Y],

where an element A of g_j (j >= 0) brackets m as [A, Y] = A(Y)
(N. Tanaka, J. Math. Kyoto Univ. 10, 1970; K. Yamaguchi, Adv. Stud. Pure
Math. 22, 1993).  Once some g_k with k >= 0 is zero, so is every later
one.  g_k has the dimension of the multicontact fields of dilation
degree k that :mod:`mclab.mcfields` solves for, weight by weight, and it
is computed here without polynomials.

Everything is graded by root-lattice weight as well: X_gamma has weight
-gamma, and phi has weight lambda when every phi(X_gamma) has weight
lambda - gamma.  Each (degree, weight) block is one exact nullspace: its
unknowns are the coordinates of every phi(X_gamma), its rows the
derivation identity on every pair of R.  A weight of g_k is mu + delta
for a weight mu of g_{k-1} and a simple root delta of R, because phi is
fixed by its values on the simple X_delta, which generate m; in degree 0
the kept lines leave the weight 0 alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import linalg
from .hessenberg import HessenbergSet
from .poly import Scalar


@dataclass(frozen=True)
class Prolongation:
    """``blocks[k]`` maps each weight with g_{k, weight} != 0 to its
    dimension, for every k from -h (h the highest-root height) up to the
    last degree computed.  ``stop`` is the first k >= 0 with g_k = 0, or
    None when g_k is nonzero for every k up to the requested degree."""
    blocks: dict[int, dict[tuple[int, ...], int]]
    stop: int | None


def prolong(hs: HessenbergSet, c: dict[tuple[int, int], Scalar],
            max_degree: int) -> Prolongation:
    """Weight blocks of g_k for k up to ``max_degree``, or up to the first
    empty g_k with k >= 0, from the structure constants ``c`` alone."""
    rs = hs.rs
    labels = sorted(hs.R)
    height = {g: rs.root(g).height for g in labels}
    coeffs = {g: rs.root(g).coeffs for g in labels}
    simples = [s for s in rs.simple_ids() if s in hs.R]

    def minus(w, g):
        return tuple(x - y for x, y in zip(w, coeffs[g]))

    # basis[(k, w)]: the basis of g_{k, w}.  Below degree 0 it is the one
    # root gamma with w = -gamma; above, each element maps gamma to its
    # coordinates {index: value} over basis[(k - ht gamma, w - gamma)]
    zero = (0,) * rs.rank
    basis: dict[tuple[int, tuple], list] = {
        (-height[g], minus(zero, g)): [g] for g in labels}

    def bracket(k, w, i, b):
        """[A, X_b] for A the i-th basis element of g_{k, w}, over the
        basis of g_{k - ht b, w - b}."""
        a = basis[k, w][i]
        if k >= 0:
            return a.get(b, {})
        s = rs.add(a, b)
        x = c.get((a, b), 0) if s in hs.R else 0
        return {0: x} if x else {}

    def block(k, lam):
        # gamma: (first column, block of phi(X_gamma), its dimension)
        cols: dict[int, tuple[int, tuple, int]] = {}
        n = 0
        for g in labels:
            t = (k - height[g], minus(lam, g))
            size = len(basis.get(t, ()))
            if size:
                cols[g] = (n, t, size)
                n += size
        rows: dict[tuple, dict[int, Scalar]] = {}

        def add(a, b, col, entries, sign):
            for t, x in entries.items():
                row = rows.setdefault((a, b, t), {})
                row[col] = row.get(col, 0) + sign * x

        # phi[X_a, X_b] - [phi X_a, X_b] + [phi X_b, X_a] = 0, for a < b
        for j, a in enumerate(labels):
            for b in labels[j + 1:]:
                s = rs.add(a, b)
                if s in cols and c.get((a, b)):
                    off, _, size = cols[s]
                    for i in range(size):
                        add(a, b, off + i, {i: c[a, b]}, 1)
                for u, v, sign in ((a, b, -1), (b, a, 1)):
                    if u in cols:
                        off, t, size = cols[u]
                        for i in range(size):
                            add(a, b, off + i, bracket(*t, i, v), sign)
        null = linalg.sparse_nullspace([rows[key] for key in sorted(rows)], n)
        return [{g: {i: x for i in range(size) if (x := vec[off + i])}
                 for g, (off, _, size) in cols.items()} for vec in null]

    h = rs.highest_root.height
    blocks: dict[int, dict[tuple, int]] = {k: {} for k in range(-h, 0)}
    for g in labels:
        blocks[-height[g]][minus(zero, g)] = 1
    for k in range(max_degree + 1):
        if k == 0:
            weights = [zero] if simples else []
        else:
            weights = sorted({tuple(x + y for x, y in zip(w, coeffs[d]))
                              for w in blocks[k - 1] for d in simples})
        blocks[k] = {}
        for lam in weights:
            elements = block(k, lam)
            if elements:
                basis[k, lam] = elements
                blocks[k][lam] = len(elements)
        if not blocks[k]:
            return Prolongation(blocks, k)
    return Prolongation(blocks, None)
