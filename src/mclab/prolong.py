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

from dataclasses import dataclass, field
from math import lcm
from operator import sub
from typing import Callable

from . import linalg
from .hessenberg import HessenbergSet
from .poly import Scalar


@dataclass(frozen=True)
class Prolongation:
    """``blocks[k]`` maps each weight with g_{k, weight} != 0 to its
    dimension, for every k from -h (h the highest-root height) up to the
    last degree computed.  ``stop`` is the first k >= 0 with g_k = 0, or
    None when g_k is nonzero for every k up to the requested degree.

    ``basis[(k, w)]`` is the basis of g_{k, w}: below degree 0 the one
    root gamma with w = -gamma, from degree 0 on one map per element,
    sending gamma to the integer coordinates {index: value} of
    phi(X_gamma) over ``basis[(k - ht gamma, w - gamma)]``.
    ``bracket(k, w, i, b)`` is [A, X_b] for A the i-th element of
    ``basis[(k, w)]``, over the basis of g_{k - ht b, w - b}: phi(X_b) for
    a map phi, c_{a,b} X_{a+b} for a root a."""
    blocks: dict[int, dict[tuple[int, ...], int]]
    stop: int | None
    basis: dict[tuple[int, tuple], list] = field(repr=False)
    bracket: Callable[[int, tuple, int, int], dict[int, Scalar]] = field(
        repr=False, compare=False)

    @property
    def total(self) -> int:
        """dim g_{-h} + ... + dim g_k over every degree computed: the
        dimension of the whole prolongation when it stopped."""
        return sum(sum(b.values()) for b in self.blocks.values())

    @property
    def finite_type(self) -> bool:
        """True when some g_k with k >= 0 is zero by the requested degree,
        so that every later one is zero too."""
        return self.stop is not None


def prolong(hs: HessenbergSet, c: dict[tuple[int, int], Scalar],
            max_degree: int) -> Prolongation:
    """Weight blocks of g_k for k up to ``max_degree``, or up to the first
    empty g_k with k >= 0, from the structure constants ``c`` alone."""
    rs = hs.rs
    labels = sorted(hs.R)
    height = {g: rs.root(g).height for g in labels}
    coeffs = {g: rs.root(g).coeffs for g in labels}
    simples = [s for s in rs.simple_ids() if s in hs.R]
    # [X_a, X_b] = c_{a,b} X_{a+b} over the pairs of R whose sum is in R,
    # and per sum s its splits a < b
    root_bracket: dict[tuple[int, int], Scalar] = {}
    splits: dict[int, list[tuple[int, int, Scalar]]] = {}
    for a in labels:
        for b in labels:
            s = rs.add(a, b)
            if s in hs.R and c.get((a, b)):
                root_bracket[a, b] = c[a, b]
                if a < b:
                    splits.setdefault(s, []).append((a, b, c[a, b]))

    def minus(w, g):
        return tuple(map(sub, w, coeffs[g]))

    # basis[(k, w)]: the basis of g_{k, w} (see Prolongation)
    zero = (0,) * rs.rank
    basis: dict[tuple[int, tuple], list] = {
        (-height[g], minus(zero, g)): [g] for g in labels}

    def bracket(k, w, i, b):
        """[A, X_b] for A the i-th basis element of g_{k, w}, over the
        basis of g_{k - ht b, w - b}."""
        a = basis[k, w][i]
        if k >= 0:
            return a.get(b, {})
        x = root_bracket.get((a, b))
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

        # phi[X_a, X_b] - [phi X_a, X_b] + [phi X_b, X_a] = 0, for a < b:
        # the terms of each gamma with phi(X_gamma) in the block
        for u, (off, t, size) in cols.items():
            for a, b, x in splits.get(u, ()):
                for i in range(size):
                    add(a, b, off + i, {i: x}, 1)
            for v in labels:
                if v != u:
                    a, b, sign = (u, v, -1) if u < v else (v, u, 1)
                    for i in range(size):
                        add(a, b, off + i, bracket(*t, i, v), sign)
        null = linalg.sparse_nullspace([rows[key] for key in sorted(rows)], n)
        elements = []
        for vec in null:
            # scaled to integers, so that brackets stay integral
            den = lcm(*(x.denominator for x in vec))
            elements.append({g: {i: int(x * den) for i in range(size)
                                 if (x := vec[off + i])}
                             for g, (off, _, size) in cols.items()})
        return elements

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
            return Prolongation(blocks, k, basis, bracket)
    return Prolongation(blocks, None, basis, bracket)
