"""Reduced restricted root systems of classical type A, B, C, D.

A root system is built from its integer Cartan matrix alone, and roots
are stored as integer coefficient vectors over the simple roots.
Positive roots carry dense ids ``0..n_pos-1`` in *contract order*:
ascending height, then descending lexicographic order on the coefficient
tuple.  The negative of the positive root with id ``k`` has id
``n_pos + k``.  Chart coordinates, solver variables and every JSON
serialization list positive roots in contract order, so this order is a
package-wide contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import add


SUPPORTED_FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Root:
    coeffs: tuple[int, ...]
    id: int
    height: int


class RootSystemError(ValueError):
    pass


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """a_ij = 2(alpha_i, alpha_j)/(alpha_j, alpha_j) in closed form.  The
    last simple root is the short one of B and the long one of C; D
    branches at the third simple root from the end."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0
          for j in range(rank)] for i in range(rank)]
    if family == "B":
        a[rank - 2][rank - 1] = -2
    elif family == "C":
        a[rank - 1][rank - 2] = -2
    elif family == "D":
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    return a


def _positive_roots(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots of the Cartan matrix ``a`` in contract order, one
    height at a time by root strings: beta + alpha_i is a root exactly when
    p - <beta, alpha_i^v> > 0, where beta - p alpha_i is the bottom of the
    alpha_i-string through beta (Humphreys, Introduction to Lie Algebras,
    9.4)."""
    rank = len(a)
    level = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = set(level)
    roots = []
    while level:
        roots.extend(level)
        above = set()
        for beta in level:
            for i in range(rank):
                down = list(beta)
                down[i] -= 1
                p = 0
                while tuple(down) in found:
                    down[i] -= 1
                    p += 1
                if p > sum(c * a[j][i] for j, c in enumerate(beta)):
                    above.add(beta[:i] + (beta[i] + 1,) + beta[i + 1:])
        found |= above
        level = sorted(above, reverse=True)
    return roots


class RootSystem:
    def __init__(self, family: str, rank: int):
        family = family.upper()
        if family not in SUPPORTED_FAMILIES:
            raise RootSystemError(f"unsupported family {family!r}")
        if family == "A" and rank < 1:
            raise RootSystemError("A requires rank >= 1")
        if family in ("B", "C") and rank < 2:
            raise RootSystemError(f"{family} requires rank >= 2")
        if family == "D" and rank < 3:
            raise RootSystemError("D requires rank >= 3")
        self.family = family
        self.rank = rank
        self.cartan_matrix = _cartan_matrix(family, rank)
        # (alpha_i, alpha_j) = a_ij (alpha_j, alpha_j) / 2, where short
        # simple roots have squared length 2 and long ones 4
        long = [(family == "B" and j < rank - 1)
                or (family == "C" and j == rank - 1) for j in range(rank)]
        self._gram = [[a_ij * (2 if long[j] else 1) for j, a_ij in
                       enumerate(row)] for row in self.cartan_matrix]

        self.positive_roots: list[Root] = []
        self._id_of_coeffs: dict[tuple, int] = {}
        for k, coeffs in enumerate(_positive_roots(self.cartan_matrix)):
            self.positive_roots.append(
                Root(coeffs=coeffs, id=k, height=sum(coeffs)))
            self._id_of_coeffs[coeffs] = k
        self.n_pos = len(self.positive_roots)
        for k in range(self.n_pos):
            neg = tuple(-c for c in self.positive_roots[k].coeffs)
            self._id_of_coeffs[neg] = self.n_pos + k

        # highest root: the unique componentwise-maximal positive root
        top = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))
        for r in self.positive_roots:
            if any(c > t for c, t in zip(r.coeffs, top.coeffs)):
                raise RootSystemError("no dominant highest root found")
        self.highest_root = top
        self._omega = self._decompose_by_highest_root()

        self.sum_table: dict[tuple[int, int], int] = {}
        coeffs = [self.root(a).coeffs for a in range(2 * self.n_pos)]
        id_of = self._id_of_coeffs.get
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(coeffs):
                s = id_of(tuple(map(add, ca, cb)))
                if s is not None:
                    self.sum_table[(a, b)] = s

        # adjacency via the Cartan matrix agrees with "delta + delta' is a root"
        simple = self.simple_ids()
        for i in range(rank):
            for j in range(rank):
                if i == j:
                    continue
                s = self.add(simple[i], simple[j])
                if (s is not None) != self.adjacent_simples(i, j):
                    raise RootSystemError(
                        "Cartan adjacency disagrees with root addition")

    # ---- lookups ---------------------------------------------------------
    def root(self, root_id: int) -> Root:
        if 0 <= root_id < self.n_pos:
            return self.positive_roots[root_id]
        if self.n_pos <= root_id < 2 * self.n_pos:
            pos = self.positive_roots[root_id - self.n_pos]
            return Root(coeffs=tuple(-c for c in pos.coeffs), id=root_id,
                        height=-pos.height)
        raise RootSystemError(f"no root with id {root_id}")

    def neg(self, root_id: int) -> int:
        return root_id + self.n_pos if root_id < self.n_pos else root_id - self.n_pos

    def id_of(self, coeffs) -> int | None:
        return self._id_of_coeffs.get(tuple(coeffs))

    def simple_ids(self) -> list[int]:
        return [r.id for r in self.positive_roots if r.height == 1]

    def add(self, a: int, b: int) -> int | None:
        return self.sum_table.get((a, b))

    def pairing(self, a: int, b: int) -> int:
        ca, cb = self.root(a).coeffs, self.root(b).coeffs
        return sum(x * g * y for x, row in zip(ca, self._gram)
                   for g, y in zip(row, cb))

    def leq(self, a: int, b: int) -> bool:
        """Componentwise order on positive roots: a <= b."""
        ca, cb = self.root(a).coeffs, self.root(b).coeffs
        return all(x <= y for x, y in zip(ca, cb))

    # ---- operations --------------------------------------------------------
    def chain_between(self, beta: int, alpha: int) -> list[int] | None:
        """Simple root ids joining beta up to alpha with every partial sum
        a root; None when alpha is not componentwise above beta."""
        if not self.leq(beta, alpha):
            return None
        if alpha == beta:
            return []
        target = self.root(alpha).coeffs
        simples = self.simple_ids()

        def search(cur_id: int, cur: tuple, acc: list[int]):
            if cur == target:
                return acc
            for d in simples:
                dc = self.root(d).coeffs
                nxt = tuple(x + y for x, y in zip(cur, dc))
                if any(n > t for n, t in zip(nxt, target)):
                    continue
                nid = self.id_of(nxt)
                if nid is None:
                    continue
                hit = search(nid, nxt, acc + [d])
                if hit is not None:
                    return hit
            return None

        chain = search(beta, self.root(beta).coeffs, [])
        if chain is None:
            raise RootSystemError("comparable pair admits no chain")
        return chain

    def omega_decompose(self) -> "OmegaDecomposition":
        """Sigma_+ split by the highest-root pairing, fixed at construction."""
        return self._omega

    def _decompose_by_highest_root(self) -> "OmegaDecomposition":
        w = self.highest_root.id
        ww = self.pairing(w, w)
        sigma0, half, one = set(), set(), set()
        for r in self.positive_roots:
            p = self.pairing(w, r.id)
            if r.id == w:
                one.add(r.id)
            elif p == 0:
                sigma0.add(r.id)
            elif 2 * p == ww:
                half.add(r.id)
            else:
                raise RootSystemError("highest-root series out of range")
        return OmegaDecomposition(sigma0=frozenset(sigma0),
                                  sigma_half=frozenset(half),
                                  sigma1=frozenset(one))

    def simple_support(self, root_id: int) -> frozenset[int]:
        """Positions (0-based simple indices) with nonzero coefficient."""
        coeffs = self.root(root_id).coeffs
        return frozenset(i for i, c in enumerate(coeffs) if c != 0)

    def adjacent_simples(self, i: int, j: int) -> bool:
        return i != j and self.cartan_matrix[i][j] != 0

    def is_connected_support(self, root_id: int) -> bool:
        return self.is_connected_simple_set(self.simple_support(root_id))

    def is_connected_simple_set(self, nodes: frozenset[int] | set[int]) -> bool:
        nodes = set(nodes)
        if not nodes:
            return True
        seen = {min(nodes)}
        frontier = [min(nodes)]
        while frontier:
            cur = frontier.pop()
            for other in nodes - seen:
                if self.adjacent_simples(cur, other):
                    seen.add(other)
                    frontier.append(other)
        return seen == nodes

    # ---- serialization ------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "cartan_matrix": self.cartan_matrix,
            "positive_roots": [
                {"id": r.id, "coeffs": list(r.coeffs), "height": r.height}
                for r in self.positive_roots
            ],
            "highest_root": self.highest_root.id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def root_name(self, root_id: int) -> str:
        """Coefficient-string name, e.g. '110'; negatives get a '-' prefix."""
        r = self.root(root_id)
        coeffs = r.coeffs if r.height > 0 else tuple(-c for c in r.coeffs)
        body = "".join(str(c) for c in coeffs)
        return body if r.height > 0 else "-" + body

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank}, {self.n_pos} positive roots)"


@dataclass(frozen=True)
class OmegaDecomposition:
    sigma0: frozenset[int]
    sigma_half: frozenset[int]
    sigma1: frozenset[int]


def build_root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)
