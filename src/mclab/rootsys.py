"""Reduced restricted root systems of classical type A, B, C, D.

Roots are stored as integer coefficient vectors over the simple roots.
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
from fractions import Fraction as Q
from itertools import combinations


SUPPORTED_FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Root:
    coeffs: tuple[int, ...]
    id: int
    height: int

    def is_positive(self) -> bool:
        return self.height > 0


class RootSystemError(ValueError):
    pass


def _euclidean_roots(family: str, rank: int):
    """Positive roots and simple roots as exact Euclidean vectors."""
    def e(i, dim):
        v = [Q(0)] * dim
        v[i] = Q(1)
        return tuple(v)

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    if family == "A":
        dim = rank + 1
        simples = [minus(e(i, dim), e(i + 1, dim)) for i in range(rank)]
        positives = [minus(e(i, dim), e(j, dim))
                     for i in range(dim) for j in range(i + 1, dim)]
    elif family == "B":
        dim = rank
        simples = [minus(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        simples.append(e(rank - 1, dim))
        positives = [e(i, dim) for i in range(dim)]
        for i, j in combinations(range(dim), 2):
            positives.append(minus(e(i, dim), e(j, dim)))
            positives.append(plus(e(i, dim), e(j, dim)))
    elif family == "C":
        dim = rank
        simples = [minus(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        simples.append(tuple(2 * x for x in e(rank - 1, dim)))
        positives = [tuple(2 * x for x in e(i, dim)) for i in range(dim)]
        for i, j in combinations(range(dim), 2):
            positives.append(minus(e(i, dim), e(j, dim)))
            positives.append(plus(e(i, dim), e(j, dim)))
    elif family == "D":
        dim = rank
        simples = [minus(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        simples.append(plus(e(rank - 2, dim), e(rank - 1, dim)))
        positives = []
        for i, j in combinations(range(dim), 2):
            positives.append(minus(e(i, dim), e(j, dim)))
            positives.append(plus(e(i, dim), e(j, dim)))
    else:
        raise RootSystemError(f"unsupported family {family!r}")
    return simples, positives


def _dot(a, b) -> Q:
    return sum((x * y for x, y in zip(a, b)), Q(0))


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

        simples, positives = _euclidean_roots(family, rank)
        # pairing scale: short simple roots get squared length 2
        scale = Q(2) if family == "B" else Q(1)
        self._pair = lambda va, vb: scale * _dot(va, vb)

        # expand each positive root over the simple roots (exact, integer)
        coeff_of_vec = {}
        for vec in positives:
            coeffs = self._expand(simples, vec)
            coeff_of_vec[vec] = coeffs

        ordered = sorted(
            positives,
            key=lambda v: (sum(coeff_of_vec[v]),
                           tuple(-c for c in coeff_of_vec[v])),
        )
        self.positive_roots: list[Root] = []
        self._vec_of_id: list[tuple] = []
        self._id_of_coeffs: dict[tuple, int] = {}
        for k, vec in enumerate(ordered):
            coeffs = coeff_of_vec[vec]
            root = Root(coeffs=coeffs, id=k, height=sum(coeffs))
            self.positive_roots.append(root)
            self._vec_of_id.append(vec)
            self._id_of_coeffs[coeffs] = k
        self.n_pos = len(self.positive_roots)
        for k in range(self.n_pos):
            neg = tuple(-c for c in self.positive_roots[k].coeffs)
            self._id_of_coeffs[neg] = self.n_pos + k

        self.cartan_matrix = [
            [int(2 * self._pair(simples[i], simples[j])
                 / self._pair(simples[j], simples[j]))
             for j in range(rank)]
            for i in range(rank)
        ]

        # highest root: the unique componentwise-maximal positive root
        top = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))
        for r in self.positive_roots:
            if any(c > t for c, t in zip(r.coeffs, top.coeffs)):
                raise RootSystemError("no dominant highest root found")
        self.highest_root = top

        self.sum_table: dict[tuple[int, int], int] = {}
        all_ids = list(range(2 * self.n_pos))
        for a in all_ids:
            ca = self.root(a).coeffs
            for b in all_ids:
                s = tuple(x + y for x, y in zip(ca, self.root(b).coeffs))
                if s in self._id_of_coeffs:
                    self.sum_table[(a, b)] = self._id_of_coeffs[s]

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

    @staticmethod
    def _expand(simples, vec) -> tuple[int, ...]:
        # solve vec = sum c_i simple_i over the rationals; results are integers
        from .linalg import solve
        dim = len(vec)
        a = [[simples[j][i] for j in range(len(simples))] for i in range(dim)]
        sol = solve(a, list(vec))
        if sol is None:
            raise RootSystemError("root not in simple-root lattice")
        out = []
        for c in sol:
            if c.denominator != 1:
                raise RootSystemError("non-integer simple-root coefficient")
            out.append(int(c))
        return tuple(out)

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

    def pairing(self, a: int, b: int) -> Q:
        va = self._signed_vec(a)
        vb = self._signed_vec(b)
        return self._pair(va, vb)

    def _signed_vec(self, root_id: int):
        if root_id < self.n_pos:
            return self._vec_of_id[root_id]
        return tuple(-x for x in self._vec_of_id[root_id - self.n_pos])

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
        w = self.highest_root.id
        ww = self.pairing(w, w)
        sigma0, half, one = set(), set(), set()
        for r in self.positive_roots:
            p = self.pairing(w, r.id)
            if r.id == w:
                one.add(r.id)
            elif p == 0:
                sigma0.add(r.id)
            elif p == ww / 2:
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
