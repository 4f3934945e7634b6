"""Hessenberg subsets of a positive root system and their invariants.

A subset R of the positive roots is of Hessenberg type when it is closed
under subtracting positive roots: alpha in R and alpha - beta a positive
root imply alpha - beta in R.  The complement C then labels an ideal of
the nilpotent Iwasawa algebra, and all the combinatorics downstream
(maximal roots, shadows, dark zones, boundary roots, normalizer support)
is derived from R alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from .rootsys import RootSystem


class HessenbergError(ValueError):
    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class HessenbergSet:
    rs: RootSystem
    R: frozenset[int]
    C: frozenset[int]

    def names(self) -> list[str]:
        return [self.rs.root_name(i) for i in sorted(self.R)]


@dataclass
class HessenbergReport:
    hs: HessenbergSet
    maximal_roots: list[int]
    shadows: dict[int, frozenset[int]]
    dark_zones: list[frozenset[int]]
    boundary_simples: frozenset[int]          # simple-root indices (0-based)
    normalizer_support: frozenset[int]        # ids of negative roots in D
    hypothesis_I: bool
    hypothesis_II: bool
    intersection: frozenset[int]              # I = intersection of all shadows
    dims: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        rs = self.hs.rs
        return {
            "family": rs.family,
            "rank": rs.rank,
            "R": sorted(self.hs.R),
            "C": sorted(self.hs.C),
            "R_names": [rs.root_name(i) for i in sorted(self.hs.R)],
            "maximal_roots": sorted(self.maximal_roots),
            "shadows": {str(m): sorted(s) for m, s in self.shadows.items()},
            "dark_zones": [sorted(z) for z in self.dark_zones],
            "boundary_simples": sorted(self.boundary_simples),
            "normalizer_support": sorted(self.normalizer_support),
            "normalizer_support_names":
                [rs.root_name(i) for i in sorted(self.normalizer_support)],
            "hypothesis_I": self.hypothesis_I,
            "hypothesis_II": self.hypothesis_II,
            "intersection": sorted(self.intersection),
            "dims": dict(sorted(self.dims.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _closure_witness(rs: RootSystem, R) -> tuple[int, int, int] | None:
    """The first (alpha, beta, alpha - beta) with alpha in R, beta and
    alpha - beta positive roots and alpha - beta missing from R, or None
    when R is of Hessenberg type.  The complement C is then an ideal:
    gamma in C with gamma + beta in R would leave gamma missing from R."""
    for a in R:
        for b in range(rs.n_pos):
            diff = rs.add(a, rs.neg(b))
            if diff is not None and diff < rs.n_pos and diff not in R:
                return a, b, diff
    return None


def validate(rs: RootSystem, R) -> HessenbergSet:
    """Check the Hessenberg condition; the error carries a witness pair."""
    R = frozenset(R)
    pos = set(range(rs.n_pos))
    if not R <= pos:
        raise HessenbergError("R contains non-positive-root ids")
    witness = _closure_witness(rs, R)
    if witness is not None:
        a, b, diff = witness
        raise HessenbergError(
            f"Hessenberg condition fails: {rs.root_name(a)} - "
            f"{rs.root_name(b)} = {rs.root_name(diff)} missing from R",
            witness=(a, b))
    return HessenbergSet(rs=rs, R=R, C=frozenset(pos - R))


def type_p_subset(rs: RootSystem, p: int) -> HessenbergSet:
    h = rs.highest_root.height
    if not 1 <= p <= h:
        raise HessenbergError(f"type-p parameter must be in 1..{h}")
    return validate(rs, {r.id for r in rs.positive_roots if r.height <= p})


def enumerate_all(rs: RootSystem, max_rank: int = 4) -> list[HessenbergSet]:
    """All Hessenberg subsets (including the empty set and all of Sigma_+),
    by brute force over the subset lattice; deterministic order."""
    if rs.rank > max_rank:
        raise HessenbergError(
            f"rank {rs.rank} exceeds enumeration bound {max_rank}")
    out = []
    n = rs.n_pos
    for mask in range(1 << n):
        R = frozenset(i for i in range(n) if mask >> i & 1)
        if _closure_witness(rs, R) is None:
            out.append(HessenbergSet(rs=rs, R=R, C=frozenset(set(range(n)) - R)))
    out.sort(key=lambda h: (len(h.R), sorted(h.R)))
    return out


def analyze(hs: HessenbergSet) -> HessenbergReport:
    rs = hs.rs
    R = hs.R

    maximal = []
    for mu in R:
        if all(rs.add(mu, a) not in R for a in R if rs.add(mu, a) is not None):
            maximal.append(mu)
    maximal.sort()

    shadows = {mu: frozenset(a for a in R if rs.leq(a, mu)) for mu in maximal}
    if frozenset().union(*shadows.values()) != R:
        raise HessenbergError("shadows of the maximal roots do not cover R")

    # dark zones: union-find over the shadow-intersection graph
    parent = {mu: mu for mu in maximal}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in maximal:
        for b in maximal:
            if a < b and shadows[a] & shadows[b]:
                parent[find(a)] = find(b)
    zones: dict[int, set[int]] = {}
    for mu in maximal:
        zones.setdefault(find(mu), set()).update(shadows[mu])
    dark_zones = sorted((frozenset(z) for z in zones.values()),
                        key=lambda z: sorted(z))

    # boundary simple roots
    simple_ids = rs.simple_ids()
    boundary = set()
    for nu in maximal:
        support = rs.simple_support(nu)
        if not rs.is_connected_simple_set(support):
            raise HessenbergError("maximal root has disconnected support")
        for i in range(rs.rank):
            if i in support:
                continue
            if any(rs.adjacent_simples(i, j) for j in support):
                boundary.add(i)

    # split normalizer criterion for D
    D = set()
    for a in range(rs.n_pos):
        if a in hs.C:
            continue
        ok = True
        for g in hs.C:
            diff = rs.add(g, rs.neg(a))
            if diff is None:
                continue
            if diff >= rs.n_pos:        # gamma - alpha is a negative root
                ok = False
                break
            if diff not in hs.C:
                ok = False
                break
        if ok:
            D.add(rs.neg(a))

    hyp1 = all(
        rs.add(a, b) in shadow
        for shadow in shadows.values()
        for a in shadow for b in shadow
        if rs.add(a, b) is not None and rs.add(a, b) < rs.n_pos
    )
    hyp2 = all(
        sum(1 for s in simple_ids if s in shadow) >= 2
        for shadow in shadows.values()
    )

    inter = frozenset.intersection(*shadows.values()) if shadows else frozenset()

    dims = {
        "dim_slice": len(R),
        "dim_q": rs.n_pos + rs.rank + len(D),
        "dim_q_mod_nC": rs.n_pos + rs.rank + len(D) - len(hs.C),
    }
    extra = sum(1 for g in inter if rs.neg(g) not in D)
    dims["dim_conjecture"] = dims["dim_q_mod_nC"] + extra

    return HessenbergReport(
        hs=hs,
        maximal_roots=maximal,
        shadows=shadows,
        dark_zones=dark_zones,
        boundary_simples=frozenset(boundary),
        normalizer_support=frozenset(D),
        hypothesis_I=hyp1,
        hypothesis_II=hyp2,
        intersection=inter,
        dims=dims,
    )


def check_norma(hs: HessenbergSet, report: HessenbergReport | None = None) -> bool:
    """Boundary-root characterization of the normalizer support.

    Requires hypothesis (I) and a set containing every simple root (the
    standing assumptions of the characterization; without all simples the
    equivalence genuinely fails, e.g. R = {first simple} in rank 3).
    Returns True when, for every positive root alpha, its negative is
    outside D exactly when the simple support of alpha meets the
    boundary set.
    """
    rs = hs.rs
    rep = report if report is not None else analyze(hs)
    if not rep.hypothesis_I:
        raise HessenbergError("check_norma requires hypothesis (I)")
    if not set(rs.simple_ids()) <= hs.R:
        raise HessenbergError("check_norma requires all simple roots in R")
    for a in range(rs.n_pos):
        lhs = rs.neg(a) not in rep.normalizer_support
        rhs = bool(rs.simple_support(a) & rep.boundary_simples)
        if lhs != rhs:
            return False
    return True
