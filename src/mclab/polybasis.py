"""Closed-form highest-root-component polynomials on the three-factor chart.

For a split algebra with normalized basis, the polynomial attached to a
basis element E is the g_omega-coefficient of Ad(n^{-1}) E in the chart

    n = exp(z Z) exp(sum y_a Y_a) exp(sum x_b X_b),

with coordinates split by the highest-root pairing.  The generators below
build those polynomials in closed form, without conjugating anything:

  * roots in Sigma_{1/2}:      a single linear monomial,
  * Cartan elements:           z plus an explicit quadratic correction,
  * roots in +-Sigma_0:        quadratic combinations of the above,
  * roots in -Sigma_{1/2}:     products with a Cartan polynomial solved
                               from a small linear system,
  * the lowest root:           a squared Cartan identity kept rational.

Everything can be cross-checked against the adjoint-action oracle; the
two computations agree exactly, monomial by monomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q

from . import linalg
from .liealg import Chart, SplitLieAlgebra, adjoint_of_point, three_factor_chart
from .poly import Poly, exact


class PolyBasisError(ValueError):
    pass


def _require_normalized(algebra: SplitLieAlgebra) -> None:
    if not algebra.normalized:
        raise PolyBasisError(
            "closed-form generators need the normalized basis")


def half_pairs(algebra: SplitLieAlgebra) -> list[tuple[int, int]]:
    """The pairing alpha ~ omega - alpha on Sigma_{1/2}; each unordered
    pair appears once, smaller id first (the representative set)."""
    rs = algebra.rs
    od = rs.omega_decompose()
    w = rs.highest_root.id
    pairs = []
    for a in sorted(od.sigma_half):
        b = rs.add(w, rs.neg(a))
        if b is None or b not in od.sigma_half:
            raise PolyBasisError("highest-root pairing failed on Sigma_1/2")
        if a <= b and (b, a) not in pairs:
            pairs.append((a, b))
    return pairs


def gen_omega(algebra: SplitLieAlgebra, chart: Chart) -> Poly:
    return Poly.const(chart.nvars, 1)


def gen_sigma_half(algebra: SplitLieAlgebra, chart: Chart, gamma: int) -> Poly:
    _require_normalized(algebra)
    rs = algebra.rs
    od = rs.omega_decompose()
    if gamma not in od.sigma_half:
        raise PolyBasisError("label not in Sigma_1/2")
    w = rs.highest_root.id
    comp = rs.add(w, rs.neg(gamma))
    c = algebra.c[(gamma, comp)]
    return Poly.var(chart.nvars, chart.coord_index(comp), c)


def _kept(owner, key, make):
    """make(), computed once per ``owner`` (the algebra or chart it depends
    on) and kept on it, so that the generators the others are built from
    are found once however many of those ask for them."""
    kept = owner.__dict__.setdefault("_polybasis_kept", {})
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _pairs(algebra: SplitLieAlgebra) -> list[tuple[int, int]]:
    return _kept(algebra, "half_pairs", lambda: half_pairs(algebra))


def _sigma_half(algebra: SplitLieAlgebra, chart: Chart, gamma: int) -> Poly:
    return _kept(chart, ("sigma_half", gamma),
                 lambda: gen_sigma_half(algebra, chart, gamma))


def _sigma0(algebra: SplitLieAlgebra, chart: Chart, nu_id: int) -> Poly:
    return _kept(chart, ("sigma0", nu_id),
                 lambda: gen_sigma0(algebra, chart, nu_id))


def gen_cartan(algebra: SplitLieAlgebra, chart: Chart, h_coeffs) -> Poly:
    _require_normalized(algebra)
    rs = algebra.rs
    w = rs.highest_root.id
    z = chart.coord_index(w)
    h = [exact(c) for c in h_coeffs]

    def alpha(r):       # alpha_r(H) for a positive root r
        return exact(sum(c * v for c, v in zip(h, algebra.functional[r])))

    out = Poly.var(chart.nvars, z, alpha(w))
    for a, b in _pairs(algebra):
        factor = (alpha(b) - alpha(a)) * algebra.c[(a, b)]
        if factor == 0:
            continue
        ya = Poly.var(chart.nvars, chart.coord_index(a))
        yb = Poly.var(chart.nvars, chart.coord_index(b))
        out = out - ya * yb * factor * Q(1, 2)
    return out


def gen_sigma0(algebra: SplitLieAlgebra, chart: Chart, nu_id: int) -> Poly:
    """nu in Sigma_0 or -Sigma_0 (pass the root id, either sign)."""
    _require_normalized(algebra)
    rs = algebra.rs
    od = rs.omega_decompose()
    base = nu_id if nu_id < rs.n_pos else rs.neg(nu_id)
    if base not in od.sigma0:
        raise PolyBasisError("label not in +-Sigma_0")
    w = rs.highest_root.id
    out = Poly.zero(chart.nvars)
    seen: set[int] = set()
    for a in sorted(od.sigma_half):
        s = rs.add(a, nu_id)
        if s is None or a in seen:
            continue
        comp = rs.add(w, rs.neg(a))
        ratio = Q(algebra.c[(a, nu_id)], algebra.c[(a, comp)])
        p_comp = _sigma_half(algebra, chart, comp)
        if s == comp:
            # self-paired: the two chain orders coincide
            out = out + p_comp * p_comp * ratio * Q(1, 2)
        else:
            # one term per unordered pair {a, omega - (nu + a)}; the
            # partner's term is equal by the structure-constant identities
            partner = rs.add(w, rs.neg(s))
            seen.add(partner)
            p_s = _sigma_half(algebra, chart, s)
            out = out + p_s * p_comp * ratio
    return out


def solve_H_of_gamma(algebra: SplitLieAlgebra, gamma: int):
    """Cartan coefficients of the element H(gamma) solving

        omega(H) = -omega(H_gamma)
        (3 alpha - omega)(H) = -alpha(H_gamma)   for all representatives,

    with H_gamma representing gamma through the normalization form."""
    _require_normalized(algebra)
    rs = algebra.rs
    od = rs.omega_decompose()
    if gamma not in od.sigma_half:
        raise PolyBasisError("label not in Sigma_1/2")
    w = rs.highest_root.id
    h_gamma = algebra.h_representing(gamma, "normalization")
    rows = [list(algebra.functional[w])]
    rhs = [-algebra.alpha_value(w, h_gamma)]
    for a, _ in _pairs(algebra):
        rows.append([3 * algebra.functional[a][j] - algebra.functional[w][j]
                     for j in range(algebra.rank)])
        rhs.append(-algebra.alpha_value(a, h_gamma))
    sol = linalg.solve(rows, rhs)
    if sol is None:
        raise PolyBasisError("Cartan system for H(gamma) is inconsistent")
    for row, target in zip(rows, rhs):
        if sum(c * v for c, v in zip(row, sol)) != target:
            raise PolyBasisError("residual check failed for H(gamma)")
    return tuple(sol)


def gen_neg_sigma_half(algebra: SplitLieAlgebra, chart: Chart,
                       gamma: int) -> Poly:
    _require_normalized(algebra)
    rs = algebra.rs
    od = rs.omega_decompose()
    if gamma not in od.sigma_half:
        raise PolyBasisError("label not in Sigma_1/2")
    w = rs.highest_root.id
    comp = rs.add(w, rs.neg(gamma))
    h_g = solve_H_of_gamma(algebra, gamma)
    out = _sigma_half(algebra, chart, comp) \
        * gen_cartan(algebra, chart, h_g) \
        * (Q(-1) / algebra.c[(gamma, comp)])
    for a in sorted(od.sigma_half):
        diff = rs.add(a, rs.neg(gamma))
        if diff is None:
            continue
        base = diff if diff < rs.n_pos else rs.neg(diff)
        if base not in od.sigma0:
            continue
        acomp = rs.add(w, rs.neg(a))
        ratio = Q(algebra.c[(a, rs.neg(gamma))], algebra.c[(a, acomp)])
        out = out + (_sigma_half(algebra, chart, acomp)
                     * _sigma0(algebra, chart, diff) * ratio * Q(1, 3))
    return out


def gen_neg_omega(algebra: SplitLieAlgebra, chart: Chart) -> Poly:
    """Lowest-root polynomial through the squared Cartan identity.

    The normalization constant involves a square root, so the square
    -(p^{H_omega})^2 / (2 omega(H_omega)) is used instead; it is an exact
    rational identity equivalent to the scaled form.
    """
    _require_normalized(algebra)
    half = algebra.rs.omega_decompose().sigma_half
    return _neg_omega(algebra, chart,
                      {g: (_sigma_half(algebra, chart, g),
                           gen_neg_sigma_half(algebra, chart, g))
                       for g in half})


def _neg_omega(algebra: SplitLieAlgebra, chart: Chart,
               half_gens: dict[int, tuple[Poly, Poly]]) -> Poly:
    """:func:`gen_neg_omega` from the generators (sigma_half, neg_sigma_half)
    of each root of Sigma_1/2, so that a caller holding them computes
    neither again."""
    rs = algebra.rs
    w = rs.highest_root.id
    h_w = algebra.h_representing(w, "normalization")
    wHw = algebra.alpha_value(w, h_w)
    p_h = gen_cartan(algebra, chart, h_w)
    out = p_h * p_h * (Q(-1) / (2 * wHw))
    for a in sorted(half_gens):
        p_comp, p_neg_comp = half_gens[rs.add(w, rs.neg(a))]
        out = out - p_comp * p_neg_comp * Q(1, 4)
    return out


def oracle_omega_component(algebra: SplitLieAlgebra, chart: Chart,
                           element) -> Poly:
    """g_omega-coefficient of Ad(n^{-1}) E at the generic chart point, from
    the structure constants, sharing no code with the closed forms."""
    w = algebra.full_index(algebra.rs.highest_root.id)
    return adjoint_of_point(chart, element, [w])[0]


@dataclass
class OmegaComponentBasis:
    algebra: SplitLieAlgebra
    chart: Chart
    table: dict[str, Poly]
    representatives: list[int]

    def to_json_dict(self) -> dict:
        return {
            "chart": self.chart.to_json_dict(),
            "representatives": [self.algebra.rs.root_name(r)
                                for r in self.representatives],
            "table": {k: p.render(self.chart.var_names)
                      for k, p in sorted(self.table.items())},
            # comparisons with the adjoint-action oracle are exact; induced
            # fields differ from these generators by one global sign
            "comparison": {"oracle_scalar": "1", "induced_field_sign": "-1"},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def build_basis(algebra: SplitLieAlgebra,
                chart: Chart | None = None) -> OmegaComponentBasis:
    """Closed-form polynomials for every root label and the Cartan basis."""
    _require_normalized(algebra)
    rs = algebra.rs
    chart = chart or three_factor_chart(algebra)
    if chart.kind != "three_factor":
        raise PolyBasisError("generators are stated on the three-factor chart")
    od = rs.omega_decompose()
    w = rs.highest_root.id
    table: dict[str, Poly] = {}
    table[rs.root_name(w)] = gen_omega(algebra, chart)
    half_gens = {}
    for g in sorted(od.sigma_half):
        half_gens[g] = (_sigma_half(algebra, chart, g),
                        gen_neg_sigma_half(algebra, chart, g))
        table[rs.root_name(g)], table[rs.root_name(rs.neg(g))] = half_gens[g]
    for b in sorted(od.sigma0):
        table[rs.root_name(b)] = _sigma0(algebra, chart, b)
        table[rs.root_name(rs.neg(b))] = _sigma0(algebra, chart, rs.neg(b))
    table[rs.root_name(rs.neg(w))] = _neg_omega(algebra, chart, half_gens)
    for i in range(algebra.rank):
        coeffs = [1 if j == i else 0 for j in range(algebra.rank)]
        table[f"H{i + 1}"] = gen_cartan(algebra, chart, coeffs)
    return OmegaComponentBasis(
        algebra=algebra, chart=chart, table=table,
        representatives=[a for a, _ in _pairs(algebra)])


def verify_against_oracle(basis: OmegaComponentBasis) -> dict[str, bool]:
    """Exact equality of each closed form with the adjoint oracle."""
    alg = basis.algebra
    rs = alg.rs
    chart = basis.chart
    results = {}
    for label, poly in basis.table.items():
        if label.startswith("H"):
            k = int(label[1:]) - 1
        else:
            neg = label.startswith("-")
            coeffs = tuple(int(ch) for ch in label.lstrip("-"))
            k = alg.full_index(rs.id_of(coeffs if not neg
                                        else tuple(-c for c in coeffs)))
        elem = alg.realization.entries[k]
        results[label] = oracle_omega_component(alg, chart, elem) == poly
    return results


def chart_transport(poly: Poly, src: Chart, dst: Chart) -> Poly:
    """Rewrite a polynomial function of the source chart in destination
    coordinates (same group, different parametrization)."""
    coords = src.extract(dst.generic_matrix())
    out = Poly.zero(dst.nvars)
    for mono, c in poly.terms.items():
        term = Poly.const(dst.nvars, c)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * coords[i]
        out = out + term
    return out
