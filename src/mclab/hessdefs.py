"""Local defining equations of a Hessenberg submanifold in the big cell.

For a regular Cartan element H the submanifold is cut out, inside the
group chart, by the vanishing of the complement components of
Ad(n^{-1}) H.  Each defining polynomial has the triangular shape

    p_alpha = alpha(H) x_alpha + (terms in lower-height coordinates),

so the complement block of the Jacobian is lower triangular with the
values alpha(H) on the diagonal, the manifold is smooth, and the
equations solve recursively for the complement coordinates (the graph
map onto the slice).

Symbolic mode keeps the Cartan coordinates as polynomial indeterminates
so that the determinant identity is established as an identity, not
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from . import linalg
from .fields import PolyVectorField
from .hessenberg import HessenbergSet
from .liealg import Chart, SplitLieAlgebra, adjoint_of_point
from .poly import Poly, exact


class HessDefError(ValueError):
    pass


@dataclass
class HessenbergEquations:
    algebra: SplitLieAlgebra
    chart: Chart
    hs: HessenbergSet
    h_coeffs: tuple | None                 # None in symbolic mode
    symbolic: bool
    nvars: int                             # chart vars (+ rank in symbolic mode)
    polynomials: dict[int, Poly]           # complement root id -> p_alpha
    order: list[int]                       # complement ids, height order

    def var_names(self) -> list[str]:
        names = list(self.chart.var_names)
        if self.symbolic:
            names += [f"l{i + 1}" for i in range(self.algebra.rank)]
        return names

    def jacobian(self) -> list[list[Poly]]:
        """Rows: complement equations in height order; columns: all chart
        coordinates in chart order."""
        rows = []
        for a in self.order:
            rows.append([self.polynomials[a].diff(self.chart.coord_index(r))
                         for r in self.chart.coord_roots])
        return rows

    def complement_block(self) -> list[list[Poly]]:
        cols = [self.chart.coord_index(a) for a in self.order]
        return [[self.polynomials[a].diff(j) for j in cols]
                for a in self.order]

    def to_json_dict(self) -> dict:
        rs = self.hs.rs
        names = self.var_names()
        return {
            "R": [rs.root_name(r) for r in sorted(self.hs.R)],
            "C": [rs.root_name(a) for a in self.order],
            "H": None if self.symbolic else [str(c) for c in self.h_coeffs],
            "equations": {rs.root_name(a): p.render(names)
                          for a, p in sorted(self.polynomials.items())},
        }


def _regularity_check(algebra: SplitLieAlgebra, h_coeffs) -> None:
    vanishing = [algebra.rs.root_name(r)
                 for r in range(algebra.rs.n_pos)
                 if algebra.alpha_value(r, h_coeffs) == 0]
    if vanishing:
        raise HessDefError(
            "Cartan element is not regular; vanishing roots: "
            + ", ".join(vanishing))


def defining_equations(algebra: SplitLieAlgebra, chart: Chart,
                       hs: HessenbergSet, h_coeffs=None) -> HessenbergEquations:
    """Complement components of Ad(n^{-1}) H as exact polynomials.

    ``h_coeffs``: Cartan coefficients of H, or None for symbolic H (one
    extra variable l_i per Cartan coordinate).  Ad(n^{-1}) is linear, so
    the components are sum_i l_i Ad(n^{-1}) H_i over the Cartan basis.
    """
    rs = algebra.rs
    symbolic = h_coeffs is None
    order = sorted(hs.C, key=lambda a: (rs.root(a).height, a))
    if symbolic:
        nv = chart.nvars + algebra.rank
        lams = [Poly.var(nv, chart.nvars + i) for i in range(algebra.rank)]
    else:
        h_coeffs = tuple(exact(c) for c in h_coeffs)
        _regularity_check(algebra, h_coeffs)
        nv = chart.nvars
        lams = h_coeffs
    polys = {a: Poly.zero(nv) for a in order}
    indices = [algebra.full_index(a) for a in order]
    for lam, h in zip(lams, chart.realization.cartan):
        coeffs = adjoint_of_point(chart, h, indices)
        for a, c in zip(order, coeffs):
            polys[a] = polys[a] + (c.lift(nv) if symbolic else c) * lam
    return HessenbergEquations(
        algebra=algebra, chart=chart, hs=hs, h_coeffs=h_coeffs,
        symbolic=symbolic, nvars=nv, polynomials=polys, order=order)


@dataclass
class SmoothnessCertificate:
    triangular: bool
    diagonal: list[Poly]
    determinant: Poly
    expected_determinant: Poly
    identity_holds: bool
    jacobian_rank: int
    dimension: int

    def to_json_dict(self, names) -> dict:
        return {
            "triangular": self.triangular,
            "diagonal": [p.render(names) for p in self.diagonal],
            "determinant": self.determinant.render(names),
            "expected_determinant": self.expected_determinant.render(names),
            "identity_holds": self.identity_holds,
            "jacobian_rank": self.jacobian_rank,
            "dimension": self.dimension,
        }


def smoothness_certificate(eqs: HessenbergEquations) -> SmoothnessCertificate:
    """Triangularity of the complement Jacobian block and the exact
    determinant identity det = product of alpha(H) over the complement."""
    alg = eqs.algebra
    rs = alg.rs
    chart = eqs.chart
    nv = eqs.nvars
    block = eqs.complement_block()
    heights = [rs.root(a).height for a in eqs.order]
    triangular = True
    for i in range(len(block)):
        for j in range(len(block)):
            above = (heights[j] > heights[i]) or \
                (heights[j] == heights[i] and i != j)
            if above and not block[i][j].is_zero():
                triangular = False
    diagonal = [block[i][i] for i in range(len(block))]
    det = Poly.const(nv, 1)
    for d in diagonal:
        det = det * d
    expected = Poly.const(nv, 1)
    for a in eqs.order:
        if eqs.symbolic:
            lin = Poly.zero(nv)
            for i in range(alg.rank):
                lin = lin + Poly.var(nv, chart.nvars + i,
                                     alg.functional[a][i])
            expected = expected * lin
        else:
            expected = expected * Poly.const(nv, alg.alpha_value(a, eqs.h_coeffs))
    identity = triangular and det == expected
    # full Jacobian rank: the triangular block already has rank |C| for
    # regular H; in symbolic mode rank is generic.
    if eqs.symbolic:
        rank = len(eqs.order) if all(not d.is_zero() for d in diagonal) else -1
    else:
        point = [0] * nv
        rows = [[p.eval(point) for p in row] for row in eqs.jacobian()]
        rank = linalg.rank(rows)
    return SmoothnessCertificate(
        triangular=triangular,
        diagonal=diagonal,
        determinant=det,
        expected_determinant=expected,
        identity_holds=identity,
        jacobian_rank=rank,
        dimension=len(eqs.hs.R),
    )


def graph_map(eqs: HessenbergEquations) -> dict[int, Poly]:
    """Solve the defining equations for the complement coordinates.

    Returns complement root id -> polynomial in the slice coordinates.
    Triangularity by height makes the elimination exact; substituting the
    result back into every defining polynomial yields zero (checked).
    """
    if eqs.symbolic:
        raise HessDefError("graph map needs a rational regular H")
    chart = eqs.chart
    alg = eqs.algebra
    sub: dict[int, Poly] = {}
    for a in eqs.order:
        j = chart.coord_index(a)
        aH = alg.alpha_value(a, eqs.h_coeffs)
        p = eqs.polynomials[a]
        rest = p - Poly.var(eqs.nvars, j, aH)
        solved = rest.subs(sub) * (Q(-1) / aH)
        if any(m[j] for m in solved.monomials()):
            raise HessDefError("graph elimination is not triangular")
        sub[j] = solved
    for a in eqs.order:
        if not eqs.polynomials[a].subs(sub).is_zero():
            raise HessDefError("graph map does not annihilate the equations")
    return {a: sub[chart.coord_index(a)] for a in eqs.order}


def pushforward_frame(eqs: HessenbergEquations) -> dict[int, PolyVectorField]:
    """Push the slice frame through the graph map: the image field keeps
    its slice components and gains one component per complement
    coordinate, computed by the chain rule."""
    graph = graph_map(eqs)
    chart = eqs.chart
    out = {}
    for r in sorted(eqs.hs.R):
        base = chart.frame_field(r, slice_roots=eqs.hs.R)
        comps = dict(base.components)
        for a, g in graph.items():
            val = base.apply(g)
            if not val.is_zero():
                comps[a] = val
        out[r] = PolyVectorField(chart, "coordinate", comps)
    return out
