"""Polynomial vector fields on a chart, in either of two frames.

A field is stored as a map from positive-root labels to exact polynomials
in the chart coordinates.  ``frame="invariant"`` means components along
the chart's left-invariant frame fields; ``frame="coordinate"`` means
components along the partial derivatives of the chart coordinates.
Conversion between the two is exact: the frame coefficient matrix is
unitriangular with respect to the height ordering.

A field tagged with ``slice_roots`` lives on the slice where all
complement coordinates vanish; its components only involve slice
variables and only slice labels appear.

Brackets, ``apply`` and both frame conversions run on one kernel,
:func:`mclab.poly.mul_acc`, which adds a product into a plain term dict;
derivatives come from :func:`mclab.poly.diff_terms`, for a bracket out of
each field's table of partials, built once per field.  Each result
component is accumulated in its own dict and becomes a ``Poly`` once,
through :func:`mclab.poly.finish`, which is where its scalars are made
canonical (:func:`mclab.poly.exact`).  The kernel drops a cancelled term
at once, so a bracket that cancels leaves an empty component, which the
field drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poly import Poly, diff_terms, finish, mul_acc


@dataclass
class PolyVectorField:
    chart: "Chart"
    frame: str                       # "invariant" | "coordinate"
    components: dict[int, Poly]      # positive-root id -> polynomial
    slice_roots: frozenset[int] | None = None

    def __post_init__(self):
        self.components = {
            k: p for k, p in self.components.items() if not p.is_zero()
        }

    # ---- basic algebra ---------------------------------------------------
    def _zero(self) -> Poly:
        return Poly.zero(self.chart.nvars)

    def component(self, root_id: int) -> Poly:
        return self.components.get(root_id, self._zero())

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.frame != other.frame or self.chart is not other.chart:
            raise ValueError("cannot add fields on different charts or frames")
        keys = set(self.components) | set(other.components)
        return PolyVectorField(
            self.chart, self.frame,
            {k: self.component(k) + other.component(k) for k in keys},
            slice_roots=self.slice_roots)

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (other * -1)

    def __mul__(self, c) -> "PolyVectorField":
        return PolyVectorField(
            self.chart, self.frame,
            {k: p * c for k, p in self.components.items()},
            slice_roots=self.slice_roots)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return (self.frame == other.frame
                and self.components == other.components)

    # ---- frame conversion --------------------------------------------------
    def _finish(self, frame: str, acc: dict[int, dict]) -> "PolyVectorField":
        """The field, on this one's chart and slice, whose components are
        the accumulated term dicts ``acc``."""
        nvars = self.chart.nvars
        return PolyVectorField(
            self.chart, frame, {k: finish(nvars, t) for k, t in acc.items()},
            slice_roots=self.slice_roots)

    def to_coordinate(self) -> "PolyVectorField":
        if self.frame == "coordinate":
            return self
        frame_rows = self.chart.frame_components(self.slice_roots)
        acc: dict[int, dict] = {}
        for gamma, f in self.components.items():
            for j, a in frame_rows[gamma].items():
                mul_acc(acc.setdefault(j, {}), f.terms, a.terms)
        return self._finish("coordinate", acc)

    def to_invariant(self) -> "PolyVectorField":
        """Peel the frame rows off in height order: the row of X_gamma has
        1 at gamma and otherwise only higher coordinates, so the residual
        coefficient of d/dx_gamma is the X_gamma component once every
        lower row is subtracted."""
        if self.frame == "invariant":
            return self
        frame_rows = self.chart.frame_components(self.slice_roots)
        labels = (sorted(self.slice_roots) if self.slice_roots is not None
                  else list(range(self.chart.algebra.rs.n_pos)))
        labels.sort(key=lambda g: self.chart.algebra.rs.root(g).height)
        nvars = self.chart.nvars
        residual = {k: dict(p.terms) for k, p in self.components.items()}
        out: dict[int, Poly] = {}
        for gamma in labels:
            f = finish(nvars, residual.pop(gamma, {}))
            if f.terms:
                out[gamma] = f
                for j, a in frame_rows[gamma].items():
                    if j != gamma:
                        mul_acc(residual.setdefault(j, {}), f.terms, a.terms,
                                -1)
        if any(residual.values()):
            raise ValueError("field has components outside the frame span")
        return PolyVectorField(self.chart, "invariant", out,
                               slice_roots=self.slice_roots)

    # ---- differential operator ----------------------------------------------
    def apply(self, f: Poly) -> Poly:
        """Apply the field to a function of the chart coordinates."""
        acc: dict = {}
        for j, comp in self.to_coordinate().components.items():
            d = diff_terms(f.terms, j)
            if d:
                mul_acc(acc, comp.terms, d)
        return finish(self.chart.nvars, acc)

    @cached_property
    def partials(self) -> dict[int, list[tuple[int, dict]]]:
        """Per chart variable v, the nonzero d/dx_v of the components as
        (label, term dict) pairs in component order, built once per field:
        a bracket table differentiates each field against every other."""
        out: dict[int, list[tuple[int, dict]]] = {}
        for k, p in self.components.items():
            for v in sorted({v for m in p.terms for v, e in enumerate(m) if e}):
                out.setdefault(v, []).append((k, diff_terms(p.terms, v)))
        return out

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Commutator [self, other] in the coordinate frame:
        [a, b]_k = sum_j a_j d_j b_k - b_j d_j a_k, each component
        accumulated into one term dict, the derivatives read from
        :attr:`partials`."""
        a = self.to_coordinate()
        b = other.to_coordinate()
        acc: dict[int, dict] = {}
        for x, y, sign in ((a, b, 1), (b, a, -1)):
            partials = y.partials
            for j, xj in x.components.items():
                for k, d in partials.get(j, ()):
                    mul_acc(acc.setdefault(k, {}), xj.terms, d, sign)
        return self._finish("coordinate", acc)

    # ---- rendering ----------------------------------------------------------
    def render(self) -> dict[str, str]:
        names = self.chart.var_names
        return {
            self.chart.algebra.rs.root_name(k): p.render(names)
            for k, p in sorted(self.components.items())
        }

    def __repr__(self):
        return f"PolyVectorField({self.frame}, {self.render()})"
