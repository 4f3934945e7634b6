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
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly


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
    def to_coordinate(self) -> "PolyVectorField":
        if self.frame == "coordinate":
            return self
        frame_rows = self.chart.frame_components(self.slice_roots)
        acc: dict[int, Poly] = {}
        for gamma, f in self.components.items():
            for j, a in frame_rows[gamma].items():
                acc[j] = acc.get(j, self._zero()) + f * a
        return PolyVectorField(self.chart, "coordinate", acc,
                               slice_roots=self.slice_roots)

    def to_invariant(self) -> "PolyVectorField":
        if self.frame == "invariant":
            return self
        frame_rows = self.chart.frame_components(self.slice_roots)
        labels = (sorted(self.slice_roots) if self.slice_roots is not None
                  else list(range(self.chart.algebra.rs.n_pos)))
        labels.sort(key=lambda g: self.chart.algebra.rs.root(g).height)
        residual = dict(self.components)
        out: dict[int, Poly] = {}
        for gamma in labels:
            f = residual.pop(gamma, self._zero())
            if not f.is_zero():
                out[gamma] = f
                for j, a in frame_rows[gamma].items():
                    if j == gamma:
                        continue
                    residual[j] = residual.get(j, self._zero()) - f * a
        if any(not p.is_zero() for p in residual.values()):
            raise ValueError("field has components outside the frame span")
        return PolyVectorField(self.chart, "invariant", out,
                               slice_roots=self.slice_roots)

    # ---- differential operator ----------------------------------------------
    def apply(self, f: Poly) -> Poly:
        """Apply the field to a function of the chart coordinates."""
        coord = self.to_coordinate()
        out = Poly.zero(self.chart.nvars)
        for root_id, comp in coord.components.items():
            j = self.chart.coord_index(root_id)
            out = out + comp * f.diff(j)
        return out

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Commutator [self, other] in the coordinate frame."""
        a = self.to_coordinate()
        b = other.to_coordinate()
        keys = set(a.components) | set(b.components)
        out: dict[int, Poly] = {}
        for k in keys:
            out[k] = a.apply(b.component(k)) - b.apply(a.component(k))
        return PolyVectorField(self.chart, "coordinate", out,
                               slice_roots=self.slice_roots)

    # ---- rendering ----------------------------------------------------------
    def render(self) -> dict[str, str]:
        names = self.chart.var_names
        return {
            self.chart.algebra.rs.root_name(k): p.render(names)
            for k, p in sorted(self.components.items())
        }

    def __repr__(self):
        return f"PolyVectorField({self.frame}, {self.render()})"
