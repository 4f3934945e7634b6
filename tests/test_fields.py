from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mclab.fields import PolyVectorField
from mclab.hessenberg import type_p_subset
from mclab.mcfields import solve_mc, tau
from mclab.poly import Poly


def test_frame_conversion_round_trip(sl4, chart_sl4):
    for k in range(sl4.dim):
        f = tau(sl4, chart_sl4, sl4.realization.entries[k])
        back = f.to_coordinate().to_invariant()
        assert back.components == f.components


def test_frame_conversion_round_trip_on_slice(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    sol = solve_mc(hs, chart_sl4, degree_bound=4)
    for f in sol.basis:
        assert f.to_coordinate().to_invariant().components == f.components


def test_field_arithmetic(chart_sl3):
    frame = [chart_sl3.frame_field(r) for r in chart_sl3.coord_roots]
    x, y = frame[0], frame[1]
    s = x + y * Q(2)
    assert s.component(chart_sl3.coord_roots[0]) == Poly.const(3, 1)
    assert (s - x * Q(1)).components == (y * 2).components
    assert (x * Q(0)).is_zero()


def test_apply_is_derivation(chart_sl3):
    frame = [chart_sl3.frame_field(r) for r in chart_sl3.coord_roots]
    y = frame[1]
    p = Poly.var(3, 0) * Poly.var(3, 2)
    q = Poly.var(3, 1) + 1
    assert y.apply(p * q) == y.apply(p) * q + p * y.apply(q)


def test_conversion_rejects_outside_span(sl4, chart_sl4):
    hs = type_p_subset(sl4.rs, 2)
    # a coordinate field pointing along a complement direction cannot be
    # written in the slice frame
    w = sl4.rs.highest_root.id
    bad = PolyVectorField(chart_sl4, "coordinate",
                          {w: Poly.const(chart_sl4.nvars, 1)},
                          slice_roots=hs.R)
    with pytest.raises(ValueError):
        bad.to_invariant()


def test_render(chart_sp2):
    frame = [chart_sp2.frame_field(r) for r in chart_sp2.coord_roots]
    assert frame[1].render() == {"01": "1", "11": "u", "21": "1/2*u^2"}
