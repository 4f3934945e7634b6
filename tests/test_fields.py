from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.fields import PolyVectorField
from mclab.hessenberg import type_p_subset
from mclab.mcfields import solve_mc, tau
from mclab.poly import Poly

from conftest import canonical_terms
from oracles import (FractionPoly, chain_apply, composition_bracket,
                     peel_to_invariant)


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


# integral and non-integral coefficients; x^2/2 differentiates to an
# integral Fraction, which the kernel must turn into an int
_coeffs = st.sampled_from([-2, -1, 1, 2, 3, Q(1, 2), Q(-1, 2), Q(3, 2),
                           Q(1, 3), Q(-2, 3)])


def _random_field(data, chart):
    """A coordinate-frame field with few, low-degree terms per component,
    so that products collide and cancel."""
    comps = {}
    for r in chart.coord_roots:
        terms = {}
        for _ in range(data.draw(st.integers(0, 3))):
            mono = tuple(data.draw(st.integers(0, 2))
                         for _ in range(chart.nvars))
            terms[mono] = data.draw(_coeffs)
        comps[r] = Poly(chart.nvars, terms)
    return PolyVectorField(chart, "coordinate", comps)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), which=st.sampled_from(["sl3", "sp2"]))
def test_kernel_matches_chained_oracles_on_random_fields(data, which,
                                                         chart_sl3,
                                                         chart_sp2):
    """Bracket, apply and both frame conversions of random coordinate
    fields on the sl(3) and sp(2) matrix charts equal the whole-polynomial
    chains, with canonical coefficients; brackets that must cancel are
    zero: [a, a], [a, c a] for a constant c, [a, b] + [b, a], and the
    Jacobi sum."""
    chart = chart_sl3 if which == "sl3" else chart_sp2
    a, b, e = (_random_field(data, chart) for _ in range(3))
    c = data.draw(_coeffs)
    ab = a.bracket(b)
    assert ab.frame == "coordinate"
    assert ab.components == composition_bracket(a, b)
    assert canonical_terms(*ab.components.values())
    assert a.bracket(a).is_zero() and a.bracket(a * c).is_zero()
    assert (ab + b.bracket(a)).is_zero()
    jacobi = (ab.bracket(e) + b.bracket(e).bracket(a)
              + e.bracket(a).bracket(b))
    assert jacobi.is_zero()
    f = e.components.get(chart.coord_roots[-1], Poly.zero(chart.nvars))
    want = chain_apply(a, FractionPoly.of(f))
    got = a.apply(f)
    assert got == Poly(want.nvars, want.terms) and canonical_terms(got)
    inv = ab.to_invariant()
    assert inv.components == peel_to_invariant(ab)
    assert canonical_terms(*inv.components.values())
    back = inv.to_coordinate()
    assert back.components == ab.components
    assert canonical_terms(*back.components.values())
