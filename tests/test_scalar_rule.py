"""The scalar rule on whole runs: every exact scalar the library keeps is
an int when integral, a Fraction with denominator > 1 otherwise, and
never a binary floating-point number.

Each case runs one CLI command's library calls and walks everything the
results reach: every Poly's terms, the realization entry maps, the
structure constants, the root functionals, the realization's SpanBasis
inverse rows, the solution basis and the bracket table.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mclab import hessdefs as hd
from mclab import mcfields as mc
from mclab import polybasis as pb
from mclab.cli import algebra_for, parse_hessenberg_spec
from mclab.liealg import default_chart, matrix_chart
from mclab.poly import Poly


def _walk(*roots):
    """(ids of the containers and objects reached, scalars, polys) from
    ``roots``: through dict keys and values, sequences and sets, Poly
    terms and the attributes of mclab objects."""
    seen: set[int] = set()
    scalars, polys = [], []
    stack = list(roots)
    while stack:
        x = stack.pop()
        t = type(x)
        if t in (int, Q, float):
            scalars.append(x)
            continue
        if id(x) in seen:
            continue
        seen.add(id(x))
        if t is Poly:
            polys.append(x)
            stack.extend(x.terms.values())
        elif t is dict:
            stack.extend(x)
            stack.extend(x.values())
        elif t in (list, tuple, set, frozenset):
            stack.extend(x)
        elif t.__module__.startswith("mclab") and hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return seen, scalars, polys


def _mc(family, rank, hessenberg):
    alg = algebra_for(family, rank)
    chart = default_chart(alg)
    spec = parse_hessenberg_spec(alg.rs, hessenberg)
    sol = mc.solve_mc(spec, chart)
    sol.compute_brackets()
    comparison = mc.compare_with_normalizer(spec, chart, sol)
    summary = sol.algebra_summary()
    wanted = [sol.basis, sol.bracket_table]
    return alg, [sol, comparison, summary], wanted


def _polybasis(family, rank):
    alg = algebra_for(family, rank)
    basis = pb.build_basis(alg)
    checks = pb.verify_against_oracle(basis)
    return alg, [basis, checks], [basis.table]


def _hessdefs(family, rank, hessenberg):
    alg = algebra_for(family, rank)
    spec = parse_hessenberg_spec(alg.rs, hessenberg)
    eqs = hd.defining_equations(alg, matrix_chart(alg), spec, None)
    cert = hd.smoothness_certificate(eqs)
    return alg, [eqs, cert, eqs.jacobian()], [eqs.polynomials]


RUNS = {
    "mc A 3 --hessenberg type-3": lambda: _mc("A", 3, "type-3"),
    "mc C 2 --hessenberg a,b,a+b": lambda: _mc("C", 2, "a,b,a+b"),
    "polybasis A 4": lambda: _polybasis("A", 4),
    "hessdefs A 4 --hessenberg type-3 --symbolic":
        lambda: _hessdefs("A", 4, "type-3"),
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_scalar_is_canonical(command):
    alg, results, wanted = RUNS[command]()
    real = alg.realization
    wanted += [alg.c, alg.functional, alg.theta_scalar, real.entries,
               real._span.inverse_rows]
    seen, scalars, polys = _walk(alg, *results)
    assert all(id(w) in seen for w in wanted)
    assert polys
    floats = [x for x in scalars if type(x) is float]
    assert not floats
    integral = [x for x in scalars if type(x) is Q and x.denominator == 1]
    assert not integral, f"{len(integral)} integral Fractions, e.g. " \
        f"{integral[:3]}"
