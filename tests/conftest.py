from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mclab import linalg
from mclab.liealg import build_sl, build_sp, matrix_chart
from mclab.rootsys import build_root_system


@pytest.fixture(scope="session")
def sl2():
    return build_sl(2)


@pytest.fixture(scope="session")
def sl3():
    return build_sl(3)


@pytest.fixture(scope="session")
def sl4():
    return build_sl(4)


@pytest.fixture(scope="session")
def sl5():
    return build_sl(5)


@pytest.fixture(scope="session")
def sp2():
    return build_sp(2)


@pytest.fixture(scope="session")
def sp3():
    return build_sp(3)


@pytest.fixture(scope="session")
def chart_sl3(sl3):
    return matrix_chart(sl3)


@pytest.fixture(scope="session")
def chart_sl4(sl4):
    return matrix_chart(sl4)


@pytest.fixture(scope="session")
def chart_sp2(sp2):
    return matrix_chart(sp2)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C", 2)


# ---------------------------------------------------------------------------
# matrices and Cartan elements
# ---------------------------------------------------------------------------

def mat_eq(a, b) -> bool:
    """Entrywise equality of two matrices."""
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def frac_identity(n: int):
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def dense(entry_map, size):
    """The size x size Fraction matrix of a sparse entry map {(i, j): value},
    for the oracles that need whole matrices."""
    out = [[Q(0)] * size for _ in range(size)]
    for (i, j), x in entry_map.items():
        out[i][j] = x
    return out


def sparse(m):
    """The entry map {(i, j): value} of a dense matrix, zeros dropped: the
    form in which the package takes an algebra element."""
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)
            if x != 0}


def cartan_element(alg, coeffs):
    """The entry map of sum_i coeffs[i] H_i over the realization's Cartan
    basis, zeros dropped."""
    out = {}
    for c, h in zip(coeffs, alg.realization.cartan):
        for p, x in h.items():
            out[p] = out.get(p, 0) + Q(c) * x
    return {p: x for p, x in out.items() if x}


def solve_H0(alg):
    """Cartan coefficients of H_0 with delta(H_0) = -1 for all simples."""
    simples = alg.rs.simple_ids()
    a = [[alg.functional[s][j] for j in range(alg.rank)] for s in simples]
    sol = linalg.solve(a, [Q(-1)] * alg.rank)
    assert sol is not None, "Cartan matrix unexpectedly singular"
    return tuple(sol)


# ---------------------------------------------------------------------------
# Dynkin-flip alignment
#
# For family A the diagram admits the order-reversing symmetry
# delta_i -> delta_{l+1-i}.  Several reference tables for sl(n) are stated
# in the flipped convention relative to this package's frames, so aligned
# comparisons relabel roots (and chart coordinates) through the flip.
# ---------------------------------------------------------------------------

def canonical_terms(*polys) -> bool:
    """Every coefficient follows the scalar rule: an int when integral,
    else a Fraction with denominator > 1."""
    return all(type(c) is int or c.denominator > 1
               for p in polys for c in p.terms.values())


def flip_root(rs, root_id: int) -> int:
    r = rs.root(root_id)
    flipped = tuple(reversed(r.coeffs))
    out = rs.id_of(flipped)
    assert out is not None
    return out


def flip_poly(chart, p):
    """Relabel chart coordinates through the flip (A-family charts)."""
    rs = chart.algebra.rs
    mapping = [flip_root(rs, r) for r in range(chart.nvars)]
    return p.lift(chart.nvars, mapping)


def flip_coordinate_field(chart, field):
    """Pushforward along the coordinate relabeling diffeomorphism: flip
    both the component labels and the variables (coordinate frame)."""
    from mclab.fields import PolyVectorField
    rs = chart.algebra.rs
    coord = field.to_coordinate()
    comps = {flip_root(rs, g): flip_poly(chart, p)
             for g, p in coord.components.items()}
    sl = field.slice_roots
    if sl is not None:
        sl = frozenset(flip_root(rs, g) for g in sl)
    return PolyVectorField(chart, "coordinate", comps, slice_roots=sl)


def flip_component_table(chart, components):
    """Relabel an invariant-component table {root: poly} through the flip;
    the result is to be read against the flipped convention's frame."""
    rs = chart.algebra.rs
    return {flip_root(rs, g): flip_poly(chart, p)
            for g, p in components.items()}


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary
# ---------------------------------------------------------------------------

_ACCEPTANCE: list[tuple[str, str]] = []


def record_acceptance(criterion: str, message: str) -> None:
    _ACCEPTANCE.append((criterion, message))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, message in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{criterion}: {message}")
