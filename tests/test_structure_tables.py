"""Structure tables of the split algebras.

The library derives the root functionals, the structure constants, the
Cartan brackets, the theta-scalars and the adjoint realization from the
sparse entry maps of the basis, bracketing each unordered root pair
once and recomposing each bracket as a multiple of one basis element;
only [X_a, X_-a] is decomposed.  Here they are compared with the dense
derivation (full Fraction matrix products, each result solved for its
coordinates over all basis matrices), with the sparse derivation that
decomposes every bracket (``oracles.decomposition_tables``) and with the
one over every ordered root pair, checked for antisymmetry and the
Jacobi identity on larger ranks, and every derivation check is shown to
fire on a broken realization.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations

import pytest

from mclab import liealg, linalg
from mclab.liealg import (LieAlgebraError, Realization, SplitLieAlgebra,
                          _sparse_bracket, build_sl, build_sp)

from conftest import dense, frac_identity, mat_eq, mat_scale, mat_sub
from oracles import (coordinates_in_span, decomposition_tables,
                     unipotent_inverse)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def _dense_bracket(a, b):
    return mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


class DenseOracle:
    """The tables by dense matrix products and dense decomposition."""

    def __init__(self, rs, real):
        self.basis = [dense(e, real.size) for e in real.entries]
        self._flat = [[x for row in b for x in row] for b in self.basis]
        self._derive(rs)

    def decompose(self, m):
        coeffs = coordinates_in_span(self._flat,
                                     [x for row in m for x in row])
        assert coeffs is not None, "element outside the algebra"
        return coeffs

    def _derive(self, rs):
        rank = rs.rank

        def full(root_id):
            return rank + root_id

        self.functional = []
        for r in range(rs.n_pos):
            vals = []
            x_r = self.basis[full(r)]
            for i in range(rank):
                comm = _dense_bracket(self.basis[i], x_r)
                target = self.decompose(comm)[full(r)]
                if not mat_eq(comm, mat_scale(x_r, target)):
                    raise LieAlgebraError("Cartan element is not diagonal")
                vals.append(target)
            self.functional.append(tuple(vals))
        self.c, self.h_of_bracket = {}, {}
        nroots = 2 * rs.n_pos
        for a in range(nroots):
            for b in range(nroots):
                s = rs.add(a, b)
                coeffs = self.decompose(_dense_bracket(
                    self.basis[full(a)],
                    self.basis[full(b)]))
                if s is not None:
                    if any(x for k, x in enumerate(coeffs)
                           if k != full(s)):
                        raise LieAlgebraError("bracket leaves its root space")
                    if coeffs[full(s)]:
                        self.c[(a, b)] = coeffs[full(s)]
                elif rs.neg(a) == b:
                    if a < rs.n_pos:
                        self.h_of_bracket[a] = tuple(coeffs[:rank])
                    if any(coeffs[rank:]):
                        raise LieAlgebraError("[X_a, X_-a] not in the Cartan")
                elif any(coeffs):
                    raise LieAlgebraError("bracket of non-summing roots nonzero")
        self.theta_scalar = {}
        for a in range(nroots):
            m = self.basis[full(a)]
            coeffs = self.decompose(
                mat_scale([list(r) for r in zip(*m)], Q(-1)))
            tgt = full(rs.neg(a))
            if any(x for k, x in enumerate(coeffs) if k != tgt):
                raise LieAlgebraError("theta does not map root space to opposite")
            self.theta_scalar[a] = coeffs[tgt]

    def ad_matrices(self):
        """ad(e_i) with column k the coordinates of [e_i, e_k]."""
        out = []
        for x in self.basis:
            cols = [self.decompose(_dense_bracket(x, b)) for b in self.basis]
            out.append([list(row) for row in zip(*cols)])
        return out


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sp2", "sp3"])
def test_tables_match_dense_oracle(name, request):
    alg = request.getfixturevalue(name)
    oracle = DenseOracle(alg.rs, alg.realization)
    assert alg.functional == oracle.functional
    # values and key order: the JSON output follows insertion order
    assert list(alg.c.items()) == list(oracle.c.items())
    assert list(alg.h_of_bracket.items()) == list(oracle.h_of_bracket.items())
    assert list(alg.theta_scalar.items()) == list(oracle.theta_scalar.items())
    ad = alg.ad_realization()
    assert [dense(e, ad.size) for e in ad.entries] == oracle.ad_matrices()
    assert all(all(e.values()) for e in ad.entries)
    # the trace form over the entries of m1 is tr(m1 m2)
    entries = alg.realization.entries
    for e1, m1 in zip(entries, oracle.basis):
        for e2, m2 in zip(entries, oracle.basis):
            prod = linalg.mat_mul(m1, m2)
            assert alg.trace_form(e1, e2) == sum(
                (prod[i][i] for i in range(len(prod))), Q(0))


# ---------------------------------------------------------------------------
# structure identities on larger ranks
# ---------------------------------------------------------------------------

def _table_brackets(alg):
    """[e_i, e_j] over the full basis as sparse coefficient maps, read
    from ``functional``, ``c`` and ``h_of_bracket`` alone."""
    rs, rank = alg.rs, alg.rank
    nroots = 2 * rs.n_pos
    table = [[{} for _ in range(alg.dim)] for _ in range(alg.dim)]
    for a in range(nroots):
        ia = alg.full_index(a)
        for i in range(rank):
            unit = [Q(int(k == i)) for k in range(rank)]
            v = alg.alpha_value(a, unit)
            if v:
                table[i][ia] = {ia: v}
                table[ia][i] = {ia: -v}
        for b in range(nroots):
            s = rs.add(a, b)
            if s is not None:
                c = alg.c.get((a, b), Q(0))
                table[ia][alg.full_index(b)] = {alg.full_index(s): c} if c else {}
            elif rs.neg(a) == b:
                h = (alg.h_of_bracket[a] if a < rs.n_pos
                     else tuple(-x for x in alg.h_of_bracket[b]))
                table[ia][alg.full_index(b)] = {k: x for k, x in enumerate(h)
                                                if x}
    return table


def _bracket(table, u, v):
    out: dict[int, Q] = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, z in table[i][j].items():
                out[k] = out.get(k, 0) + x * y * z
    return {k: x for k, x in out.items() if x}


@pytest.fixture(scope="module", params=["sl6", "sp4"])
def large_algebra(request):
    return build_sl(6) if request.param == "sl6" else build_sp(4)


def test_structure_identities_large_rank(large_algebra):
    alg = large_algebra
    rs = alg.rs
    ids = range(2 * rs.n_pos)
    for a in ids:
        for b in ids:
            assert alg.c.get((a, b), Q(0)) == -alg.c.get((b, a), Q(0))
    table = _table_brackets(alg)
    unit = [{k: Q(1)} for k in range(alg.dim)]
    assert not any(table[i][i] for i in range(alg.dim))
    for i, j in combinations(range(alg.dim), 2):
        assert table[i][j] == {k: -x for k, x in table[j][i].items()}
    # with antisymmetry, the cyclic Jacobi sum is alternating, so
    # increasing triples cover every triple
    for i, j, k in combinations(range(alg.dim), 3):
        ei, ej, ek = unit[i], unit[j], unit[k]
        total: dict[int, Q] = {}
        for term in (_bracket(table, ei, table[j][k]),
                     _bracket(table, ej, table[k][i]),
                     _bracket(table, ek, table[i][j])):
            for t, x in term.items():
                total[t] = total.get(t, 0) + x
        assert not any(total.values()), (i, j, k)
    # the adjoint realization carries the same brackets
    ad = alg.ad_realization()
    for i in range(alg.dim):
        m = dense(ad.entries[i], ad.size)
        for j in range(alg.dim):
            assert {k: m[k][j] for k in range(alg.dim) if m[k][j]} == table[i][j]


# ---------------------------------------------------------------------------
# half table against the full ordered-pair derivation
# ---------------------------------------------------------------------------

def _full_pair_tables(alg):
    """``c``, ``h_of_bracket`` and ``theta_scalar`` with every ordered
    root pair (a, b) bracketed and decomposed, in the full loop order."""
    rs, real = alg.rs, alg.realization
    entries = real.entries
    c, h_of_bracket, theta = {}, {}, {}
    nroots = 2 * rs.n_pos
    for a in range(nroots):
        for b in range(nroots):
            s = rs.add(a, b)
            coeffs = real.decompose(_sparse_bracket(
                entries[alg.full_index(a)], entries[alg.full_index(b)]))
            if s is not None and coeffs[alg.full_index(s)]:
                c[(a, b)] = coeffs[alg.full_index(s)]
            elif s is None and rs.neg(a) == b and a < rs.n_pos:
                h_of_bracket[a] = tuple(coeffs[:alg.rank])
    for a in range(nroots):
        th = {(j, i): -x for (i, j), x in entries[alg.full_index(a)].items()}
        theta[a] = real.decompose(th)[alg.full_index(rs.neg(a))]
    return c, h_of_bracket, theta


def _assert_half_tables_match(alg):
    c, h_of_bracket, theta = _full_pair_tables(alg)
    # values and key order: the JSON output follows insertion order
    assert list(alg.c.items()) == list(c.items())
    assert list(alg.h_of_bracket.items()) == list(h_of_bracket.items())
    assert list(alg.theta_scalar.items()) == list(theta.items())


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "sp2", "sp3"])
def test_half_tables_match_full_pair_derivation(name, request):
    _assert_half_tables_match(request.getfixturevalue(name))


def test_half_tables_match_full_pair_derivation_large_rank(large_algebra):
    _assert_half_tables_match(large_algebra)


@pytest.mark.parametrize("name", ["sl3", "sp2"])
def test_root_pairs_bracketed_once(name, request, monkeypatch):
    """Construction brackets each unordered root pair once, as (a, b)
    with a < b, and never a root with itself."""
    alg = request.getfixturevalue(name)
    real = alg.realization
    index = {id(e): k for k, e in enumerate(real.entries)}
    seen = []

    def counting(a, b):
        seen.append((index[id(a)], index[id(b)]))
        return _sparse_bracket(a, b)

    monkeypatch.setattr(liealg, "_sparse_bracket", counting)
    SplitLieAlgebra(alg.rs, alg.family, alg.param, real,
                    normalized=alg.normalized,
                    killing_factor=alg.killing_factor,
                    b0_lambda=alg.b0_lambda)
    root_pairs = [(i, j) for i, j in seen if i >= alg.rank and j >= alg.rank]
    assert root_pairs == list(combinations(range(alg.rank, alg.dim), 2))


def _typed(table):
    """(key, value, type) of every entry, in insertion order."""
    return [(k, v, type(v)) for k, v in table.items()]


@pytest.mark.parametrize("builder, n", [
    *((build_sl, n) for n in range(2, 9)),
    *((build_sp, l) for l in range(2, 6)),
])
def test_tables_match_decomposition_oracle(builder, n):
    """Recomposition gives the tables that decomposing every bracket
    gives: values, int or Fraction types and key order."""
    alg = builder(n)
    functional, c, h_of_bracket, theta = decomposition_tables(
        alg.rs, alg.realization)
    assert [[(v, type(v)) for v in f] for f in alg.functional] == \
        [[(v, type(v)) for v in f] for f in functional]
    assert _typed(alg.c) == _typed(c)
    assert [(k, [(x, type(x)) for x in v])
            for k, v in alg.h_of_bracket.items()] == \
        [(k, [(x, type(x)) for x in v]) for k, v in h_of_bracket.items()]
    assert _typed(alg.theta_scalar) == _typed(theta)


@pytest.mark.parametrize("name", ["sl3", "sl4", "sp2", "sp3"])
def test_only_opposite_root_pairs_decomposed(name, request, monkeypatch):
    """Construction decomposes [X_a, X_-a] for each positive root a, with
    its membership checked, and nothing else: every other table entry is
    recomposed."""
    alg = request.getfixturevalue(name)
    real = alg.realization
    entries = real.entries
    decomposed = []
    coordinates = Realization.coordinates

    def recording(self, m):
        decomposed.append(m)
        return coordinates(self, m)

    def refused(self, m):
        raise AssertionError("unchecked decomposition during construction")

    monkeypatch.setattr(Realization, "coordinates", recording)
    monkeypatch.setattr(Realization, "decompose", refused)
    SplitLieAlgebra(alg.rs, alg.family, alg.param, real,
                    normalized=alg.normalized,
                    killing_factor=alg.killing_factor,
                    b0_lambda=alg.b0_lambda)
    rs = alg.rs
    assert decomposed == [
        _sparse_bracket(entries[alg.full_index(a)],
                        entries[alg.full_index(rs.neg(a))])
        for a in range(rs.n_pos)]


# ---------------------------------------------------------------------------
# every derivation check fires on a broken realization
# ---------------------------------------------------------------------------

def _conjugate(m, g, g_inv):
    prod = linalg.mat_mul(linalg.mat_mul(g, dense(m, len(g))), g_inv)
    return {(i, j): x for i, row in enumerate(prod)
            for j, x in enumerate(row) if x}


def _mutated_sl3(kind):
    real = build_sl(3).realization
    cartan, pos, neg = real.cartan, real.entries[2:5], real.entries[5:]
    if kind == "not a weight vector":
        pos[0] = {**pos[0], **pos[1]}                   # E01 + E12
    elif kind == "leaves its root space":
        pos[2], neg[0] = neg[0], pos[2]                 # X_{a+b} <-> X_{-a}
    elif kind == "not in the Cartan":
        neg = [neg[2], neg[0], neg[1]]                  # X_{-a} = E20
    elif kind == "non-summing nonzero":
        neg[1], neg[2] = neg[2], neg[1]                 # X_{-b} = E20
    elif kind == "theta":
        # conjugating by a non-orthogonal g keeps every bracket but not
        # theta(m) = -m^T
        g = frac_identity(3)
        g[0][1] = Q(1)
        g_inv = unipotent_inverse(g, frac_identity(3))
        cartan, pos, neg = ([_conjugate(m, g, g_inv) for m in ms]
                            for ms in (cartan, pos, neg))
    return Realization(3, cartan, pos, neg)


@pytest.mark.parametrize("kind, message", [
    ("not a weight vector", "Cartan element is not diagonal"),
    ("leaves its root space", "bracket leaves its root space"),
    ("not in the Cartan", r"\[X_a, X_-a\] not in the Cartan"),
    ("non-summing nonzero", "bracket of non-summing roots nonzero"),
    ("theta", "theta does not map root space to opposite"),
])
def test_derivation_checks_reject_broken_realization(kind, message, sl3):
    real = _mutated_sl3(kind)
    with pytest.raises(LieAlgebraError, match=message):
        SplitLieAlgebra(sl3.rs, "sl", 3, real, normalized=True,
                        killing_factor=Q(6), b0_lambda=Q(1))
    # the dense derivation agrees that the realization is broken
    with pytest.raises(LieAlgebraError, match=message):
        DenseOracle(sl3.rs, real)


def test_opposite_bracket_outside_the_algebra_rejected(sl2):
    """A basis that is not closed: [X_a, X_-a] = H + E02 reads as H at
    the decomposition positions (0, 0), (0, 1) and (1, 0), so only the
    recomposition of its Cartan part shows that it leaves the algebra."""
    real = Realization(3, [{(0, 0): 1, (1, 1): -1}], [{(0, 1): 1}],
                       [{(1, 0): 1, (1, 2): 1}])
    comm = _sparse_bracket(real.entries[1], real.entries[2])
    assert comm == {(0, 0): 1, (1, 1): -1, (0, 2): 1}
    assert real.decompose(comm) == [1, 0, 0]
    with pytest.raises(LieAlgebraError,
                       match=r"\[X_a, X_-a\] not in the Cartan"):
        SplitLieAlgebra(sl2.rs, "sl", 2, real, normalized=True,
                        killing_factor=Q(4), b0_lambda=Q(1))


def test_realization_rejects_entry_outside_matrix():
    # (0, 2) of a 2 x 2 matrix would flatten to 2 = (1, 0) and alias E10
    with pytest.raises(LieAlgebraError, match=r"\(0, 2\) outside 2 x 2"):
        Realization(2, [{(0, 0): 1, (1, 1): -1}], [{(0, 1): 1}],
                    [{(0, 2): 1}])
