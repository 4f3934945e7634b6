from __future__ import annotations

import json
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.rootsys import RootSystem, RootSystemError, build_root_system
from oracles import EuclideanRootSystem

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4),
             ("D", 3), ("D", 4)]


ORACLE_SYSTEMS = ([("A", l) for l in range(1, 9)]
                  + [(f, l) for f in "BC" for l in range(2, 9)]
                  + [("D", l) for l in range(3, 9)])


def brute_force_chain(rs, beta, alpha):
    """Exhaustive search over simple-root sequences with root partial sums."""
    target = rs.root(alpha).coeffs
    simples = rs.simple_ids()
    frontier = [(rs.root(beta).coeffs, [])]
    while frontier:
        cur, acc = frontier.pop()
        if cur == target:
            return acc
        for d in simples:
            nxt = tuple(x + y for x, y in
                        zip(cur, rs.root(d).coeffs))
            if any(n > t for n, t in zip(nxt, target)):
                continue
            if rs.id_of(nxt) is not None:
                frontier.append((nxt, acc + [d]))
    return None


def test_build_examples():
    a3 = build_root_system("A", 3)
    assert a3.n_pos == 6
    assert a3.highest_root.coeffs == (1, 1, 1)

    c2 = build_root_system("C", 2)
    assert [r.coeffs for r in c2.positive_roots] == \
        [(1, 0), (0, 1), (1, 1), (2, 1)]

    a1 = build_root_system("A", 1)
    assert a1.n_pos == 1 and a1.highest_root.coeffs == (1,)


def test_build_rejects_bad_input():
    with pytest.raises(RootSystemError):
        build_root_system("E", 6)
    with pytest.raises(RootSystemError):
        build_root_system("D", 2)
    with pytest.raises(RootSystemError):
        build_root_system("B", 1)


def test_build_checks_cartan_adjacency(monkeypatch):
    # the Cartan adjacency must agree with "delta + delta' is a root"; the
    # check runs once, when the root system is built
    monkeypatch.setattr(RootSystem, "adjacent_simples",
                        lambda self, i, j: False)
    with pytest.raises(RootSystemError, match="Cartan adjacency"):
        build_root_system("A", 2)


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_root_data_match_euclidean_oracle(family, rank):
    """The Cartan matrix, the positive roots in contract order, every
    pairing (an int), the sum table with its keys in order and the
    omega-decomposition equal those of the Euclidean construction."""
    rs = build_root_system(family, rank)
    ref = EuclideanRootSystem(family, rank)
    assert rs.cartan_matrix == ref.cartan_matrix
    assert [r.coeffs for r in rs.positive_roots] == ref.positive_roots
    for a in range(2 * rs.n_pos):
        for b in range(2 * rs.n_pos):
            p = rs.pairing(a, b)
            assert type(p) is int and p == ref.pairing(a, b)
    assert list(rs.sum_table.items()) == list(ref.sum_table().items())
    od = rs.omega_decompose()
    split = ref.omega_decomposition()
    assert od.sigma0 == split.get(0, set())
    assert od.sigma_half == split.get(1, set())
    assert od.sigma1 == split[2] == {rs.highest_root.id}
    assert set(split) <= {0, 1, 2}


def test_root_counts_match_classical_formulas():
    for l in range(1, 5):
        assert build_root_system("A", l).n_pos == l * (l + 1) // 2
    for l in range(2, 5):
        assert build_root_system("C", l).n_pos == l * l
        assert build_root_system("B", l).n_pos == l * l
    for l in range(3, 5):
        assert build_root_system("D", l).n_pos == l * (l - 1)


def test_contract_order_is_height_then_lex():
    rs = build_root_system("A", 3)
    keys = [(r.height, tuple(-c for c in r.coeffs))
            for r in rs.positive_roots]
    assert keys == sorted(keys)


def test_heights_and_positivity_invariants():
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        for r in rs.positive_roots:
            assert all(c >= 0 for c in r.coeffs) and any(c > 0 for c in r.coeffs)
            assert r.height == sum(r.coeffs) >= 1


def test_sum_table_exhaustive():
    """The sum table, keys in order, equals the naive double loop over
    ``rs.root`` on A1-A5, B2-B4, C2-C4 and D3-D5."""
    for fam, rank in ALL_SMALL + [("A", 5), ("D", 5)]:
        rs = build_root_system(fam, rank)
        ids = range(2 * rs.n_pos)
        naive = {}
        for a, b in product(ids, ids):
            s = tuple(x + y for x, y in
                      zip(rs.root(a).coeffs, rs.root(b).coeffs))
            expected = rs.id_of(s)
            assert rs.add(a, b) == expected
            assert rs.add(a, b) == rs.add(b, a)
            if expected is not None:
                naive[a, b] = expected
        assert list(rs.sum_table.items()) == list(naive.items())


def test_highest_root_dominates():
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        w = rs.highest_root
        for r in rs.positive_roots:
            assert all(c <= t for c, t in zip(r.coeffs, w.coeffs))


def test_omega_series_property():
    # for every positive beta, omega - beta is a positive root or no root
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        w = rs.highest_root.id
        for r in rs.positive_roots:
            diff = rs.add(w, rs.neg(r.id))
            assert diff is None or diff < rs.n_pos or r.id == w


def test_chain_between_examples(a2, a3, c2):
    d1 = a2.id_of((1, 0))
    top = a2.id_of((1, 1))
    assert a2.chain_between(d1, top) == [a2.id_of((0, 1))]
    assert a2.chain_between(d1, d1) == []

    chain = c2.chain_between(c2.id_of((1, 0)), c2.id_of((2, 1)))
    cur = c2.id_of((1, 0))
    for d in chain:
        cur = c2.add(cur, d)
        assert cur is not None
    assert cur == c2.id_of((2, 1))

    assert a3.chain_between(a3.id_of((1, 0, 0)), a3.id_of((0, 1, 0))) is None


def test_chain_between_matches_brute_force():
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        for a in range(rs.n_pos):
            for b in range(rs.n_pos):
                chain = rs.chain_between(b, a)
                brute = brute_force_chain(rs, b, a)
                if not rs.leq(b, a):
                    assert chain is None
                    continue
                assert chain is not None and brute is not None
                cur = b
                for d in chain:
                    cur = rs.add(cur, d)
                    assert cur is not None
                assert cur == a


def _pairing_from_cartan(rs):
    """Independent pairing oracle: Gram matrix solved from the Cartan
    matrix and the family's squared lengths."""
    if rs.family in ("A", "D"):
        norms = [Q(2)] * rs.rank
    elif rs.family == "B":
        norms = [Q(4)] * (rs.rank - 1) + [Q(2)]
    else:
        norms = [Q(2)] * (rs.rank - 1) + [Q(4)]
    gram = [[Q(rs.cartan_matrix[i][j]) * norms[j] / 2
             for j in range(rs.rank)] for i in range(rs.rank)]

    def pair(x, y):
        return sum(Q(a) * gram[i][j] * Q(b)
                   for i, a in enumerate(x) for j, b in enumerate(y))
    return pair


def test_omega_decompose_against_cartan_pairing():
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        pair = _pairing_from_cartan(rs)
        od = rs.omega_decompose()
        w = rs.highest_root
        ww = pair(w.coeffs, w.coeffs)
        for r in rs.positive_roots:
            ratio = pair(w.coeffs, r.coeffs) / ww
            if r.id in od.sigma1:
                assert ratio == 1
            elif r.id in od.sigma_half:
                assert ratio == Q(1, 2)
            else:
                assert r.id in od.sigma0 and ratio == 0


def test_omega_decompose_examples(a2):
    od = a2.omega_decompose()
    assert od.sigma_half == {a2.id_of((1, 0)), a2.id_of((0, 1))}
    assert od.sigma0 == frozenset()
    # A_l has two simple roots paired with the highest root; B, C, D one
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        if fam == "A" and rank == 1:
            continue
        od = rs.omega_decompose()
        simples = set(rs.simple_ids())
        # D_3 is A_3 in disguise, so it shares the A-family count of two
        expected = 2 if fam == "A" or (fam, rank) == ("D", 3) else 1
        assert len(od.sigma_half & simples) == expected
        assert od.sigma1 == {rs.highest_root.id}


def test_omega_decompose_fixed_at_construction(monkeypatch):
    """One decomposition per root system: later calls return the stored
    object and pair no roots."""
    systems = [build_root_system(fam, rank) for fam, rank in ALL_SMALL]

    def no_pairing(self, a, b):
        raise AssertionError("pairing after construction")

    monkeypatch.setattr(RootSystem, "pairing", no_pairing)
    for rs in systems:
        assert rs.omega_decompose() is rs.omega_decompose()


def test_omega_series_out_of_range_fails_at_construction(monkeypatch):
    # with every pairing equal, no root pairs to 0 or half of <w, w>
    monkeypatch.setattr(RootSystem, "pairing", lambda self, a, b: Q(1))
    build_root_system("A", 1)      # the highest root alone is in range
    with pytest.raises(RootSystemError,
                       match="highest-root series out of range"):
        build_root_system("A", 2)


def test_simple_support_examples(a3, c2):
    assert a3.simple_support(a3.id_of((1, 1, 0))) == {0, 1}
    assert a3.is_connected_support(a3.id_of((1, 1, 0)))
    assert c2.simple_support(c2.id_of((2, 1))) == {0, 1}
    assert c2.is_connected_support(c2.id_of((2, 1)))


def test_all_supports_connected():
    for fam, rank in ALL_SMALL:
        rs = build_root_system(fam, rank)
        for r in rs.positive_roots:
            assert rs.is_connected_support(r.id)


def test_pairing_normalization():
    # A/D roots all have squared length 2; B/C short simples do
    for fam, rank in [("A", 3), ("D", 4)]:
        rs = build_root_system(fam, rank)
        for r in rs.positive_roots:
            assert rs.pairing(r.id, r.id) == 2
    for fam, rank in [("B", 3), ("C", 3)]:
        rs = build_root_system(fam, rank)
        lengths = {rs.pairing(r.id, r.id) for r in rs.positive_roots}
        assert lengths == {Q(2), Q(4)}
        short_simples = [s for s in rs.simple_ids()
                         if rs.pairing(s, s) == 2]
        assert short_simples


def test_serialization_canonical(a3):
    doc = a3.to_json()
    parsed = json.loads(doc)
    assert parsed["family"] == "A" and parsed["rank"] == 3
    assert parsed["positive_roots"][0]["coeffs"] == [1, 0, 0]
    assert doc == a3.to_json()   # byte-identical


def test_root_names(a3):
    assert a3.root_name(a3.id_of((1, 1, 0))) == "110"
    assert a3.root_name(a3.neg(a3.id_of((1, 1, 0)))) == "-110"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_SMALL), st.data())
def test_pairing_symmetric_and_sum_consistent(fr, data):
    rs = build_root_system(*fr)
    ids = st.integers(min_value=0, max_value=2 * rs.n_pos - 1)
    a = data.draw(ids)
    b = data.draw(ids)
    assert rs.pairing(a, b) == rs.pairing(b, a)
    s = rs.add(a, b)
    if s is not None:
        merged = tuple(x + y for x, y in
                       zip(rs.root(a).coeffs, rs.root(b).coeffs))
        assert rs.root(s).coeffs == merged
