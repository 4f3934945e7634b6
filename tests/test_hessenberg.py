from __future__ import annotations

import pytest

from mclab.hessenberg import (HessenbergError, analyze, check_norma,
                              enumerate_all, type_p_subset, validate)
from mclab.liealg import build_sl, build_sp
from mclab.rootsys import build_root_system

from conftest import dense, mat_sub, sparse
from oracles import mat_prod

ENUM_SYSTEMS = [("A", 2), ("A", 3), ("A", 4),
                ("B", 3), ("C", 2), ("C", 3), ("C", 4), ("D", 4)]


def brute_force_hessenberg(rs, R):
    """Independent oracle: closure under subtracting any positive root,
    phrased through coefficient vectors instead of the sum table."""
    Rv = {rs.root(i).coeffs for i in R}
    pos = {r.coeffs for r in rs.positive_roots}
    for a in Rv:
        for b in pos:
            diff = tuple(x - y for x, y in zip(a, b))
            if diff in pos and diff not in Rv:
                return False
    return True


def test_validate_examples(a3, c2):
    hs = validate(c2.rs if hasattr(c2, "rs") else c2, {0, 1, 2})
    assert hs.C == {3}

    hs2 = validate(a3, set(range(a3.n_pos)) - {a3.highest_root.id})
    assert hs2.C == {a3.highest_root.id}

    a2 = build_root_system("A", 2)
    with pytest.raises(HessenbergError) as err:
        validate(a2, {a2.id_of((1, 1))})
    assert err.value.witness is not None


def test_type_p_examples(a3, c2):
    assert type_p_subset(a3, 2).R == frozenset(range(a3.n_pos)) - \
        {a3.highest_root.id}
    assert type_p_subset(c2, 2).R == {0, 1, 2}
    full = type_p_subset(a3, a3.highest_root.height)
    assert full.C == frozenset()
    with pytest.raises(HessenbergError):
        type_p_subset(a3, 0)


def test_enumerate_examples(c2):
    a1 = build_root_system("A", 1)
    assert [sorted(h.R) for h in enumerate_all(a1)] == [[], [0]]

    a2 = build_root_system("A", 2)
    assert len(enumerate_all(a2)) == 5

    sets = [h.R for h in enumerate_all(c2)]
    assert frozenset({0, 1, 2}) in sets

    big = build_root_system("A", 4)
    with pytest.raises(HessenbergError):
        enumerate_all(big, max_rank=3)


def test_enumeration_matches_brute_force():
    for fam, rank in ENUM_SYSTEMS:
        rs = build_root_system(fam, rank)
        listed = {h.R for h in enumerate_all(rs, max_rank=4)}
        n = rs.n_pos
        expected = set()
        for mask in range(1 << n):
            R = frozenset(i for i in range(n) if mask >> i & 1)
            if brute_force_hessenberg(rs, R):
                expected.add(R)
        assert listed == expected


def test_complement_is_ideal_exhaustive():
    for fam, rank in ENUM_SYSTEMS:
        rs = build_root_system(fam, rank)
        for hs in enumerate_all(rs, max_rank=4):
            for a in hs.C:
                for b in range(rs.n_pos):
                    s = rs.add(a, b)
                    if s is not None and s < rs.n_pos:
                        assert s in hs.C


def test_analyze_c2_example(c2):
    hs = validate(c2, {0, 1, 2})
    rep = analyze(hs)
    assert rep.maximal_roots == [c2.id_of((1, 1))]
    assert not rep.hypothesis_I
    assert rep.normalizer_support == {c2.neg(c2.id_of((0, 1)))}
    assert rep.dims["dim_q_mod_nC"] == 6
    assert rep.dims["dim_conjecture"] == 8
    assert rep.dims["dim_slice"] == 3


def test_analyze_a3_type2(a3):
    hs = type_p_subset(a3, 2)
    rep = analyze(hs)
    assert set(rep.maximal_roots) == {a3.id_of((1, 1, 0)), a3.id_of((0, 1, 1))}
    assert rep.boundary_simples == {0, 2}
    assert rep.normalizer_support == {a3.neg(a3.id_of((0, 1, 0)))}
    assert rep.dims == {"dim_slice": 5, "dim_q": 10,
                        "dim_q_mod_nC": 9, "dim_conjecture": 9}
    assert rep.hypothesis_I and rep.hypothesis_II
    assert rep.intersection == {a3.id_of((0, 1, 0))}


def test_analyze_two_zones(a3):
    hs = validate(a3, {a3.id_of((1, 0, 0)), a3.id_of((0, 0, 1))})
    rep = analyze(hs)
    assert sorted(sorted(z) for z in rep.dark_zones) == \
        [[a3.id_of((1, 0, 0))], [a3.id_of((0, 0, 1))]]


def test_shadows_cover_r():
    for fam, rank in ENUM_SYSTEMS:
        rs = build_root_system(fam, rank)
        for hs in enumerate_all(rs, max_rank=4):
            rep = analyze(hs)
            union = set()
            for s in rep.shadows.values():
                union |= s
                assert s <= hs.R
            assert union == set(hs.R)
            zone_union = set()
            for z in rep.dark_zones:
                assert not (zone_union & z)
                zone_union |= z
            assert zone_union == set(hs.R)


def test_full_set_trivial_case(a3):
    hs = validate(a3, set(range(a3.n_pos)))
    rep = analyze(hs)
    assert rep.normalizer_support == frozenset(
        range(a3.n_pos, 2 * a3.n_pos))
    assert rep.boundary_simples == frozenset()
    assert check_norma(hs, rep)


def test_check_norma_requires_hypothesis(c2):
    hs = validate(c2, {0, 1, 2})
    with pytest.raises(HessenbergError):
        check_norma(hs)
    a3 = build_root_system("A", 3)
    with pytest.raises(HessenbergError):
        check_norma(validate(a3, {a3.id_of((1, 0, 0))}))


def test_hypothesis_I_always_in_A_and_norma():
    # hypothesis (I) holds for every Hessenberg subset in family A; the
    # boundary-root equivalence needs all simple roots present
    for rank in (1, 2, 3, 4):
        rs = build_root_system("A", rank)
        simples = set(rs.simple_ids())
        for hs in enumerate_all(rs, max_rank=4):
            rep = analyze(hs)
            assert rep.hypothesis_I
            if simples <= hs.R:
                assert check_norma(hs, rep)


def test_norma_under_hypothesis_in_C():
    for rank in (2, 3, 4):
        rs = build_root_system("C", rank)
        simples = set(rs.simple_ids())
        for hs in enumerate_all(rs, max_rank=4):
            rep = analyze(hs)
            if rep.hypothesis_I and simples <= hs.R:
                assert check_norma(hs, rep)


def _brute_force_normalizer_support(algebra, hs):
    """Negative root ids whose matrix bracket with every complement root
    vector stays inside the complement ideal."""
    rs = algebra.rs
    real = algebra.realization

    def root_matrix(r):
        return dense(real.entries[algebra.full_index(r)], real.size)

    out = set()
    for a in range(rs.n_pos):
        neg = rs.neg(a)
        ok = True
        for g in hs.C:
            comm = mat_sub(mat_prod(root_matrix(neg), root_matrix(g)),
                           mat_prod(root_matrix(g), root_matrix(neg)))
            coeffs = real.decompose(sparse(comm))
            for k, c in enumerate(coeffs):
                if c == 0:
                    continue
                if k < algebra.rank:
                    ok = False
                elif (k - algebra.rank) not in hs.C:
                    ok = False
            if not ok:
                break
        if ok:
            out.add(neg)
    return out


@pytest.mark.parametrize("builder", [
    lambda: build_sl(2), lambda: build_sl(3), lambda: build_sl(4),
    lambda: build_sp(2), lambda: build_sp(3)])
def test_normalizer_support_matches_structure_constants(builder):
    algebra = builder()
    for hs in enumerate_all(algebra.rs, max_rank=4):
        rep = analyze(hs)
        assert rep.normalizer_support == \
            _brute_force_normalizer_support(algebra, hs)


def test_report_json_deterministic(a3):
    rep = analyze(type_p_subset(a3, 2))
    assert rep.to_json() == analyze(type_p_subset(a3, 2)).to_json()
    doc = rep.to_json_dict()
    assert doc["dims"]["dim_q"] == 10
