from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhodge.catalog import catalog, sweep_instances
from cmhodge.cmtypes import enumerate_cm_types, validate_cm_type
from cmhodge.errors import CapExceeded, NotClosed
from cmhodge.groups import build_group, embedding_set, mask_of
from cmhodge.instance import build_instance
from cmhodge.monomials import (
    classify,
    enumerate_valid,
    enumerate_valid_bruteforce,
    galois_orbits,
    pairing_witness,
    valid_delta,
)
from cmhodge.verify import _count_valid


def masks(point_lists):
    return sorted(mask_of(pts) for pts in point_lists)


def test_empty_monomial_is_valid(z4):
    assert valid_delta(z4.cm_type, 0, 0)


def test_elliptic_curve_h2(z2):
    assert valid_delta(z2.cm_type, 0b11, 1)


def test_valid_delta_z4(z4):
    assert not valid_delta(z4.cm_type, mask_of([0, 1]), 1)  # t=0 meets phi twice
    assert valid_delta(z4.cm_type, mask_of([0, 2]), 1)


def test_bruteforce_small_cases(z2, z4, ea4):
    assert enumerate_valid_bruteforce(z2.cm_type, 1) == [0b11]
    assert enumerate_valid_bruteforce(z4.cm_type, 1) == masks([[0, 2], [1, 3]])
    assert enumerate_valid_bruteforce(ea4.cm_type, 1) == masks(
        [[0, 3], [1, 2], [0, 2], [1, 3]]
    )


def test_bruteforce_cap(z4):
    with pytest.raises(CapExceeded):
        enumerate_valid_bruteforce(z4.cm_type, 1, cap=2)


def test_enumerate_valid_degenerate_cases(z4):
    assert enumerate_valid(z4.cm_type, 3) == []  # 2p > m
    assert enumerate_valid(z4.cm_type, 0) == [0]
    # the full point set is always valid at top degree
    assert z4.embeddings.all_mask in enumerate_valid(z4.cm_type, 2)


def test_enumerator_matches_oracle_everywhere(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            for p in range(half + 1):
                assert enumerate_valid(phi, p) == enumerate_valid_bruteforce(phi, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enumerator_matches_oracle_hypothesis(data):
    specs = sweep_instances(12)
    built = build_instance(data.draw(st.sampled_from(specs)))
    m = built.embeddings.size
    code = data.draw(st.integers(min_value=0, max_value=2 ** (m // 2) - 1))
    phi = list(enumerate_cm_types(built.embeddings))[code]
    p = data.draw(st.integers(min_value=0, max_value=m // 2))
    oracle = enumerate_valid_bruteforce(phi, p)
    assert enumerate_valid(phi, p) == oracle
    assert _count_valid(phi, p) == len(oracle)


@pytest.mark.parametrize(
    "entry, factors",
    [("dihedral:16", [[0, 8], [0, 9]]), ("cyclic:12", [[0, 4, 8], [0]])],
)
def test_enumerator_matches_oracle_on_mixed_embedding_sets(entry, factors):
    # m = 16 from two factors, at least one a coset space of a non-trivial
    # subgroup; the halves of the split are the two factors in the first
    # set and cut through the larger factor in the second
    spec = catalog(*entry.split(":"))
    group = build_group(spec.order, spec.mult, spec.iota)
    carrier = embedding_set(group, factors)
    assert carrier.size == 16
    for phi in list(enumerate_cm_types(carrier))[::32]:
        for p in range(9):
            oracle = enumerate_valid_bruteforce(phi, p)
            assert enumerate_valid(phi, p) == oracle
            assert _count_valid(phi, p) == len(oracle)


def test_orbits_z4(z4):
    valid = enumerate_valid(z4.cm_type, 1)
    orbits = galois_orbits(z4.embeddings, valid)
    assert orbits == [tuple(masks([[0, 2], [1, 3]]))]


def test_orbits_ea4(ea4):
    valid = enumerate_valid(ea4.cm_type, 1)
    orbits = galois_orbits(ea4.embeddings, valid)
    assert orbits == [
        tuple(masks([[0, 2], [1, 3]])),
        tuple(masks([[0, 3], [1, 2]])),
    ]


def test_orbit_of_empty_monomial(z4):
    assert galois_orbits(z4.embeddings, [0]) == [(0,)]


def test_orbits_reject_unclosed_input(z4):
    with pytest.raises(NotClosed):
        galois_orbits(z4.embeddings, [mask_of([0, 2])])  # missing {1,3}


def test_translation_and_conjugation_closure(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        half = s.size // 2
        for phi in enumerate_cm_types(s):
            for p in range(half + 1):
                valid = set(enumerate_valid(phi, p))
                for d in valid:
                    assert s.conj_mask(d) in valid
                    for t in built.group.elements():
                        assert s.translate_mask(t, d) in valid


def test_complement_duality(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        half = s.size // 2
        for phi in enumerate_cm_types(s):
            for p in range(half + 1):
                dual = set(enumerate_valid(phi, half - p))
                for d in enumerate_valid(phi, p):
                    assert (s.all_mask ^ d) in dual


def test_conjugate_pair_unions_are_valid(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        pairs = [
            mask_of([x, s.conj[x]]) for x in range(s.size) if x < s.conj[x]
        ]
        for phi in enumerate_cm_types(s):
            for p in range(len(pairs) + 1):
                for chosen in combinations(pairs, p):
                    union = 0
                    for pm in chosen:
                        union |= pm
                    assert valid_delta(phi, union, p)


def test_decomposable_examples(z4):
    pairs = enumerate_valid(z4.cm_type, 1)
    assert pairing_witness(mask_of([0, 1, 2, 3]), pairs) == masks([[0, 2], [1, 3]])
    assert pairing_witness(0, pairs) == []
    assert pairing_witness(mask_of([0, 2]), []) is None


def test_witness_is_lexicographically_least(ea4):
    pairs = enumerate_valid(ea4.cm_type, 1)  # all four cross pairs
    witness = pairing_witness(ea4.embeddings.all_mask, pairs)
    # point 0 gets its smallest valid partner (2), forcing {1,3}
    assert witness == [mask_of([0, 2]), mask_of([1, 3])]


def test_classify_z4_top_degree(z4):
    report = classify(z4.cm_type, 2)
    assert report.hodge_dim == 1
    assert report.lefschetz_dim == 1
    assert report.exotic == ()


def test_classify_m2_instances(z2):
    report = classify(z2.cm_type, 1)
    assert report.hodge_dim == report.lefschetz_dim == 1


def test_classify_partition_invariants(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for p in range(half + 1):
            report = classify(built.cm_type, p)
            assert sorted(report.decomposable + report.exotic) == list(report.valid)
            assert set(report.decomposable).isdisjoint(report.exotic)
            assert sorted(d for orbit in report.orbits for d in orbit) == list(report.valid)


def test_exotic_regression_c4xc4():
    # smallest exotic hit found by scripts/exotic_hunt.py; frozen after a
    # brute-force verified run
    built = build_instance(catalog("product", "cyclic.4xcyclic.4"))
    phi = validate_cm_type(built.embeddings, [0, 1, 2, 3, 4, 5, 14, 15])
    report = classify(phi, 2)
    assert list(report.valid) == enumerate_valid_bruteforce(phi, 2)
    assert report.hodge_dim == 32
    assert report.lefschetz_dim == 28
    assert report.valid_pair_count == 8
    assert len(report.orbits) == 6
    assert list(report.exotic) == masks(
        [[1, 3, 8, 10], [0, 2, 9, 11], [5, 7, 12, 14], [4, 6, 13, 15]]
    )
