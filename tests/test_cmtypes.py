from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from cmhodge.cmtypes import (
    enumerate_cm_types,
    hodge_numbers,
    induced_type,
    validate_cm_type,
)
from cmhodge.errors import CapExceeded, NotACMType
from cmhodge.groups import bits, mask_of


def test_validate_accepts_one_per_pair(z2):
    phi = validate_cm_type(z2.embeddings, [0])
    assert phi.members == 0b01


def test_validate_rejects_conjugate_pair(z2):
    with pytest.raises(NotACMType) as err:
        validate_cm_type(z2.embeddings, [0, 1])
    assert err.value.witness == 0


def test_validate_z4(z4):
    phi = validate_cm_type(z4.embeddings, [0, 1])
    assert phi.members == 0b0011
    with pytest.raises(NotACMType):
        validate_cm_type(z4.embeddings, [0, 2])


def test_enumerate_counts(z2, z4):
    assert len(list(enumerate_cm_types(z2.embeddings))) == 2
    assert len(list(enumerate_cm_types(z4.embeddings))) == 4


def test_enumerate_z4_order(z4):
    got = [bits(phi.members) for phi in enumerate_cm_types(z4.embeddings)]
    assert got == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_enumerate_cap():
    import cmhodge.catalog as cat
    from cmhodge.instance import build_instance

    built = build_instance(cat.catalog("cyclic", "8"))
    with pytest.raises(CapExceeded):
        list(enumerate_cm_types(built.embeddings, cap=3))


def test_enumerate_all_are_cm_types(order8_instances):
    for built in order8_instances:
        seen = set()
        for phi in enumerate_cm_types(built.embeddings):
            validate_cm_type(built.embeddings, phi.members)
            seen.add(phi.members)
        assert len(seen) == 2 ** (built.embeddings.size // 2)


def test_induced_at_identity_is_phi(z4):
    phi = z4.cm_type  # regular set: points are group elements
    reg = induced_type(phi, z4.group.identity)
    assert reg.members == phi.members


def test_induced_z4_at_point_one(z4):
    reg = induced_type(z4.cm_type, 1)
    assert sorted(reg.elements) == [0, 3]


def test_induced_satisfies_regular_invariant(order8_instances):
    for built in order8_instances:
        g = built.group
        for s in range(built.embeddings.size):
            reg = induced_type(built.cm_type, s)
            image = mask_of(g.mul(g.iota, t) for t in reg.elements)
            assert reg.members & image == 0
            assert reg.members | image == (1 << g.order) - 1


def test_induced_along_orbit(order8_instances):
    # membership of u in the type induced at t.s matches the criterion at
    # the composed translate
    for built in order8_instances:
        g, s_set, phi = built.group, built.embeddings, built.cm_type
        for s in range(s_set.size):
            for t in g.elements():
                reg = induced_type(phi, s_set.action[t][s])
                for u in g.elements():
                    expected = phi.members >> s_set.action[g.mul(u, t)][s] & 1
                    assert (reg.members >> u & 1) == expected


def test_translate_identity_and_conj_involution(z4):
    phi, s = z4.cm_type, z4.embeddings
    assert s.translate_mask(z4.group.identity, phi.members) == phi.members
    assert s.conj_mask(s.conj_mask(phi.members)) == phi.members
    assert phi.members in phi.rows


def test_translate_by_iota_is_conjugate(z4):
    phi, s = z4.cm_type, z4.embeddings  # phi = {0,1}
    tau = s.translate_mask(2, phi.members)
    assert tau == mask_of([2, 3])
    assert tau == s.conj_mask(phi.members)
    assert tau in phi.rows


def test_translates_stay_cm_types(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        for phi in enumerate_cm_types(s):
            assert phi.rows == tuple(
                sorted({s.translate_mask(t, phi.members) for t in built.group.elements()})
            )
            for row in phi.rows:
                validate_cm_type(s, row)


def test_hodge_numbers_z4(z4):
    table = hodge_numbers(z4.embeddings, 2)
    assert table == {(2, 0): 1, (1, 1): 4, (0, 2): 1}
    assert hodge_numbers(z4.embeddings, 0) == {(0, 0): 1}


def test_hodge_numbers_row_sums(order8_instances):
    for built in order8_instances:
        m = built.embeddings.size
        for r in range(m + 1):
            table = hodge_numbers(built.embeddings, r)
            assert sum(table.values()) == comb(m, r)


def test_hodge_numbers_against_enumeration(order8_instances):
    # oracle: count the subsets directly
    for built in order8_instances:
        m = built.embeddings.size
        if m > 8:
            continue
        phi = built.cm_type
        for r in (0, 1, 2, m // 2):
            counted: dict[tuple[int, int], int] = {}
            for pts in combinations(range(m), r):
                p = sum(phi.members >> s & 1 for s in pts)
                key = (p, r - p)
                counted[key] = counted.get(key, 0) + 1
            assert counted == hodge_numbers(built.embeddings, r)
