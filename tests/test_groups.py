from __future__ import annotations

import pytest

from cmhodge.catalog import cyclic_table, dihedral_table
from cmhodge.errors import BadInvolution, IotaInSubgroup, NotAGroup, NotASubgroup
from cmhodge.groups import build_group, coset_space, embedding_set


def test_z2_is_a_group():
    g = build_group(2, [[0, 1], [1, 0]], 1)
    assert g.identity == 0
    assert g.inverse == (0, 1)
    assert g.iota == 1


def test_z4_with_order4_iota_rejected():
    with pytest.raises(BadInvolution):
        build_group(4, cyclic_table(4), 1)


def test_dihedral8_half_turn_is_central():
    table = dihedral_table(8)
    g = build_group(8, table, 2)
    # oracle: centrality read off the constructed table directly, and the
    # half-turn is the only non-identity element commuting with everything
    central = [
        x
        for x in range(8)
        if x != g.identity and all(table[x][y] == table[y][x] for y in range(8))
    ]
    assert central == [2]
    with pytest.raises(BadInvolution):
        build_group(8, table, 1)  # a reflection-free rotation of order 4


def test_broken_table_has_witness():
    table = [[0, 1], [1, 1]]  # 1*1 should be 0
    with pytest.raises(NotAGroup):
        build_group(2, table, 1)


def test_non_associative_latin_square_rejected():
    # a quasigroup table with identity row/column but broken associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup) as err:
        build_group(5, table, 1)
    assert err.value.witness is not None


def test_coset_space_z2_trivial():
    g = build_group(2, cyclic_table(2), 1)
    space = coset_space(g, [0])
    assert space.points == ((0,), (1,))
    assert space.conj == (1, 0)


def test_coset_space_rejects_iota_in_subgroup():
    g = build_group(4, cyclic_table(4), 2)
    with pytest.raises(IotaInSubgroup):
        coset_space(g, [0, 2])


def test_coset_space_z4_regular():
    g = build_group(4, cyclic_table(4), 2)
    space = coset_space(g, [0])
    assert space.size == 4
    assert space.conj == (2, 3, 0, 1)
    assert space.action[1] == (1, 2, 3, 0)


def test_coset_space_rejects_non_subgroup():
    g = build_group(4, cyclic_table(4), 2)
    with pytest.raises(NotASubgroup):
        coset_space(g, [0, 1])


def test_embedding_set_disjoint_union():
    g = build_group(4, cyclic_table(4), 2)
    s = embedding_set(g, [[0], [0]])
    assert s.size == 8
    # second copy is offset by 4
    assert s.conj[4:] == tuple(4 + c for c in s.conj[:4])


def test_embedding_set_propagates_factor_errors():
    g = build_group(4, cyclic_table(4), 2)
    with pytest.raises(IotaInSubgroup):
        embedding_set(g, [[0], [0, 2]])


def test_action_respects_multiplication(order8_instances):
    for built in order8_instances:
        g, s = built.group, built.embeddings
        for t in g.elements():
            for u in g.elements():
                tu = g.mul(t, u)
                for x in range(s.size):
                    assert s.action[tu][x] == s.action[t][s.action[u][x]]
        assert s.action[g.identity] == tuple(range(s.size))


def test_conj_commutes_with_action(order8_instances):
    # iota is central, so translation by iota commutes with every translation
    for built in order8_instances:
        g, s = built.group, built.embeddings
        for t in g.elements():
            for x in range(s.size):
                assert s.action[t][s.conj[x]] == s.conj[s.action[t][x]]


def test_conj_is_fixed_point_free_involution(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        for x in range(s.size):
            assert s.conj[x] != x
            assert s.conj[s.conj[x]] == x
