from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cmhodge.catalog import catalog, cyclic_table, dihedral_table
from cmhodge.cmtypes import conjugate_pairs, validate_cm_type
from cmhodge.errors import BadInvolution, IotaInSubgroup, NotAGroup, NotASubgroup
from cmhodge.groups import EmbeddingSet, bits, build_group, embedding_set, mask_of
from cmhodge.instance import BuiltInstance, InstanceSpec, parse_instance
from cmhodge.verify import _Recount
from conftest import group_of, induced_family

# every catalog carrier up to order 32, two carriers of several factors,
# the m = 68 carrier, a regular order-64 carrier (every element's image
# fills its 64-bit field) and an order-64 carrier of repeated and distinct
# factors
TABLE_CARRIERS = (
    [f"cyclic:{n}" for n in range(2, 33, 2)]
    + [f"elementary-abelian:{n}" for n in (2, 4, 8, 16, 32)]
    + [f"dihedral:{n}" for n in range(4, 33, 4)]
    + ["quaternion:8"]
    + [
        f"product:{p}"
        for p in (
            "cyclic.4xcyclic.2",
            "cyclic.4xcyclic.4",
            "dihedral.8xcyclic.2",
            "cyclic.6xcyclic.4",
            "cyclic.8xcyclic.4",
            "quaternion.8xcyclic.4",
        )
    ]
    + ["dihedral:16 [[0,8],[0,9]]", "cyclic:12 [[0,4,8],[0]]", "m68"]
    + ["dihedral:64", "elementary-abelian:64 [[0,1],[0,2],[0,4],[0],[0,1]]"]
)
M68 = Path(__file__).parent / "fixtures" / "m68.txt"


def test_z2_is_a_group():
    g = build_group(2, [[0, 1], [1, 0]], 1)
    assert g.action[0] == (0, 1)  # element 0 acts trivially
    assert tuple(row.index(0) for row in g.action) == (0, 1)  # the inverses
    assert g.iota == 1
    # the group is the carrier of its left-regular action, G/{e}: equal
    # field by field
    s = embedding_set(g, [(0,)])
    assert (g.iota, g.size, g.action) == (s.iota, s.size, s.action)


@pytest.mark.parametrize("name", TABLE_CARRIERS)
def test_a_group_is_its_regular_coset_space(name):
    spec = table_spec(name)
    g = group_of(spec)
    assert (g.iota, g.size, g.action) == (spec.iota, spec.order, spec.mult)
    identity = g.action.index(tuple(range(spec.order)))
    s = embedding_set(g, [(identity,)])
    assert (g.iota, g.size, g.action) == (s.iota, s.size, s.action)


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
        if g.action[x] != tuple(range(8)) and all(table[x][y] == table[y][x] for y in range(8))
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


def intercalate_swaps(n: int):
    """The cyclic table of order n with one intercalate swapped: rows a and
    a + n/2 cross columns b and b + n/2 in a 2x2 square holding two values,
    exchanged.  No changed cell holds 0, and rows and column 0 stay, so the
    identity and the inverses stay too."""
    half = n // 2
    for a in range(1, half):
        for b in range(1, half):
            if (a + b) % half:
                table = cyclic_table(n)
                for row in (a, a + half):
                    for col in (b, b + half):
                        table[row][col] = (table[row][col] + half) % n
                yield table


def first_failing_triple(table):
    n = len(table)
    triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    return next((t for t in triples if table[table[t[0]][t[1]]][t[2]] != table[t[0]][table[t[1]][t[2]]]), None)


def test_associativity_witness_is_the_first_failing_triple():
    # the row comparison finds the failing rows, and the witness is still
    # the lexicographically first failing triple; every swap breaks
    # associativity (240 tables)
    for n in range(4, 21, 2):
        for table in intercalate_swaps(n):
            a, b, c = first_failing_triple(table)
            with pytest.raises(NotAGroup) as err:
                build_group(n, table, n // 2)
            assert (str(err.value), err.value.witness) == (f"associativity fails at ({a},{b},{c})", (a, b, c))


def test_coset_space_z2_trivial():
    g = build_group(2, cyclic_table(2), 1)
    space = embedding_set(g, [[0]])
    assert space.action == ((0, 1), (1, 0))
    assert space.conj == (1, 0)


def test_coset_space_rejects_iota_in_subgroup():
    g = build_group(4, cyclic_table(4), 2)
    with pytest.raises(IotaInSubgroup):
        embedding_set(g, [[0, 2]])


def test_coset_space_z4_regular():
    g = build_group(4, cyclic_table(4), 2)
    space = embedding_set(g, [[0]])
    assert space.size == 4
    assert space.conj == (2, 3, 0, 1)
    assert space.action[1] == (1, 2, 3, 0)


def test_coset_space_rejects_non_subgroup():
    g = build_group(4, cyclic_table(4), 2)
    with pytest.raises(NotASubgroup):
        embedding_set(g, [[0, 1]])


@pytest.mark.parametrize(
    "elements, error, message, witness",
    [
        ([0, 4, 1], NotASubgroup, "subgroup element out of range in [0, 1, 4]", None),
        ([1, 3], NotASubgroup, "subgroup does not contain the identity", None),
        ([0, 1], NotASubgroup, "not closed under inverse at 1", (1,)),
        ([3, 0, 1], NotASubgroup, "not closed under multiplication at (1,1)", (1, 1)),
        ([0, 2], IotaInSubgroup, "iota = 2 lies in the subgroup [0, 2]", None),
    ],
    ids=["range", "identity", "inverse", "multiplication", "iota"],
)
def test_subgroup_rejections(elements, error, message, witness):
    # the checks run in this order, so each input fails only its own; a
    # second, good factor first shows that a later factor is checked too
    g = build_group(4, cyclic_table(4), 2)
    with pytest.raises(error) as err:
        embedding_set(g, [[0], elements])
    assert type(err.value) is error and str(err.value) == message
    assert getattr(err.value, "witness", None) == witness


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
        g, s = group_of(built.spec), built.embeddings
        for t in range(len(g.action)):
            for u in range(len(g.action)):
                tu = g.action[t][u]
                for x in range(s.size):
                    assert s.action[tu][x] == s.action[t][s.action[u][x]]
        assert s.action[g.action.index(tuple(range(len(g.action))))] == tuple(range(s.size))


def test_conj_commutes_with_action(order8_instances):
    # iota is central, so translation by iota commutes with every translation
    for built in order8_instances:
        s = built.embeddings
        for t in range(len(s.action)):
            for x in range(s.size):
                assert s.action[t][s.conj[x]] == s.conj[s.action[t][x]]


def test_conj_is_fixed_point_free_involution(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        for x in range(s.size):
            assert s.conj[x] != x
            assert s.conj[s.conj[x]] == x


@pytest.mark.parametrize("name", TABLE_CARRIERS)
def test_action_matches_the_coset_definition(name):
    # the points are the cosets gH of each factor H, factor by factor and
    # in order of least element; t sends the point of gH to the coset of
    # the same factor that holds t*g, the same one for every g in gH
    spec = table_spec(name)
    carrier = table_carrier(spec)
    points = []  # (factor, coset)
    for k, h in enumerate(spec.factors):
        cosets = {frozenset(spec.mult[g][x] for x in h) for g in range(spec.order)}
        points += [(k, coset) for coset in sorted(cosets, key=min)]
    assert carrier.size == len(points)
    for t, row in enumerate(spec.mult):
        expected = []
        for k, coset in points:
            (image,) = {i for i, (j, other) in enumerate(points) if j == k for g in coset if row[g] in other}
            expected.append(image)
        assert carrier.action[t] == tuple(expected)
    assert carrier.conj == carrier.action[spec.iota]
    assert all(carrier.conj[s] != s and carrier.conj[carrier.conj[s]] == s for s in range(carrier.size))


def table_spec(name) -> InstanceSpec:
    if name == "m68":  # 68 points: past 64 bits, and not a multiple of 8
        return parse_instance(M68.read_text(encoding="utf-8"))
    entry, _, factors = name.partition(" ")
    spec = catalog(*entry.split(":"))
    return spec._replace(factors=tuple(map(tuple, json.loads(factors)))) if factors else spec


def table_carrier(spec: InstanceSpec) -> EmbeddingSet:
    return embedding_set(build_group(spec.order, spec.mult, spec.iota), spec.factors)


def random_cm_types(spec: InstanceSpec, carrier: EmbeddingSet, rng: random.Random, count: int):
    """``count`` random CM-types on the carrier, each in its instance."""
    pairs = conjugate_pairs(carrier)
    for _ in range(count):
        phi = validate_cm_type(carrier, [rng.choice(pair) for pair in pairs])
        yield BuiltInstance(spec._replace(cm_type=tuple(bits(phi.members))), carrier, phi)


@pytest.mark.parametrize("name", TABLE_CARRIERS)
def test_byte_tables_match_plain_loops(name):
    # the tables against the per-point definitions, so that a table bug
    # cannot agree with itself
    spec = table_spec(name)
    carrier = table_carrier(spec)
    m = carrier.size
    rng = random.Random(name)
    masks = [0, carrier.all_mask, 1 << (m - 1)] + [rng.getrandbits(m) for _ in range(30)]
    for mask in masks:
        points = [s for s in range(m) if mask >> s & 1]
        assert bits(mask) == points
        images = [mask_of(row[s] for s in points) for row in carrier.action]
        assert carrier.translates(mask) == images
        assert carrier.translates(mask)[carrier.iota] == mask_of(carrier.conj[s] for s in points)
    types = list(random_cm_types(spec, carrier, rng, 3))
    for built in types:
        family = induced_family(built)
        for s in range(m):
            # t is in the induced type iff the translate of s by t lies in phi
            members = [t for t, row in enumerate(carrier.action) if built.cm_type.members >> row[s] & 1]
            assert family[s] == members
    # the verifier's orbits, read off the action table apart from these tables
    recount = _Recount(types[0].cm_type)
    for mask in masks:
        assert recount.orbit(bits(mask)) == set(carrier.translates(mask))


@pytest.mark.parametrize("name", [n for n in TABLE_CARRIERS if "64" not in n])
def test_induced_type_table(name):
    spec = table_spec(name)
    carrier = table_carrier(spec)
    for built in random_cm_types(spec, carrier, random.Random(name), 2):
        table = built.cm_type.induced_types
        assert len(table) == carrier.size
        # the table a bundle holds once for all its certificates
        assert [bits(t) for t in table] == induced_family(built)


def test_bits_past_the_tables():
    rng = random.Random(0)
    for mask in [1 << 64, (1 << 200) - 1] + [rng.getrandbits(300) for _ in range(20)]:
        assert bits(mask) == [s for s in range(mask.bit_length()) if mask >> s & 1]
    # far past any recursion limit, one round per 64 points
    mask = rng.getrandbits(70_000) | 1 << 70_000
    assert bits(mask) == [s for s in range(70_001) if mask >> s & 1]


def test_translate_tables_grow_linearly_in_the_points():
    # per factor, 32 ints of 64 bits per group element for every 8 points:
    # entries are packed factor by factor, so they do not widen with m
    spec = catalog("cyclic", "64")
    group = build_group(spec.order, spec.mult, spec.iota)
    carrier = embedding_set(group, [(0,)] * 16)  # m = 1024
    _, factors = carrier._translate_tables
    assert [(offset, size) for offset, size, _ in factors] == [(64 * k, 64) for k in range(16)]
    entries = [x for _, _, tables in factors for pair in tables for table in pair for x in table]
    assert len(entries) == 32 * carrier.size // 8
    assert max(entries).bit_length() <= 64 * len(group.action)
    mask = sum(1 << s for s in (3, 64, 700, 1023))
    images = [mask_of(row[s] for s in (3, 64, 700, 1023)) for row in carrier.action]
    assert carrier.translates(mask) == images
    phi = validate_cm_type(carrier, [pair[0] for pair in conjugate_pairs(carrier)])
    assert _Recount(phi).orbit([3, 64, 700, 1023]) == set(images)
