from __future__ import annotations

import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from cmhodge.catalog import sweep_instances
from cmhodge.cmtypes import (
    enumerate_cm_types,
    hodge_numbers,
    validate_cm_type,
)
from cmhodge.errors import CapExceeded, NotACMType
from cmhodge.groups import bits, mask_of
from cmhodge.instance import build_instance, parse_instance
from conftest import catalog_defaults, group_of, induced_family

FIXTURES = Path(__file__).parent / "fixtures"


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


def _first_offending_point(carrier, points: set[int]):
    """The reference: the witness and message of the first point, in point
    order, that is in or out together with its conjugate, or None."""
    for s, c in enumerate(carrier.conj):
        if (s in points) == (c in points):
            return s, f"point {s} and its conjugate {c} are both {'in' if s in points else 'out'}"
    return None


# the order-8 catalog carriers, and a carrier of two factors with non-normal
# subgroups, where the pairs are not listed in coset order
_PAIR_CARRIERS = [
    *((spec.name, spec) for spec in sweep_instances(8) if spec.order == 8),
    ("d16-mixed", parse_instance((FIXTURES / "d16-mixed.txt").read_text(encoding="utf-8"))),
]


@pytest.mark.parametrize("spec", [spec for _, spec in _PAIR_CARRIERS], ids=[name for name, _ in _PAIR_CARRIERS])
def test_not_a_cm_type_names_the_first_offending_point(spec):
    carrier = build_instance(spec).embeddings
    rng = random.Random(0)
    seen = set()
    for _ in range(400):
        points = rng.sample(range(carrier.size), rng.randint(0, carrier.size))
        expected = _first_offending_point(carrier, set(points))
        if expected is None:
            assert validate_cm_type(carrier, points).members == mask_of(points)
            continue
        with pytest.raises(NotACMType) as err:
            validate_cm_type(carrier, points)
        assert (err.value.witness, str(err.value)) == expected
        seen.add(expected[1].rsplit(" ", 1)[1])
    assert seen == {"in", "out"}


def test_default_type_is_the_first_enumerated_type():
    instances = catalog_defaults(32)
    assert len(instances) > 100
    for built in instances:
        assert built.spec.cm_type == tuple(bits(next(enumerate_cm_types(built.embeddings)).members)), built.spec.name


def test_enumerate_counts(z2, z4):
    assert len(list(enumerate_cm_types(z2.embeddings))) == 2
    assert len(list(enumerate_cm_types(z4.embeddings))) == 4


def test_enumerate_z4_order(z4):
    got = [bits(phi.members) for phi in enumerate_cm_types(z4.embeddings)]
    assert got == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_enumerate_cap(monkeypatch):
    import cmhodge.catalog as cat
    from cmhodge import cmtypes
    from cmhodge.instance import build_instance

    built = build_instance(cat.catalog("cyclic", "8"))
    monkeypatch.setattr(cmtypes, "CM_TYPE_CAP", 3)
    with pytest.raises(CapExceeded):
        list(enumerate_cm_types(built.embeddings))


def test_enumerate_all_are_cm_types(order8_instances):
    for built in order8_instances:
        seen = set()
        for phi in enumerate_cm_types(built.embeddings):
            validate_cm_type(built.embeddings, bits(phi.members))
            seen.add(phi.members)
        assert len(seen) == 2 ** (built.embeddings.size // 2)


def test_induced_at_identity_is_phi(z4):
    phi = z4.cm_type  # regular set: points are group elements
    g = group_of(z4.spec)
    reg = induced_family(z4)[g.action.index(tuple(range(4)))]  # the element acting trivially
    assert mask_of(reg) == phi.members


def test_induced_z4_at_point_one(z4):
    reg = induced_family(z4)[1]
    assert sorted(reg) == [0, 3]


def test_induced_satisfies_regular_invariant(order8_instances):
    for built in order8_instances:
        g = group_of(built.spec)
        for reg in induced_family(built):
            members = mask_of(reg)
            image = mask_of(g.action[g.iota][t] for t in reg)
            assert members & image == 0
            assert members | image == (1 << len(g.action)) - 1


def test_induced_along_orbit(order8_instances):
    # membership of u in the type induced at t.s matches the criterion at
    # the composed translate
    for built in order8_instances:
        g, s_set, phi = group_of(built.spec), built.embeddings, built.cm_type
        family = induced_family(built)
        for s in range(s_set.size):
            for t in range(len(g.action)):
                reg = mask_of(family[s_set.action[t][s]])
                for u in range(len(g.action)):
                    expected = phi.members >> s_set.action[g.action[u][t]][s] & 1
                    assert (reg >> u & 1) == expected


def test_translate_identity_and_conj_involution(z4):
    phi, s, g = z4.cm_type, z4.embeddings, group_of(z4.spec)
    assert s.translates(phi.members)[g.action.index(tuple(range(4)))] == phi.members
    conj = s.translates(phi.members)[g.iota]
    assert s.translates(conj)[g.iota] == phi.members
    assert phi.members in phi.rows


def test_translate_by_iota_is_conjugate(z4):
    phi, s = z4.cm_type, z4.embeddings  # phi = {0,1}
    tau = s.translates(phi.members)[2]
    assert tau == mask_of([2, 3])
    assert tau == s.translates(phi.members)[group_of(z4.spec).iota]
    assert tau in phi.rows


def test_translates_stay_cm_types(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        for phi in enumerate_cm_types(s):
            assert phi.rows == tuple(
                sorted({s.translates(phi.members)[t] for t in range(len(s.action))})
            )
            for row in phi.rows:
                validate_cm_type(s, bits(row))


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
