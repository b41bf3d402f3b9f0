from __future__ import annotations

from itertools import combinations

from cmhodge.cmtypes import enumerate_cm_types
from cmhodge.groups import bits, mask_of
from cmhodge.monomials import enumerate_valid
from cmhodge.verify import verify_certificate
from conftest import induced_family, with_cm_type, written_bundle, written_certificate


def transcript(group, families: list[list[int]]) -> tuple[int, ...]:
    """How many of the families contain each group element."""
    return tuple(sum(t in f for f in families) for t in group.elements())


def coverage(cert: dict) -> tuple[int, ...]:
    """The union of the translates the written witnesses cover, as masks."""
    return tuple(sorted({mask_of(d) for w in cert["witnesses"] for d in w["covered_translates"]}))


def test_witness_elliptic_curve(z2):
    (w,) = written_certificate(z2, 1)["witnesses"]
    assert w["delta"] == [0, 1]
    assert w["family"] == [[0], [1]]  # {identity}, {iota}
    assert transcript(z2.group, w["family"]) == (1, 1)
    assert w["covered_translates"] == [[0, 1]]
    assert w["balanced_transcript"] == [1, 1]
    assert w["weil_data"] == {"d": 2, "rank_over_f": 1, "dim_over_q": 2}


def test_witness_z4(z4):
    (w,) = written_certificate(z4, 1)["witnesses"]
    assert mask_of(w["delta"]) == mask_of([0, 2])
    assert sorted(w["family"][0]) == [0, 1]
    assert sorted(w["family"][1]) == [2, 3]
    assert transcript(z4.group, w["family"]) == (1, 1, 1, 1)
    assert w["balanced_transcript"] == [1, 1, 1, 1]
    assert w["covered_translates"] == [[0, 2], [1, 3]]


def test_witness_empty_monomial(z4):
    (w,) = written_certificate(z4, 0)["witnesses"]
    assert w["delta"] == [] and w["family"] == []
    assert transcript(z4.group, w["family"]) == (0, 0, 0, 0)
    assert w["balanced_transcript"] == [0, 0, 0, 0]


def test_balanced_family_examples(z2):
    g = z2.group
    assert transcript(g, [[0], [1]]) == (1, 1)
    assert transcript(g, [[1]] * 2) == (0, 2)
    assert transcript(g, []) == (0, 0)


def test_every_witness_family_is_balanced(order8_instances):
    # the certificate states every transcript as (p,)*|G|; recount it from
    # the stored family, and from the induced family of every valid monomial
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            with_phi = with_cm_type(built, phi)
            table = induced_family(with_phi)
            for p in range(half + 1):
                balanced = (p,) * built.group.order
                for stored in written_certificate(with_phi, p)["witnesses"]:
                    recount = transcript(built.group, stored["family"])
                    assert tuple(stored["balanced_transcript"]) == recount == balanced
                for delta in enumerate_valid(phi, p):
                    families = [table[s] for s in bits(delta)]
                    assert transcript(built.group, families) == balanced


def test_invalid_monomials_fail_balance_somewhere(z4, ea4):
    # the balanced transcript characterizes validity in both directions
    for built in (z4, ea4):
        phi = built.cm_type
        m = built.embeddings.size
        table = induced_family(built)
        for p in range(m // 2 + 1):
            valid = set(enumerate_valid(phi, p))
            for pts in combinations(range(m), 2 * p):
                delta = mask_of(pts)
                families = [table[s] for s in pts]
                balanced = transcript(built.group, families) == (p,) * built.group.order
                assert balanced == (delta in valid)


def test_coverage_z4(z4):
    payload = written_certificate(z4, 1)
    assert [mask_of(w["delta"]) for w in payload["witnesses"]] == [mask_of([0, 2])]
    assert coverage(payload) == tuple(sorted([mask_of([0, 2]), mask_of([1, 3])]))
    assert coverage(payload) == tuple(enumerate_valid(z4.cm_type, 1))
    # the one orbit is listed once, and the valid set is not repeated
    assert payload["verdict"] and payload["witnesses"][0]["covered_translates"] == [[0, 2], [1, 3]]
    assert "coverage" not in payload and "valid_set" not in payload
    assert verify_certificate(payload).ok


def test_coverage_m2(z2):
    payload = written_certificate(z2, 1)
    assert len(payload["witnesses"]) == 1
    assert coverage(payload) == tuple(enumerate_valid(z2.cm_type, 1))
    assert verify_certificate(payload).ok


def test_coverage_ea4(ea4):
    payload = written_certificate(ea4, 1)
    assert len(payload["witnesses"]) == 2
    assert len(coverage(payload)) == 4
    assert coverage(payload) == tuple(enumerate_valid(ea4.cm_type, 1))
    assert verify_certificate(payload).ok


def test_certificates_are_deterministic(z4):
    assert written_bundle(z4, [1]) == written_bundle(z4, [1])


def test_verifier_roundtrip(order8_instances):
    for built in order8_instances:
        for p in built.degrees:
            result = verify_certificate(written_certificate(built, p))
            assert result.ok, result.describe()
