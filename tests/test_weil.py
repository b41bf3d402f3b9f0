from __future__ import annotations

from itertools import combinations

from cmhodge.cmtypes import enumerate_cm_types
from cmhodge.groups import bits, mask_of
from cmhodge.monomials import enumerate_valid
from conftest import group_of, induced_family, one_degree_bundle, verdict, with_cm_type, written_bundle


def transcript(carrier, families: list[list[int]]) -> tuple[int, ...]:
    """How many of the families contain each element of the group acting
    on the carrier, one per row of its action table."""
    return tuple(sum(t in f for f in families) for t in range(len(carrier.action)))


def family(bundle: dict, rep: list[int]) -> list[list[int]]:
    """The split-Weil family of a representative: the induced type the
    bundle stores at each of its points."""
    return [bundle["induced_types"][s] for s in rep]


def coverage(built, cert: dict) -> tuple[int, ...]:
    """The union of the orbits of the written representatives, as masks."""
    orbits = (built.embeddings.translates(mask_of(d)) for d in cert["orbit_reps"])
    return tuple(sorted({t for orbit in orbits for t in orbit}))


def test_witness_elliptic_curve(z2):
    bundle = one_degree_bundle(z2, 1)
    (cert,) = bundle["certificates"]
    assert cert["orbit_reps"] == [[0, 1]]
    assert bundle["induced_types"] == [[0], [1]]  # {identity}, {iota}
    assert transcript(z2.embeddings, family(bundle, [0, 1])) == (1, 1)
    assert coverage(z2, cert) == (mask_of([0, 1]),)
    assert "witnesses" not in cert


def test_witness_z4(z4):
    bundle = one_degree_bundle(z4, 1)
    (cert,) = bundle["certificates"]
    assert cert["orbit_reps"] == [[0, 2]]
    assert family(bundle, [0, 2]) == [[0, 1], [2, 3]]
    assert transcript(z4.embeddings, family(bundle, [0, 2])) == (1, 1, 1, 1)
    assert coverage(z4, cert) == (mask_of([0, 2]), mask_of([1, 3]))


def test_witness_empty_monomial(z4):
    bundle = one_degree_bundle(z4, 0)
    assert bundle["certificates"][0]["orbit_reps"] == [[]] and family(bundle, []) == []
    assert transcript(z4.embeddings, family(bundle, [])) == (0, 0, 0, 0)


def test_balanced_family_examples(z2):
    g = group_of(z2.spec)
    assert transcript(g, [[0], [1]]) == (1, 1)
    assert transcript(g, [[1]] * 2) == (0, 2)
    assert transcript(g, []) == (0, 0)


def test_every_witness_family_is_balanced(order8_instances):
    # the bundle holds the induced types, not the transcripts: count each
    # representative's family from them, and the induced family of every
    # valid monomial
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            with_phi = with_cm_type(built, phi)
            table = induced_family(with_phi)
            for p in range(half + 1):
                balanced = (p,) * len(built.embeddings.action)
                bundle = one_degree_bundle(with_phi, p)
                assert bundle["induced_types"] == table
                for rep in bundle["certificates"][0]["orbit_reps"]:
                    assert transcript(built.embeddings, family(bundle, rep)) == balanced
                for delta in enumerate_valid(phi, p):
                    families = [table[s] for s in bits(delta)]
                    assert transcript(built.embeddings, families) == balanced


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
                balanced = transcript(built.embeddings, families) == (p,) * len(built.embeddings.action)
                assert balanced == (delta in valid)


def test_coverage_z4(z4):
    bundle = one_degree_bundle(z4, 1)
    (payload,) = bundle["certificates"]
    assert [mask_of(d) for d in payload["orbit_reps"]] == [mask_of([0, 2])]
    assert coverage(z4, payload) == tuple(sorted([mask_of([0, 2]), mask_of([1, 3])]))
    assert coverage(z4, payload) == tuple(enumerate_valid(z4.cm_type, 1))
    # the one orbit is listed by its least member, and nothing derived is stored
    assert payload["verdict"] and payload["orbit_reps"] == [[0, 2]]
    assert payload.keys() == {"p", "orbit_reps", "verdict"}
    assert verdict(bundle).ok


def test_coverage_m2(z2):
    bundle = one_degree_bundle(z2, 1)
    (payload,) = bundle["certificates"]
    assert len(payload["orbit_reps"]) == 1
    assert coverage(z2, payload) == tuple(enumerate_valid(z2.cm_type, 1))
    assert verdict(bundle).ok


def test_coverage_ea4(ea4):
    bundle = one_degree_bundle(ea4, 1)
    (payload,) = bundle["certificates"]
    assert len(payload["orbit_reps"]) == 2
    assert len(coverage(ea4, payload)) == 4
    assert coverage(ea4, payload) == tuple(enumerate_valid(ea4.cm_type, 1))
    assert verdict(bundle).ok


def test_certificates_are_deterministic(z4):
    assert written_bundle(z4, [1]) == written_bundle(z4, [1])


def test_verifier_roundtrip(order8_instances):
    for built in order8_instances:
        for p in built.degrees:
            result = verdict(one_degree_bundle(built, p))
            assert result.ok, result.describe()
