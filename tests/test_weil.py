from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import replace
from itertools import combinations

from cmhodge.cmtypes import RegularCMType, enumerate_cm_types, induced_type
from cmhodge.groups import bits, mask_of
from cmhodge.monomials import enumerate_valid, galois_orbits
from cmhodge.report import certificate_payload
from cmhodge.verify import verify_certificate
from cmhodge.weil import coverage_certificate, split_weil_witness


def transcript(group, families: Sequence[RegularCMType]) -> tuple[int, ...]:
    """How many of the families contain each group element."""
    return tuple(sum(f.members >> t & 1 for f in families) for t in group.elements())


def coverage(cert) -> tuple[int, ...]:
    """The union of the translates the witnesses cover."""
    return tuple(sorted({d for w in cert.witnesses for d in w.covered_translates}))


def stored_witness(built, p: int) -> dict:
    """The first witness of the degree-p certificate, as written out."""
    return json.loads(certificate_payload(built.spec, coverage_certificate(built.cm_type, p)))["witnesses"][0]


def test_witness_elliptic_curve(z2):
    w = split_weil_witness(z2.cm_type, (0b11,))
    assert [f.members for f in w.family] == [0b01, 0b10]  # {identity}, {iota}
    assert transcript(z2.group, w.family) == (1, 1)
    assert w.covered_translates == (0b11,)
    stored = stored_witness(z2, 1)
    assert stored["balanced_transcript"] == [1, 1]
    assert stored["weil_data"] == {"d": 2, "rank_over_f": 1, "dim_over_q": 2}


def test_witness_z4(z4):
    (orbit,) = galois_orbits(z4.embeddings, enumerate_valid(z4.cm_type, 1))
    w = split_weil_witness(z4.cm_type, orbit)
    assert w.delta == mask_of([0, 2])
    assert sorted(w.family[0].elements) == [0, 1]
    assert sorted(w.family[1].elements) == [2, 3]
    assert transcript(z4.group, w.family) == (1, 1, 1, 1)
    assert stored_witness(z4, 1)["balanced_transcript"] == [1, 1, 1, 1]
    assert w.covered_translates == tuple(sorted([mask_of([0, 2]), mask_of([1, 3])]))


def test_witness_empty_monomial(z4):
    w = split_weil_witness(z4.cm_type, (0,))
    assert w.family == ()
    assert transcript(z4.group, w.family) == (0, 0, 0, 0)
    assert stored_witness(z4, 0)["balanced_transcript"] == [0, 0, 0, 0]


def test_balanced_family_examples(z2):
    g = z2.group
    assert transcript(g, [RegularCMType(g, 0b01), RegularCMType(g, 0b10)]) == (1, 1)
    assert transcript(g, [RegularCMType(g, 0b10)] * 2) == (0, 2)
    assert transcript(g, []) == (0, 0)


def test_every_witness_family_is_balanced(order8_instances):
    # the certificate states every transcript as (p,)*|G|; recount it from
    # the stored family, and from the induced family of every valid monomial
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            spec = replace(built.spec, cm_type=tuple(bits(phi.members)))
            for p in range(half + 1):
                balanced = (p,) * built.group.order
                for stored in json.loads(certificate_payload(spec, coverage_certificate(phi, p)))["witnesses"]:
                    recount = tuple(sum(t in f for f in stored["family"]) for t in built.group.elements())
                    assert tuple(stored["balanced_transcript"]) == recount == balanced
                for delta in enumerate_valid(phi, p):
                    families = [induced_type(phi, s) for s in bits(delta)]
                    assert transcript(built.group, families) == balanced


def test_invalid_monomials_fail_balance_somewhere(z4, ea4):
    # the balanced transcript characterizes validity in both directions
    for built in (z4, ea4):
        phi = built.cm_type
        m = built.embeddings.size
        for p in range(m // 2 + 1):
            valid = set(enumerate_valid(phi, p))
            for pts in combinations(range(m), 2 * p):
                delta = mask_of(pts)
                families = [induced_type(phi, s) for s in pts]
                balanced = transcript(built.group, families) == (p,) * built.group.order
                assert balanced == (delta in valid)


def test_coverage_z4(z4):
    cert = coverage_certificate(z4.cm_type, 1)
    assert [w.delta for w in cert.witnesses] == [mask_of([0, 2])]
    assert coverage(cert) == tuple(sorted([mask_of([0, 2]), mask_of([1, 3])]))
    assert coverage(cert) == tuple(enumerate_valid(z4.cm_type, 1))
    payload = json.loads(certificate_payload(z4.spec, cert))
    # the one orbit is listed once, and the valid set is not repeated
    assert payload["verdict"] and payload["witnesses"][0]["covered_translates"] == [[0, 2], [1, 3]]
    assert "coverage" not in payload and "valid_set" not in payload
    assert verify_certificate(payload).ok


def test_coverage_m2(z2):
    cert = coverage_certificate(z2.cm_type, 1)
    assert len(cert.witnesses) == 1
    assert coverage(cert) == tuple(enumerate_valid(z2.cm_type, 1))
    assert verify_certificate(json.loads(certificate_payload(z2.spec, cert))).ok


def test_coverage_ea4(ea4):
    cert = coverage_certificate(ea4.cm_type, 1)
    assert len(cert.witnesses) == 2
    assert len(coverage(cert)) == 4
    assert coverage(cert) == tuple(enumerate_valid(ea4.cm_type, 1))
    assert verify_certificate(json.loads(certificate_payload(ea4.spec, cert))).ok


def test_certificates_are_deterministic(z4):
    a = certificate_payload(z4.spec, coverage_certificate(z4.cm_type, 1))
    b = certificate_payload(z4.spec, coverage_certificate(z4.cm_type, 1))
    assert a == b


def test_verifier_roundtrip(order8_instances):
    for built in order8_instances:
        for p in built.degrees:
            cert = coverage_certificate(built.cm_type, p)
            payload = json.loads(certificate_payload(built.spec, cert))
            result = verify_certificate(payload)
            assert result.ok, result.describe()
