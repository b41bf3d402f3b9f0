from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

import pytest

from cmhodge.cmtypes import RegularCMType, enumerate_cm_types, induced_type
from cmhodge.errors import NotValid
from cmhodge.groups import mask_of
from cmhodge.monomials import enumerate_valid
from cmhodge.report import certificate_payload, canonical_json
from cmhodge.verify import verify_certificate
from cmhodge.weil import coverage_certificate, split_weil_witness


def transcript(group, families: Sequence[RegularCMType]) -> tuple[int, ...]:
    """How many of the families contain each group element."""
    return tuple(sum(f.contains(t) for f in families) for t in group.elements())


def test_witness_elliptic_curve(z2):
    w = split_weil_witness(z2.cm_type, 0b11, 1)
    assert [f.members for f in w.family] == [0b01, 0b10]  # {identity}, {iota}
    assert w.balanced_transcript == (1, 1)
    assert w.covered_translates == (0b11,)
    assert (w.weil_d, w.weil_rank_over_f, w.weil_dim_over_q) == (2, 1, 2)


def test_witness_z4(z4):
    w = split_weil_witness(z4.cm_type, mask_of([0, 2]), 1)
    assert sorted(w.family[0].elements) == [0, 1]
    assert sorted(w.family[1].elements) == [2, 3]
    assert w.balanced_transcript == (1, 1, 1, 1)
    assert w.covered_translates == tuple(sorted([mask_of([0, 2]), mask_of([1, 3])]))


def test_witness_empty_monomial(z4):
    w = split_weil_witness(z4.cm_type, 0, 0)
    assert w.family == ()
    assert w.balanced_transcript == (0, 0, 0, 0)


def test_witness_rejects_invalid_monomial(z4):
    with pytest.raises(NotValid):
        split_weil_witness(z4.cm_type, mask_of([0, 1]), 1)


def test_balanced_family_examples(z2):
    g = z2.group
    assert transcript(g, [RegularCMType(g, 0b01), RegularCMType(g, 0b10)]) == (1, 1)
    assert transcript(g, [RegularCMType(g, 0b10)] * 2) == (0, 2)
    assert transcript(g, []) == (0, 0)


def test_every_witness_family_is_balanced(order8_instances):
    # the witness states its transcript as (p,)*|G|; recount it
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            for p in range(half + 1):
                for delta in enumerate_valid(phi, p):
                    w = split_weil_witness(phi, delta, p)
                    recount = transcript(built.group, w.family)
                    assert w.balanced_transcript == recount == (p,) * built.group.order


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
    assert cert.orbit_reps == (mask_of([0, 2]),)
    assert cert.coverage == tuple(sorted([mask_of([0, 2]), mask_of([1, 3])]))
    assert cert.coverage == cert.valid_set
    assert cert.verdict


def test_coverage_m2(z2):
    cert = coverage_certificate(z2.cm_type, 1)
    assert len(cert.witnesses) == 1
    assert cert.verdict


def test_coverage_ea4(ea4):
    cert = coverage_certificate(ea4.cm_type, 1)
    assert len(cert.witnesses) == 2
    assert len(cert.coverage) == 4
    assert cert.verdict


def test_certificates_are_deterministic(z4):
    a = canonical_json(certificate_payload(z4.spec, coverage_certificate(z4.cm_type, 1)))
    b = canonical_json(certificate_payload(z4.spec, coverage_certificate(z4.cm_type, 1)))
    assert a == b


def test_verifier_roundtrip(order8_instances):
    for built in order8_instances:
        for p in built.degrees:
            cert = coverage_certificate(built.cm_type, p)
            payload = certificate_payload(built.spec, cert)
            result = verify_certificate(payload)
            assert result.ok, result.describe()
