from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stdout

import pytest

from cmhodge.cli import main
from cmhodge.report import certificate_bundle, certificate_payload, content_hash, finalize
from cmhodge.verify import verify_certificate
from cmhodge.weil import coverage_certificate


@pytest.fixture()
def payload(z4):
    return certificate_payload(z4.spec, coverage_certificate(z4.cm_type, 1))


def rehash(doc: dict) -> dict:
    # a forger who recomputes the hash still has to get the math right
    return finalize(doc)


def test_intact_certificate_passes(payload):
    assert verify_certificate(payload).ok


def test_tamper_without_rehash_is_caught(payload):
    doc = copy.deepcopy(payload)
    doc["p"] = 2
    result = verify_certificate(doc)
    assert result.failed_check == "content_hash"


def test_flipped_family_bit(payload):
    doc = copy.deepcopy(payload)
    doc["witnesses"][0]["family"][0] = [0, 2]  # induced type is [0, 1]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "induced_family"


def test_invalid_delta(payload):
    doc = copy.deepcopy(payload)
    doc["witnesses"][0]["delta"] = [0, 1]
    doc["orbit_reps"][0] = [0, 1]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "delta_valid"


def test_wrong_p(payload):
    doc = copy.deepcopy(payload)
    doc["p"] = 2
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "degree"


def test_corrupted_group_table(payload):
    doc = copy.deepcopy(payload)
    doc["instance"]["group"]["table"][1][1] = 1  # breaks the Latin property
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "group_axioms"


def test_wrong_transcript(payload):
    doc = copy.deepcopy(payload)
    doc["witnesses"][0]["balanced_transcript"][0] = 0
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "balanced"


def test_missing_coverage_entry(payload):
    doc = copy.deepcopy(payload)
    doc["coverage"] = doc["coverage"][:1]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "coverage"


def test_padded_valid_set(payload):
    doc = copy.deepcopy(payload)
    doc["valid_set"] = doc["valid_set"] + [[0, 1]]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "valid_set"


def test_wrong_weil_data(payload):
    doc = copy.deepcopy(payload)
    doc["witnesses"][0]["weil_data"]["dim_over_q"] = 99
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "weil_data"


def test_wrong_kind(payload):
    doc = copy.deepcopy(payload)
    doc["kind"] = "something-else"
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "schema"


def test_content_hash_helper_is_stable(payload):
    assert payload["content_hash"] == content_hash(payload)


def _empty_bundle(spec, payload):
    return certificate_bundle(spec, [])


def _bundle_without_certificates(spec, payload):
    bundle = dict(certificate_bundle(spec, []))
    del bundle["certificates"]
    return finalize(bundle)


def _bundle_of_non_object(spec, payload):
    return finalize({**certificate_bundle(spec, []), "certificates": [1]})


def _top_level_array(spec, payload):
    return [payload]


def _boolean_p(spec, payload):
    return rehash({**payload, "p": True})  # True == 1 in Python, not in the schema


@pytest.mark.parametrize(
    "make",
    [_empty_bundle, _bundle_without_certificates, _bundle_of_non_object, _top_level_array, _boolean_p],
)
def test_vacuous_or_malformed_document_fails_schema(tmp_path, z4, payload, make):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make(z4.spec, payload)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "--certify", str(path)])
    assert code == 3
    assert "fail [schema]" in buf.getvalue()
