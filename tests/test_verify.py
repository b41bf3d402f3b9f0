from __future__ import annotations

import copy
import io
import json
import time
from contextlib import redirect_stdout
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmhodge.catalog import catalog
from cmhodge.cli import main
from cmhodge.instance import build_instance
from cmhodge.report import (
    certificate_bundle,
    certificate_payload,
    content_hash,
    finalize,
    instance_payload,
)
from cmhodge.verify import CHECKS, verify_certificate
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


def test_degree_above_half(payload):
    # no monomial has 2p > m points, so an empty certificate would check nothing
    doc = {**payload, "p": 3, "witnesses": [], "orbit_reps": [], "coverage": [], "valid_set": []}
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "degree"


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


@pytest.fixture(scope="module")
def d8_p2():
    built = build_instance(catalog("dihedral", "8"))
    return certificate_payload(built.spec, coverage_certificate(built.cm_type, 2))


def _drop_orbit(doc):
    # consistent but incomplete: only the count can tell
    orbit = doc["witnesses"].pop()["covered_translates"]
    doc["orbit_reps"].pop()
    doc["coverage"] = [d for d in doc["coverage"] if d not in orbit]
    doc["valid_set"] = [d for d in doc["valid_set"] if d not in orbit]


def _repeat_entry(doc):
    # the count still matches, so only distinctness can tell
    doc["valid_set"][1] = doc["valid_set"][0]


def _invalid_entry(doc):
    # the count still matches, so only the validity check can tell
    doc["valid_set"][0] = next(
        list(c) for c in combinations(range(8), 4) if list(c) not in doc["valid_set"]
    )


@pytest.mark.parametrize("mutate", [_drop_orbit, _repeat_entry, _invalid_entry])
def test_wrong_valid_set_of_right_shape(d8_p2, mutate):
    assert (len(d8_p2["orbit_reps"]), len(d8_p2["valid_set"])) == (5, 18)
    doc = copy.deepcopy(d8_p2)
    mutate(doc)
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "valid_set"


def test_verifier_reaches_m32_and_refuses_m64_fast(tmp_path, capsys, payload):
    path = tmp_path / "cert.json"
    assert main(["witness", "--catalog", "cyclic:32", "--degree", "4", "--certify", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--certify", str(path)]) == 0
    assert capsys.readouterr().out == "p=4: pass\n"
    # nothing listed, so every check before the count passes; the count's
    # tables would hold 2**33 subsets, so it must refuse before building one
    empty = {"witnesses": [], "orbit_reps": [], "coverage": [], "valid_set": [], "verdict": True}
    doc = {**payload, **empty, "instance": instance_payload(catalog("cyclic", "64")), "p": 16}
    path.write_text(json.dumps(rehash(doc)))
    start = time.perf_counter()
    assert main(["verify", "--certify", str(path)]) == 4
    assert time.perf_counter() - start < 10
    assert "cap exceeded" in capsys.readouterr().err


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


def _at(doc, path):
    """The container holding the node at path (dict keys and list indices)
    and the node's key in it."""
    *head, last = path
    for key in head:
        doc = doc[key]
    return doc, last


def _set(path, value):
    """A document maker that replaces the node at path and rehashes."""

    def make(spec, payload):
        doc = copy.deepcopy(payload)
        node, key = _at(doc, path)
        node[key] = value
        return rehash(doc)

    return make


def _without_weil_data(spec, payload):
    doc = copy.deepcopy(payload)
    del doc["witnesses"][0]["weil_data"]
    return rehash(doc)


def _bundle_of_other_instance(spec, payload):
    # z4 certificates under a bundle that declares cyclic:8
    bundle = {**certificate_bundle(spec, []), "certificates": [payload]}
    return finalize({**bundle, "instance": instance_payload(catalog("cyclic", "8"))})


@pytest.mark.parametrize(
    "make",
    [
        _empty_bundle,
        _bundle_without_certificates,
        _bundle_of_non_object,
        _top_level_array,
        _boolean_p,
        pytest.param(_set(("witnesses", 0, "delta", 0), -1), id="negative-point"),
        pytest.param(_set(("orbit_reps", 0, 0), "0"), id="string-point"),
        pytest.param(_set(("witnesses", 0, "delta", 0), False), id="boolean-point"),
        pytest.param(_set(("valid_set", 0, 1), 0), id="repeated-point"),
        pytest.param(_set(("witnesses", 0, "covered_translates", 0, 0), 4), id="point-out-of-range"),
        pytest.param(_without_weil_data, id="missing-weil-data"),
        pytest.param(_set(("witnesses", 0), 1), id="non-object-witness"),
        pytest.param(_set(("witnesses", 0, "family"), None), id="null-family"),
        pytest.param(_set(("witnesses", 0, "covered_translates"), None), id="null-covered-translates"),
        pytest.param(_set(("coverage",), None), id="null-coverage"),
        pytest.param(_set(("valid_set",), None), id="null-valid-set"),
        pytest.param(_set(("instance", "group", "iota"), "2"), id="string-iota"),
        pytest.param(_set(("instance", "group", "iota"), 2.5), id="float-iota"),
        pytest.param(_bundle_of_other_instance, id="bundle-instance-mismatch"),
    ],
)
def test_vacuous_or_malformed_document_fails_schema(tmp_path, z4, payload, make):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make(z4.spec, payload)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "--certify", str(path)])
    assert code == 3
    assert "fail [schema]" in buf.getvalue()


def test_non_finite_number_is_a_parse_error(tmp_path, payload):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**payload, "version": float("nan")}))
    assert main(["verify", "--certify", str(path)]) == 2


def _node_paths(obj, path=()):
    """The path of every node below obj, containers and leaves alike."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


# labels the verifier does not read, and the hash that rehash() rewrites
_UNINTERPRETED = {("version",), ("instance", "name"), ("content_hash",)}
_JUNK = (-1, "x", None, [], {}, True, 2.5)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_junk_node_fails_a_named_check_and_never_raises(z4, data):
    p = data.draw(st.sampled_from(z4.degrees))
    doc = certificate_payload(z4.spec, coverage_certificate(z4.cm_type, p))
    paths = [path for path in _node_paths(doc) if path not in _UNINTERPRETED]
    node, key = _at(doc, data.draw(st.sampled_from(paths)))
    junk = data.draw(st.sampled_from(_JUNK))
    assume(not (type(node[key]) is type(junk) and node[key] == junk))
    node[key] = junk
    result = verify_certificate(rehash(doc))
    assert not result.ok
    assert result.failed_check in CHECKS
