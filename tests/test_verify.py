from __future__ import annotations

import copy
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmhodge.catalog import catalog
from cmhodge.cli import main
from cmhodge.errors import CapExceeded
from cmhodge.instance import build_instance
from cmhodge.report import (
    BUNDLE_KIND,
    CERTIFICATE_KIND,
    canonical_json,
    certificate_bundle,
    instance_payload,
)
from cmhodge import verify
from cmhodge.cmtypes import CMType
from cmhodge.groups import EmbeddingSet, bits, build_group, mask_of
from cmhodge.monomials import valid_delta
from cmhodge.verify import CHECKS, VerificationResult, verify_certificate, verify_document
from conftest import content_hash, induced_family, written_bundle, written_certificate


# outputs of format version 1, as written before version 2 dropped the
# coverage and valid set: the verifier still reads them
V1 = Path(__file__).parent / "fixtures" / "v1"
V1_BUNDLE_KIND = "cmhodge.certificate-bundle"


# outputs of format version 2, as written before version 3 dropped the
# witnesses: the verifier still reads them
V2 = Path(__file__).parent / "fixtures" / "v2"
V2_KIND, V2_BUNDLE_KIND = "cmhodge.certificate/2", "cmhodge.certificate-bundle/2"


def v1_fixture(name: str) -> dict:
    return json.loads((V1 / name).read_text(encoding="utf-8"))


def v2_fixture(name: str) -> dict:
    return json.loads((V2 / name).read_text(encoding="utf-8"))


@pytest.fixture()
def payload(z4):
    return written_certificate(z4, 1)


@pytest.fixture()
def payload_v1():
    """The z4 certificate at p = 1, version 1."""
    return v1_fixture("z4-p1.certificate.json")


@pytest.fixture()
def payload_v2():
    """The z4 certificate at p = 1, version 2."""
    return v2_fixture("z4-p1.certificate.json")


def rehash(doc: dict) -> dict:
    # a forger who recomputes the hash still has to get the math right
    return {**doc, "content_hash": content_hash(doc)}


def test_intact_certificate_passes(payload):
    assert verify_certificate(payload).ok


def test_tamper_without_rehash_is_caught(payload):
    doc = copy.deepcopy(payload)
    doc["p"] = 2
    result = verify_certificate(doc)
    assert result.failed_check == "content_hash"


def test_flipped_family_bit(payload):
    doc = copy.deepcopy(payload)
    doc["induced_types"][0] = [0, 2]  # induced type is [0, 1]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "induced_family"


@pytest.mark.parametrize("element", [4, 10**30], ids=("order", "huge"))
def test_family_element_outside_the_group(tmp_path, capsys, payload_v2, element):
    # |G| = 4: a version-2 family member is compared with the induced type
    # as a list, so an element past the group fails the check and shifts nothing
    doc = copy.deepcopy(payload_v2)
    doc["witnesses"][0]["family"][0] = [0, element]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(rehash(doc)))
    assert main(["verify", "--certify", str(path)]) == 3
    assert "fail [induced_family]" in capsys.readouterr().out


@pytest.mark.parametrize("element", [4, 10**30], ids=("order", "huge"))
def test_induced_type_element_outside_the_group(payload, element):
    # version 3 bounds every stored element before the table is read
    doc = copy.deepcopy(payload)
    doc["induced_types"][2] = [2, element]
    result = verify_certificate(rehash(doc))
    assert result == VerificationResult(False, "schema", "a group element lies outside 0..3")


def test_invalid_delta(payload):
    doc = copy.deepcopy(payload)
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
    doc = {**payload, "p": 3, "orbit_reps": []}
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "degree"


def test_wrong_transcript(payload_v2):
    doc = copy.deepcopy(payload_v2)
    doc["witnesses"][0]["balanced_transcript"][0] = 0
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "balanced"


def test_missing_coverage_entry(payload_v1):
    doc = copy.deepcopy(payload_v1)
    doc["coverage"] = doc["coverage"][:1]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "coverage"


def test_padded_valid_set(payload_v1):
    doc = copy.deepcopy(payload_v1)
    doc["valid_set"] = doc["valid_set"] + [[0, 1]]
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "valid_set"


@pytest.fixture(scope="module")
def d8_p2():
    return v1_fixture("dihedral8-p2.certificate.json")


@pytest.fixture(scope="module")
def d8_p2_v2():
    return v2_fixture("dihedral8-p2.certificate.json")


@pytest.fixture(scope="module")
def d8_p2_v3():
    return written_certificate(build_instance(catalog("dihedral", "8")), 2)


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


def _drop_witness(doc):
    # each orbit is listed once, by its witness: only the count can tell
    doc["witnesses"].pop()
    doc["orbit_reps"].pop()


def _repeat_witness(doc):
    # another orbit of the same size in place of the last one, so the count
    # still matches: only distinctness can tell
    size = len(doc["witnesses"][-1]["covered_translates"])
    i = next(i for i, w in enumerate(doc["witnesses"]) if len(w["covered_translates"]) == size)
    doc["witnesses"][-1] = doc["witnesses"][i]
    doc["orbit_reps"][-1] = doc["orbit_reps"][i]


def _invalid_covered_translate(doc):
    # an unlisted 4-subset is invalid; the listing is checked against the
    # translates of the witness's delta first
    listed = [d for w in doc["witnesses"] for d in w["covered_translates"]]
    doc["witnesses"][0]["covered_translates"][-1] = next(
        list(c) for c in combinations(range(8), 4) if list(c) not in listed
    )


@pytest.mark.parametrize(
    "mutate, check, detail",
    [
        (_drop_witness, "valid_set", "stored valid set differs in size from the independent count"),
        (_repeat_witness, "valid_set", "a monomial is listed twice"),
        (_invalid_covered_translate, "translates", "witness 0 covered translates are wrong"),
    ],
    ids=("drop", "repeat", "invalid"),
)
def test_v2_wrong_orbits_of_right_shape(d8_p2_v2, mutate, check, detail):
    assert d8_p2_v2["kind"] == V2_KIND and "valid_set" not in d8_p2_v2
    assert [len(w["covered_translates"]) for w in d8_p2_v2["witnesses"]] == [2, 8, 4, 2, 2]
    doc = copy.deepcopy(d8_p2_v2)
    mutate(doc)
    assert verify_certificate(rehash(doc)) == VerificationResult(False, check, detail)


def _drop_rep(doc, built):
    # consistent but incomplete: only the count can tell
    doc["orbit_reps"].pop()


def _repeat_rep(doc, built):
    # a least member listed twice: the list no longer ascends
    doc["orbit_reps"][-1] = doc["orbit_reps"][0]


def _non_least_rep(doc, built):
    # the greatest member of the last orbit in place of its least one
    orbit = built.embeddings.translates(mask_of(doc["orbit_reps"][-1]))
    doc["orbit_reps"][-1] = bits(max(orbit))


def _invalid_rep(doc, built):
    # the first 2p-subset that fails the criterion, in place of the first
    p, points = doc["p"], range(built.embeddings.size)
    invalid = (c for c in combinations(points, 2 * p) if not valid_delta(built.cm_type, mask_of(c), p))
    doc["orbit_reps"][0] = list(next(invalid))


def _wrong_type(doc, built):
    # the type at point 1 stored at point 0 as well
    doc["induced_types"][0] = doc["induced_types"][1]


def _element_past_the_group(doc, built):
    doc["induced_types"][0][-1] = built.group.order


# mutations of a version-3 certificate at p = 2, each of the right shape
_V3_MUTATIONS = (_drop_rep, _repeat_rep, _non_least_rep, _invalid_rep, _wrong_type, _element_past_the_group)


@pytest.mark.parametrize(
    "mutate, check, detail",
    [
        (_drop_rep, "valid_set", "the orbits differ in size from the independent count"),
        (_repeat_rep, "orbit_reps", "representative 4 does not follow the one before in ascending order"),
        (_non_least_rep, "orbit_reps", "representative 4 is not the least member of its orbit"),
        (_invalid_rep, "delta_valid", "representative 0 fails the validity criterion"),
        (_wrong_type, "induced_family", "stored induced types differ from the recomputed table"),
        (_element_past_the_group, "schema", "a group element lies outside 0..7"),
    ],
    ids=("drop", "repeat", "non-least", "invalid", "wrong-type", "element-past-the-group"),
)
def test_v3_wrong_orbits_of_right_shape(d8_p2_v3, mutate, check, detail):
    assert d8_p2_v3["kind"] == CERTIFICATE_KIND and "witnesses" not in d8_p2_v3
    assert len(d8_p2_v3["orbit_reps"]) == 5
    doc = copy.deepcopy(d8_p2_v3)
    mutate(doc, build_instance(catalog("dihedral", "8")))
    assert verify_certificate(rehash(doc)) == VerificationResult(False, check, detail)


def test_row_scan_refuses_an_invalid_or_wrong_sized_mask():
    # the orbits are the verifier's own, so no certificate makes its scan
    # fail; the scan is there to catch a fault in them
    phi = build_instance(catalog("dihedral", "8")).cm_type
    valid = [mask_of(c) for c in combinations(range(8), 4) if valid_delta(phi, mask_of(c), 2)]
    rows = list(phi.rows)
    assert verify._all_valid(valid, rows, 2)
    invalid = next(mask_of(c) for c in combinations(range(8), 4) if mask_of(c) not in valid)
    assert not verify._all_valid([*valid, invalid], rows, 2)
    assert not verify._all_valid([*valid, 0b111], rows, 2)


def _unlisted_m64(payload) -> dict:
    """A cyclic:64 certificate at p = 16 that lists no orbit, with the true
    induced types: every check before the count passes, and the count's
    tables would hold 2**33 subsets."""
    built = build_instance(catalog("cyclic", "64"))
    types = [bits(t) for t in built.cm_type.induced_types]
    fields = {"instance": instance_payload(built.spec), "induced_types": types, "orbit_reps": [], "p": 16}
    return rehash({**payload, **fields, "verdict": True})


def test_verifier_reaches_m32_and_refuses_m64_fast(tmp_path, capsys, payload):
    path = tmp_path / "cert.json"
    assert main(["witness", "--catalog", "cyclic:32", "--degree", "4", "--certify", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--certify", str(path)]) == 0
    assert capsys.readouterr().out == "p=4: pass\n"
    # the count must refuse before building a table
    path.write_text(json.dumps(_unlisted_m64(payload)))
    start = time.perf_counter()
    assert main(["verify", "--certify", str(path)]) == 4
    assert time.perf_counter() - start < 10
    assert "cap exceeded" in capsys.readouterr().err


def test_certificate_past_the_points_bound_fails_factors(tmp_path, capsys, payload):
    # 17 regular factors of cyclic:64 have 1,088 points, past MAX_POINTS
    inst = instance_payload(catalog("cyclic", "64"))
    inst["factors"] = [[0]] * 17
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(rehash({**payload, "instance": inst})))
    assert main(["verify", "--certify", str(path)]) == 3
    assert capsys.readouterr().out == "p=1: fail [factors] the factors have more than 1024 points\n"


def test_wrong_weil_data(payload_v2):
    doc = copy.deepcopy(payload_v2)
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


def _z4_bundle(z4) -> dict:
    return json.loads(written_bundle(z4, z4.degrees))


def test_bundle_with_bad_group_fails_group_axioms_on_every_certificate(z4):
    bundle = _z4_bundle(z4)
    for doc in (bundle, *bundle["certificates"]):
        doc["instance"]["group"]["table"][1][1] = 1  # breaks the Latin property
    bundle["certificates"] = [rehash(cert) for cert in bundle["certificates"]]
    results = verify_document(rehash(bundle))
    assert [label for label, _ in results] == ["p=0", "p=1", "p=2"]
    assert all(res.failed_check == "group_axioms" for _, res in results)


def test_bundle_builds_its_instance_once(z4, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "build_group", lambda *args: calls.append(args) or build_group(*args))
    results = verify_document(_z4_bundle(z4))
    assert [res.ok for _, res in results] == [True] * 3
    assert len(calls) == 1


def _empty_bundle(built, payload):
    return json.loads(certificate_bundle(built, []))


def _bundle_without_certificates(built, payload):
    bundle = json.loads(certificate_bundle(built, []))
    del bundle["certificates"]
    return rehash(bundle)


def _bundle_of_non_object(built, payload):
    return rehash({**json.loads(certificate_bundle(built, [])), "certificates": [1]})


def _top_level_array(built, payload):
    return [payload]


def _boolean_p(built, payload):
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

    def make(built, payload):
        doc = copy.deepcopy(payload)
        node, key = _at(doc, path)
        node[key] = value
        return rehash(doc)

    return make


def _without_weil_data(built, payload):
    doc = copy.deepcopy(payload)
    del doc["witnesses"][0]["weil_data"]
    return rehash(doc)


def _v1(make):
    """A document maker that starts from the version-1 z4 certificate."""
    return lambda built, payload: make(built, v1_fixture("z4-p1.certificate.json"))


def _v2(make):
    """A document maker that starts from the version-2 z4 certificate."""
    return lambda built, payload: make(built, v2_fixture("z4-p1.certificate.json"))


def _bundle_of_v1_certificate(built, payload):
    # a version-3 bundle may hold only version-3 certificates
    certs = [payload, v1_fixture("z4-p1.certificate.json")]
    return rehash({**json.loads(certificate_bundle(built, [])), "certificates": certs})


def _bundle_of_v2_certificate(built, payload):
    certs = [payload, v2_fixture("z4-p1.certificate.json")]
    return rehash({**json.loads(certificate_bundle(built, [])), "certificates": certs})


def _bundle_of(bundle: dict, cert: dict) -> dict:
    """``bundle`` holding ``cert`` alone, rehashed."""
    return rehash({**bundle, "instance": cert["instance"], "certificates": [cert]})


def _v1_bundle_of_v2_certificate(built, payload):
    return _bundle_of(v1_fixture("cyclic8.bundle.json"), v2_fixture("z4-p1.certificate.json"))


def _v1_bundle_of_v3_certificate(built, payload):
    return _bundle_of(v1_fixture("cyclic8.bundle.json"), payload)


def _v2_bundle_of_v3_certificate(built, payload):
    return _bundle_of(v2_fixture("cyclic8.bundle.json"), payload)


def _bundle_of_other_instance(built, payload):
    # z4 certificates under a bundle that declares cyclic:8
    bundle = {**json.loads(certificate_bundle(built, [])), "certificates": [payload]}
    return rehash({**bundle, "instance": instance_payload(catalog("cyclic", "8"))})


@pytest.mark.parametrize(
    "make",
    [
        _empty_bundle,
        _bundle_without_certificates,
        _bundle_of_non_object,
        _top_level_array,
        _boolean_p,
        pytest.param(_set(("orbit_reps", 0, 0), -1), id="negative-point"),
        pytest.param(_set(("orbit_reps", 0, 0), "0"), id="string-point"),
        pytest.param(_set(("orbit_reps", 0, 0), False), id="boolean-point"),
        pytest.param(_v1(_set(("valid_set", 0, 1), 0)), id="repeated-point"),
        pytest.param(_set(("orbit_reps", 0, 0), 4), id="point-out-of-range"),
        pytest.param(_v2(_without_weil_data), id="missing-weil-data"),
        pytest.param(_v2(_set(("witnesses", 0), 1)), id="non-object-witness"),
        pytest.param(_v2(_set(("witnesses", 0, "family"), None)), id="null-family"),
        pytest.param(_v2(_set(("witnesses", 0, "covered_translates"), None)), id="null-covered-translates"),
        pytest.param(_v1(_set(("coverage",), None)), id="null-coverage"),
        pytest.param(_v1(_set(("valid_set",), None)), id="null-valid-set"),
        pytest.param(_set(("instance", "group", "iota"), "2"), id="string-iota"),
        pytest.param(_set(("instance", "group", "iota"), 2.5), id="float-iota"),
        pytest.param(_bundle_of_other_instance, id="bundle-instance-mismatch"),
        pytest.param(_bundle_of_v1_certificate, id="bundle-of-v1-certificate"),
        pytest.param(_v1_bundle_of_v2_certificate, id="v1-bundle-of-v2-certificate"),
        pytest.param(_set(("induced_types",), None), id="null-induced-types"),
        pytest.param(_set(("induced_types", 0, 0), -1), id="negative-element"),
        pytest.param(_set(("induced_types", 0, 1), 4), id="element-out-of-range"),
        pytest.param(_bundle_of_v2_certificate, id="bundle-of-v2-certificate"),
        pytest.param(_v2_bundle_of_v3_certificate, id="v2-bundle-of-v3-certificate"),
        pytest.param(_v1_bundle_of_v3_certificate, id="v1-bundle-of-v3-certificate"),
    ],
)
def test_vacuous_or_malformed_document_fails_schema(tmp_path, z4, payload, make):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make(z4, payload)))
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


def _junk_doc(z4, data) -> dict:
    """A z4 certificate with one node replaced by junk, rehashed: one as
    written at any degree, or the version-1 or version-2 one at p = 1."""
    p = data.draw(st.sampled_from([*z4.degrees, "v1", "v2"]))
    if p == "v1":
        return _junked(v1_fixture("z4-p1.certificate.json"), data)
    if p == "v2":
        return _junked(v2_fixture("z4-p1.certificate.json"), data)
    return _junked(written_certificate(z4, p), data)


def _junked(doc: dict, data) -> dict:
    """A copy of doc with one node replaced by junk, rehashed."""
    doc = copy.deepcopy(doc)
    paths = [path for path in _node_paths(doc) if path not in _UNINTERPRETED]
    node, key = _at(doc, data.draw(st.sampled_from(paths)))
    junk = data.draw(st.sampled_from(_JUNK))
    assume(not (type(node[key]) is type(junk) and node[key] == junk))
    node[key] = junk
    return rehash(doc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_junk_node_fails_a_named_check_and_never_raises(z4, data):
    result = verify_certificate(_junk_doc(z4, data))
    assert not result.ok
    assert result.failed_check in CHECKS


def _recursive_conforms(value, shape) -> bool:
    """The schema check as it was before point lists were checked flat:
    one call per node, the oracle for ``verify._conforms``."""
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_recursive_conforms(value.get(k), s) for k, s in shape.items())
    if isinstance(shape, list):
        return isinstance(value, list) and all(_recursive_conforms(v, shape[0]) for v in value)
    if isinstance(shape, set):
        return (
            isinstance(value, list)
            and all(type(v) is int for v in value)
            and min(value, default=0) >= 0
            and len(set(value)) == len(value)
        )
    return type(value) is shape and (shape is not int or value >= 0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flat_schema_check_agrees_with_the_recursive_one(z4, data):
    doc = _junk_doc(z4, data)
    for schema in verify._SCHEMAS.values():
        for key, shape in schema.items():
            assert verify._conforms(doc.get(key), shape) == _recursive_conforms(doc.get(key), shape), key


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_schema_check_agrees_with_the_recursive_one_on_many_rows(d8_p2, d8_p2_v2, d8_p2_v3, data):
    # five witnesses make columns of many rows, and version 1 adds the
    # coverage and the valid set; version 3 has eight induced types
    source = data.draw(st.sampled_from((d8_p2, d8_p2_v2, d8_p2_v3)))
    doc = _junked(source, data)
    for key, shape in verify._SCHEMAS[source["kind"]].items():
        assert verify._conforms(doc.get(key), shape) == _recursive_conforms(doc.get(key), shape), key


# every field that holds a list of point lists, by its path to one point
_POINT_LIST_FIELDS = {
    "family": ("witnesses", 0, "family", 0, 0),
    "covered_translates": ("witnesses", 0, "covered_translates", 0, 0),
    "coverage": ("coverage", 0, 0),
    "valid_set": ("valid_set", 0, 0),
    "orbit_reps": ("orbit_reps", 0, 0),
    "induced_types": ("induced_types", 0, 0),
}


def _repeat_point(doc, path):
    inner, _ = _at(doc, path)
    inner[1] = inner[0]


def _replace_inner_list(doc, path):
    outer, key = _at(doc, path[:-1])
    outer[key] = 3


def _nest_point(doc, path):
    inner, key = _at(doc, path)
    inner[key] = [inner[key]]


def _point_value(value):
    def mutate(doc, path):
        inner, key = _at(doc, path)
        inner[key] = value

    return mutate


@pytest.mark.parametrize("field", _POINT_LIST_FIELDS)
@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_point_value(True), id="true"),
        pytest.param(_point_value(-1), id="negative"),
        pytest.param(_point_value("2"), id="string"),
        pytest.param(_point_value(2.0), id="float"),
        pytest.param(_repeat_point, id="repeated-point"),
        pytest.param(_replace_inner_list, id="non-list-inner"),
        pytest.param(_nest_point, id="nested-list"),
    ],
)
def test_point_list_field_rejects(payload, payload_v1, payload_v2, field, mutate):
    # coverage and the valid set are fields of version 1 only, and the
    # witnesses of versions 1 and 2 only
    if field in ("coverage", "valid_set"):
        payload = payload_v1
    elif field in ("family", "covered_translates"):
        payload = payload_v2
    doc = copy.deepcopy(payload)
    path = _POINT_LIST_FIELDS[field]
    mutate(doc, path)
    result = verify_certificate(rehash(doc))
    assert result.failed_check == "schema"
    assert f"field {path[0]!r}" in result.detail
    schema = verify._SCHEMAS[doc["kind"]]
    assert not verify._conforms(doc[path[0]], schema[path[0]])
    assert not _recursive_conforms(doc[path[0]], schema[path[0]])


def _changed(doc: dict, key: str, op: str) -> dict:
    """A shallow copy of doc with one top-level entry changed by op."""
    out = dict(doc)
    if op == "drop":
        del out[key]
    elif op == "null":
        out[key] = None
    elif op == "wrap":
        out[key] = [doc[key]]
    elif op == "flip":
        out[key] = doc[key][:-1] + ("1" if doc[key].endswith("0") else "0")
    else:  # "add": a key that no check reads
        out[key] = 1
    return out


def _v1_bundle(instance: str) -> dict:
    return v1_fixture(f"{instance.replace(':', '')}.bundle.json")


def _v2_bundle(instance: str) -> dict:
    return v2_fixture(f"{instance.replace(':', '')}.bundle.json")


def _tamper_corpus(bundle_of):
    """(name, bundle) for mutations of the golden witness bundles: each
    top-level entry of the bundle and of each cyclic:8 certificate nulled,
    wrapped in a list or dropped, each stored hash flipped, an extra key
    added, and one certificate replaced by a non-object.  Each is kept
    with stale hashes and with hashes recomputed around the change: a
    changed certificate under a stale bundle hash is only checked with
    its own hash recomputed.  ``bundle_of`` gives each bundle in one
    format version."""
    for instance in ("cyclic:8", "quaternion:8"):
        bundle = bundle_of(instance)
        changes = [(key, op) for key in sorted(bundle) for op in ("null", "wrap", "drop")]
        for key, op in changes + [("content_hash", "flip"), ("extra", "add")]:
            doc = _changed(bundle, key, op)
            yield f"{instance} bundle {key} {op}", doc
            yield f"{instance} bundle {key} {op} rehashed", rehash(doc)
        for i, junk in enumerate((0, None, [], "x")):
            doc = {**bundle, "certificates": [*bundle["certificates"]]}
            doc["certificates"][i] = junk
            yield f"{instance} certificate {i} is {junk!r}", doc
            yield f"{instance} certificate {i} is {junk!r} rehashed", rehash(doc)
        if instance != "cyclic:8":
            continue
        for i, cert in enumerate(bundle["certificates"]):
            changes = [(key, op) for key in sorted(cert) for op in ("null", "wrap", "drop")]
            for key, op in changes + [("content_hash", "flip"), ("extra", "add")]:
                name = f"{instance} p={i} {key} {op}"
                stale = {**bundle, "certificates": [*bundle["certificates"]]}
                stale["certificates"][i] = _changed(cert, key, op)
                fresh = {**bundle, "certificates": [*bundle["certificates"]]}
                fresh["certificates"][i] = rehash(_changed(cert, key, op))
                yield name + ", bundle rehashed", rehash(stale)
                yield name + " rehashed", fresh
                yield name + " rehashed, bundle rehashed", rehash(fresh)


# the verdicts on the tamper corpus of version-1 bundles, pinned when each
# hash was checked by encoding its whole document; a change to any verdict
# or check order changes this digest
TAMPER_DIGEST = "2cda4fecd3871cbcebd478efa036f2651a77758e238a088b01e0734bda4105f9"
# the same for the corpus of version-2 bundles, pinned when that version
# was introduced; its verdicts are the version-1 ones but for the kind
# names and the mutations of the two fields version 2 drops
TAMPER_DIGEST_V2 = "12b980409a75b09c501270d03ce34a295474cc762bddb23cda76ddd352a7ce22"
_BUNDLE_HASH_MISMATCH = VerificationResult(False, "content_hash", "bundle hash mismatch")


# the same for the corpus of version-3 bundles, pinned when that version
# was introduced: its verdicts are the version-2 ones but for the kind
# names and the field that replaces the witnesses.  The corpus ends with
# each of ``_V3_MUTATIONS`` applied to the certificate at p = 2 of each
# bundle, with both hashes recomputed.
TAMPER_DIGEST_V3 = "3f4041f4eb0424b6c996a6ef2f84344318762d9b7a7df441e5e5c5e8c43cd5bb"


def _v3_bundle(instance: str) -> dict:
    built = build_instance(catalog(*instance.split(":")))
    return json.loads(written_bundle(built, built.degrees))


def _tamper_corpus_v3():
    yield from _tamper_corpus(_v3_bundle)
    for instance in ("cyclic:8", "quaternion:8"):
        built = build_instance(catalog(*instance.split(":")))
        bundle = _v3_bundle(instance)
        for mutate in _V3_MUTATIONS:
            cert = copy.deepcopy(bundle["certificates"][2])
            mutate(cert, built)
            doc = {**bundle, "certificates": [*bundle["certificates"]]}
            doc["certificates"][2] = rehash(cert)
            yield f"{instance} p=2{mutate.__name__.replace('_', ' ')}", rehash(doc)


def test_tamper_corpus_hash_results_and_verdicts():
    assert _tamper_digest(_tamper_corpus(_v1_bundle), V1_BUNDLE_KIND) == TAMPER_DIGEST


def test_tamper_corpus_v2_hash_results_and_verdicts():
    assert _tamper_digest(_tamper_corpus(_v2_bundle), V2_BUNDLE_KIND) == TAMPER_DIGEST_V2


def test_tamper_corpus_v3_hash_results_and_verdicts():
    assert _tamper_digest(_tamper_corpus_v3(), BUNDLE_KIND) == TAMPER_DIGEST_V3


def _tamper_digest(corpus, kind: str) -> str:
    """The digest of the verdict lines on one version's tamper corpus,
    with each hash result checked against one encoding of its document."""
    corpus = list(corpus)
    assert len(corpus) >= 200
    lines = []
    for name, doc in corpus:
        results = verify_document(doc)
        lines += [f"{name}: {label}: {res.describe()}" for label, res in results]
        certs = doc.get("certificates")
        if doc.get("kind") != kind or not isinstance(certs, list) or not certs:
            continue
        # each hash result against one encoding of the whole document
        bundle_failed = results == [("bundle", _BUNDLE_HASH_MISMATCH)]
        assert bundle_failed == (doc.get("content_hash") != content_hash(doc)), name
        for cert in certs:
            if isinstance(cert, dict):
                expected = (canonical_json(cert), cert.get("content_hash") == content_hash(cert))
                assert verify._encoded(cert) == expected, name
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_nesting_past_the_encoder_fails_content_hash(z4, payload):
    # the decoder takes a little more depth than the encoder leaves from
    # inside the verifier; such a document has no canonical text to hash
    nested = []
    for _ in range(sys.getrecursionlimit()):
        nested = [nested]
    assert verify_certificate({**payload, "extra": nested}).failed_check == "content_hash"
    bundle = _z4_bundle(z4)
    deep_cert = {**bundle, "certificates": [{**bundle["certificates"][0], "extra": nested}]}
    for doc in ({**bundle, "extra": nested}, deep_cert):
        assert verify_document(doc) == [("bundle", _BUNDLE_HASH_MISMATCH)]


def test_bundle_hash_is_checked_before_a_count_that_raises(z4, payload):
    # a certificate whose count refuses: the bundle's stale hash is still
    # the verdict, and with a good hash the refusal gets through
    cert = _unlisted_m64(payload)
    bundle = {**json.loads(certificate_bundle(z4, [])), "instance": cert["instance"], "certificates": [cert]}
    assert verify_document(bundle) == [("bundle", _BUNDLE_HASH_MISMATCH)]
    with pytest.raises(CapExceeded):
        verify_document(rehash(bundle))


def _v2_delta_not_its_rep(doc):
    # witness 0 states the delta of witness 1
    doc["witnesses"][0]["delta"] = doc["witnesses"][1]["delta"]


def _v2_two_points(doc):
    # witness 0 and its representative hold 2 points, not 2p = 4
    doc["witnesses"][0]["delta"], doc["orbit_reps"][0] = [0, 1], [0, 1]


def _v2_invalid_delta(doc):
    # an unlisted 4-subset is invalid: it is witness 0 and its representative
    listed = [d for w in doc["witnesses"] for d in w["covered_translates"]]
    invalid = next(list(c) for c in combinations(range(8), 4) if list(c) not in listed)
    doc["witnesses"][0]["delta"], doc["orbit_reps"][0] = invalid, list(invalid)


def _v2_short_family(doc):
    doc["witnesses"][0]["family"].pop()


def _v2_non_least_delta(doc):
    # the greatest member of witness 0's orbit, with the induced types at its
    # points: its family and covered translates are right, but it is not least
    witness = doc["witnesses"][0]
    delta = witness["covered_translates"][-1]
    types = induced_family(build_instance(catalog("dihedral", "8")))
    witness["delta"], doc["orbit_reps"][0] = delta, list(delta)
    witness["family"] = [types[s] for s in sorted(delta)]


def _v2_verdict_false(doc):
    doc["verdict"] = False


def _v2_witness_dropped(doc):
    # its orbit representative is kept
    doc["witnesses"].pop()


@pytest.mark.parametrize(
    "mutate, check, detail",
    [
        (_v2_delta_not_its_rep, "schema", "witness 0 delta differs from its orbit representative"),
        (_v2_two_points, "degree", "witness 0 has 2 points, expected 4"),
        (_v2_invalid_delta, "delta_valid", "witness 0 monomial fails the validity criterion"),
        (_v2_short_family, "induced_family", "witness 0 family size differs from |delta|"),
        (_v2_non_least_delta, "orbit_reps", "representative 0 is not minimal in its orbit"),
        (_v2_verdict_false, "coverage", "coverage verdict is wrong"),
        (_v2_witness_dropped, "schema", "witness count differs from orbit representative count"),
    ],
    ids=(
        "delta-not-its-rep", "two-points", "invalid-delta", "short-family", "non-least-delta", "verdict-false",
        "witness-dropped",
    ),
)
def test_v2_witness_checks(d8_p2_v2, mutate, check, detail):
    doc = copy.deepcopy(d8_p2_v2)
    mutate(doc)
    assert verify_certificate(rehash(doc)) == VerificationResult(False, check, detail)


def test_cm_type_holding_a_conjugate_pair_fails_cm_type(payload):
    doc = copy.deepcopy(payload)
    doc["instance"]["cm_type"] = [0, 2]  # 2 is the conjugate of 0 on cyclic:4
    result = verify_certificate(rehash(doc))
    assert result == VerificationResult(False, "cm_type", "point 0 and its conjugate 2 are both in")


def test_v3_verdict_false_fails_coverage(d8_p2_v3):
    doc = rehash({**d8_p2_v3, "verdict": False})
    assert verify_certificate(doc) == VerificationResult(False, "coverage", "coverage verdict is wrong")


def test_v3_balance_catches_a_type_fault_shared_by_writer_and_verifier(monkeypatch):
    # both sides read CMType.induced_types, so with a fault there the stored
    # table equals the recomputed one, and only the balance of a family
    # tells: here point 0 is given the type of point 1
    induced = CMType.induced_types.func
    monkeypatch.setattr(CMType, "induced_types", property(lambda phi: induced(phi)[1:2] + induced(phi)[1:]))
    doc = written_certificate(build_instance(catalog("dihedral", "8")), 2)
    result = verify_certificate(doc)
    assert result == VerificationResult(False, "balanced", "representative 0 family does not hold each element 2 times")


@pytest.mark.parametrize("batch", [None, 1], ids=("one-scan", "scan-per-orbit"))
@pytest.mark.parametrize("faulted", [False, True], ids=("intact", "faulted"))
def test_v3_row_scan_of_the_orbits(monkeypatch, d8_p2_v3, batch, faulted):
    # the orbits are the verifier's own, so only a fault in the translates,
    # here during verification alone, makes the scan fail: each orbit gains
    # the mask of every point.  The rows are read before the fault.
    built = verify._build(d8_p2_v3["instance"])
    if batch:
        monkeypatch.setattr(verify, "_SCAN_BATCH", batch)
    if faulted:
        translates = EmbeddingSet.translates
        monkeypatch.setattr(EmbeddingSet, "translates", lambda self, mask: [*translates(self, mask), self.all_mask])
    result = verify_certificate(d8_p2_v3, built)
    if faulted:
        assert result == VerificationResult(False, "valid_set", "an orbit member fails the validity criterion")
    else:
        assert result == VerificationResult(True)
