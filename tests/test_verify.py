from __future__ import annotations

import copy
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stdout
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmhodge.catalog import catalog, sweep_instances
from cmhodge.cli import main
from cmhodge.instance import build_instance
from cmhodge.report import BUNDLE_KIND, certificate_bundle, instance_payload
from cmhodge import verify
from cmhodge.cmtypes import CMType, enumerate_cm_types
from cmhodge.groups import EmbeddingSet, bits, build_group, mask_of
from cmhodge.monomials import valid_delta
from cmhodge.verify import CHECKS, VerificationResult, verify_document
from conftest import content_hash, one_degree_bundle, verdict, written_bundle

# the path to the one certificate of a one-degree bundle
CERT = ("certificates", 0)


@pytest.fixture()
def payload(z4):
    """The z4 bundle of degree 1 alone."""
    return one_degree_bundle(z4, 1)


def rehash(doc: dict) -> dict:
    # a forger who recomputes the hash still has to get the math right
    return {**doc, "content_hash": content_hash(doc)}


# the kinds of the retired formats 1 to 3, which fail like any unknown kind
_OLD_CERTIFICATE_KINDS = ("cmhodge.certificate", "cmhodge.certificate/2", "cmhodge.certificate/3")
_OLD_BUNDLE_KINDS = ("cmhodge.certificate-bundle", "cmhodge.certificate-bundle/2", "cmhodge.certificate-bundle/3")


def _relabelled(doc: dict, kind: str) -> dict:
    return rehash({**doc, "kind": kind})


def _cert(doc: dict) -> dict:
    """The one certificate of a one-degree bundle."""
    return doc["certificates"][0]


def test_intact_certificate_passes(payload):
    assert verdict(payload).ok


def test_tamper_without_rehash_is_caught(payload):
    doc = copy.deepcopy(payload)
    _cert(doc)["p"] = 2
    result = verdict(doc)
    assert result.failed_check == "content_hash"


def test_changed_representative_without_rehash_fails_the_bundle_hash_once(z4):
    # [1, 3] is a translate of the p = 1 representative [0, 2]
    bundle = _z4_bundle(z4)
    bundle["certificates"][1]["orbit_reps"][0] = [1, 3]
    assert verify_document(bundle) == [("bundle", _BUNDLE_HASH_MISMATCH)]


def test_flipped_family_bit(payload):
    doc = copy.deepcopy(payload)
    doc["induced_types"][0] = [0, 2]  # induced type is [0, 1]
    result = verdict(rehash(doc))
    assert result.failed_check == "induced_family"


def test_tampered_type_table_fails_induced_family_once():
    # the table is stored once, compared once and fails once, for every degree
    built = build_instance(catalog("dihedral", "8"))
    bundle = json.loads(written_bundle(built, built.degrees))
    _wrong_type(bundle, 0, built)
    failed = VerificationResult(False, "induced_family", "stored induced types differ from the recomputed table")
    assert verify_document(rehash(bundle)) == [("bundle", failed)]


@pytest.mark.parametrize("p", ["0: pass\np=1", True, -1, 1.0], ids=("forged-line", "true", "negative", "float"))
def test_forged_degree_prints_no_pass_line(tmp_path, capsys, z4, p):
    # a degree that is not a non-negative int is never printed: each
    # certificate gives exactly one line, and the forged one does not pass
    bundle = _z4_bundle(z4)
    bundle["certificates"][0]["p"] = p
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(rehash(bundle)))
    assert main(["verify", "--certify", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["p=?: fail [schema] field 'p' is missing or malformed", "p=1: pass", "p=2: pass"]


@pytest.mark.parametrize("element", [4, 10**30], ids=("order", "huge"))
def test_family_element_outside_the_group(tmp_path, capsys, payload, element):
    # |G| = 4: an element past the group fails the bundle once, through
    # the command line, and shifts nothing
    doc = copy.deepcopy(payload)
    doc["induced_types"][0] = [0, element]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(rehash(doc)))
    assert main(["verify", "--certify", str(path)]) == 3
    assert capsys.readouterr().out == "bundle: fail [schema] a group element lies outside 0..3\n"


@pytest.mark.parametrize("element", [4, 10**30], ids=("order", "huge"))
def test_induced_type_element_outside_the_group(payload, element):
    # every stored element is bounded before the table is read
    doc = copy.deepcopy(payload)
    doc["induced_types"][2] = [2, element]
    result = verdict(rehash(doc))
    assert result == VerificationResult(False, "schema", "a group element lies outside 0..3")


def test_invalid_delta(payload):
    doc = copy.deepcopy(payload)
    _cert(doc)["orbit_reps"][0] = [0, 1]
    result = verdict(rehash(doc))
    assert result.failed_check == "delta_valid"


# the order-8 catalog carriers and cyclic:12, small enough to test every subset
_EVERY_SUBSET_SPECS = [*(spec for spec in sweep_instances(8) if spec.order == 8), catalog("cyclic", "12")]


@pytest.mark.parametrize("spec", _EVERY_SUBSET_SPECS, ids=lambda spec: spec.name)
def test_delta_valid_agrees_with_the_reference_on_every_subset(spec):
    # every 2p-subset as the only representative, under every CM-type: the
    # verifier's weight check fails it iff the reference's row test does
    carrier = build_instance(spec).embeddings
    for phi in enumerate_cm_types(carrier):
        recount = verify._Recount(phi)
        for p in range(carrier.size // 2 + 1):
            for delta in combinations(range(carrier.size), 2 * p):
                cert = {"p": p, "orbit_reps": [list(delta)], "verdict": True}
                failed = verify.verify_certificate(cert, recount).failed_check
                assert (failed == "delta_valid") != valid_delta(phi, mask_of(delta), p), (phi.members, delta)


def test_wrong_p(payload):
    doc = copy.deepcopy(payload)
    _cert(doc)["p"] = 2
    result = verdict(rehash(doc))
    assert result.failed_check == "degree"


def test_corrupted_group_table(payload):
    doc = copy.deepcopy(payload)
    doc["instance"]["group"]["table"][1][1] = 1  # breaks the Latin property
    result = verdict(rehash(doc))
    assert result.failed_check == "group_axioms"


def test_degree_above_half(payload):
    # no monomial has 2p > m points, so an empty certificate would check nothing
    doc = {**payload, "certificates": [{**_cert(payload), "p": 3, "orbit_reps": []}]}
    result = verdict(rehash(doc))
    assert result.failed_check == "degree"


def test_missing_coverage_entry(payload):
    # the coverage claim is the verdict
    doc = copy.deepcopy(payload)
    del _cert(doc)["verdict"]
    result = verdict(rehash(doc))
    assert result == VerificationResult(False, "schema", "field 'verdict' is missing or malformed")


def test_padded_valid_set(payload):
    # [1, 3] is a translate of the one representative, [0, 2]: appended,
    # its orbit would be counted twice
    doc = copy.deepcopy(payload)
    _cert(doc)["orbit_reps"] += [[1, 3]]
    result = verdict(rehash(doc))
    assert result == VerificationResult(False, "orbit_reps", "representative 1 is not the least member of its orbit")


@pytest.fixture(scope="module")
def d8_p2_v3():
    """The dihedral:8 bundle of degree 2 alone."""
    return one_degree_bundle(build_instance(catalog("dihedral", "8")), 2)


# Each mutation changes certificate i of a bundle, or the table the bundle
# holds for all its certificates.


def _drop_rep(doc, i, built):
    # consistent but incomplete: only the count can tell
    doc["certificates"][i]["orbit_reps"].pop()


def _repeat_rep(doc, i, built):
    # a least member listed twice: the list no longer ascends
    reps = doc["certificates"][i]["orbit_reps"]
    reps[-1] = reps[0]


def _non_least_rep(doc, i, built):
    # the greatest member of the last orbit in place of its least one
    reps = doc["certificates"][i]["orbit_reps"]
    reps[-1] = bits(max(built.embeddings.translates(mask_of(reps[-1]))))


def _invalid_rep(doc, i, built):
    # the first 2p-subset that fails the criterion, in place of the first
    p, points = doc["certificates"][i]["p"], range(built.embeddings.size)
    invalid = (c for c in combinations(points, 2 * p) if not valid_delta(built.cm_type, mask_of(c), p))
    doc["certificates"][i]["orbit_reps"][0] = list(next(invalid))


def _wrong_type(doc, i, built):
    # the type at point 1 stored at point 0 as well
    doc["induced_types"][0] = doc["induced_types"][1]


def _element_past_the_group(doc, i, built):
    doc["induced_types"][0][-1] = len(built.embeddings.action)


# mutations of a certificate at p = 2 or of its bundle's table, each of the
# right shape
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
    assert d8_p2_v3["kind"] == BUNDLE_KIND and _cert(d8_p2_v3).keys() == {"p", "orbit_reps", "verdict"}
    assert len(_cert(d8_p2_v3)["orbit_reps"]) == 5
    doc = copy.deepcopy(d8_p2_v3)
    mutate(doc, 0, build_instance(catalog("dihedral", "8")))
    assert verdict(rehash(doc)) == VerificationResult(False, check, detail)


@pytest.mark.parametrize(
    "mutate, check, detail",
    [
        pytest.param(_drop_rep, "valid_set", "the orbits differ in size from the independent count", id="_drop_orbit"),
        pytest.param(
            _repeat_rep, "orbit_reps", "representative 2 does not follow the one before in ascending order",
            id="_repeat_entry",
        ),
        pytest.param(_invalid_rep, "delta_valid", "representative 0 fails the validity criterion", id="_invalid_entry"),
    ],
)
def test_wrong_valid_set_of_right_shape(mutate, check, detail):
    # the quaternion:8 certificate at p = 2 changed inside its bundle and
    # the hash recomputed: only that certificate fails, on the instance the
    # bundle builds once
    built = build_instance(catalog("quaternion", "8"))
    bundle = json.loads(written_bundle(built, built.degrees))
    assert len(bundle["certificates"][2]["orbit_reps"]) == 3
    mutate(bundle, 2, built)
    results = verify_document(rehash(bundle))
    expected = [VerificationResult(True)] * 5
    expected[2] = VerificationResult(False, check, detail)
    assert results == list(zip([f"p={p}" for p in built.degrees], expected))


@pytest.mark.parametrize("mutate", [_drop_rep, _repeat_rep, _invalid_rep], ids=("drop", "repeat", "invalid"))
def test_v2_wrong_orbits_of_right_shape(d8_p2_v3, mutate):
    # relabelled version 2 and rehashed: refused at its kind, before any
    # orbit is read
    doc = copy.deepcopy(d8_p2_v3)
    mutate(doc, 0, build_instance(catalog("dihedral", "8")))
    result = verdict(_relabelled(doc, "cmhodge.certificate/2"))
    assert result == VerificationResult(False, "schema", "unexpected kind 'cmhodge.certificate/2'")


def _unlisted_m64(payload) -> dict:
    """A cyclic:64 bundle of one certificate, at p = 16, that lists no
    orbit, with the true induced types: every check before the count
    passes, and the count would sum 2 * C(32, 16) subsets."""
    built = build_instance(catalog("cyclic", "64"))
    types = [bits(t) for t in built.cm_type.induced_types]
    cert = {"p": 16, "orbit_reps": [], "verdict": True}
    return rehash({**payload, "instance": instance_payload(built.spec), "induced_types": types, "certificates": [cert]})


# the degree line of a certificate whose count is past HALF_TABLE_CAP
_M64_PAST_THE_CAP = "p=16: fail [degree] counting p = 16 needs 1202160780 subsets, above the cap of 10000000"


def test_verifier_reaches_m32_and_refuses_m64_fast(tmp_path, capsys, payload):
    path = tmp_path / "cert.json"
    assert main(["witness", "--catalog", "cyclic:32", "--degree", "4", "--certify", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--certify", str(path)]) == 0
    assert capsys.readouterr().out == "p=4: pass\n"
    # the degree check must refuse the count before building a table
    path.write_text(json.dumps(_unlisted_m64(payload)))
    start = time.perf_counter()
    assert main(["verify", "--certify", str(path)]) == 3
    assert time.perf_counter() - start < 10
    assert capsys.readouterr() == (_M64_PAST_THE_CAP + "\n", "")


def test_degree_past_the_count_cap_hides_no_other_verdict(tmp_path, capsys):
    # a cyclic:64 bundle of degree 1 with an invalid representative, and a
    # second certificate past the count's cap: each gets its own line
    path = tmp_path / "cert.json"
    assert main(["witness", "--catalog", "cyclic:64", "--degree", "1", "--certify", str(path)]) == 0
    bundle = json.loads(path.read_text())
    bundle["certificates"][0]["orbit_reps"][0] = [0, 1]
    bundle["certificates"].append({"p": 16, "orbit_reps": [], "verdict": True})
    path.write_text(json.dumps(rehash(bundle)))
    capsys.readouterr()
    assert main(["verify", "--certify", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["p=1: fail [delta_valid] representative 0 fails the validity criterion", _M64_PAST_THE_CAP]


def test_certificate_past_the_points_bound_fails_factors(tmp_path, capsys, payload):
    # 17 regular factors of cyclic:64 have 1,088 points, past MAX_POINTS
    inst = instance_payload(catalog("cyclic", "64"))
    inst["factors"] = [[0]] * 17
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(rehash({**payload, "instance": inst})))
    assert main(["verify", "--certify", str(path)]) == 3
    assert capsys.readouterr().out == "bundle: fail [factors] the factors have more than 1024 points\n"


def test_wrong_kind(payload):
    doc = copy.deepcopy(payload)
    doc["kind"] = "something-else"
    result = verdict(rehash(doc))
    assert result.failed_check == "schema"


def test_content_hash_helper_is_stable(payload):
    assert payload["content_hash"] == content_hash(payload)


def _z4_bundle(z4) -> dict:
    return json.loads(written_bundle(z4, z4.degrees))


def test_bundle_with_bad_group_fails_group_axioms_once(z4):
    bundle = _z4_bundle(z4)
    bundle["instance"]["group"]["table"][1][1] = 1  # breaks the Latin property
    results = verify_document(rehash(bundle))
    assert results == [("bundle", VerificationResult(False, "group_axioms", "associativity fails at (1,1,2)"))]


@pytest.mark.parametrize(
    "field, value, line",
    [
        ("cm_type", [4], "bundle: fail [cm_type] member index out of range"),
        ("factors", [], "bundle: fail [factors] at least one factor is required"),
    ],
    ids=("cm-type-point-m", "no-factor"),
)
def test_bad_instance_fact_prints_one_bundle_line(tmp_path, capsys, z4, field, value, line):
    # cyclic:4 has m = 4 points, 0..3
    bundle = _z4_bundle(z4)
    bundle["instance"][field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(rehash(bundle)))
    assert main(["verify", "--certify", str(path)]) == 3
    assert capsys.readouterr().out == line + "\n"


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
    # True == 1 in Python, not in the schema
    return rehash({**payload, "certificates": [{**_cert(payload), "p": True}]})


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


def _bundle_of(bundle_kind: str, kind: str):
    """A document maker: a bundle labelled ``bundle_kind`` that holds the
    z4 certificate at p = 1 labelled ``kind``, rehashed."""

    def make(built, payload):
        return _relabelled({**payload, "certificates": [{**_cert(payload), "kind": kind}]}, bundle_kind)

    return make


@pytest.mark.parametrize(
    "make",
    [
        _empty_bundle,
        _bundle_without_certificates,
        _bundle_of_non_object,
        _top_level_array,
        _boolean_p,
        pytest.param(_set((*CERT, "orbit_reps", 0, 0), -1), id="negative-point"),
        pytest.param(_set((*CERT, "orbit_reps", 0, 0), "0"), id="string-point"),
        pytest.param(_set((*CERT, "orbit_reps", 0, 0), False), id="boolean-point"),
        pytest.param(_set((*CERT, "orbit_reps", 0, 1), 0), id="repeated-point"),
        pytest.param(_set((*CERT, "orbit_reps", 0, 0), 4), id="point-out-of-range"),
        pytest.param(_set(("instance", "group", "iota"), "2"), id="string-iota"),
        pytest.param(_set(("instance", "group", "iota"), 2.5), id="float-iota"),
        pytest.param(_set(("induced_types",), None), id="null-induced-types"),
        pytest.param(_set(("induced_types", 0, 0), -1), id="negative-element"),
        pytest.param(_set(("induced_types", 0, 1), 4), id="element-out-of-range"),
        # the orbit representatives stand for the valid set, one per orbit
        # of covered translates, and the verdict is the coverage claim
        pytest.param(_set((*CERT, "orbit_reps"), None), id="null-valid-set"),
        pytest.param(_set((*CERT, "orbit_reps", 0), None), id="null-covered-translates"),
        pytest.param(_set(("induced_types", 0), None), id="null-family"),
        pytest.param(_set((*CERT, "verdict"), None), id="null-coverage"),
        pytest.param(_bundle_of(BUNDLE_KIND, "cmhodge.certificate"), id="bundle-of-v1-certificate"),
        pytest.param(_bundle_of(BUNDLE_KIND, "cmhodge.certificate/2"), id="bundle-of-v2-certificate"),
        pytest.param(_bundle_of(BUNDLE_KIND, "cmhodge.certificate/3"), id="bundle-of-v3-certificate"),
        pytest.param(
            _bundle_of("cmhodge.certificate-bundle", "cmhodge.certificate/2"), id="v1-bundle-of-v2-certificate"
        ),
        pytest.param(
            _bundle_of("cmhodge.certificate-bundle", "cmhodge.certificate/3"), id="v1-bundle-of-v3-certificate"
        ),
        pytest.param(
            _bundle_of("cmhodge.certificate-bundle/2", "cmhodge.certificate/3"), id="v2-bundle-of-v3-certificate"
        ),
        pytest.param(
            _bundle_of("cmhodge.certificate-bundle/3", "cmhodge.certificate/3"), id="v3-bundle-of-v3-certificate"
        ),
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


@pytest.mark.parametrize(
    "kind, where",
    [
        *((kind, "alone") for kind in _OLD_CERTIFICATE_KINDS + _OLD_BUNDLE_KINDS),
        *((kind, "in-current-bundle") for kind in _OLD_CERTIFICATE_KINDS),
    ],
)
def test_old_kind_fails_schema(tmp_path, capsys, z4, payload, kind, where):
    # each document is a written one relabelled and rehashed: an old
    # certificate, which held the instance and the type table itself, an
    # old bundle of old certificates, or a current bundle holding an old
    # certificate at p = 1
    failed = f"fail [schema] unexpected kind {kind!r}"
    bundle = _z4_bundle(z4)
    if where == "in-current-bundle":
        certs = [*bundle["certificates"]]
        certs[1] = _relabelled(certs[1], kind)
        doc, expected = rehash({**bundle, "certificates": certs}), f"p=0: pass\np=1: {failed}\np=2: pass\n"
    elif kind in _OLD_BUNDLE_KINDS:
        certs = [_relabelled(cert, kind.replace("-bundle", "")) for cert in bundle["certificates"]]
        doc, expected = _relabelled({**bundle, "certificates": certs}, kind), f"bundle: {failed}\n"
    else:
        shared = {key: payload[key] for key in ("instance", "induced_types")}
        doc, expected = _relabelled({**_cert(payload), **shared}, kind), f"bundle: {failed}\n"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--certify", str(path)]) == 3
    assert capsys.readouterr().out == expected


def test_non_finite_number_is_a_parse_error(tmp_path, payload):
    # NaN, and a number past the float range, which Python's json reads as inf
    path = tmp_path / "doc.json"
    for number in ("NaN", "1e400"):
        path.write_text(json.dumps(payload)[:-1] + f', "x": {number}}}')
        assert main(["verify", "--certify", str(path)]) == 2


def test_non_finite_float_fails_the_hash(z4, payload):
    # canonical JSON cannot encode it, so no hash can match
    bundle = _z4_bundle(z4)
    in_a_certificate = {**bundle, "certificates": [{**bundle["certificates"][0], "x": float("inf")}]}
    for doc in ({**payload, "x": float("inf")}, {**bundle, "x": float("inf")}, in_a_certificate):
        assert verify_document(doc) == [("bundle", _BUNDLE_HASH_MISMATCH)]


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
    """A z4 bundle of any one degree as written, with one node replaced by
    junk, rehashed."""
    return _junked(one_degree_bundle(z4, data.draw(st.sampled_from(z4.degrees))), data)


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
    result = verdict(_junk_doc(z4, data))
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


def _schema_fields(doc: dict):
    """(key, value, shape) for each field of a bundle the schema checks, and
    for each field of its first certificate if that is an object."""
    certs = doc.get("certificates")
    cert = certs[0] if isinstance(certs, list) and certs and isinstance(certs[0], dict) else {}
    for part, schema in ((doc, verify._SCHEMA), (cert, verify._CERTIFICATE_SCHEMA)):
        for key, shape in schema.items():
            yield key, part.get(key), shape


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flat_schema_check_agrees_with_the_recursive_one(z4, data):
    doc = _junk_doc(z4, data)
    for key, value, shape in _schema_fields(doc):
        assert verify._conforms(value, shape) == _recursive_conforms(value, shape), key


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_schema_check_agrees_with_the_recursive_one_on_many_rows(d8_p2_v3, data):
    # five representatives and eight induced types make columns of many rows
    doc = _junked(d8_p2_v3, data)
    for key, value, shape in _schema_fields(doc):
        assert verify._conforms(value, shape) == _recursive_conforms(value, shape), key


# every field that holds a list of point lists, by its path
_POINT_LIST_FIELDS = {
    "orbit_reps": (*CERT, "orbit_reps"),
    "induced_types": ("induced_types",),
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
def test_point_list_field_rejects(payload, field, mutate):
    doc = copy.deepcopy(payload)
    node, key = _at(doc, _POINT_LIST_FIELDS[field])
    mutate(doc, (*_POINT_LIST_FIELDS[field], 0, 0))
    result = verdict(rehash(doc))
    assert result.failed_check == "schema"
    assert f"field {field!r}" in result.detail
    shape = {**verify._SCHEMA, **verify._CERTIFICATE_SCHEMA}[field]
    assert not verify._conforms(node[key], shape)
    assert not _recursive_conforms(node[key], shape)


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


def _tamper_corpus():
    """(name, bundle) for mutations of the golden witness bundles: each
    top-level entry of the bundle and of each cyclic:8 certificate nulled,
    wrapped in a list or dropped, the stored hash flipped, an extra key
    added, and one certificate replaced by a non-object.  Each is kept
    with the stale hash and with the hash recomputed around the change.
    The corpus ends with each of ``_V3_MUTATIONS`` applied to the
    certificate at p = 2 of each bundle, with the hash recomputed."""
    built = {instance: build_instance(catalog(*instance.split(":"))) for instance in ("cyclic:8", "quaternion:8")}
    bundles = {instance: json.loads(written_bundle(b, b.degrees)) for instance, b in built.items()}
    for instance, bundle in bundles.items():
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
            for key, op in changes + [("extra", "add")]:
                doc = {**bundle, "certificates": [*bundle["certificates"]]}
                doc["certificates"][i] = _changed(cert, key, op)
                yield f"{instance} p={i} {key} {op}", doc
                yield f"{instance} p={i} {key} {op}, bundle rehashed", rehash(doc)
    for instance, bundle in bundles.items():
        for mutate in _V3_MUTATIONS:
            doc = copy.deepcopy(bundle)
            mutate(doc, 2, built[instance])
            yield f"{instance} p=2{mutate.__name__.replace('_', ' ')}", rehash(doc)


# the verdicts on the tamper corpus, pinned with format version 4 and
# re-pinned when a failure of the bundle's shared facts became one
# ``bundle`` line; a change to any verdict or check order changes this digest
TAMPER_DIGEST_V4 = "c9d0e63d22ace4ae887259f9da708fe85b8cad0d11fdabee93fe920f6f356b3a"
_BUNDLE_HASH_MISMATCH = VerificationResult(False, "content_hash", "bundle hash mismatch")


def test_tamper_corpus_v4_hash_results_and_verdicts():
    assert _tamper_digest() == TAMPER_DIGEST_V4


def _refused_at_kind(monkeypatch, kind: str) -> None:
    """Each bundle of the tamper corpus that keeps the current kind,
    relabelled ``kind``, fails ``schema`` at its kind alone, labelled as a
    bundle: no hash is encoded and no instance is built."""

    def unreached(*args):
        raise AssertionError("an old-kind document was read past its kind")

    for name in ("_texts", "_hash_ok", "_bundle_facts"):
        monkeypatch.setattr(verify, name, unreached)
    corpus = [(name, doc) for name, doc in _tamper_corpus() if doc.get("kind") == BUNDLE_KIND]
    assert len(corpus) >= 150
    for name, doc in corpus:
        refused = [("bundle", VerificationResult(False, "schema", f"unexpected kind {kind!r}"))]
        assert verify_document({**doc, "kind": kind}) == refused, name


def test_tamper_corpus_hash_results_and_verdicts(monkeypatch):
    _refused_at_kind(monkeypatch, "cmhodge.certificate-bundle")


def test_tamper_corpus_v2_hash_results_and_verdicts(monkeypatch):
    _refused_at_kind(monkeypatch, "cmhodge.certificate-bundle/2")


def test_tamper_corpus_v3_hash_results_and_verdicts(monkeypatch):
    _refused_at_kind(monkeypatch, "cmhodge.certificate-bundle/3")


def _tamper_digest() -> str:
    """The digest of the verdict lines on the tamper corpus, with the hash
    result checked against one encoding of each document."""
    corpus = list(_tamper_corpus())
    assert len(corpus) >= 150
    lines = []
    for name, doc in corpus:
        results = verify_document(doc)
        lines += [f"{name}: {label}: {res.describe()}" for label, res in results]
        certs = doc.get("certificates")
        if doc.get("kind") == BUNDLE_KIND and isinstance(certs, list) and certs:
            bundle_failed = results == [("bundle", _BUNDLE_HASH_MISMATCH)]
            assert bundle_failed == (doc.get("content_hash") != content_hash(doc)), name
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_nesting_past_the_encoder_fails_content_hash(z4, payload):
    # the decoder takes a little more depth than the encoder leaves from
    # inside the verifier; such a document has no canonical text to hash
    nested = []
    for _ in range(sys.getrecursionlimit()):
        nested = [nested]
    bundle = _z4_bundle(z4)
    deep_cert = {**bundle, "certificates": [{**bundle["certificates"][0], "extra": nested}]}
    for doc in ({**payload, "extra": nested}, {**bundle, "extra": nested}, deep_cert):
        assert verify_document(doc) == [("bundle", _BUNDLE_HASH_MISMATCH)]


def test_bundle_hash_is_checked_before_a_count_that_raises(z4, payload):
    # a certificate whose count is past the cap: the bundle's stale hash is
    # still the verdict, and with a good hash the certificate fails its degree
    bundle = _unlisted_m64(payload)
    assert verify_document(_changed(bundle, "content_hash", "flip")) == [("bundle", _BUNDLE_HASH_MISMATCH)]
    assert [f"{label}: {res.describe()}" for label, res in verify_document(bundle)] == [_M64_PAST_THE_CAP]


def test_cm_type_holding_a_conjugate_pair_fails_cm_type(payload):
    doc = copy.deepcopy(payload)
    doc["instance"]["cm_type"] = [0, 2]  # 2 is the conjugate of 0 on cyclic:4
    result = verdict(rehash(doc))
    assert result == VerificationResult(False, "cm_type", "point 0 and its conjugate 2 are both in")


def test_v3_verdict_false_fails_coverage(d8_p2_v3):
    doc = rehash({**d8_p2_v3, "certificates": [{**_cert(d8_p2_v3), "verdict": False}]})
    assert verdict(doc) == VerificationResult(False, "coverage", "coverage verdict is wrong")


def test_v3_induced_family_catches_a_type_fault_in_the_writer(monkeypatch):
    # the writer reads CMType.induced_types and the verifier reads the action
    # table, so a fault in the writer's table differs from the recomputed
    # one at every degree, p = 0 included: here point 0 is given the type
    # of point 1
    induced = CMType.induced_types.func
    monkeypatch.setattr(CMType, "induced_types", property(lambda phi: induced(phi)[1:2] + induced(phi)[1:]))
    built = build_instance(catalog("dihedral", "8"))
    for p in (0, 2):
        result = verdict(one_degree_bundle(built, p))
        assert result == VerificationResult(False, "induced_family", "stored induced types differ from the recomputed table")


@pytest.mark.parametrize("p, rep", [(1, 1), (2, 2)], ids=("p1", "p2"))
def test_v3_orbits_catch_a_translates_fault_shared_by_writer_and_verifier(monkeypatch, p, rep):
    # the verifier reads its orbits off the action table, so a fault in
    # EmbeddingSet.translates cannot agree with itself there: here every set
    # is its own only translate, and the writer lists each valid monomial as
    # an orbit of its own.  The rows are read before the fault
    built = build_instance(catalog("dihedral", "8"))
    built.cm_type.rows
    monkeypatch.setattr(EmbeddingSet, "translates", lambda self, mask: [mask] * len(self.action))
    result = verdict(one_degree_bundle(built, p))
    assert result == VerificationResult(False, "orbit_reps", f"representative {rep} is not the least member of its orbit")
