"""Golden outputs: the SHA-256 of stdout for a fixed set of CLI calls, and
of one certificate file that ``verify`` passes.

Outputs are canonical and byte-identical across runs, so a digest may
change only with a version or format bump recorded in CHANGES.md.  The
witness digests were re-recorded with certificate bundle format version 4,
whose one content hash covers the instance and the induced-type table,
each written once, and every certificate; the analyze digests with report
format version 2.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import accumulate
from pathlib import Path

import pytest

from cmhodge import report
from cmhodge.catalog import catalog, sweep_instances
from cmhodge.cli import main
from cmhodge.cmtypes import hodge_numbers
from cmhodge.groups import bits, mask_of
from cmhodge.instance import build_instance, parse_instance
from cmhodge.monomials import classify, enumerate_valid, galois_orbits
from cmhodge.report import canonical_json
from conftest import content_hash, written_bundle

FIXTURES = Path(__file__).parent / "fixtures"
# product:cyclic.4xcyclic.4 with the CM-type 6..13, read through --input:
# its exotic orbits at p = 5, 6 are the complements of those at p = 3, 2
PRODUCT = "product-6..13"
# 17 regular cyclic:4 factors: m = 68 points, past 64 bits and not a
# multiple of 8, read through --input
M68 = "m68"
M68_PATH = FIXTURES / "m68.txt"
# dihedral:16 with the non-normal factors {1, s} and {1, rs}: a carrier that
# is not regular, so its points are cosets whose order the digests pin
D16_MIXED = "d16-mixed"
INPUTS = {PRODUCT: FIXTURES / "product-6..13.txt", M68: M68_PATH, D16_MIXED: FIXTURES / "d16-mixed.txt"}
INSTANCES = ("cyclic:8", "quaternion:8", "elementary-abelian:16", "cyclic:20", PRODUCT, M68, D16_MIXED)
COMMANDS = (("analyze",), ("deltas",), ("deltas", "--orbits-only"), ("witness",))

GOLDEN = {
    "analyze cyclic:8":
        "3077591b1a1a69122730590a175700f53c2c57c93a4b26dfaf4ea9ba5a83f558",
    "deltas cyclic:8":
        "f71e660124cb4d68c6554471d8e2b64113d84072ad7bdd4f914565cee26c40c9",
    "deltas --orbits-only cyclic:8":
        "d4de22b745459522884e31a35b3195388ed07b8ddd47928b528ca8db2de818a7",
    "witness cyclic:8":
        "33645e51b0b786b8b9cdd14f1879d0b7ed506e7b141073a7fbe5d8fc1d136a4b",
    "analyze quaternion:8":
        "24ad2b63a7ebd9ea79fc58a73f16ec71276f77dbea0d3144947838cbcc2e4b09",
    "deltas quaternion:8":
        "3da0ef8872ec8060fc8a6ce4f08c624b4b70a7bdcd8962f62fa2c63f622694d2",
    "deltas --orbits-only quaternion:8":
        "f76a9d5eb5c7a1e39eb4c7d7b558d7b37e7b084c821a65306f9b4c8b9e9a65c7",
    "witness quaternion:8":
        "78782517e37c465550fd6c42d88e43a667f6a89ed17c406e8b79ae4acae4e3ea",
    "analyze elementary-abelian:16":
        "dc51ba97d8873f1a104eeb6b2a4959d1b23bee31b22e8205f8d14b83bc25a375",
    "deltas elementary-abelian:16":
        "40c57510f96dad3fb7abd9be568e209e2a8125340baf024348bee87f1e5770f9",
    "deltas --orbits-only elementary-abelian:16":
        "8cedb64ebf311ed480fb8fda974ce1c9f2c5fd1563456f74a19d49639f350668",
    "witness elementary-abelian:16":
        "914cf753ce20091db66d9ce585a06e59370f8b2c39598cfbec55e38bb0f5fc7d",
    "analyze cyclic:20":
        "3325c7d9ee117d9ca26b074e23a4a5aacef06a77d24469f45f2825decdf2d671",
    "deltas cyclic:20":
        "c5936d7749cd5664fc30e6afd9ca58604e4e08348d3b32990cc8dcc1b01a7777",
    "deltas --orbits-only cyclic:20":
        "8320ba481893122083b83a368b3d4de095aee0800e7a7e0ebd3d4415ea495da8",
    "witness cyclic:20":
        "5e3971f7d48d8b61308b1b300baf3e0f4a16f2acd90229b2347dece46e0c9864",
    f"analyze {PRODUCT}":
        "78f6b79438760d979a42ba7df0c33df12abda06923ee9fe9316e604d3acd82ba",
    f"deltas {PRODUCT}":
        "5ff3329741e26556f2c2a63afca84dd267fe6b0373fb6fb1399ffa5c141b44cd",
    f"deltas --orbits-only {PRODUCT}":
        "139366463dbf27ec4438e6d9d94468e653dabe62368b87910fe3573fc97daa83",
    f"witness {PRODUCT}":
        "2a114438e417d5e47bf7f6d9d4a124b379af9ad85a43f08febc712baf8a96b3d",
    f"analyze {M68}":
        "f91014fc4e69589680bd6ef89720e1bb2d976bd92e5b63679a639812507fae26",
    f"deltas {M68}":
        "6d4f53351ea48daba64d9ed5ca13c8b7335cd75153d6a4e3972e58585e38ebca",
    f"deltas --orbits-only {M68}":
        "34e394468329dce4fb5f78be32e4c5df5d49b7d7fed4ea07116d56cd49dd836a",
    f"witness {M68}":
        "3bf4ab14966b712c85af9077ef8e70df74db670dcea8bb7a3ad5c5410a15f765",
    f"analyze {D16_MIXED}":
        "ccd17f6a1370fc5f36b5898f200bf96821074ff4a3507e3316ee2b87443bf3a7",
    f"deltas {D16_MIXED}":
        "c3caacb6a0ee998752ee249061f47ad6316462ea1fe9769e24d092fe97719b92",
    f"deltas --orbits-only {D16_MIXED}":
        "6fbe5e4047f0085dd589f541465a70c395892dd489a4290ef4e3b5a660c07a2c",
    f"witness {D16_MIXED}":
        "274ff48de05356fd63d5bb58664bd984ad1e6919a7c870939c98ad1acc6f9e64",
}


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source(instance: str) -> tuple[str, str]:
    return ("--input", str(INPUTS[instance])) if instance in INPUTS else ("--catalog", instance)


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_stdout_digest(command, instance):
    code, out = run_cli(*command, *source(instance))
    assert code == 0
    assert sha256(out) == GOLDEN[" ".join((*command, instance))]
    # the one document hash against an independent encoding
    doc = json.loads(out)
    assert canonical_json(doc) == out
    assert doc["content_hash"] == content_hash(doc)


@pytest.mark.parametrize("instance", (PRODUCT, D16_MIXED))
def test_report_lists_each_orbit_once(instance):
    flag, path = source(instance)
    built = build_instance(parse_instance(Path(path).read_text(encoding="utf-8")))
    code, out = run_cli("analyze", flag, path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cmhodge.report/2" and "rank_with_ones" not in doc["lattice"]
    assert [d["p"] for d in doc["degrees"]] == built.degrees
    for degree in doc["degrees"]:
        assert not {"decomposable", "orbits"} & degree.keys()
        valid = list(map(mask_of, degree["valid"]))
        cuts = list(accumulate(degree["orbit_sizes"], initial=0))
        assert cuts[-1] == len(valid)
        orbits = tuple(tuple(valid[a:b]) for a, b in zip(cuts, cuts[1:]))
        assert orbits == classify(built.cm_type, degree["p"]).orbits
        exotic = list(map(mask_of, degree["exotic"]))
        assert exotic == sorted(set(exotic)) and set(exotic) <= set(valid)
        assert len(exotic) == degree["exotic_count"]
    # the product type has exotic monomials, so the split is pinned too
    assert [d["p"] for d in doc["degrees"] if d["exotic"]] == ([2, 3, 4, 5, 6] if instance == PRODUCT else [])
    # one Hodge row r = 2p per degree asked for, in their order
    def rows(doc):
        return [
            (row["r"], {(c["p"], c["q"]): c["count"] for c in row["counts"]}, row["total"])
            for row in doc["hodge_numbers"]
        ]

    def expected(degrees):
        tables = [hodge_numbers(built.embeddings, 2 * p) for p in degrees]
        return [(2 * p, table, sum(table.values())) for p, table in zip(degrees, tables)]

    assert rows(doc) == expected(built.degrees)
    assert rows(json.loads(run_cli("analyze", flag, path, "--degree", "3")[1])) == expected([3])


@pytest.fixture()
def encoded(monkeypatch) -> list[int]:
    """The length of every text that ``canonical_json`` returns from here on."""
    original = canonical_json
    lengths = []

    def tally(obj):
        text = original(obj)
        lengths.append(len(text))
        return text

    for name, module in list(sys.modules.items()):
        if name.startswith("cmhodge") and getattr(module, "canonical_json", None) is original:
            monkeypatch.setattr(module, "canonical_json", tally)
    return lengths


@pytest.fixture()
def monomial_texts(monkeypatch) -> list[tuple[list[int], int]]:
    """The masks of every list that ``report._monomials`` writes from here
    on, each with the length of its text."""
    original = report._monomials
    calls = []

    def tally(masks):
        text = original(masks)
        calls.append((list(masks), len(text)))
        return text

    monkeypatch.setattr(report, "_monomials", tally)
    return calls


def test_monomial_text_matches_canonical_json():
    masks = [b << 8 * i for i in range(8) for b in range(256)]  # mask 0 among them
    fixture = build_instance(parse_instance(M68_PATH.read_text(encoding="utf-8")))
    listings = [enumerate_valid(fixture.cm_type, p) for p in fixture.degrees]
    masks += [d for listing in listings for d in listing]
    rng = random.Random(0)
    for m in (64, 128, 320, 1024):  # 1 to 16 regular factors of order 64
        masks += [rng.getrandbits(m) for _ in range(50)] + [(1 << m) - 1, 1 << (m - 1)]
    for mask in masks:
        assert report._monomials([mask]) == canonical_json([bits(mask)])[:-1]
    # whole lists, each written at the width of its largest mask: widths
    # from 1 to 1024 bits in one list, as in a table of induced types, and
    # largest masks just past and just under a byte boundary
    mixed = [rng.getrandbits(n) | 1 << (n - 1) for n in range(1, 1025)] + [0, 0]
    rng.shuffle(mixed)
    edges = [[0, 1, rng.getrandbits(8 * k), top] for k in range(1, 17) for top in (1 << 8 * k, (1 << 8 * k) - 1)]
    for masks in ([], [0], [0, 0], *listings, mixed, *edges):
        assert report._monomials(masks) == canonical_json([bits(d) for d in masks])[:-1]


def test_family_text_of_each_point_matches_canonical_json():
    # a bundle lists the induced type at every point, once for all its
    # certificates, and the verifier reads each representative's family
    # from it
    fixture = build_instance(parse_instance(M68_PATH.read_text(encoding="utf-8")))
    for built in (*map(build_instance, sweep_instances(16)), fixture):
        text = written_bundle(built, [0])
        doc = json.loads(text)
        assert canonical_json(doc) == text
        assert doc["induced_types"] == [bits(t) for t in built.cm_type.induced_types]


@pytest.mark.parametrize("command", ("analyze", "witness"))
def test_each_monomial_is_written_once(command, monomial_texts):
    # a monomial appears in one or two lists of its degree (valid, and exotic
    # if it is); a certificate lists only the least member of each orbit,
    # and a bundle writes the induced type at each point once
    built = build_instance(catalog("product", "cyclic.4xcyclic.4"))
    valid = [enumerate_valid(built.cm_type, p) for p in built.degrees]
    reps = sum(len(galois_orbits(built.embeddings, v)) for v in valid)
    assert run_cli(command, "--catalog", "product:cyclic.4xcyclic.4")[0] == 0
    written = sum(map(len, valid)) if command == "analyze" else reps + built.embeddings.size
    assert sum(len(masks) for masks, _ in monomial_texts) == written > 0


@pytest.mark.parametrize("command", ("analyze", "deltas", "witness"))
def test_each_output_byte_is_encoded_once(command, encoded, monomial_texts):
    code, out = run_cli(command, "--catalog", "product:cyclic.4xcyclic.4")
    assert code == 0 and encoded and monomial_texts
    assert sum(encoded) + sum(length for _, length in monomial_texts) <= len(out)
    if command == "witness":
        # nothing is encoded per representative: the table is joined from
        # texts written once per point, the instance once, and the degree
        # and verdict once per certificate
        assert len(encoded) < sum(len(cert["orbit_reps"]) for cert in json.loads(out)["certificates"])


def test_verify_encodes_each_input_byte_once(tmp_path, encoded):
    # the bundle's hash is taken over each certificate's text, one at a time
    cert = tmp_path / "cert.json"
    assert run_cli("witness", "--input", str(INPUTS[PRODUCT]), "--certify", str(cert)) == (0, "")
    encoded.clear()
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 0 and out.count("pass") == 9 and encoded
    assert sum(encoded) <= len(cert.read_text(encoding="utf-8"))


def test_certificate_file_digest_and_verify(tmp_path):
    cert = tmp_path / "cert.json"
    code, out = run_cli("witness", "--input", str(INPUTS[PRODUCT]), "--certify", str(cert))
    assert (code, out) == (0, "")
    # the file holds the bytes `witness` prints
    assert sha256(cert.read_text(encoding="utf-8")) == GOLDEN[f"witness {PRODUCT}"]
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 0
    assert out == "".join(f"p={p}: pass\n" for p in range(9))
