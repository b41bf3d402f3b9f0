"""Golden outputs: the SHA-256 of stdout for a fixed set of CLI calls, and
of one certificate file that ``verify`` passes.

Outputs are canonical and byte-identical across runs, so a digest may
change only with a version or format bump recorded in CHANGES.md.  The
witness digests were re-recorded with certificate format version 2.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from cmhodge import report
from cmhodge.catalog import catalog, sweep_instances
from cmhodge.cli import main
from cmhodge.groups import bits
from cmhodge.instance import build_instance, parse_instance, serialize_instance
from cmhodge.monomials import enumerate_valid, galois_orbits
from cmhodge.report import canonical_json
from conftest import content_hash, written_bundle

# product:cyclic.4xcyclic.4 with the CM-type 6..13, read through --input
PRODUCT = "product-6..13"
# 17 regular cyclic:4 factors: m = 68 points, past 64 bits and not a
# multiple of 8, read through --input
M68 = "m68"
M68_PATH = Path(__file__).parent / "fixtures" / "m68.txt"
# dihedral:16 with the non-normal factors {1, s} and {1, rs}: a carrier that
# is not regular, so its points are cosets whose order the digests pin
D16_MIXED = "d16-mixed"
INPUTS = {M68: M68_PATH, D16_MIXED: Path(__file__).parent / "fixtures" / "d16-mixed.txt"}
INSTANCES = ("cyclic:8", "quaternion:8", "elementary-abelian:16", "cyclic:20", PRODUCT, M68, D16_MIXED)
COMMANDS = (("analyze",), ("deltas",), ("deltas", "--orbits-only"), ("witness",))

GOLDEN = {
    "analyze cyclic:8":
        "601ecb22ab70fc5b73335ce7f62dd9e513dfa8c27eecc0425ee52a6140756215",
    "deltas cyclic:8":
        "f71e660124cb4d68c6554471d8e2b64113d84072ad7bdd4f914565cee26c40c9",
    "deltas --orbits-only cyclic:8":
        "d4de22b745459522884e31a35b3195388ed07b8ddd47928b528ca8db2de818a7",
    "witness cyclic:8":
        "77920c0898deb5354ccb5077cd239f2b46f89dbb576911af5139c02302cb7d45",
    "analyze quaternion:8":
        "77c1e80581c593a8fe2b958a648e6f86113b19bca71ffc7c327d19df4b17dff9",
    "deltas quaternion:8":
        "3da0ef8872ec8060fc8a6ce4f08c624b4b70a7bdcd8962f62fa2c63f622694d2",
    "deltas --orbits-only quaternion:8":
        "f76a9d5eb5c7a1e39eb4c7d7b558d7b37e7b084c821a65306f9b4c8b9e9a65c7",
    "witness quaternion:8":
        "712316a812d8810b6085b9f7fd923d0a65c1b5909771cb022b332e6ee42235df",
    "analyze elementary-abelian:16":
        "e6d0fc461d54386bd55e5fe4d95162b9ffa8edd25b6d889950fa4e55cefcec2c",
    "deltas elementary-abelian:16":
        "40c57510f96dad3fb7abd9be568e209e2a8125340baf024348bee87f1e5770f9",
    "deltas --orbits-only elementary-abelian:16":
        "8cedb64ebf311ed480fb8fda974ce1c9f2c5fd1563456f74a19d49639f350668",
    "witness elementary-abelian:16":
        "37a9d5abc3b64eb8967cf47efc499d50232ce6d21b3b008ebe9d8b30a723a4e0",
    "analyze cyclic:20":
        "1395f1f6c32493973cd185a4630e95fd1340c97771aaf98a8fb00ee681294361",
    "deltas cyclic:20":
        "c5936d7749cd5664fc30e6afd9ca58604e4e08348d3b32990cc8dcc1b01a7777",
    "deltas --orbits-only cyclic:20":
        "8320ba481893122083b83a368b3d4de095aee0800e7a7e0ebd3d4415ea495da8",
    "witness cyclic:20":
        "7574f1f05b393873ae9010de0270e96706d4784c842ba842eacf2f2c2510a5bd",
    f"analyze {PRODUCT}":
        "5311f469cd4dfe0822e5f09d5f9889e66074489ad1f50ceee560dc3139d83784",
    f"deltas {PRODUCT}":
        "5ff3329741e26556f2c2a63afca84dd267fe6b0373fb6fb1399ffa5c141b44cd",
    f"deltas --orbits-only {PRODUCT}":
        "139366463dbf27ec4438e6d9d94468e653dabe62368b87910fe3573fc97daa83",
    f"witness {PRODUCT}":
        "e3938158862df13b3e5d5186d4bbf4a84e93827c6ba2638ec64b12ea76344416",
    f"analyze {M68}":
        "9c60c171684547661888eaa39650b40255bb02e5d7898a42c39098f5287b4a22",
    f"deltas {M68}":
        "6d4f53351ea48daba64d9ed5ca13c8b7335cd75153d6a4e3972e58585e38ebca",
    f"deltas --orbits-only {M68}":
        "34e394468329dce4fb5f78be32e4c5df5d49b7d7fed4ea07116d56cd49dd836a",
    f"witness {M68}":
        "e6847ddae49bd46c4056c087e46b7f5f2c13b846f17e0eb5c4d6b4d3888df351",
    f"analyze {D16_MIXED}":
        "86ee90c908c267312c19f298ae78a6591b90df455006576022a5762cf7a56af3",
    f"deltas {D16_MIXED}":
        "c3caacb6a0ee998752ee249061f47ad6316462ea1fe9769e24d092fe97719b92",
    f"deltas --orbits-only {D16_MIXED}":
        "6fbe5e4047f0085dd589f541465a70c395892dd489a4290ef4e3b5a660c07a2c",
    f"witness {D16_MIXED}":
        "e5489e8f0e20f8100d4c08be882ffb5df6191e40e6adfdfb0ab174fdc224f350",
}


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def product_input(tmp_path_factory) -> str:
    spec = replace(catalog("product", "cyclic.4xcyclic.4"), cm_type=tuple(range(6, 14)))
    path = tmp_path_factory.mktemp("golden") / "product.txt"
    path.write_text(serialize_instance(spec), encoding="utf-8")
    return str(path)


def source(instance: str, product_input: str) -> tuple[str, str]:
    if instance in INPUTS:
        return ("--input", str(INPUTS[instance]))
    return ("--input", product_input) if instance == PRODUCT else ("--catalog", instance)


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_stdout_digest(command, instance, product_input):
    code, out = run_cli(*command, *source(instance, product_input))
    assert code == 0
    assert sha256(out) == GOLDEN[" ".join((*command, instance))]
    # the inserted hashes against the verifier's independent encoder
    doc = json.loads(out)
    assert canonical_json(doc) == out
    for part in (doc, *doc.get("certificates", ())):
        assert part["content_hash"] == content_hash(part)


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
def monomial_texts(monkeypatch) -> list[int]:
    """The length of every text that ``report._monomial_text`` returns from
    here on."""
    original = report._monomial_text
    lengths = []

    def tally(mask):
        text = original(mask)
        lengths.append(len(text))
        return text

    monkeypatch.setattr(report, "_monomial_text", tally)
    return lengths


def test_monomial_text_matches_canonical_json():
    masks = [b << 8 * i for i in range(8) for b in range(256)]  # mask 0 among them
    fixture = build_instance(parse_instance(M68_PATH.read_text(encoding="utf-8")))
    masks += [d for p in fixture.degrees for d in enumerate_valid(fixture.cm_type, p)]
    rng = random.Random(0)
    for m in (64, 128, 320, 1024):  # 1 to 16 regular factors of order 64
        masks += [rng.getrandbits(m) for _ in range(50)] + [(1 << m) - 1, 1 << (m - 1)]
    for mask in masks:
        assert report._monomial_text(mask) == canonical_json(bits(mask))[:-1]


def test_family_text_of_each_point_matches_canonical_json():
    # a witness's family lists the induced type at each point of its delta;
    # the one witness of the top degree has every point
    fixture = build_instance(parse_instance(M68_PATH.read_text(encoding="utf-8")))
    for built in (*map(build_instance, sweep_instances(16)), fixture):
        text = written_bundle(built, [built.embeddings.size // 2])
        doc = json.loads(text)
        assert canonical_json(doc) == text
        (witness,) = doc["certificates"][0]["witnesses"]
        assert witness["family"] == [bits(t) for t in built.cm_type.induced_types]


@pytest.mark.parametrize("command", ("analyze", "witness"))
def test_each_monomial_is_written_once(command, monomial_texts):
    # a monomial appears in three lists of its degree, or once in its
    # certificate; a certificate also writes once the induced type at each
    # point of an orbit representative, which the witness families list
    built = build_instance(catalog("product", "cyclic.4xcyclic.4"))
    phi = built.cm_type
    valid = [enumerate_valid(phi, p) for p in built.degrees]
    reps = [[orbit[0] for orbit in galois_orbits(built.embeddings, v)] for v in valid]
    types = [len({phi.induced_types[s] for d in r for s in bits(d)}) for r in reps]
    assert run_cli(command, "--catalog", "product:cyclic.4xcyclic.4")[0] == 0
    hodge_dims = sum(map(len, valid))
    assert len(monomial_texts) == hodge_dims + (sum(types) if command == "witness" else 0) > 0


@pytest.mark.parametrize("command", ("analyze", "deltas", "witness"))
def test_each_output_byte_is_encoded_once(command, encoded, monomial_texts):
    code, out = run_cli(command, "--catalog", "product:cyclic.4xcyclic.4")
    assert code == 0 and encoded and monomial_texts
    assert sum(encoded) + sum(monomial_texts) <= len(out)
    if command == "witness":
        # nothing is encoded per witness: each family is joined from texts
        # written once per point, and the other values once per certificate
        assert len(encoded) < sum(len(cert["witnesses"]) for cert in json.loads(out)["certificates"])


def test_verify_encodes_each_input_byte_once(product_input, tmp_path, encoded):
    # the bundle's hash is taken over the certificates' own texts
    cert = tmp_path / "cert.json"
    assert run_cli("witness", "--input", product_input, "--certify", str(cert)) == (0, "")
    encoded.clear()
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 0 and out.count("pass") == 9 and encoded
    assert sum(encoded) <= len(cert.read_text(encoding="utf-8"))


def test_certificate_file_digest_and_verify(product_input, tmp_path):
    cert = tmp_path / "cert.json"
    code, out = run_cli("witness", "--input", product_input, "--certify", str(cert))
    assert (code, out) == (0, "")
    # the file holds the bytes `witness` prints
    assert sha256(cert.read_text(encoding="utf-8")) == GOLDEN[f"witness {PRODUCT}"]
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 0
    assert out == "".join(f"p={p}: pass\n" for p in range(9))


def test_v1_certificate_file_still_verifies():
    # the same bundle as written before the format's version 2
    cert = Path(__file__).parent / "fixtures" / "v1" / "product-6..13.bundle.json"
    assert json.loads(cert.read_text(encoding="utf-8"))["kind"] == "cmhodge.certificate-bundle"
    assert run_cli("verify", "--certify", str(cert)) == (0, "".join(f"p={p}: pass\n" for p in range(9)))
