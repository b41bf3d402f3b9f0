from __future__ import annotations

import errno
import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from cmhodge.catalog import _group_data, catalog, cyclic_table, sweep_instances
from cmhodge import cli, monomials
from cmhodge.cli import main
from cmhodge.errors import CmhodgeError, NoCentralInvolution, ParseError, UnknownCatalogEntry, ValidationError
from cmhodge.groups import build_group, mask_of
from cmhodge.instance import InstanceSpec, build_instance, parse_instance, serialize_instance
from cmhodge.monomials import classify, enumerate_valid, galois_orbits
from cmhodge.report import degree_payload
from conftest import catalog_defaults, relabelled

FIXTURES = Path(__file__).parent / "fixtures"
PRODUCT_PATH = FIXTURES / "product-6..13.txt"

Z2_TEXT = """\
# minimal elliptic-curve instance
group 2
table
0 1
1 0
iota 1
factor 0
cmtype 0
degrees all
"""


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_parse_minimal_instance():
    spec = parse_instance(Z2_TEXT)
    assert spec.order == 2
    assert spec.iota == 1
    assert spec.cm_type == (0,)
    build_instance(spec)


def test_roundtrip_catalog_entries():
    for spec in sweep_instances(12):
        assert parse_instance(serialize_instance(spec)) == spec


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("group 2\ntable\n0 1\n1 x\niota 1\nfactor 0\ncmtype 0\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_instance("table\n")  # table before group
    # a repeated degree would be computed and written twice
    with pytest.raises(ParseError, match="line 9: degree 0 is repeated"):
        parse_instance(Z2_TEXT.replace("degrees all", "degrees 0 1 0"))
    # a repeated point or element would be copied into every certificate's
    # instance, which the verifier's schema check then rejects
    with pytest.raises(ParseError, match="line 8: point 0 is repeated"):
        parse_instance(Z2_TEXT.replace("cmtype 0", "cmtype 0 0"))
    with pytest.raises(ParseError, match="line 7: element 0 is repeated"):
        parse_instance(Z2_TEXT.replace("factor 0", "factor 0 0"))


def test_validation_wraps_module_errors():
    bad_iota = Z2_TEXT.replace("iota 1", "iota 0")
    with pytest.raises(ValidationError, match="BadInvolution"):
        build_instance(parse_instance(bad_iota))
    bad_cm = Z2_TEXT.replace("cmtype 0", "cmtype 0 1")
    with pytest.raises(ValidationError, match="NotACMType"):
        build_instance(parse_instance(bad_cm))


def test_catalog_entries():
    assert catalog("cyclic", "2").order == 2
    spec = catalog("cyclic", "8")
    assert spec.order == 8 and spec.iota == 4 and spec.factors == ((0,),)
    with pytest.raises(NoCentralInvolution):
        catalog("dihedral", "6")
    with pytest.raises(NoCentralInvolution):
        catalog("cyclic", "3")
    with pytest.raises(UnknownCatalogEntry):
        catalog("nope", "1")


def _accepted_catalog_groups() -> list[tuple[str, list[list[int]], int]]:
    """What ``_group_data`` returns for every entry of order at most 64 that
    it accepts: each family at each order, quaternion:8, and the products of
    two of the accepted entries of order at most 16."""
    def accepted(name, params):
        try:
            return [_group_data(name, params)]
        except CmhodgeError:
            return []

    entries = [(name, str(n)) for name in ("cyclic", "elementary-abelian", "dihedral") for n in range(1, 65)]
    singles = [g for entry in (*entries, ("quaternion", "8")) for g in accepted(*entry)]
    small = [label.replace(":", ".") for label, table, _ in singles if len(table) <= 16]
    return singles + [g for a in small for b in small for g in accepted("product", f"{a}x{b}")]


def test_catalog_groups_are_groups_with_identity_0():
    # catalog() does not check its own tables; build_instance does, once
    groups = _accepted_catalog_groups()
    assert len(groups) == 227
    for label, table, iota in groups:
        assert build_group(len(table), table, iota).action[0] == tuple(range(len(table))), label


def moved_by_5g_plus_3(spec: InstanceSpec) -> InstanceSpec:
    """``spec`` relabelled by sigma(g) = 5g + 3 mod n (n prime to 5), which
    moves both the identity and iota."""
    sigma = [(5 * g + 3) % spec.order for g in range(spec.order)]
    moved = relabelled(spec, sigma)
    assert sigma[0] != 0 and moved.iota != spec.iota
    return moved


@pytest.mark.parametrize("name", ["d16-mixed.txt", "product-6..13.txt"])
def test_a_group_whose_identity_is_not_0_gives_the_same_answers(name, tmp_path):
    # the catalog and every other fixture put the identity at 0: here
    # _cosets must find it, and the inverses, from the table
    spec = parse_instance((FIXTURES / name).read_text(encoding="utf-8"))
    before, after = build_instance(spec), build_instance(moved_by_5g_plus_3(spec))
    counts = []
    for p in before.degrees:
        reports = [classify(built.cm_type, p) for built in (before, after)]
        counts.append([(r.hodge_dim, r.lefschetz_dim, len(r.exotic), len(r.orbits)) for r in reports])
    assert all(old == new for old, new in counts)
    path, bundle = tmp_path / "moved.txt", str(tmp_path / "bundle.json")
    path.write_text(serialize_instance(after.spec), encoding="utf-8")
    assert run_cli("witness", "--input", str(path), "--certify", bundle) == (0, "")
    assert run_cli("verify", "--certify", bundle) == (0, "".join(f"p={p}: pass\n" for p in before.degrees))
    agree = "".join(f"p={p}: agree ({old[0]} valid)\n" for p, (old, _) in zip(before.degrees, counts))
    assert run_cli("oracle", "--input", str(path)) == (0, agree)


def test_the_relabelled_fixture_is_d16_mixed_relabelled():
    spec = parse_instance((FIXTURES / "d16-mixed.txt").read_text(encoding="utf-8"))
    text = (FIXTURES / "d16-mixed-relabelled.txt").read_text(encoding="utf-8")
    assert parse_instance(text) == moved_by_5g_plus_3(spec)
    assert text.startswith("# d16-mixed.txt with every group element g renamed sigma(g) = 5g + 3 mod 16")


def test_catalog_command_builds_its_group_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_group(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("cmhodge")]:
        if getattr(module, "build_group", None) is build_group:
            monkeypatch.setattr(module, "build_group", counted)
    for command in ("analyze", "deltas", "witness", "oracle"):
        calls.clear()
        assert run_cli(command, "--catalog", "dihedral:8")[0] == 0, command
        assert len(calls) == 1, command


def test_a_named_command_builds_only_its_own_parser(monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    for command in ("analyze", "deltas", "witness", "oracle", "catalog"):
        built.clear()
        assert run_cli(command, "--catalog", "dihedral:8")[0] == 0, command
        assert built == ["cmhodge", f"cmhodge {command}"], command
    # anything else gets every command's parser, for its message
    built.clear()
    assert run_cli("nosuch")[0] == 1
    assert len(built) == 1 + len(cli._COMMANDS)


def test_cli_analyze_dims():
    code, out = run_cli("analyze", "--catalog", "cyclic:4", "--degree", "all")
    assert code == 0
    report = json.loads(out)
    dims = [(d["p"], d["hodge_dim"]) for d in report["degrees"]]
    assert dims == [(0, 1), (1, 2), (2, 1)]
    # rank-maximal: m/2 + 1 = 3
    assert report["lattice"] == {"row_count": 4, "rank": 3, "max_possible": 3, "is_maximal": True}


def test_cli_witness_verify_cycle(tmp_path):
    cert = tmp_path / "cert.json"
    code, _ = run_cli("witness", "--catalog", "cyclic:4", "--certify", str(cert))
    assert code == 0
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 0
    assert "fail" not in out

    data = json.loads(cert.read_text())
    data["certificates"][0]["orbit_reps"][0] = [0, 1]
    cert.write_text(json.dumps(data))
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 3


def test_cli_oracle():
    code, out = run_cli("oracle", "--catalog", "elementary-abelian:4")
    assert code == 0
    assert "DISAGREE" not in out


def test_cli_deltas_orbits_only():
    code, out = run_cli("deltas", "--catalog", "cyclic:4", "--degree", "1", "--orbits-only")
    assert code == 0
    report = json.loads(out)
    assert report["degrees"] == [{"p": 1, "deltas": [[0, 2]]}]


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli("analyze")[0] == 1  # neither --input nor --catalog
    assert run_cli()[0] == 1  # no command
    assert run_cli("nosuch")[0] == 1
    # each command takes only the options it reads
    assert run_cli("analyze", "--catalog", "cyclic:4", "--certify", str(tmp_path / "x"))[0] == 1
    assert not (tmp_path / "x").exists()
    assert run_cli("catalog", "--input", str(tmp_path / "x"))[0] == 1
    cert = tmp_path / "cert.json"
    assert run_cli("witness", "--catalog", "cyclic:4", "--certify", str(cert))[0] == 0
    assert run_cli("verify", "--certify", str(cert), "--degree", "2")[0] == 1
    assert run_cli("analyze", "--catalog", "cyclic:4", "--orbits-only")[0] == 1
    assert run_cli("deltas", "--catalog", "cyclic:4", "--cap", "5")[0] == 1
    assert run_cli("analyze", "--catalog", "dihedral:6")[0] == 2
    for entry in ("cyclic:abc", "cyclic:", "cyclic:66", "product:cyclic.16xcyclic.8"):
        assert run_cli("analyze", "--catalog", entry)[0] == 2, entry
    capsys.readouterr()
    assert run_cli("analyze", "--catalog", "cyclic:-4")[0] == 2
    assert "-4" in capsys.readouterr().err
    # the brute force stops at C(64, 32) subsets, past BRUTEFORCE_CAP, before any is tested
    assert run_cli("oracle", "--catalog", "cyclic:64", "--degree", "16")[0] == 4
    # phi has C(32, 16) subsets of 16 points, past LISTING_CAP, and each is
    # half of a valid monomial: refused before the enumerator's table is built
    assert run_cli("deltas", "--catalog", "cyclic:64", "--degree", "16")[0] == 4
    assert run_cli("deltas", "--catalog", "cyclic:64", "--degree", "1")[0] == 0
    # 2,665,648 valid monomials at p = 6: the listing cap stops the output
    capsys.readouterr()
    assert run_cli("deltas", "--catalog", "product:cyclic.8xcyclic.4")[0] == 4
    assert "listing cap" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("group 2\n")
    assert run_cli("analyze", "--input", str(bad))[0] == 2
    table = tuple(map(tuple, cyclic_table(66)))
    too_big = InstanceSpec("", 66, table, 33, ((0,),), tuple(range(33)), None)
    bad.write_text(serialize_instance(too_big))
    assert run_cli("analyze", "--input", str(bad))[0] == 2  # groups stop at order 64
    # an empty degrees line selects no degree, so every command would pass
    # vacuously, a repeated degree would be written twice, and a repeated
    # point or element would be written into certificates that fail verify
    for old, line, message in (
        ("degrees all", "degrees", "line 9: degrees"),
        ("degrees all", "degrees 0 1 0", "line 9: degree 0 is repeated"),
        ("cmtype 0", "cmtype 0 0", "line 8: point 0 is repeated"),
        ("factor 0", "factor 0 0", "line 7: element 0 is repeated"),
    ):
        capsys.readouterr()
        bad.write_text(Z2_TEXT.replace(old, line))
        for command in ("analyze", "deltas", "witness", "oracle"):
            assert run_cli(command, "--input", str(bad))[0] == 2, command
        assert message in capsys.readouterr().err
    # unreadable paths and undecodable text are input errors, not tracebacks
    capsys.readouterr()
    assert run_cli("analyze", "--input", str(tmp_path))[0] == 2
    assert run_cli("verify", "--certify", str(tmp_path))[0] == 2
    assert run_cli("witness", "--catalog", "cyclic:4", "--certify", str(tmp_path))[0] == 2
    bad.write_bytes(b"\xff\xfe group 2\n")
    assert run_cli("analyze", "--input", str(bad))[0] == 2
    assert run_cli("verify", "--certify", str(bad))[0] == 2
    # JSON past the decoder's nesting and integer-digit limits
    bad.write_text("[" * 100_000)
    assert run_cli("verify", "--certify", str(bad))[0] == 2
    bad.write_text('{"p": ' + "9" * 5000 + "}")
    assert run_cli("verify", "--certify", str(bad))[0] == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 7


def refuse_bruteforce(*args, **kwargs):
    raise AssertionError("a degree was brute-forced before the cap check")


def test_oracle_checks_every_degree_before_the_first(monkeypatch, capsys):
    # dihedral:32 is past BRUTEFORCE_CAP from p = 4 on, C(32, 8) subsets:
    # the run exits 4 before p = 0 is brute-forced, and prints no line
    monkeypatch.setattr(cli, "enumerate_valid_bruteforce", refuse_bruteforce)
    assert run_cli("oracle", "--catalog", "dihedral:32") == (4, "")
    assert capsys.readouterr().err == "cap exceeded: C(32,8) exceeds the cap of 10000000\n"


def test_oracle_counts_every_degree_before_the_first(monkeypatch, capsys):
    # the default type of elementary-abelian:16 has one translate row, so
    # all C(8, 3)**2 = 3,136 monomials of degree 3 are valid: past a listing
    # cap of 1000 the run exits 4 before p = 0 is brute-forced
    monkeypatch.setattr(cli, "enumerate_valid_bruteforce", refuse_bruteforce)
    monkeypatch.setattr(monomials, "LISTING_CAP", 1000)
    assert run_cli("oracle", "--catalog", "elementary-abelian:16") == (4, "")
    assert capsys.readouterr().err == "cap exceeded: degree 3 has more than 1000 valid monomials, the listing cap\n"


def test_m64_degree_lists_and_its_bundle_verifies(tmp_path):
    # the default type of cyclic:64 is rank-maximal at degree 4, so its
    # valid monomials are the C(32, 4) unions of 4 conjugate pairs
    built = build_instance(catalog("cyclic", "64"))
    conj = built.embeddings.conj
    pairs = [1 << s | 1 << conj[s] for s in range(64) if s < conj[s]]
    code, out = run_cli("deltas", "--catalog", "cyclic:64", "--degree", "4")
    assert code == 0
    [degree] = json.loads(out)["degrees"]
    assert sorted(map(mask_of, degree["deltas"])) == sorted(map(sum, combinations(pairs, 4)))
    assert len(degree["deltas"]) == comb(32, 4) == 35_960
    bundle = tmp_path / "bundle.json"
    assert run_cli("witness", "--catalog", "cyclic:64", "--degree", "4", "--certify", str(bundle)) == (0, "")
    # the verifier's own count sums 2 * C(32, 4) subsets
    assert run_cli("verify", "--certify", str(bundle)) == (0, "p=4: pass\n")


def test_degree_option_replaces_the_degrees_line(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(serialize_instance(replace(catalog("cyclic", "4"), degrees=(1,))))
    for flags, degrees in (((), [1]), (("--degree", "all"), [0, 1, 2]), (("--degree", "2"), [2])):
        for command in ("analyze", "deltas", "witness"):
            code, out = run_cli(command, "--input", str(path), *flags)
            key = "certificates" if command == "witness" else "degrees"
            assert code == 0 and [d["p"] for d in json.loads(out)[key]] == degrees, (command, flags)
        code, out = run_cli("oracle", "--input", str(path), *flags)
        assert code == 0 and [line.split(":")[0] for line in out.splitlines()] == [f"p={p}" for p in degrees]
    # m = 16: the line's degree 10 is out of range, but --degree replaces it
    # before build_instance checks the range
    path.write_text(serialize_instance(replace(catalog("cyclic", "16"), degrees=(10,))))
    assert run_cli("deltas", "--input", str(path), "--degree", "9") == (2, "")
    assert capsys.readouterr().err == "invalid instance: degree 9 outside 0..8\n"
    code, out = run_cli("deltas", "--input", str(path), "--degree", "1", "--orbits-only")
    assert code == 0 and [d["p"] for d in json.loads(out)["degrees"]] == [1]


def test_closed_stdout_is_an_access_error(monkeypatch, capsys):
    # as in `cmhodge analyze ... | head -c 300`: the error names no file
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        writelines = write

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    for command in ("analyze", "witness"):
        assert main([command, "--catalog", "cyclic:4"]) == 2, command
        assert capsys.readouterr().err == "cannot access: Broken pipe\n"


def test_points_past_the_bound_are_refused(tmp_path, capsys):
    # 17 regular factors of cyclic:64 have 1,088 points, one factor past the
    # largest carrier the tests build
    table = tuple(map(tuple, cyclic_table(64)))
    phi = tuple(s for k in range(17) for s in range(64 * k, 64 * k + 32))
    spec = InstanceSpec("", 64, table, 32, ((0,),) * 17, phi, None)
    path = tmp_path / "m1088.txt"
    path.write_text(serialize_instance(spec))
    assert run_cli("analyze", "--input", str(path), "--degree", "0") == (2, "")
    assert capsys.readouterr().err == "invalid instance: CapExceeded: the factors have more than 1024 points\n"
    # 16 factors, 1,024 points, still build, and the report holds only the
    # Hodge row of the degree asked for
    spec = replace(spec, factors=spec.factors[1:], cm_type=phi[:-32])
    assert build_instance(spec).embeddings.size == 1024
    path.write_text(serialize_instance(spec))
    code, out = run_cli("analyze", "--input", str(path), "--degree", "0")
    assert code == 0 and len(out) < 100_000
    assert [row["r"] for row in json.loads(out)["hodge_numbers"]] == [0]


def test_listing_cap_exits_before_any_degree_is_listed(monkeypatch, capsys):
    # product:cyclic.8xcyclic.4 has 894,912 valid monomials at p = 5 and
    # 2,665,648 at p = 6: every degree is counted before p = 0 is listed
    def refuse(*args):
        raise AssertionError("a degree was listed before the count")

    for name in ("classify", "galois_orbits", "enumerate_valid"):
        monkeypatch.setattr(cli, name, refuse)
    for command in ("analyze", "witness", "deltas"):
        capsys.readouterr()
        assert run_cli(command, "--catalog", "product:cyclic.8xcyclic.4") == (4, ""), command
        assert capsys.readouterr().err == (
            "cap exceeded: degree 6 has more than 1000000 valid monomials, the listing cap\n"
        )


@pytest.fixture(scope="module")
def mirror_inputs(tmp_path_factory) -> list[tuple[object, str]]:
    """(built, instance file) for every catalog default with m <= 16, and
    product:cyclic.4xcyclic.4 with the CM-type 6..13, whose exotic orbits
    at p = 5, 6 are the complements of those at p = 3, 2."""
    specs = [built.spec for built in catalog_defaults(16)]
    specs.append(parse_instance(PRODUCT_PATH.read_text(encoding="utf-8")))
    folder = tmp_path_factory.mktemp("mirror")
    out = []
    for n, spec in enumerate(specs):
        path = folder / f"{n}.txt"
        path.write_text(serialize_instance(spec), encoding="utf-8")
        out.append((build_instance(spec), str(path)))
    assert len(out) == 63
    return out


def _upper_degrees(built) -> list[int]:
    # the degrees the commands build from their complement degree
    half = built.embeddings.size // 2
    return [p for p in built.degrees if p > half - p]


def _capture_writers(monkeypatch) -> dict:
    """Writer name -> the (p, answer) pairs a command last handed it."""
    handed = {}
    for name in ("analysis_report", "deltas_report", "certificate_bundle"):
        def capture(built, per_degree, *rest, _name=name, _write=getattr(cli, name)):
            handed[_name] = per_degree
            return _write(built, per_degree, *rest)

        monkeypatch.setattr(cli, name, capture)
    return handed


def _direct_routes(built) -> list:
    """(command, writer, the pair it should hand over at p, output key) for
    each per-degree command, each pair worked out at p itself by
    enumerate_valid, galois_orbits and classify."""
    phi = built.cm_type
    listings = {p: enumerate_valid(phi, p) for p in built.degrees}
    reps = {p: [orbit[0] for orbit in galois_orbits(built.embeddings, listings[p])] for p in built.degrees}
    payloads = {p: degree_payload(classify(phi, p)) for p in built.degrees}
    return [
        (("analyze",), "analysis_report", lambda p: (p, payloads[p]), "degrees"),
        (("deltas",), "deltas_report", lambda p: (p, listings[p]), "degrees"),
        (("deltas", "--orbits-only"), "deltas_report", lambda p: (p, reps[p]), "degrees"),
        (("witness",), "certificate_bundle", lambda p: (p, reps[p]), "certificates"),
    ]


def test_upper_degrees_match_the_direct_routes(monkeypatch, mirror_inputs):
    # every per-degree object the commands hand to the writers, with all
    # degrees and with one upper degree alone, equals the one worked out
    # at that degree by enumerate_valid, galois_orbits and classify; and an
    # upper degree alone is written as it is among all degrees
    handed = _capture_writers(monkeypatch)
    exotic_upper = 0
    for built, path in mirror_inputs:
        for command, writer, expected, key in _direct_routes(built):
            code, out = run_cli(*command, "--input", path)
            assert code == 0 and handed[writer] == list(map(expected, built.degrees)), (built.spec.name, command)
            every = json.loads(out)[key]
            for p in _upper_degrees(built):
                code, out = run_cli(*command, "--input", path, "--degree", str(p))
                assert code == 0 and handed[writer] == [expected(p)], (built.spec.name, command, p)
                assert json.loads(out)[key] == [every[built.degrees.index(p)]], (built.spec.name, command, p)
        exotic_upper += sum(bool(classify(built.cm_type, p).exotic) for p in _upper_degrees(built))
    assert exotic_upper == 2  # p = 5, 6 of the product type


# the calls through which each command works out a degree, in call order
_WORKERS = {
    ("analyze",): ("classify",),
    ("deltas",): ("enumerate_valid",),
    ("deltas", "--orbits-only"): ("enumerate_valid", "galois_orbits"),
    ("witness",): ("enumerate_valid", "galois_orbits"),
}


def test_each_complement_pair_is_worked_out_once(monkeypatch, tmp_path):
    # m = 16: the nine degrees are the pairs {q, 8 - q} for q = 0..4, and a
    # command works each pair out once, at q, whatever order the degrees
    # are asked in; the degrees are written in the order asked, each as
    # its direct route gives it
    calls = []
    for name in ("classify", "enumerate_valid", "galois_orbits"):
        def spy(*args, _name=name, _work=getattr(cli, name)):
            # galois_orbits is handed a listing, not a degree
            calls.append((_name, args[1] if _name != "galois_orbits" else None))
            return _work(*args)

        monkeypatch.setattr(cli, name, spy)
    handed = _capture_writers(monkeypatch)
    text = PRODUCT_PATH.read_text(encoding="utf-8")
    assert "degrees all\n" in text
    for line, pairs in (("degrees all", [0, 1, 2, 3, 4]), ("degrees 6 1 7 0", [2, 1, 0])):
        path = tmp_path / "in.txt"
        path.write_text(text.replace("degrees all", line), encoding="utf-8")
        built = build_instance(parse_instance(path.read_text(encoding="utf-8")))
        assert built.embeddings.size == 16
        for command, writer, expected, key in _direct_routes(built):
            calls.clear()
            code, out = run_cli(*command, "--input", str(path))
            assert code == 0
            worked = [(name, None if name == "galois_orbits" else q) for q in pairs for name in _WORKERS[command]]
            assert calls == worked, (line, command)
            assert handed[writer] == list(map(expected, built.degrees)), (line, command)
            assert [d["p"] for d in json.loads(out)[key]] == built.degrees, (line, command)


def test_an_upper_degree_past_the_cap_exits_4_naming_it(monkeypatch, capsys, mirror_inputs):
    # the count is taken at the complement degree, and the message names
    # the degree asked for
    for built, path in mirror_inputs:
        for p in _upper_degrees(built):
            n = len(enumerate_valid(built.cm_type, p))
            monkeypatch.setattr(monomials, "LISTING_CAP", n - 1)
            for command in (("analyze",), ("deltas",), ("deltas", "--orbits-only"), ("witness",)):
                capsys.readouterr()
                assert run_cli(*command, "--input", path, "--degree", str(p)) == (4, ""), (built.spec.name, p)
                assert capsys.readouterr().err == (
                    f"cap exceeded: degree {p} has more than {n - 1} valid monomials, the listing cap\n"
                )
            monkeypatch.setattr(monomials, "LISTING_CAP", n)
            assert run_cli("deltas", "--input", path, "--degree", str(p))[0] == 0
            monkeypatch.undo()


def test_cli_input_file(tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text(Z2_TEXT)
    code, out = run_cli("analyze", "--input", str(path))
    assert code == 0
    assert json.loads(out)["degrees"][1]["hodge_dim"] == 1


def test_cli_catalog_listing():
    code, out = run_cli("catalog")
    assert code == 0
    assert "cyclic" in out
    code, out = run_cli("catalog", "--catalog", "cyclic:2")
    assert code == 0
    assert parse_instance(out).order == 2


def test_reports_byte_identical_across_runs():
    outputs = {run_cli("analyze", "--catalog", "dihedral:8")[1] for _ in range(3)}
    assert len(outputs) == 1
    certs = {run_cli("witness", "--catalog", "quaternion:8")[1] for _ in range(2)}
    assert len(certs) == 1


@pytest.mark.parametrize(
    "old, new",
    [
        ("table\n", "table\n\n"),
        ("table\n", "table\n# the rows follow\n"),
        ("0 1\n", "0 1  # the identity's row\n"),
        ("0 1\n", "0 1\n   \n# between rows\n"),
    ],
    ids=("blank", "comment", "trailing-comment", "blank-and-comment-between-rows"),
)
def test_blank_and_comment_lines_inside_a_table_are_skipped(old, new):
    assert parse_instance(Z2_TEXT.replace(old, new)) == parse_instance(Z2_TEXT)


# inputs that reach a branch of the CLI or the parser that no other test
# does: the command line, with IN standing for a file that holds the text,
# and the exit code and the whole of stderr that each must give.  Z2_TEXT's
# lines: 1 comment, 2 group, 3 table, 4-5 rows, 6 iota, 7 factor, 8 cmtype,
# 9 degrees
@pytest.mark.parametrize(
    "text, argv, code, err",
    [
        (Z2_TEXT, ("analyze", "--input", "IN", "--degree", "x"), 1,
         "usage error: --degree wants an integer or 'all', got 'x'"),
        # build_instance checks the degree bound for --degree and for a
        # degrees line alike
        (Z2_TEXT, ("analyze", "--input", "IN", "--degree", "99"), 2, "invalid instance: degree 99 outside 0..1"),
        (Z2_TEXT.replace("degrees all", "degrees 99"), ("analyze", "--input", "IN"), 2,
         "invalid instance: degree 99 outside 0..1"),
        (Z2_TEXT, ("verify",), 1, "usage error: verify requires --certify PATH"),
        # a file that verify cannot read is named a certificate, not an instance
        ("{", ("verify", "--certify", "IN"), 2,
         "invalid certificate: not valid JSON: "
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"\xff{}", ("verify", "--certify", "IN"), 2,
         "invalid certificate: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (Z2_TEXT, ("analyze", "--catalog", "quaternion:16"), 2,
         "error: UnknownCatalogEntry: quaternion only comes in order 8, got 16"),
        (Z2_TEXT, ("analyze", "--catalog", "product:cyclic.4"), 2,
         "error: UnknownCatalogEntry: product wants two factors, got 'cyclic.4'"),
        (Z2_TEXT, ("analyze", "--catalog", "product:x"), 2,
         "error: UnknownCatalogEntry: the first factor of product 'x' has no name; expected NAME.PARAMSxNAME.PARAMS"),
        (Z2_TEXT, ("analyze", "--catalog", "product:cyclic.4x"), 2,
         "error: UnknownCatalogEntry: the second factor of product 'cyclic.4x' has no name; "
         "expected NAME.PARAMSxNAME.PARAMS"),
        (Z2_TEXT + "group 2\n", ("analyze", "--input", "IN"), 2, "invalid instance: line 10: duplicate group line"),
        (Z2_TEXT + "table\n0 1\n1 0\n", ("analyze", "--input", "IN"), 2, "invalid instance: line 10: duplicate table"),
        (Z2_TEXT + "iota 1\n", ("analyze", "--input", "IN"), 2, "invalid instance: line 10: duplicate iota line"),
        (Z2_TEXT + "cmtype 0\n", ("analyze", "--input", "IN"), 2, "invalid instance: line 10: duplicate cmtype line"),
        (Z2_TEXT.replace("group 2", "group 2 3"), ("analyze", "--input", "IN"), 2,
         "invalid instance: line 2: group wants exactly one integer (the order)"),
        (Z2_TEXT.replace("iota 1", "iota"), ("analyze", "--input", "IN"), 2,
         "invalid instance: line 6: iota wants exactly one integer"),
        (Z2_TEXT.replace("table\n", "table 9 9 9\n"), ("analyze", "--input", "IN"), 2,
         "invalid instance: line 3: table takes no value; its rows follow"),
        (Z2_TEXT.replace("1 0\n", "1\n"), ("analyze", "--input", "IN"), 2,
         "invalid instance: line 5: table row has 1 entries, expected 2"),
        (Z2_TEXT + "frobnicate 3\n", ("analyze", "--input", "IN"), 2,
         "invalid instance: line 10: unknown directive 'frobnicate'"),
        # a table cut short is reported at the text's last line, past any
        # blank or comment lines at its end
        ("group 2\ntable\n0 1\n", ("analyze", "--input", "IN"), 2, "invalid instance: line 3: table row 1 missing"),
        ("group 2\ntable\n0 1\n\n# end\n", ("analyze", "--input", "IN"), 2,
         "invalid instance: line 5: table row 1 missing"),
        ("iota 1\nfactor 0\ncmtype 0\n", ("analyze", "--input", "IN"), 2, "invalid instance: missing group line"),
        (Z2_TEXT.replace("table\n0 1\n1 0\n", ""), ("analyze", "--input", "IN"), 2,
         "invalid instance: missing or incomplete table"),
        (Z2_TEXT.replace("iota 1\n", ""), ("analyze", "--input", "IN"), 2, "invalid instance: missing iota line"),
        (Z2_TEXT.replace("factor 0\n", ""), ("analyze", "--input", "IN"), 2,
         "invalid instance: at least one factor line is required"),
        (Z2_TEXT.replace("cmtype 0\n", ""), ("analyze", "--input", "IN"), 2, "invalid instance: missing cmtype line"),
        (Z2_TEXT.replace("cmtype 0", "cmtype 5"), ("analyze", "--input", "IN"), 2,
         "invalid instance: NotACMType: member index out of range"),
        (Z2_TEXT.replace("cmtype 0", "cmtype -1"), ("analyze", "--input", "IN"), 2,
         "invalid instance: NotACMType: member index out of range"),
        (Z2_TEXT.replace("1 0\n", "1 2\n"), ("analyze", "--input", "IN"), 2,
         "invalid instance: NotAGroup: entry mult[1][1] = 2 out of range"),
        (Z2_TEXT.replace("1 0\n", "0 0\n"), ("analyze", "--input", "IN"), 2,
         "invalid instance: NotAGroup: no two-sided identity element"),
        (Z2_TEXT.replace("iota 1", "iota 5"), ("analyze", "--input", "IN"), 2,
         "invalid instance: BadInvolution: iota index 5 out of range"),
        # iota = 4 is a reflection of dihedral:8, an involution that is not central
        (serialize_instance(catalog("dihedral", "8")).replace("iota 2\n", "iota 4\n"), ("analyze", "--input", "IN"), 2,
         "invalid instance: BadInvolution: iota is not central: fails to commute with 1"),
        # an integer is a plain decimal token: int() alone would read these
        # as 10, 16, 1, 1 and 10
        (Z2_TEXT.replace("degrees all", "degrees 1_0"), ("analyze", "--input", "IN"), 2,
         "invalid instance: line 9: expected integers, got ['1_0']"),
        (Z2_TEXT, ("analyze", "--catalog", "cyclic:1_6"), 2,
         "error: UnknownCatalogEntry: cyclic wants an integer order, got '1_6'"),
        (Z2_TEXT, ("analyze", "--input", "IN", "--degree", "\u0661"), 1,
         "usage error: --degree wants an integer or 'all', got '\u0661'"),
        (Z2_TEXT, ("analyze", "--input", "IN", "--degree", "+1"), 1,
         "usage error: --degree wants an integer or 'all', got '+1'"),
        # the brute-force cap is a constant, not an option
        (Z2_TEXT, ("oracle", "--input", "IN", "--cap", "1_0"), 1, "usage error: unrecognized arguments: --cap 1_0"),
        # a malformed --degree is refused before the instance file is read
        (Z2_TEXT, ("analyze", "--input", "NO-SUCH-FILE", "--degree", "x"), 1,
         "usage error: --degree wants an integer or 'all', got 'x'"),
        # an option given twice is refused, not overridden by the later one
        (Z2_TEXT, ("analyze", "--input", "IN", "--degree", "0", "--degree", "1"), 1,
         "usage error: duplicate --degree option"),
        (Z2_TEXT, ("analyze", "--input", "IN", "--degree=0", "--degree", "1"), 1,
         "usage error: duplicate --degree option"),
        (Z2_TEXT, ("catalog", "--catalog", "cyclic:4", "--catalog", "cyclic:6"), 1,
         "usage error: duplicate --catalog option"),
        (Z2_TEXT, ("verify", "--certify", "IN", "--certify", "IN"), 1, "usage error: duplicate --certify option"),
        # no option is abbreviated, so a repeat cannot hide behind a prefix
        (Z2_TEXT, ("analyze", "--input", "IN", "--deg", "1"), 1, "usage error: unrecognized arguments: --deg 1"),
    ],
    ids=(
        "degree-not-an-integer", "degree-past-half", "degrees-line-past-half", "verify-without-certify",
        "certificate-not-json", "certificate-not-utf-8", "quaternion-16", "product-of-one", "product-factor-unnamed",
        "product-factor-empty", "duplicate-group",
        "duplicate-table", "duplicate-iota", "duplicate-cmtype", "group-arity", "iota-arity", "table-arity",
        "short-table-row", "unknown-directive", "table-cut-short", "table-cut-short-before-blank-lines",
        "missing-group", "missing-table", "missing-iota", "missing-factor", "missing-cmtype",
        "cmtype-point-past-the-carrier", "cmtype-point-negative", "table-entry-past-the-order", "no-identity",
        "iota-past-the-order", "iota-not-central",
        "degrees-line-underscore", "catalog-order-underscore", "degree-arabic-indic-digit", "degree-plus-sign",
        "cap-underscore", "degree-malformed-before-read", "degree-twice",
        "degree-twice-with-equals", "catalog-twice", "certify-twice", "degree-abbreviated",
    ),
)
def test_bad_input_exit_code_and_message(tmp_path, capsys, text, argv, code, err):
    path = tmp_path / "in.txt"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    argv = [str(path) if arg == "IN" else arg for arg in argv]
    assert run_cli(*argv) == (code, "")
    assert capsys.readouterr().err == err + "\n"
