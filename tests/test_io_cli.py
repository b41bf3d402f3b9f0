from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from cmhodge.catalog import catalog, cyclic_table, sweep_instances
from cmhodge import cli
from cmhodge.cli import main
from cmhodge.errors import NoCentralInvolution, ParseError, UnknownCatalogEntry, ValidationError
from cmhodge.instance import InstanceSpec, build_instance, parse_instance, serialize_instance

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


def test_cli_analyze_dims():
    code, out = run_cli("analyze", "--catalog", "cyclic:4", "--degree", "all")
    assert code == 0
    report = json.loads(out)
    dims = [(d["p"], d["hodge_dim"]) for d in report["degrees"]]
    assert dims == [(0, 1), (1, 2), (2, 1)]
    # rank-maximal: m/2 + 1 = 3, and the rank with ones is forced to the rank
    assert report["lattice"] == {
        "row_count": 4, "rank": 3, "rank_with_ones": 3, "max_possible": 3, "is_maximal": True
    }


def test_cli_witness_verify_cycle(tmp_path):
    cert = tmp_path / "cert.json"
    code, _ = run_cli("witness", "--catalog", "cyclic:4", "--certify", str(cert))
    assert code == 0
    code, out = run_cli("verify", "--certify", str(cert))
    assert code == 0
    assert "fail" not in out

    data = json.loads(cert.read_text())
    data["certificates"][0]["witnesses"][0]["delta"] = [0, 1]
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
    assert run_cli("oracle", "--catalog", "cyclic:12", "--cap", "10")[0] == 4
    # the enumerator's bound is on its half tables, C(32, 16) here, not on m
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
    # an empty degrees line selects no degree, so every command would pass vacuously
    capsys.readouterr()
    bad.write_text(Z2_TEXT.replace("degrees all", "degrees"))
    for command in ("analyze", "deltas", "witness", "oracle"):
        assert run_cli(command, "--input", str(bad))[0] == 2, command
    assert "line 9: degrees" in capsys.readouterr().err
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


def test_points_past_the_bound_are_refused(tmp_path, capsys):
    # 17 regular factors of cyclic:64 have 1,088 points: the Hodge-number
    # table alone would take seconds and hundreds of megabytes
    table = tuple(map(tuple, cyclic_table(64)))
    phi = tuple(s for k in range(17) for s in range(64 * k, 64 * k + 32))
    spec = InstanceSpec("", 64, table, 32, ((0,),) * 17, phi, None)
    path = tmp_path / "m1088.txt"
    path.write_text(serialize_instance(spec))
    assert run_cli("analyze", "--input", str(path), "--degree", "0") == (2, "")
    assert capsys.readouterr().err == "invalid instance: CapExceeded: the factors have more than 1024 points\n"
    # 16 factors, 1,024 points, still build
    built = build_instance(replace(spec, factors=spec.factors[1:], cm_type=phi[:-32]))
    assert built.embeddings.size == 1024


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
