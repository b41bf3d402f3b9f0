"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact (tolerance zero); run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import copy
import io
import json
import runpy
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

from cmhodge.catalog import catalog
from cmhodge.cli import main
from cmhodge.cmtypes import enumerate_cm_types, hodge_numbers
from cmhodge.groups import bits, mask_of
from cmhodge.instance import build_instance
from cmhodge.lattice import orbit_matrix
from cmhodge.monomials import classify, enumerate_valid
from conftest import content_hash, one_degree_bundle, verdict, with_cm_type

FIXTURES = Path(__file__).parent / "fixtures"
SWEEP_SCRIPT = Path(__file__).parents[1] / "scripts" / "sweep_order8_degree2.py"


def passed(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_oracle_triad_agreement(m12_instances):
    # the oracle command runs brute force, the meet-in-the-middle enumerator
    # and the lattice basis side by side at every degree
    checked = 0
    for built in m12_instances:
        code, out = run_cli("oracle", "--catalog", built.spec.name)
        assert code == 0, (built.spec.name, out)
        lines = out.splitlines()
        assert len(lines) == built.embeddings.size // 2 + 1
        assert all(": agree (" in line for line in lines), out
        checked += len(lines)
    passed(1, f"three enumeration routes identical on {checked} (instance, degree) pairs")


def test_criterion_2_theorem1_coverage(order8_instances):
    certs = 0
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            with_phi = with_cm_type(built, phi)
            for p in range(half + 1):
                bundle = one_degree_bundle(with_phi, p)
                (payload,) = bundle["certificates"]
                # each orbit is listed once, by its least member: together
                # the orbits are the valid set
                reps = list(map(mask_of, payload["orbit_reps"]))
                orbits = [set(built.embeddings.translates(d)) for d in reps]
                assert reps == sorted(map(min, orbits))
                listed = [d for orbit in orbits for d in orbit]
                covered = sorted(set(listed))
                assert covered == enumerate_valid(phi, p), (built.spec.name, bits(phi.members), p)
                assert payload["verdict"] and sorted(listed) == covered
                for rep in payload["orbit_reps"]:
                    # count the transcript from the induced family
                    family = [bundle["induced_types"][s] for s in rep]
                    order = len(built.embeddings.action)
                    recount = tuple(sum(t in f for f in family) for t in range(order))
                    assert recount == (p,) * order
                assert verdict(bundle).ok, (built.spec.name, bits(phi.members), p)
                certs += 1
    passed(2, f"coverage verdict true and transcripts balanced for {certs} certificates")


def test_criterion_3_closure_invariants(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        half = s.size // 2
        for phi in enumerate_cm_types(s):
            valid_by_p = {p: set(enumerate_valid(phi, p)) for p in range(half + 1)}
            for p, valid in valid_by_p.items():
                dual = valid_by_p[half - p]
                for d in valid:
                    assert s.translates(d)[s.iota] in valid
                    assert (s.all_mask ^ d) in dual
                    for t in range(len(s.action)):
                        assert s.translates(d)[t] in valid
    passed(3, "translation, conjugation and complement closure hold on the full sweep")


def test_criterion_4_trivial_anchors(order8_instances):
    z2 = build_instance(catalog("cyclic", "2"))
    assert len(enumerate_valid(z2.cm_type, 1)) == 1
    for built in order8_instances:
        m = built.embeddings.size
        assert enumerate_valid(built.cm_type, 0) == [0]
        for phi in enumerate_cm_types(built.embeddings):
            assert len(enumerate_valid(phi, 0)) == 1
            top = enumerate_valid(phi, m // 2)
            assert top[-1] == built.embeddings.all_mask
        for r in range(m + 1):
            assert sum(hodge_numbers(built.embeddings, r).values()) == comb(m, r)
    passed(4, "elliptic anchor, degree-0/top anchors and binomial row sums")


def test_criterion_5_frozen_small_instance_counts():
    # values reproduced via enumerate_valid_bruteforce before freezing
    z4 = build_instance(catalog("cyclic", "4"))
    report = classify(z4.cm_type, 1)
    assert list(report.valid) == sorted([mask_of([0, 2]), mask_of([1, 3])])
    assert len(report.orbits) == 1
    assert len(orbit_matrix(z4.cm_type).basis) == 3

    ea4 = build_instance(catalog("elementary-abelian", "4"))
    report = classify(ea4.cm_type, 1)
    assert list(report.valid) == sorted(
        mask_of(d) for d in ([0, 2], [0, 3], [1, 2], [1, 3])
    )
    assert len(report.orbits) == 2
    assert report.exotic == ()
    assert len(set(report.valid) - set(report.exotic)) == 4
    assert len(orbit_matrix(ea4.cm_type).basis) == 2
    passed(5, "cyclic(4) and elementary-abelian(4) regression values")


def test_criterion_6_no_exotic_below_order_8(order8_instances):
    swept = 0
    for built in order8_instances:
        if len(built.embeddings.action) > 6:
            continue
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            for p in range(half + 1):
                assert classify(phi, p).exotic == (), (built.spec.name, p)
                swept += 1
    passed(6, f"no exotic monomial in {swept} (CM-type, degree) sweeps at order <= 6")


def test_criterion_7_order8_degree2_sweep():
    # the sweep script asserts oracle agreement on every CM-type it visits
    frozen = json.loads((FIXTURES / "order8_degree2.json").read_text())
    result = runpy.run_path(str(SWEEP_SCRIPT))["run_sweep"]()
    assert result == frozen
    n = sum(len(v) for v in result.values())
    passed(7, f"order-8 degree-2 sweep over {n} CM-types matches the frozen fixture")


def test_criterion_8_certificate_integrity(z4, order8_instances):
    for built in order8_instances:
        for p in built.degrees:
            assert verdict(one_degree_bundle(built, p)).ok

    payload = one_degree_bundle(z4, 1)
    mutations = []
    doc = copy.deepcopy(payload)
    doc["induced_types"][0] = [0, 2]
    mutations.append((doc, "induced_family"))
    doc = copy.deepcopy(payload)
    doc["certificates"][0]["orbit_reps"][0] = [0, 1]
    mutations.append((doc, "delta_valid"))
    doc = copy.deepcopy(payload)
    doc["certificates"][0]["p"] = 2
    mutations.append((doc, "degree"))
    doc = copy.deepcopy(payload)
    doc["instance"]["group"]["table"][1][1] = 1
    mutations.append((doc, "group_axioms"))
    for doc, expected in mutations:
        result = verdict({**doc, "content_hash": content_hash(doc)})
        assert result.failed_check == expected, (expected, result.describe())
    passed(8, "all generated certificates verify; 4 mutations fail with the named check")


def test_criterion_9_determinism():
    for target in ("cyclic:8", "dihedral:8"):
        for command in ("analyze", "witness"):
            runs = {run_cli(command, "--catalog", target) for _ in range(3)}
            assert len(runs) == 1
            assert next(iter(runs))[0] == 0
    passed(9, "reports and certificate bundles byte-identical across repeated runs")


def test_criterion_10_rank_bound(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            assert len(orbit_matrix(phi).basis) <= half + 1
    passed(10, "lattice rank <= m/2 + 1 on every swept CM-type")
