#!/usr/bin/env python3
"""Degree-2 sweep over every CM-type on the order-8 catalog groups.

For each (group, CM-type) pair the valid monomials at p=2 are enumerated by
both routes, cross-checked, and classified.  The per-pair outcome
(dimensions plus the exotic list) is the regression fixture frozen under
tests/fixtures/; rerun with --write after a deliberate change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cmhodge.catalog import sweep_instances
from cmhodge.cmtypes import enumerate_cm_types
from cmhodge.groups import bits
from cmhodge.instance import build_instance
from cmhodge.monomials import classify, enumerate_valid_bruteforce

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "order8_degree2.json"


def run_sweep() -> dict:
    out: dict[str, dict] = {}
    for spec in sweep_instances(8):
        if spec.order != 8:
            continue
        built = build_instance(spec)
        per_type: dict[str, dict] = {}
        for phi in enumerate_cm_types(built.embeddings):
            report = classify(phi, 2)
            assert list(report.valid) == enumerate_valid_bruteforce(phi, 2)
            key = ",".join(str(s) for s in bits(phi.members))
            per_type[key] = {
                "hodge_dim": report.hodge_dim,
                "lefschetz_dim": report.lefschetz_dim,
                "orbit_count": len(report.orbits),
                "exotic": [bits(d) for d in report.exotic],
            }
        out[spec.name] = per_type
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="rewrite the fixture file")
    args = parser.parse_args()

    result = run_sweep()
    n_types = sum(len(v) for v in result.values())
    n_exotic = sum(1 for v in result.values() for r in v.values() if r["exotic"])
    print(f"{len(result)} groups, {n_types} CM-types, {n_exotic} with exotic monomials at p=2")

    if args.write:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE}")
        return 0

    if not FIXTURE.exists():
        print("fixture missing; rerun with --write", file=sys.stderr)
        return 1
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if frozen != result:
        print("sweep DIVERGES from the frozen fixture", file=sys.stderr)
        return 1
    print("sweep matches the frozen fixture")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
