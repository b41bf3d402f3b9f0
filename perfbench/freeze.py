#!/usr/bin/env python3
"""Regenerate `expected.json`, the frozen answers every benchmark operation
is checked against.

Uses only the brute-force routes in `oracle.py`, never cmhodge itself, so
a bug in the program cannot agree with itself.  Run it only after a
deliberate change to the workloads:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
from pathlib import Path

from oracle import (
    all_cm_types,
    brute_force_valid,
    decomposes,
    greedy_cm_type,
    group_table,
    mask_of,
    orbit_count,
    points_of,
    rank,
    translate_rows,
)
from workloads import CERTIFY, INSTANCES, LADDER, SWEEP_ENTRY

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def degree_counts(table, phi: int) -> list[dict]:
    m = len(table)
    rows = translate_rows(table, phi)
    pairs = set(brute_force_valid(m, phi, 1, rows))
    out = []
    for p in range(m // 2 + 1):
        valid = brute_force_valid(m, phi, p, rows)
        out.append(
            {
                "p": p,
                "hodge_dim": len(valid),
                "orbit_count": orbit_count(table, valid),
                "exotic_count": sum(1 for d in valid if not decomposes(d, pairs)),
            }
        )
    return out


def freeze() -> dict:
    instances = {}
    for key, (entry, points) in sorted(INSTANCES.items()):
        table, iota = group_table(entry)
        phi = greedy_cm_type(table, iota) if points is None else mask_of(points)
        instances[key] = {
            "entry": entry,
            "cm_type": points_of(phi),
            "rank": rank(translate_rows(table, phi), len(table)),
            "degrees": degree_counts(table, phi),
        }
        print(f"{key}: hodge dims {[d['hodge_dim'] for d in instances[key]['degrees']]}")

    ops = {}
    for op in LADDER + CERTIFY:
        degrees = [dict(d) for d in instances[op.instance]["degrees"]]
        if op.command == "deltas":
            for d in degrees:
                d["deltas_len"] = d["orbit_count"] if op.orbits_only else d["hodge_dim"]
        record = {"instance": op.instance, "command": op.command, "degrees": degrees}
        if op.command == "verify":
            record["verdict"] = "pass"
        ops[op.id] = record

    table, iota = group_table(SWEEP_ENTRY)
    sweep = {
        str(phi): [[d["hodge_dim"], d["orbit_count"], d["exotic_count"]] for d in degree_counts(table, phi)]
        for phi in all_cm_types(table, iota)
    }
    return {"instances": instances, "ops": ops, "sweep": {"entry": SWEEP_ENTRY, "types": sweep}}


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(freeze(), sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")
