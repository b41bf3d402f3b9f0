"""The three workloads: their operation lists and the inputs a seed picks.

Nothing here imports cmhodge, so `setup_probe.py` can time the package's
import on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from oracle import all_cm_types, group_table, instance_text, mask_of, translate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # instance and certificate files, trace summaries

# instance key -> (catalog entry, CM-type points; None is the catalog default)
INSTANCES = {
    "ea16": ("elementary-abelian:16", None),
    "d20": ("dihedral:20", None),
    "c20": ("cyclic:20", None),  # the default type is rank-maximal here
    "c4xc4-exotic": ("product:cyclic.4xcyclic.4", tuple(range(6, 14))),
    "c6xc4-maximal": ("product:cyclic.6xcyclic.4", (1, 2, 6, 7, 10, 12, 15, 16, 17, 20, 21, 23)),
    "d20-maximal": ("dihedral:20", (0, 1, 2, 3, 4, 10, 11, 12, 14, 18)),
}

SWEEP_ENTRY = "product:cyclic.4xcyclic.4"


@dataclass(frozen=True)
class Op:
    """One CLI call: `cmhodge <command> <instance> [--orbits-only] [--certify F]`."""

    instance: str
    command: str
    orbits_only: bool = False
    certify: bool = False

    @property
    def id(self) -> str:
        suffix = "-orbits" if self.orbits_only else "-certify" if self.certify else ""
        return f"{self.instance}.{self.command}{suffix}"


LADDER = (
    Op("ea16", "analyze"), Op("ea16", "deltas"), Op("ea16", "witness"),
    Op("d20", "analyze"), Op("d20", "deltas"), Op("d20", "witness"),
    Op("c20", "analyze"), Op("c20", "deltas", orbits_only=True), Op("c20", "witness"),
    Op("c4xc4-exotic", "analyze"),
    Op("c6xc4-maximal", "deltas", orbits_only=True),
)

CERTIFY = tuple(
    op
    for key in ("ea16", "c4xc4-exotic", "c20", "d20", "d20-maximal")
    for op in (Op(key, "witness", certify=True), Op(key, "verify", certify=True))
)

WORKLOADS = ("cli-ladder", "certify-verify", "cmtype-sweep")


def workload_ops(workload: str) -> tuple[Op, ...]:
    return {"cli-ladder": LADDER, "certify-verify": CERTIFY, "cmtype-sweep": ()}[workload]


def seeded_cm_types(seed: int) -> dict[str, int]:
    """The CM-type of each non-default instance under this seed: the
    translate t * phi of its base type, t picked by the seed.  Translates
    have the same set of translate rows, so the valid monomials, orbits and
    exotic lists are those of the base type, searches prune the same
    branches, and one frozen answer table serves every seed."""
    rng = random.Random(f"cm-types/{seed}")
    out = {}
    for key, (entry, points) in sorted(INSTANCES.items()):
        if points is not None:
            table, _ = group_table(entry)
            out[key] = translate(table, rng.randrange(len(table)), mask_of(points))
    return out


def sweep_sample(seed: int) -> set[int]:
    """One CM-type from each conjugate pair {phi, iota * phi} of the sweep
    entry, picked by the seed: half of all types.  A type and its conjugate
    have the same valid monomials, so every sample does the same work."""
    rng = random.Random(f"sweep/{seed}")
    table, iota = group_table(SWEEP_ENTRY)
    chosen = set()
    for phi in all_cm_types(table, iota):
        conj = translate(table, iota, phi)
        if phi < conj:
            chosen.add(rng.choice((phi, conj)))
    return chosen


def input_path(key: str) -> Path:
    return WORK / f"{key}.txt"


def write_inputs(seed: int) -> dict[str, int]:
    """Write an instance file for every non-default instance, with the
    seed's CM-type; returns those types as masks."""
    types = seeded_cm_types(seed)
    WORK.mkdir(exist_ok=True)
    for key, phi in types.items():
        input_path(key).write_text(instance_text(INSTANCES[key][0], phi), encoding="utf-8")
    return types


def instance_sources(workload: str) -> list[tuple[str, object]]:
    """What each instance of the workload is loaded from: a catalog entry
    for the default types, an instance file otherwise."""
    if workload == "cmtype-sweep":
        return [("catalog", SWEEP_ENTRY)]
    keys = dict.fromkeys(op.instance for op in workload_ops(workload))
    return [
        ("catalog", INSTANCES[key][0]) if INSTANCES[key][1] is None else ("input", input_path(key))
        for key in keys
    ]
