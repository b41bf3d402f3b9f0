#!/usr/bin/env python3
"""Hunt for exotic monomials across catalog instances.

Sweeps every CM-type on each requested catalog entry and reports the valid
monomials that admit no decomposition into valid pairs.  The smallest hits
in the default list come from product:cyclic.4xcyclic.4 at p=2; cyclic and
dihedral groups through order 16 come up empty.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cmhodge.catalog import catalog
from cmhodge.cmtypes import enumerate_cm_types
from cmhodge.groups import bits
from cmhodge.instance import build_instance
from cmhodge.monomials import classify

DEFAULT_ENTRIES = [
    "cyclic:8",
    "cyclic:12",
    "cyclic:16",
    "elementary-abelian:16",
    "dihedral:16",
    "product:cyclic.4xcyclic.4",
]


def hunt(entry: str, max_degree: int | None) -> int:
    name, _, params = entry.partition(":")
    built = build_instance(catalog(name, params))
    half = built.embeddings.size // 2
    top = half if max_degree is None else min(max_degree, half)
    hits = 0
    t0 = time.time()
    for phi in enumerate_cm_types(built.embeddings):
        for p in range(2, top + 1):
            report = classify(phi, p)
            if report.exotic:
                hits += 1
                print(
                    f"  phi={bits(phi.members)} p={p}: "
                    f"hodge={report.hodge_dim} lefschetz={report.lefschetz_dim} "
                    f"exotic={[bits(d) for d in report.exotic]}"
                )
                break
    print(f"{entry}: {hits} CM-types with exotic monomials ({time.time() - t0:.1f}s)")
    return hits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("entries", nargs="*", default=DEFAULT_ENTRIES, metavar="NAME:PARAMS")
    parser.add_argument("--max-degree", type=int, default=None)
    args = parser.parse_args()
    for entry in args.entries:
        hunt(entry, args.max_degree)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
