#!/usr/bin/env python3
"""One fresh start of cmhodge, timed: import the package, then load and
build every instance the workload uses.  Prints the scaled seconds (see
`speed.py`) and the wall seconds.

`run.py` starts this several times per run and reports the median as
`setup_s`:

    python3 perfbench/setup_probe.py --workload cli-ladder

The instance files must already exist: `run.py` writes them first.
"""

from __future__ import annotations

import argparse
import sys
import time

from speed import NOMINAL_S, reference_time
from workloads import SRC, WORKLOADS, instance_sources


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    args = parser.parse_args()
    sources = instance_sources(args.workload)

    sys.path.insert(0, str(SRC))
    reference_time(20)  # warm the reference up; its first runs in a process are slower
    before = reference_time(20)
    start = time.perf_counter()
    import cmhodge.cli  # noqa: F401  the command-line entry imports every module
    from cmhodge import catalog, cmtypes, instance

    for kind, value in sources:
        if kind == "catalog":
            spec = catalog.catalog(*value.split(":", 1))
        else:
            spec = instance.parse_instance(value.read_text(encoding="utf-8"))
        built = instance.build_instance(spec)
        if args.workload == "cmtype-sweep":
            list(cmtypes.enumerate_cm_types(built.embeddings))
    wall = time.perf_counter() - start
    after = reference_time(20)
    print(f"{wall * NOMINAL_S / ((before + after) / 2):.9f} {wall:.9f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
