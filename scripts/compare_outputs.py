#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

Runs ``analyze``, ``deltas``, ``deltas --orbits-only``, ``witness`` and
``oracle`` on each instance, once per tree, each in a child process of
its own with the tree's ``src`` on ``PYTHONPATH``.  For every run it
prints the SHA-256 of stdout (first 16 hex digits), the exit code, the
wall time and the peak resident memory of the child, and it exits 1 if
any command's stdout or exit code differs between the trees.  The child
runs the CLI through a small wrapper that reports its own ``VmHWM`` at
exit: ``ru_maxrss`` would carry this script's own peak into the child
across fork and exec.

Every ``witness`` bundle is then checked by both trees' ``verify``, so
each verifier reads its own tree's bundle and the other tree's.  Each of
these four runs prints its exit code, wall time, peak memory and verdict
lines; it is a mismatch if the new tree's verdicts on either bundle differ
from the old tree's verdicts on its own bundle.  So a format change shows
whether the new verifier still passes the old format, and records what the
old verifier says of the new one.

An instance is a catalog entry (``dihedral:32``) or the path of an
instance file.  With no instances given, every default catalog entry up
to group order 16 is run, and ``tests/fixtures/d16-mixed.txt``,
``tests/fixtures/d16-mixed-relabelled.txt``,
``tests/fixtures/product-6..13.txt`` and ``tests/fixtures/m68.txt``.
Example, a parent checkout against the working tree:

    git archive HEAD | tar -x -C /tmp/parent
    python scripts/compare_outputs.py /tmp/parent . dihedral:32
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TREES = ("old", "new")
# runs the CLI as ``python -m cmhodge.cli`` would, then writes the child's
# own peak resident memory in kB (VmHWM) as the last word of its stderr
CHILD = """
import runpy, sys
try:
    runpy.run_module("cmhodge.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        print(" VmHWM", status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
"""
COMMANDS = (("analyze",), ("deltas",), ("deltas", "--orbits-only"), ("witness",), ("oracle",))
FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
DEFAULT_INSTANCES = (
    *(f"cyclic:{n}" for n in range(2, 17, 2)),
    *(f"elementary-abelian:{n}" for n in (2, 4, 8, 16)),
    *(f"dihedral:{n}" for n in (4, 8, 12, 16)),
    "quaternion:8",
    "product:cyclic.4xcyclic.2",
    "product:cyclic.4xcyclic.4",
    # a carrier of non-normal factors, whose points are cosets
    str(FIXTURES / "d16-mixed.txt"),
    # the same carrier on a table whose identity is not element 0
    str(FIXTURES / "d16-mixed-relabelled.txt"),
    # a type with exotic monomials past m/4, built from their complements
    str(FIXTURES / "product-6..13.txt"),
    # 68 points: masks past 64 bits, of a width that is not a multiple of 8
    str(FIXTURES / "m68.txt"),
)


def run(tree: Path, argv: list[str], keep: Path | None = None) -> tuple[str, int, float, float]:
    """(stdout SHA-256, exit code, wall seconds, peak RSS in MB) of one
    CLI call run from ``tree``; with ``keep``, stdout is also written there."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    digest = hashlib.sha256()
    start = time.perf_counter()
    with open(keep or os.devnull, "wb") as sink, subprocess.Popen(
        [sys.executable, "-c", CHILD, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
            digest.update(chunk)
            sink.write(chunk)
        # the CLI writes a few lines to stderr at most, so that pipe never fills
        peak_kb = int(child.stderr.read().split()[-1])
        code = child.wait()
    wall = time.perf_counter() - start
    return digest.hexdigest(), code, wall, peak_kb / 1024


def cross_verify(trees: tuple[Path, Path], instance: str, bundles: tuple[Path, Path], scratch: Path) -> int:
    """Run each tree's ``verify`` on both trees' bundles and print the
    verdicts; returns the number of mismatches (0 or 1)."""
    verdicts = {}
    for b, v in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out = scratch / "verdicts.txt"
        _, code, wall, rss = run(trees[v], ["verify", "--certify", str(bundles[b])], keep=out)
        verdicts[b, v] = (code, out.read_text(encoding="utf-8").splitlines())
        lines = "; ".join(verdicts[b, v][1])
        row = f"{TREES[b]} bundle by {TREES[v]} verify | {code} {wall:.2f} {rss:.0f}"
        print(f"verify {instance} | {row} | {lines}", flush=True)
    return int(not verdicts[0, 1] == verdicts[1, 1] == verdicts[0, 0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree to compare against")
    parser.add_argument("new", type=Path, help="source tree under test")
    parser.add_argument("instances", nargs="*", help="catalog entries or instance files")
    args = parser.parse_args(argv)
    trees = (args.old.resolve(), args.new.resolve())
    mismatches = 0
    print("command instance | old: sha256 exit wall_s rss_mb | new: sha256 exit wall_s rss_mb | same")
    print("verify instance | bundle by verifier | exit wall_s rss_mb | verdicts")
    with tempfile.TemporaryDirectory() as scratch:
        for n, instance in enumerate(args.instances or DEFAULT_INSTANCES):
            mismatches += compare(trees, instance, n, Path(scratch))
    print(f"{mismatches} mismatch(es)")
    return 1 if mismatches else 0


def compare(trees: tuple[Path, Path], instance: str, n: int, scratch: Path) -> int:
    """Run every command on one instance in both trees and print the rows;
    returns the number of mismatches."""
    mismatches = 0
    path = Path(instance)
    source = ["--input", str(path.resolve())] if path.is_file() else ["--catalog", instance]
    for k, command in enumerate(COMMANDS):
        # alternate which tree runs first, so neither always runs on a warm cache
        order = (0, 1) if (n + k) % 2 == 0 else (1, 0)
        # the witness bundles are kept, for both trees' verifiers to read
        witness = command == ("witness",)
        kept = tuple(scratch / f"{tree}-witness.json" for tree in TREES)
        results = {i: run(trees[i], [*command, *source], kept[i] if witness else None) for i in order}
        old, new = results[0], results[1]
        same = old[:2] == new[:2]
        mismatches += not same
        cells = [f"{sha[:16]} {code} {wall:.2f} {rss:.0f}" for sha, code, wall, rss in (old, new)]
        print(f"{' '.join(command)} {instance} | {cells[0]} | {cells[1]} | {'yes' if same else 'NO'}", flush=True)
        if witness and old[1] == new[1] == 0:
            mismatches += cross_verify(trees, instance, kept, scratch)
    return mismatches


if __name__ == "__main__":
    raise SystemExit(main())
