#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

Runs ``analyze``, ``deltas``, ``deltas --orbits-only``, ``witness`` and
``oracle`` on each instance, once per tree, each in a child process of its own with the
tree's ``src`` on ``PYTHONPATH``.  For every run it prints the SHA-256 of
stdout (first 16 hex digits), the exit code, the wall time and the peak
resident memory of the child (``ru_maxrss``), and it exits 1 if any
command's stdout or exit code differs between the trees.

Every ``witness`` bundle is then checked by both trees' ``verify``, so
each verifier reads its own tree's bundle and the other tree's.  Each of
these four runs prints its exit code, wall time, peak memory and verdict
lines; it is a mismatch if the new tree's verdicts on either bundle differ
from the old tree's verdicts on its own bundle.  So a format change shows
whether the new verifier still passes the old format, and records what the
old verifier says of the new one.

An instance is a catalog entry (``dihedral:32``) or the path of an
instance file.  With no instances given, every default catalog entry up
to group order 16 is run.  Example, a parent checkout against the working
tree:

    git archive HEAD | tar -x -C /tmp/parent
    python scripts/compare_outputs.py /tmp/parent . dihedral:32 tests/fixtures/m68.txt
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
COMMANDS = (("analyze",), ("deltas",), ("deltas", "--orbits-only"), ("witness",), ("oracle",))
DEFAULT_INSTANCES = (
    *(f"cyclic:{n}" for n in range(2, 17, 2)),
    *(f"elementary-abelian:{n}" for n in (2, 4, 8, 16)),
    *(f"dihedral:{n}" for n in (4, 8, 12, 16)),
    "quaternion:8",
    "product:cyclic.4xcyclic.2",
    "product:cyclic.4xcyclic.4",
)


def run(tree: Path, argv: list[str], keep: Path | None = None) -> tuple[str, int, float, float]:
    """(stdout SHA-256, exit code, wall seconds, peak RSS in MB) of one
    CLI call run from ``tree``; with ``keep``, stdout is also written there."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    digest = hashlib.sha256()
    start = time.perf_counter()
    with open(keep or os.devnull, "wb") as sink, subprocess.Popen(
        [sys.executable, "-m", "cmhodge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    ) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
            digest.update(chunk)
            sink.write(chunk)
        # wait4 reports this child's own rusage, not a maximum over all children
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return digest.hexdigest(), child.returncode, wall, usage.ru_maxrss / 1024


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
    bundles = tuple(scratch / f"{tree}.json" for tree in TREES)
    for k, command in enumerate(COMMANDS):
        # alternate which tree runs first, so neither always runs on a warm cache
        order = (0, 1) if (n + k) % 2 == 0 else (1, 0)
        keep = command == ("witness",)
        results = {i: run(trees[i], [*command, *source], bundles[i] if keep else None) for i in order}
        old, new = results[0], results[1]
        same = old[:2] == new[:2]
        mismatches += not same
        cells = [f"{sha[:16]} {code} {wall:.2f} {rss:.0f}" for sha, code, wall, rss in (old, new)]
        verdict = "yes" if same else "NO"
        print(f"{' '.join(command)} {instance} | {cells[0]} | {cells[1]} | {verdict}", flush=True)
        if keep and old[1] == new[1] == 0:
            mismatches += cross_verify(trees, instance, bundles, scratch)
    return mismatches


if __name__ == "__main__":
    raise SystemExit(main())
