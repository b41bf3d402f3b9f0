#!/usr/bin/env python3
"""cmhodge benchmark: drives the package from outside, in one process,
with one closed-loop client (the next operation starts when the previous
one returns), and checks every answer against `expected.json`.

    python3 perfbench/run.py --workload cli-ladder --seed 1 --seconds 40 --trace 0

Prints the metrics declared in BENCHMARK.json as the last line of stdout:
the end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import group_table, is_orbit_minimum, is_valid, mask_of, translate_rows
from speed import NOMINAL_S, Speedometer
from workloads import (
    INSTANCES,
    ROOT,
    SRC,
    SWEEP_ENTRY,
    WORK,
    WORKLOADS,
    input_path,
    sweep_sample,
    workload_ops,
    write_inputs,
)

EXPECTED = ROOT / "perfbench" / "expected.json"
SETUP_STARTS = 2  # fresh processes timed before each pass and after the last
COMMANDS = ("analyze", "deltas", "witness", "verify")


class Mismatch(Exception):
    """An answer that differs from the frozen one."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class PassResult:
    op_s: list = field(default_factory=list)  # (command, scaled s, wall s) per operation, in order
    output_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # including the checks, to plan the next pass


class Checker:
    """The benchmark's own view of one instance: its group table and the
    translate rows of the CM-type the program was given."""

    def __init__(self, entry: str, phi: int):
        self.table, self.iota = group_table(entry)
        self.phi = phi
        self.rows = translate_rows(self.table, phi)

    def instance(self, payload: dict) -> None:
        require(payload["group"]["table"] == self.table, "group table differs")
        require(payload["group"]["iota"] == self.iota, "iota differs")
        require(mask_of(payload["cm_type"]) == self.phi, "CM-type differs")

    def monomials(self, listed: list, p: int, count: int, minimal: bool = False) -> None:
        """`listed` is `count` distinct valid monomials; with `minimal`, each
        is the least of its Galois orbit (so they lie in distinct orbits)."""
        masks = [mask_of(points) for points in listed]
        require(len(masks) == count == len(set(masks)), f"p={p}: {len(masks)} monomials, expected {count} distinct")
        require(all(is_valid(d, p, self.rows) for d in masks), f"p={p}: a listed monomial is not valid")
        if minimal:
            require(all(is_orbit_minimum(self.table, d) for d in masks), f"p={p}: a representative is not minimal")


def check_cli(op, expected: dict, checker: Checker, rc: int, stdout: str, certificate: str | None) -> None:
    """Compare parsed fields of one CLI answer with the frozen record."""
    require(rc == 0, f"exit code {rc}")
    degrees = expected["degrees"]
    if op.command == "verify":
        verdicts = [line.partition(": ")[2] for line in stdout.splitlines()]
        require(verdicts == [expected["verdict"]] * len(degrees), f"verdicts {verdicts}")
        return
    doc = json.loads(certificate if op.certify else stdout)
    checker.instance(doc["instance"])
    if op.command == "witness":
        certs = doc["certificates"]
        require([c["p"] for c in certs] == [e["p"] for e in degrees], "certificate degrees differ")
        for cert, e in zip(certs, degrees):
            require(cert["verdict"] is True, f"p={e['p']}: verdict is not true")
            checker.monomials(cert["orbit_reps"], e["p"], e["orbit_count"], minimal=True)
            if "valid_set" in cert:
                checker.monomials(cert["valid_set"], e["p"], e["hodge_dim"])
        return
    got = doc["degrees"]
    require([d["p"] for d in got] == [e["p"] for e in degrees], "report degrees differ")
    if op.command == "deltas":
        for d, e in zip(got, degrees):
            checker.monomials(d["deltas"], e["p"], e["deltas_len"], minimal=op.orbits_only)
        return
    for d, e in zip(got, degrees):
        for key in ("hodge_dim", "orbit_count", "exotic_count"):
            require(d[key] == e[key], f"p={e['p']}: {key} {d[key]}, expected {e[key]}")
        checker.monomials(d["valid"], e["p"], e["hodge_dim"])
        checker.monomials(d["exotic"], e["p"], e["exotic_count"])
    rank = doc["lattice"]["rank"]
    require(rank == expected["rank"], f"lattice rank {rank}, expected {expected['rank']}")


class CliWorkload:
    """cli-ladder and certify-verify: `cli.main(argv)` in-process, stdout
    captured, every answer checked, every op's output hashed."""

    def __init__(self, workload: str, types: dict[str, int], expected: dict, meter: Speedometer, failures: list):
        from cmhodge import cli

        self.cli = cli
        self.meter = meter
        self.failures = failures
        self.hashes: dict[str, str] = {}
        self.ops = []
        for op in workload_ops(workload):
            entry, points = INSTANCES[op.instance]
            record = dict(expected["ops"][op.id], rank=expected["instances"][op.instance]["rank"])
            if points is None:
                phi = mask_of(expected["instances"][op.instance]["cm_type"])
                source = ["--catalog", entry]
            else:
                phi = types[op.instance]
                source = ["--input", str(input_path(op.instance))]
            argv = [op.command] + (source if op.command != "verify" else [])
            if op.orbits_only:
                argv.append("--orbits-only")
            if op.certify:
                argv += ["--certify", str(WORK / f"{op.instance}.certificate.json")]
            self.ops.append((op, argv, record, Checker(entry, phi)))

    def _call(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed op, not a crash
            return f"{type(exc).__name__}: {exc}"

    def run_pass(self) -> PassResult:
        res = PassResult()
        began = time.perf_counter()
        with self.meter:
            for op, argv, record, checker in self.ops:
                self._run_op(res, op, argv, record, checker)
        res.wall_s = time.perf_counter() - began
        return res

    def _run_op(self, res: PassResult, op, argv, record, checker) -> None:
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc, scaled, wall = self.meter.timed(lambda: self._call(argv))
        res.op_s.append((op.command, scaled, wall))
        res.attempted += 1
        out = stdout.getvalue()
        certificate = None
        try:
            if op.certify and op.command == "witness":
                certificate = Path(argv[-1]).read_text(encoding="utf-8")
            res.output_bytes += len(out.encode()) + len((certificate or "").encode())
            check_cli(op, record, checker, rc, out, certificate)
            digest = hashlib.sha256((out + "\0" + (certificate or "")).encode()).hexdigest()
            require(self.hashes.setdefault(op.id, digest) == digest, "output differs from an earlier pass")
        except (Mismatch, OSError, KeyError, TypeError, ValueError) as exc:
            res.failed += 1
            self.failures.append(f"{op.id}: {type(exc).__name__}: {exc} {stderr.getvalue()[-300:]}")


class SweepWorkload:
    """cmtype-sweep: the library calls a sweep script makes.  Load the
    entry, list its CM-types, and classify the seed's sample at every
    degree."""

    def __init__(self, seed: int, expected: dict, meter: Speedometer, failures: list):
        from cmhodge import catalog, cmtypes, instance, monomials

        self.catalog, self.cmtypes, self.instance, self.monomials = catalog, cmtypes, instance, monomials
        self.sample = sweep_sample(seed)
        self.expected = {int(k): v for k, v in expected["sweep"]["types"].items()}
        table, _ = group_table(SWEEP_ENTRY)
        self.rows = {phi: translate_rows(table, phi) for phi in self.sample}
        self.meter = meter
        self.failures = failures
        self.hashes: dict[tuple[int, int], str] = {}

    def _load(self):
        built = self.instance.build_instance(self.catalog.catalog(*SWEEP_ENTRY.split(":", 1)))
        return built, list(self.cmtypes.enumerate_cm_types(built.embeddings))

    def _classify(self, phi, p: int):
        try:
            return self.monomials.classify(phi, p)
        except Exception as exc:  # an exception is a failed op
            return exc

    def run_pass(self) -> PassResult:
        res = PassResult()
        began = time.perf_counter()
        gc.collect()
        with self.meter:
            self._run_ops(res)
        res.wall_s = time.perf_counter() - began
        return res

    def _run_ops(self, res: PassResult) -> None:
        res.attempted += 1
        try:
            (built, types), scaled, wall = self.meter.timed(self._load)
        except Exception as exc:  # nothing to classify: the pass ends here
            res.failed += 1
            self.failures.append(f"load: {type(exc).__name__}: {exc}")
            return
        res.op_s.append(("load", scaled, wall))
        if sorted(phi.members for phi in types) != sorted(self.expected):
            res.failed += 1
            self.failures.append("enumerate_cm_types: the CM-types differ from the frozen list")
        degrees = range(built.embeddings.size // 2 + 1)
        for phi in types:
            if phi.members not in self.sample:
                continue
            for p in degrees:
                report, scaled, wall = self.meter.timed(lambda: self._classify(phi, p))
                res.op_s.append(("classify", scaled, wall))
                res.attempted += 1
                try:
                    self.check(phi.members, p, report)
                except (Mismatch, AttributeError, TypeError) as exc:
                    res.failed += 1
                    self.failures.append(f"classify({phi.members}, {p}): {type(exc).__name__}: {exc}")

    def check(self, phi: int, p: int, report) -> None:
        require(not isinstance(report, Exception), f"raised {report!r}")
        hodge_dim, orbit_count, exotic_count = self.expected[phi][p]
        got = (report.hodge_dim, len(report.orbits), len(report.exotic))
        require(got == (hodge_dim, orbit_count, exotic_count), f"(hodge, orbits, exotic) {got}, expected {self.expected[phi][p]}")
        valid = set(report.valid)
        require(len(valid) == hodge_dim, "duplicate monomials")
        require(all(is_valid(d, p, self.rows[phi]) for d in valid), "a monomial is not valid")
        require(valid.issuperset(report.exotic), "an exotic monomial is not in the valid list")
        digest = hashlib.sha256(repr((report.valid, report.orbits, report.exotic)).encode()).hexdigest()
        require(self.hashes.setdefault((phi, p), digest) == digest, "answer differs from an earlier pass")


class SetupProbe:
    """Fresh starts, each timed inside a child process: import cmhodge,
    then load and build every instance of the workload.  `run.py` spreads
    them over the run, so that one slow spell of the machine does not set
    the median.  The first start writes the bytecode caches and is not
    counted."""

    def __init__(self, workload: str):
        self.argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), "--workload", workload]
        self.times: list[tuple[float, float]] = []  # (scaled, wall) seconds
        self.run(1)
        self.times.clear()

    def run(self, starts: int) -> None:
        for _ in range(starts):
            done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
            scaled, wall = done.stdout.split()
            self.times.append((float(scaled), float(wall)))


def run_passes(bench, deadline: float, at_least: int, before=None) -> list[PassResult]:
    """Whole passes, at least `at_least`, then more while the next one is
    expected to end by `deadline`."""
    passes: list[PassResult] = []
    while len(passes) < at_least or time.perf_counter() + passes[-1].wall_s <= deadline:
        if before is not None:
            before()
        passes.append(bench.run_pass())
    return passes


def op_median_sum(passes: list[PassResult], command: str | None = None, wall: bool = False) -> float:
    """Sum over the operations (of one command, if given) of each one's
    median scaled time (or wall time) across the passes."""
    return sum(
        statistics.median(op[2 if wall else 1] for op in samples)
        for samples in zip(*(r.op_s for r in passes))
        if command is None or samples[0][0] == command
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "cmhodge" / "__init__.py").is_file():
        print(f"benchmark: no cmhodge package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    types = write_inputs(args.seed)

    sys.path.insert(0, str(SRC))
    import cmhodge.cli  # noqa: F401  loads every module before any span is installed

    failures: list[str] = []
    meter = Speedometer()
    if args.workload == "cmtype-sweep":
        bench = SweepWorkload(args.seed, expected, meter, failures)
    else:
        bench = CliWorkload(args.workload, types, expected, meter, failures)

    if args.trace == 0:
        probe = SetupProbe(args.workload)
        start = time.perf_counter()
        passes = run_passes(bench, start + args.seconds, at_least=2, before=lambda: probe.run(SETUP_STARTS))
        probe.run(SETUP_STARTS)
        metrics = {
            "setup_s": statistics.median(scaled for scaled, _ in probe.times),
            "run_s": op_median_sum(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"wall time: setup {statistics.median(wall for _, wall in probe.times):.4f} s,"
            f" pass {op_median_sum(passes, wall=True):.3f} s"
        )
        kind = "end_to_end"
    else:
        from tracer import Tracer

        start = time.perf_counter()
        plain = run_passes(bench, start + args.seconds / 2, at_least=1)
        tracer = Tracer()
        tracer.install()
        traced, layers = [], []
        try:
            while not traced or time.perf_counter() + traced[-1].wall_s <= start + args.seconds:
                tracer.reset()
                traced.append(bench.run_pass())
                layers.append(tracer.metrics())
        finally:
            tracer.uninstall()
        passes = plain + traced
        metrics = {name: statistics.median_low(layer[name] for layer in layers) for name in layers[0]}
        for command in COMMANDS:
            metrics[f"cmd.{command}_s"] = op_median_sum(plain, command)
        metrics["cmd.output_bytes"] = statistics.median(r.output_bytes for r in plain)
        metrics["trace.run_s"] = op_median_sum(traced)
        metrics["trace.untraced_run_s"] = op_median_sum(plain)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        metrics["trace.wall_run_s"] = op_median_sum(plain, wall=True)
        metrics["trace.absent"] = len(tracer.absent)
        (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"absent": sorted(tracer.absent), "passes": layers}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if tracer.absent:
            print(f"absent layers: {', '.join(sorted(tracer.absent))}")
        kind = "per_layer"

    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} ops, {failed} failed,"
        f" interpreter speed {NOMINAL_S / statistics.fmean(meter.samples):.3f} of nominal"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared[kind]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
