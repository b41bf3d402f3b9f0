"""Per-layer spans and counters, recorded from outside the cmhodge package.

`Tracer.install` replaces each public function named in SPANS by a timing
wrapper, in every cmhodge module that holds it: `cli` and `weil` import
names directly, so patching only the defining module would miss their
calls.  Spans nest through a stack; a layer's time is its self time, the
span's duration minus the time of the spans it caused.  Spans are folded
into totals as they close, so memory stays flat over millions of calls.

A function that no longer exists is recorded as absent, not as a
failure, so a later change may delete or rename it.
"""

from __future__ import annotations

import functools
import sys
import time
from math import comb

# layer -> metric holding its self time
LAYER_TIMES = {
    "cli": "cli.self_s",
    "instance": "instance.build_s",
    "enumerate": "monomials.enumerate_s",
    "orbits": "monomials.orbits_s",
    "decompose": "monomials.decompose_s",
    "weil": "weil.witness_s",
    "lattice": "lattice.rank_s",
    "report": "report.serialize_s",
    "verify": "verify.verify_s",
}

COUNTS = (
    "cli.calls",
    "instance.builds",
    "monomials.enumerate_calls",
    "monomials.valid",
    "monomials.candidates",
    "monomials.orbits",
    "monomials.decompose_calls",
    "monomials.exotic",
    "weil.witnesses",
    "lattice.rows",
    "report.bytes",
    "verify.certificates",
    "verify.checks_failed",
    "verify.bruteforce_subsets",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_enumerate(c, args, kwargs, result):
    m = _arg(args, kwargs, 0, "phi").carrier.size
    p = _arg(args, kwargs, 1, "p")
    c["monomials.enumerate_calls"] += 1
    c["monomials.valid"] += len(result)
    c["monomials.candidates"] += comb(m, 2 * p)  # computed: size-2p subsets


def _count_pairing(c, args, kwargs, result):
    c["monomials.decompose_calls"] += 1
    c["monomials.exotic"] += result is None


def _count_verify(c, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    c["verify.certificates"] += 1
    c["verify.checks_failed"] += not result.ok
    inst = data["instance"]
    m = sum(inst["group"]["order"] // len(f) for f in inst["factors"])
    c["verify.bruteforce_subsets"] += comb(m, 2 * data["p"])  # computed


def _tally(metric, size=None):
    def count(c, args, kwargs, result):
        c[metric] += 1 if size is None else size(result)
    return count


# (module, function, layer, counter)
SPANS = (
    ("cli", "main", "cli", _tally("cli.calls")),
    ("catalog", "catalog", "instance", None),
    ("instance", "parse_instance", "instance", None),
    ("instance", "build_instance", "instance", None),
    ("groups", "build_group", "instance", _tally("instance.builds")),
    ("groups", "embedding_set", "instance", None),
    ("cmtypes", "validate_cm_type", "instance", None),
    ("monomials", "enumerate_valid", "enumerate", _count_enumerate),
    ("monomials", "galois_orbits", "orbits", _tally("monomials.orbits", len)),
    # classify's own loop is the decompose step: it runs the pair matching
    ("monomials", "classify", "decompose", None),
    ("monomials", "is_decomposable", "decompose", None),
    ("monomials", "pairing_witness", "decompose", _count_pairing),
    ("weil", "coverage_certificate", "weil", None),
    ("weil", "split_weil_witness", "weil", _tally("weil.witnesses")),
    ("lattice", "orbit_matrix", "lattice", _tally("lattice.rows", lambda r: len(r.rows))),
    ("lattice", "lattice_rank", "lattice", None),
    ("lattice", "lattice_rank_with_ones", "lattice", None),
    ("lattice", "is_rank_maximal", "lattice", None),
    ("report", "canonical_json", "report", _tally("report.bytes", len)),
    ("report", "content_hash", "report", None),
    ("report", "analysis_report", "report", None),
    ("report", "deltas_report", "report", None),
    ("report", "certificate_bundle", "report", None),
    ("verify", "verify_document", "verify", None),
    ("verify", "verify_certificate", "verify", _count_verify),
)


class Tracer:
    """Installs the spans, accumulates self times and counts, and restores
    the original functions on `uninstall`."""

    def __init__(self):
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [[0.0]]  # per open span: time of its finished children
        self.reset()

    def reset(self) -> None:
        self.times = dict.fromkeys(LAYER_TIMES.values(), 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def _wrap(self, name, fn, metric, counter):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.times[metric] += duration - frame[0]
                stack[-1][0] += duration
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the signature or result shape changed: the count is
                    # missing, the call itself still succeeded
                    self.absent.add(f"{name} (counter)")
            return result

        return span

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cmhodge"]
        for module_name, fn_name, layer, counter in SPANS:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules.get(f"cmhodge.{module_name}"), fn_name, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, LAYER_TIMES[layer], counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {**self.times, **self.counts}
        candidates = self.counts["monomials.candidates"]
        out["monomials.yield"] = self.counts["monomials.valid"] / candidates if candidates else 0.0
        return out
