"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 parse/validation error,
3 verification failure, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .catalog import CATALOG_NAMES, catalog, sweep_instances
from .errors import CapExceeded, CmhodgeError, ParseError, ValidationError
from .instance import BuiltInstance, build_instance, decimal, parse_instance, serialize_instance
from .lattice import orbit_matrix
from .monomials import (
    DecompositionReport, check_bruteforce_cap, check_listing_cap, classify, enumerate_valid,
    enumerate_valid_bruteforce, galois_orbits,
)
from .report import analysis_report, certificate_bundle, degree_payload, deltas_report
from .verify import verify_document

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3
EXIT_CAP = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


# the options each command reads; any other option is a usage error
_OPTIONS = {
    "analyze": ("--input", "--catalog", "--degree"),
    "deltas": ("--input", "--catalog", "--degree", "--orbits-only"),
    "witness": ("--input", "--catalog", "--degree", "--certify"),
    "verify": ("--certify",),
    "oracle": ("--input", "--catalog", "--degree"),
    "catalog": ("--catalog",),
}
_ARGUMENTS = {
    "--input": {"metavar": "PATH", "help": "instance file"},
    "--catalog": {"metavar": "NAME:PARAMS", "help": "built-in instance"},
    "--degree": {"metavar": "N|all", "help": "degree N, or 'all' for every degree; replaces the instance's degrees line"},
    "--orbits-only": {"action": "store_true"},
    "--certify": {"metavar": "PATH", "help": "certificate file to write or verify"},
}


def _build_parser(argv: list[str]) -> _Parser:
    # no abbreviations, so an option given twice is one token given twice
    parser = _Parser(prog="cmhodge", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # a command named first needs only its own subparser; anything else gets all
    for name in argv[:1] if argv[:1] and argv[0] in _OPTIONS else _OPTIONS:
        cmd = sub.add_parser(name, allow_abbrev=False)
        for option in _OPTIONS[name]:
            cmd.add_argument(option, **_ARGUMENTS[option])
    return parser


def _load_instance(args) -> BuiltInstance:
    if bool(args.input) == bool(args.catalog):
        raise _UsageError("exactly one of --input and --catalog is required")
    # --degree, if given, replaces the degrees line (None is every degree),
    # and build_instance checks either; a malformed one is refused unread
    try:
        degrees = None if args.degree in (None, "all") else (decimal(args.degree),)
    except ValueError:
        raise _UsageError(f"--degree wants an integer or 'all', got {args.degree!r}")
    if args.input:
        spec = parse_instance(Path(args.input).read_text(encoding="utf-8"))
    else:
        name, _, params = args.catalog.partition(":")
        spec = catalog(name, params)
    if args.degree is not None:
        spec = spec._replace(degrees=degrees)
    return build_instance(spec)


def _by_degree(built: BuiltInstance, work, answer, mirror) -> list[tuple[int, object]]:
    """(p, answer) for each requested degree, in request order.  ``work(q)``
    works out degree q, ``answer`` reads the answer at q from it, and
    ``mirror(full, work(q))`` builds the answer at m/2 - q.

    Complement maps the valid monomials of degree q onto those of m/2 - q,
    orbits onto orbits and exotic onto exotic.  So each pair {q, m/2 - q}
    is worked out once, at q <= m/4, and each requested degree of it is
    answered at once; the work is dropped before the next pair is begun.
    """
    degrees = built.degrees
    # count every degree before listing any, so a listing past the cap
    # exits 4 before the lower degrees are worked out
    check_listing_cap(built.cm_type, degrees)
    full = built.embeddings.all_mask
    half = built.embeddings.size // 2
    answers = {}
    for q in dict.fromkeys(min(p, half - p) for p in degrees):
        done = work(q)
        if q in degrees:
            answers[q] = answer(done)
        if half - q > q and half - q in degrees:
            answers[half - q] = mirror(full, done)
        del done  # nothing of one pair is held while the next is worked out
    return [(p, answers[p]) for p in degrees]


def _mirrored_report(full: int, report: DecompositionReport) -> DecompositionReport:
    # the complement of an ascending tuple, reversed, ascends
    return DecompositionReport(
        p=full.bit_count() // 2 - report.p,
        orbits=tuple(sorted(tuple(map(full.__xor__, reversed(orbit))) for orbit in report.orbits)),
        valid_pair_count=report.valid_pair_count,
        exotic=tuple(map(full.__xor__, reversed(report.exotic))),
    )


def _cmd_analyze(args, out) -> int:
    built = _load_instance(args)
    per_degree = _by_degree(
        built, lambda p: classify(built.cm_type, p), degree_payload,
        lambda full, report: degree_payload(_mirrored_report(full, report)),
    )
    out.writelines(analysis_report(built, per_degree))
    return EXIT_OK


def _orbit_reps(built: BuiltInstance) -> list[tuple[int, list[int]]]:
    def work(p):
        # a degree's orbits are dropped once their least and greatest members are read
        orbits = galois_orbits(built.embeddings, enumerate_valid(built.cm_type, p))
        return [orbit[0] for orbit in orbits], [orbit[-1] for orbit in orbits]

    # the least member of the complement of an orbit is the complement of its greatest
    return _by_degree(built, work, lambda ends: ends[0], lambda full, ends: sorted(map(full.__xor__, ends[1])))


def _cmd_deltas(args, out) -> int:
    built = _load_instance(args)
    if args.orbits_only:
        per_degree = _orbit_reps(built)
    else:
        per_degree = _by_degree(
            built, lambda p: enumerate_valid(built.cm_type, p), lambda listing: listing,
            lambda full, listing: list(map(full.__xor__, reversed(listing))),
        )
    out.writelines(deltas_report(built, per_degree, args.orbits_only))
    return EXIT_OK


def _cmd_witness(args, out) -> int:
    built = _load_instance(args)
    text = certificate_bundle(built, _orbit_reps(built))
    if args.certify:
        Path(args.certify).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    return EXIT_OK


def _finite(text: str) -> float:
    # Python's json reads NaN, Infinity and, as inf, a number past the float
    # range, none of which canonical JSON can hash
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"contains {text}, which canonical JSON cannot encode")
    return value


def _read_certificate(path: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:
        # nesting or an integer past the decoder's limits
        raise ParseError(f"cannot be decoded: {exc}")


def _cmd_verify(args, out) -> int:
    if not args.certify:
        raise _UsageError("verify requires --certify PATH")
    results = verify_document(_read_certificate(args.certify))
    all_ok = all(res.ok for _, res in results)
    for label, res in results:
        out.write(f"{label}: {res.describe()}\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_oracle(args, out) -> int:
    built = _load_instance(args)
    phi = built.cm_type
    # check every degree before the first, so a run past either cap prints nothing
    check_bruteforce_cap(phi, built.degrees)
    check_listing_cap(phi, built.degrees)
    # the lattice basis does not depend on p: one elimination per CM-type
    basis = orbit_matrix(phi).basis
    agree = True
    for p in built.degrees:
        brute = enumerate_valid_bruteforce(phi, p)
        fast = enumerate_valid(phi, p)
        by_basis = enumerate_valid_bruteforce(phi, p, rows=basis)
        ok = brute == fast == by_basis
        agree = agree and ok
        out.write(f"p={p}: {'agree' if ok else 'DISAGREE'} ({len(brute)} valid)\n")
    return EXIT_OK if agree else EXIT_VERIFY


def _cmd_catalog(args, out) -> int:
    if args.catalog:
        name, _, params = args.catalog.partition(":")
        out.write(serialize_instance(catalog(name, params)))
        return EXIT_OK
    out.write("entries: " + ", ".join(CATALOG_NAMES) + "\n")
    out.write("standard sweep instances:\n")
    for spec in sweep_instances(12):
        out.write(f"  {spec.name} (order {spec.order})\n")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "deltas": _cmd_deltas,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        # argparse would keep the last of a repeated option
        options = [token.partition("=")[0] for token in argv if token.startswith("--")]
        for option in options:
            if options.count(option) > 1:
                raise _UsageError(f"duplicate {option} option")
        return _COMMANDS[args.command](args, sys.stdout)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:
        # the one file ``verify`` reads is a certificate
        print(f"invalid {'certificate' if args.command == 'verify' else 'instance'}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        where = "" if exc.filename is None else f" {exc.filename}"
        print(f"cannot access{where}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID
    except CmhodgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
