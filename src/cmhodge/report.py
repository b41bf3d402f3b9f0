"""Canonical serialization of reports and certificates.

Everything emitted is canonical JSON: sorted keys, compact separators,
integers and strings only (no floats anywhere), terminated by a single
newline.  The content hash is the SHA-256 of the canonical serialization
with the ``content_hash`` field removed, so two runs agree iff their
outputs are byte-identical.

Each output is encoded once.  ``canonical_json`` encodes each top-level
value of a document, and ``_document`` assembles the document from those
texts: it hashes the joined text, which is the canonical serialization
without ``content_hash``, and inserts the hash at its sorted key position.
A bundle is joined from the finished text of each certificate.  The
verifier checks the inserted hashes with an encoder of its own, which
rebuilds the canonical text from the parsed document and never calls
``_document``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect

from . import __version__
from .cmtypes import hodge_numbers
from .groups import bits
from .instance import BuiltInstance, InstanceSpec
from .lattice import (
    is_rank_maximal,
    lattice_rank,
    lattice_rank_with_ones,
    orbit_matrix,
)
from .monomials import DecompositionReport
from .weil import CoverageCertificate

REPORT_KIND = "cmhodge.report"
CERTIFICATE_KIND = "cmhodge.certificate"
BUNDLE_KIND = "cmhodge.certificate-bundle"
DELTAS_KIND = "cmhodge.deltas"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _document(fields: dict, **texts: str) -> str:
    """The canonical text of a document with its content hash.  Each value
    of ``fields`` is encoded once; ``texts`` holds values already encoded
    (without the newline).  The hash is taken piece by piece, so the text
    is joined only once."""
    texts.update((k, canonical_json(v)[:-1]) for k, v in fields.items())
    keys = sorted(texts)
    items = [(canonical_json(k)[:-1], texts[k]) for k in keys]
    digest = hashlib.sha256()
    for piece in _pieces(items):
        digest.update(piece.encode("utf-8"))
    hash_item = (canonical_json("content_hash")[:-1], canonical_json(digest.hexdigest())[:-1])
    items.insert(bisect(keys, "content_hash"), hash_item)
    return "".join(_pieces(items))


def _pieces(items: list[tuple[str, str]]):
    """The canonical text of an object, in pieces, from its encoded keys
    and values in key order."""
    sep = "{"
    for key, value in items:
        yield from (sep, key, ":", value)
        sep = ","
    yield "}\n"


def instance_payload(spec: InstanceSpec) -> dict:
    return {
        "name": spec.name,
        "group": {
            "order": spec.order,
            "table": [list(row) for row in spec.mult],
            "iota": spec.iota,
        },
        "factors": [list(f) for f in spec.factors],
        "cm_type": sorted(spec.cm_type),
    }


def degree_payload(report: DecompositionReport) -> dict:
    # every list holds valid monomials: read each one's points once
    points = {d: bits(d) for d in report.valid}
    return {
        "p": report.p,
        "hodge_dim": report.hodge_dim,
        "lefschetz_dim": report.lefschetz_dim,
        "exotic_count": len(report.exotic),
        "orbit_count": len(report.orbits),
        "valid_pair_count": report.valid_pair_count,
        "valid": list(points.values()),
        "decomposable": [points[d] for d in report.decomposable],
        "exotic": [points[d] for d in report.exotic],
        "orbits": [[points[d] for d in orbit] for orbit in report.orbits],
    }


def lattice_payload(built: BuiltInstance) -> dict:
    matrix = orbit_matrix(built.cm_type)
    return {
        "row_count": len(matrix.rows),
        "rank": lattice_rank(matrix),
        "rank_with_ones": lattice_rank_with_ones(matrix),
        "max_possible": matrix.ncols // 2 + 1,
        "is_maximal": is_rank_maximal(matrix),
    }


def hodge_numbers_payload(built: BuiltInstance) -> list[dict]:
    out = []
    for r in range(built.embeddings.size + 1):
        table = hodge_numbers(built.embeddings, built.cm_type, r)
        counts = [
            {"p": p, "q": q, "count": c} for (p, q), c in sorted(table.items())
        ]
        out.append({"r": r, "counts": counts, "total": sum(table.values())})
    return out


def analysis_report(built: BuiltInstance, degree_reports: list[DecompositionReport]) -> str:
    return _document(
        {
            "kind": REPORT_KIND,
            "version": __version__,
            "instance": instance_payload(built.spec),
            "degrees": [degree_payload(r) for r in degree_reports],
            "hodge_numbers": hodge_numbers_payload(built),
            "lattice": lattice_payload(built),
        }
    )


def certificate_payload(spec: InstanceSpec, cert: CoverageCertificate) -> str:
    """The canonical text of one certificate, content hash included."""
    # the transcript, Weil data, coverage and verdict are forced by validity
    # (see ``weil``); they are written out for the verifier to recheck
    p = cert.p
    # every list holds valid monomials: read each one's points once
    points = {d: bits(d) for d in cert.valid_set}
    witnesses = []
    for w in cert.witnesses:
        witnesses.append(
            {
                "delta": points[w.delta],
                "family": [list(f.elements) for f in w.family],
                "balanced_transcript": [p] * spec.order,
                "covered_translates": [points[d] for d in w.covered_translates],
                "weil_data": {"d": 2 * p, "rank_over_f": 1, "dim_over_q": spec.order},
            }
        )
    return _document(
        {
            "kind": CERTIFICATE_KIND,
            "version": __version__,
            "instance": instance_payload(spec),
            "p": p,
            "orbit_reps": [points[w.delta] for w in cert.witnesses],
            "witnesses": witnesses,
            "coverage": list(points.values()),
            "valid_set": list(points.values()),
            "verdict": True,
        }
    )


def certificate_bundle(spec: InstanceSpec, certs: list[CoverageCertificate]) -> str:
    """The canonical text of a bundle, joined from the finished text of
    each certificate."""
    certificates = "[" + ",".join(certificate_payload(spec, c)[:-1] for c in certs) + "]"
    return _document(
        {"kind": BUNDLE_KIND, "version": __version__, "instance": instance_payload(spec)},
        certificates=certificates,
    )


def deltas_report(built: BuiltInstance, per_degree: list[tuple[int, list[int]]], orbits_only: bool) -> str:
    return _document(
        {
            "kind": DELTAS_KIND,
            "version": __version__,
            "instance": instance_payload(built.spec),
            "orbits_only": orbits_only,
            "degrees": [
                {"p": p, "deltas": [bits(d) for d in deltas]}
                for p, deltas in per_degree
            ],
        }
    )
