"""Canonical serialization of reports and certificates.

Everything emitted is canonical JSON: sorted keys, compact separators,
integers and strings only (no floats anywhere), terminated by a single
newline.  The content hash is the SHA-256 of the canonical serialization
with the ``content_hash`` field removed, so two runs agree iff their
outputs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json

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


def content_hash(obj) -> str:
    stripped = {k: v for k, v in obj.items() if k != "content_hash"}
    return hashlib.sha256(canonical_json(stripped).encode("utf-8")).hexdigest()


def finalize(obj: dict) -> dict:
    """Attach the content hash; idempotent on the other fields."""
    obj = dict(obj)
    obj["content_hash"] = content_hash(obj)
    return obj


def points(mask: int) -> list[int]:
    return list(bits(mask))


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
    return {
        "p": report.p,
        "hodge_dim": report.hodge_dim,
        "lefschetz_dim": report.lefschetz_dim,
        "exotic_count": len(report.exotic),
        "orbit_count": len(report.orbits),
        "valid_pair_count": report.valid_pair_count,
        "valid": [points(d) for d in report.valid],
        "decomposable": [points(d) for d in report.decomposable],
        "exotic": [points(d) for d in report.exotic],
        "orbits": [[points(d) for d in orbit] for orbit in report.orbits],
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


def analysis_report(built: BuiltInstance, degree_reports: list[DecompositionReport]) -> dict:
    return finalize(
        {
            "kind": REPORT_KIND,
            "version": __version__,
            "instance": instance_payload(built.spec),
            "degrees": [degree_payload(r) for r in degree_reports],
            "hodge_numbers": hodge_numbers_payload(built),
            "lattice": lattice_payload(built),
        }
    )


def certificate_payload(spec: InstanceSpec, cert: CoverageCertificate) -> dict:
    # the transcript, Weil data, coverage and verdict are forced by validity
    # (see ``weil``); they are written out for the verifier to recheck
    p = cert.p
    witnesses = []
    for w in cert.witnesses:
        witnesses.append(
            {
                "delta": points(w.delta),
                "family": [sorted(f.elements) for f in w.family],
                "balanced_transcript": [p] * spec.order,
                "covered_translates": [points(d) for d in w.covered_translates],
                "weil_data": {"d": 2 * p, "rank_over_f": 1, "dim_over_q": spec.order},
            }
        )
    return finalize(
        {
            "kind": CERTIFICATE_KIND,
            "version": __version__,
            "instance": instance_payload(spec),
            "p": p,
            "orbit_reps": [points(w.delta) for w in cert.witnesses],
            "witnesses": witnesses,
            "coverage": [points(d) for d in cert.valid_set],
            "valid_set": [points(d) for d in cert.valid_set],
            "verdict": True,
        }
    )


def certificate_bundle(spec: InstanceSpec, certs: list[CoverageCertificate]) -> dict:
    return finalize(
        {
            "kind": BUNDLE_KIND,
            "version": __version__,
            "instance": instance_payload(spec),
            "certificates": [certificate_payload(spec, c) for c in certs],
        }
    )


def deltas_report(built: BuiltInstance, per_degree: list[tuple[int, list[int]]], orbits_only: bool) -> dict:
    return finalize(
        {
            "kind": DELTAS_KIND,
            "version": __version__,
            "instance": instance_payload(built.spec),
            "orbits_only": orbits_only,
            "degrees": [
                {"p": p, "deltas": [points(d) for d in deltas]}
                for p, deltas in per_degree
            ],
        }
    )
