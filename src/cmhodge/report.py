"""Canonical serialization of reports and certificates.

Everything emitted is canonical JSON: sorted keys, compact separators,
integers and strings only (no floats anywhere), terminated by a single
newline.  The content hash is the SHA-256 of the canonical serialization
with the ``content_hash`` field removed, so two runs agree iff their
outputs are byte-identical.

Each output is encoded once, and each monomial in it is written once.
``_monomial_text`` writes a mask's point list as JSON text from tables of
each byte's points already written out, and a degree, a certificate or a
deltas listing maps each of its monomials to that text once; every list
of monomials (and the orbits, a list of such lists) is then joined from
those texts.  ``_object`` assembles an object in key order from values it
encodes with ``canonical_json`` and values given as text, and
``_document`` does the same for a whole output: it hashes the joined
text, which is the canonical serialization without ``content_hash``, and
inserts the hash at its sorted key position.  A bundle is joined from the
finished text of each certificate, and the instance is encoded once per
output.  The verifier checks the inserted hashes with an encoder of its
own, which rebuilds the canonical text from the parsed document and never
calls into this assembly.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from typing import Iterable

from . import __version__
from .cmtypes import hodge_numbers
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


def _byte_texts(offset: int) -> tuple[str, ...]:
    """Entry b lists ``offset + s`` for each set bit s of the byte b,
    ascending, as JSON text without brackets ("8,10,13")."""
    table = [""]
    for s in map(str, range(offset, offset + 8)):
        table += [f"{t},{s}" if t else s for t in table]
    return tuple(table)


# _BYTE_TEXTS[i][b]: the points of a mask whose byte i is b, as text; grown
# on first use to the widest mask written, as masks have no fixed width
_BYTE_TEXTS: list[tuple[str, ...]] = []


def _monomial_text(mask: int) -> str:
    """The canonical text of a mask's points, ``canonical_json(bits(mask))``
    without the newline, read a byte at a time from ``_BYTE_TEXTS``."""
    width = (mask.bit_length() + 7) // 8
    if width > len(_BYTE_TEXTS):
        _BYTE_TEXTS.extend(map(_byte_texts, range(8 * len(_BYTE_TEXTS), 8 * width, 8)))
    data = mask.to_bytes(width, "little")
    return "[" + ",".join(filter(None, map(tuple.__getitem__, _BYTE_TEXTS, data))) + "]"


def _list(texts: Iterable[str]) -> str:
    """The canonical text of a list from the texts of its items."""
    return "[" + ",".join(texts) + "]"


@cache
def _key(name: str) -> str:
    # a few names recur in every witness object: encode each once
    return canonical_json(name)[:-1]


def _items(fields: dict, texts: dict[str, str]) -> list[tuple[str, str]]:
    """The encoded (key, value) pairs of an object, in key order.  Each
    value of ``fields`` is encoded once and added to ``texts``, which holds
    values already encoded (without the newline)."""
    texts.update((k, canonical_json(v)[:-1]) for k, v in fields.items())
    return [(_key(k), texts[k]) for k in sorted(texts)]


def _pieces(items: list[tuple[str, str]]):
    """The canonical text of an object, in pieces, from its encoded keys
    and values in key order."""
    sep = "{"
    for key, value in items:
        yield from (sep, key, ":", value)
        sep = ","
    yield "}"


def _object(fields: dict, **texts: str) -> str:
    """The canonical text of an object, without the newline."""
    return "".join(_pieces(_items(fields, texts)))


def _document(fields: dict, **texts: str) -> str:
    """The canonical text of a document with its content hash.  The hash is
    taken piece by piece, so the text is joined only once."""
    items = _items(fields, texts)
    digest = hashlib.sha256()
    for piece in _pieces(items):
        digest.update(piece.encode("utf-8"))
    digest.update(b"\n")
    hash_item = (_key("content_hash"), canonical_json(digest.hexdigest())[:-1])
    items.insert(sum(k < "content_hash" for k in texts), hash_item)
    return "".join([*_pieces(items), "\n"])


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


def _instance_text(spec: InstanceSpec) -> str:
    return canonical_json(instance_payload(spec))[:-1]


def degree_payload(report: DecompositionReport) -> str:
    """The canonical text of one degree of an analysis report."""
    # every list holds valid monomials: write each one once
    text = dict(zip(report.valid, map(_monomial_text, report.valid)))
    valid = _list(text.values())
    return _object(
        {
            "p": report.p,
            "hodge_dim": report.hodge_dim,
            "lefschetz_dim": report.lefschetz_dim,
            "exotic_count": len(report.exotic),
            "orbit_count": len(report.orbits),
            "valid_pair_count": report.valid_pair_count,
        },
        valid=valid,
        # both sorted: with no exotic monomial the lists are equal
        decomposable=_list(map(text.__getitem__, report.decomposable)) if report.exotic else valid,
        exotic=_list(map(text.__getitem__, report.exotic)),
        orbits=_list(_list(map(text.__getitem__, orbit)) for orbit in report.orbits),
    )


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
            "hodge_numbers": hodge_numbers_payload(built),
            "lattice": lattice_payload(built),
        },
        instance=_instance_text(built.spec),
        degrees=_list(map(degree_payload, degree_reports)),
    )


def certificate_payload(spec: InstanceSpec, cert: CoverageCertificate) -> str:
    """The canonical text of one certificate, content hash included."""
    return _certificate(_instance_text(spec), spec.order, cert)


def _certificate(instance: str, order: int, cert: CoverageCertificate) -> str:
    # the transcript, Weil data, coverage and verdict are forced by validity
    # (see ``weil``); they are written out for the verifier to recheck
    p = cert.p
    # every list holds valid monomials: write each one once
    text = dict(zip(cert.valid_set, map(_monomial_text, cert.valid_set)))
    transcript = canonical_json([p] * order)[:-1]
    weil_data = canonical_json({"d": 2 * p, "rank_over_f": 1, "dim_over_q": order})[:-1]
    witnesses = _list(
        _object(
            {"family": [list(f.elements) for f in w.family]},
            delta=text[w.delta],
            balanced_transcript=transcript,
            covered_translates=_list(map(text.__getitem__, w.covered_translates)),
            weil_data=weil_data,
        )
        for w in cert.witnesses
    )
    valid_set = _list(text.values())
    return _document(
        {"kind": CERTIFICATE_KIND, "version": __version__, "p": p, "verdict": True},
        instance=instance,
        orbit_reps=_list(text[w.delta] for w in cert.witnesses),
        witnesses=witnesses,
        coverage=valid_set,
        valid_set=valid_set,
    )


def certificate_bundle(spec: InstanceSpec, certs: list[CoverageCertificate]) -> str:
    """The canonical text of a bundle, joined from the finished text of
    each certificate."""
    instance = _instance_text(spec)
    certificates = _list(_certificate(instance, spec.order, c)[:-1] for c in certs)
    return _document(
        {"kind": BUNDLE_KIND, "version": __version__},
        instance=instance,
        certificates=certificates,
    )


def deltas_report(built: BuiltInstance, per_degree: list[tuple[int, list[int]]], orbits_only: bool) -> str:
    return _document(
        {"kind": DELTAS_KIND, "version": __version__, "orbits_only": orbits_only},
        instance=_instance_text(built.spec),
        degrees=_list(
            _object({"p": p}, deltas=_list(map(_monomial_text, deltas))) for p, deltas in per_degree
        ),
    )
