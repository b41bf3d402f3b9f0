"""Canonical serialization of reports and certificates.

Everything emitted is canonical JSON: sorted keys, compact separators,
integers and strings only (no floats anywhere), terminated by a single
newline.  The content hash is the SHA-256 of the canonical serialization
with the ``content_hash`` field removed, so two runs agree iff their
outputs are byte-identical.

Each output is encoded once.  ``_monomials`` writes a whole list of
masks in one pass: it lays the masks out as one run of bytes, each at the
width of the largest, and reads each byte's points, already written out,
from the table of its offset.  An exotic monomial, valid too, is written
once in each of its two lists.  A degree of an analysis report lists its
valid monomials orbit by orbit, cut into the Galois orbits by its
``orbit_sizes``.  A certificate bundle (format version 4) holds the
instance and the table of the induced type at every point once, and each
of its certificates the least member of each Galois orbit of its degree;
the verifier derives all else a split-Weil witness states.

``_pieces`` writes an object in key order, in pieces, from values it
encodes with ``canonical_json`` and values given as text; ``_object``
joins them, and ``_document`` hashes the pieces of a whole output and
writes them again with the hash as one more field.  The degrees of a
report or a deltas listing stay separate pieces, so the command writes
them one by one and its text is held once.  Every output has one content
hash.  The verifier checks a bundle's hash with an encoder of its own,
which never calls into this assembly.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from itertools import chain, cycle, repeat
from typing import Iterable, Sequence

from . import __version__
from .cmtypes import hodge_numbers
from .instance import BuiltInstance, InstanceSpec
from .lattice import orbit_matrix
from .monomials import DecompositionReport

REPORT_KIND = "cmhodge.report/2"
# version 4: the instance and the induced-type table once per bundle, and
# only the degree, orbit representatives and verdict per certificate;
# ``verify`` reads this version only
BUNDLE_KIND = "cmhodge.certificate-bundle/4"
DELTAS_KIND = "cmhodge.deltas"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@cache
def _points(offset: int, start: str = "", end: str = "") -> tuple[str, ...]:
    """Entry b is ``start``, then a comma and ``offset + s`` for each set
    bit s of the byte b, ascending, then ``end`` (",8,10,13")."""
    table = [start]
    for s in range(offset, offset + 8):
        table += [f"{t},{s}" for t in table]
    return tuple(t + end for t in table)


def _monomials(masks: Sequence[int]) -> str:
    """The canonical text of a list of masks' point lists,
    ``canonical_json([bits(d) for d in masks])`` without the newline."""
    if not masks:
        return "[]"
    # every mask at the width of the largest (one byte for the empty
    # monomial), each byte read from the table of its offset: the low
    # byte's entries open the mask's list (",[,0,2"), the top byte's close it
    width = (max(masks).bit_length() + 7) // 8 or 1
    top = 8 * width - 8
    tables = [_points(o, "" if o else ",[", "]" if o == top else "") for o in range(0, top + 8, 8)]
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    # "[,[,8,10],[,1]]": each "[," loses its comma in one pass over the text
    return "".join(chain("[", map(tuple.__getitem__, cycle(tables), data), "]")).replace("[,", "[")


def _list_pieces(texts: Iterable[str]) -> list[str]:
    """The canonical text of a list in pieces, the texts of its items among
    them, so that a list of large items is never joined."""
    pieces = [piece for text in texts for piece in (",", text)]
    return ["[", *pieces[1:], "]"]  # no comma before the first item


def _pieces(fields: dict, texts: dict[str, str | list[str]]):
    """The canonical text of an object, in pieces.  Each value of ``fields``
    is encoded with ``canonical_json`` and added to ``texts``, which holds
    values given encoded, each a text or a list of its pieces.  Keys are
    fixed names, so the text of a key is the name in quotes."""
    texts.update((k, canonical_json(v)[:-1]) for k, v in fields.items())
    sep = "{"
    for key, value in sorted(texts.items()):
        yield from (sep, f'"{key}":')
        yield from ((value,) if isinstance(value, str) else value)
        sep = ","
    yield "}"


def _object(fields: dict, **texts: str) -> str:
    """The canonical text of an object, without the newline."""
    return "".join(_pieces(fields, texts))


def _document(fields: dict, **texts: str | list[str]) -> list[str]:
    """The canonical text of a document with its content hash, in pieces.
    The hash is taken piece by piece, and the pieces are returned as they
    are, so a large value given in pieces is never joined: writing the
    pieces one by one holds its text once."""
    digest = hashlib.sha256()
    for piece in _pieces(fields, texts):  # adds the encoded fields to texts
        digest.update(piece.encode("utf-8"))
    digest.update(b"\n")
    return [*_pieces({"content_hash": digest.hexdigest()}, texts), "\n"]


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
    """One degree of an analysis report: ``valid`` lists each Galois orbit's
    members together, and ``orbit_sizes`` cuts it into the orbits."""
    return _object(
        {
            "p": report.p,
            "hodge_dim": report.hodge_dim,
            "lefschetz_dim": report.lefschetz_dim,
            "exotic_count": len(report.exotic),
            "orbit_count": len(report.orbits),
            "orbit_sizes": list(map(len, report.orbits)),
            "valid_pair_count": report.valid_pair_count,
        },
        valid=_monomials([*chain.from_iterable(report.orbits)]),
        exotic=_monomials(report.exotic),
    )


def lattice_payload(built: BuiltInstance) -> dict:
    matrix = orbit_matrix(built.cm_type)
    rank = len(matrix.basis)
    # the rows live in an affine set whose direction space has dim m/2, so
    # the rank can never exceed m/2 + 1
    top = built.embeddings.size // 2 + 1
    return {
        "row_count": len(matrix.rows),
        "rank": rank,
        "max_possible": top,
        "is_maximal": rank == top,
    }


def hodge_numbers_payload(built: BuiltInstance, degrees: list[int]) -> list[dict]:
    """One row r = 2p of the Hodge-number table for each degree p, in order."""
    out = []
    for r in (2 * p for p in degrees):
        table = hodge_numbers(built.embeddings, r)
        counts = [{"p": p, "q": q, "count": c} for (p, q), c in sorted(table.items())]
        out.append({"r": r, "counts": counts, "total": sum(table.values())})
    return out


def analysis_report(built: BuiltInstance, per_degree: list[tuple[int, str]]) -> list[str]:
    return _document(
        {
            "kind": REPORT_KIND,
            "version": __version__,
            "hodge_numbers": hodge_numbers_payload(built, [p for p, _ in per_degree]),
            "lattice": lattice_payload(built),
        },
        instance=_instance_text(built.spec),
        degrees=_list_pieces(text for _, text in per_degree),
    )


def certificate_bundle(built: BuiltInstance, per_degree: list[tuple[int, list[int]]]) -> str:
    """The canonical text of a bundle of one certificate per (p, orbit
    representatives) pair, each the least member of each Galois orbit, in
    the order ``galois_orbits`` lists the orbits.  The instance and the
    table of induced types are written once, for all the certificates.

    The verdict, that the orbits of the representatives exhaust the valid
    set, holds because the orbits partition it (``galois_orbits`` raises
    ``NotClosed`` if a translate escapes it).  Everything else a split-Weil
    witness states is forced, so the verifier derives it rather than reads
    it: the family of a representative is the induced type at each of its
    points, and it is balanced, since the number of family members that
    contain t is |t*delta & phi| = p: the verifier's row test.
    """
    certificates = (_object({"p": p, "verdict": True}, orbit_reps=_monomials(reps)) for p, reps in per_degree)
    return "".join(
        _document(
            {"kind": BUNDLE_KIND, "version": __version__},
            instance=_instance_text(built.spec),
            induced_types=_monomials(built.cm_type.induced_types),
            certificates=_list_pieces(certificates),
        )
    )


def deltas_report(built: BuiltInstance, per_degree: list[tuple[int, list[int]]], orbits_only: bool) -> list[str]:
    return _document(
        {"kind": DELTAS_KIND, "version": __version__, "orbits_only": orbits_only},
        instance=_instance_text(built.spec),
        degrees=_list_pieces(_object({"p": p}, deltas=_monomials(deltas)) for p, deltas in per_degree),
    )
