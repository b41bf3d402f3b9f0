"""Independent certificate verifier.

Takes nothing in a certificate on trust: the group axioms, the CM-type
partition, validity of every monomial, the induced families, the balanced
transcripts, and the coverage claim are all recomputed from the raw tables
in the file and compared against what the certificate asserts.  The
producer writes each witness from its orbit and the CM-type's induced-type
masks; the verifier recomputes those masks from the tables, turns them
into point lists once per certificate, and compares each stored family
member with them as a list, so no stored element is shifted into a mask.

Each content hash is checked once, on text the verifier encodes itself
and never takes from ``report``.  ``_encoded`` encodes every top-level
value of a parsed certificate once and hashes the entries other than
``content_hash``; a bundle's digest takes each certificate's text as soon
as that text is made, and keeps only whether the certificate's own hash
matched.  So nothing is encoded twice, and no two certificate texts are
held at once.

A certificate of format version 2 (its ``kind`` ends in ``/2``) lists
each Galois orbit once, as the covered translates of its witness.  Its
coverage and valid set are derived: each witness's covered translates must
be exactly the translates of its delta, and the valid set is the
concatenation of those checked lists, so an orbit listed twice is a
monomial listed twice.  A version-1 certificate stores ``coverage`` and
``valid_set`` as well; they are read from the file and checked as before.
A bundle accepts only certificates of its own version.

The valid set is checked by recount, not rebuilt.  Every listed monomial
must pass the validity criterion and the listed masks must be distinct, so
the list is a subset of the true valid set; its length must then equal the
number of valid monomials, counted by ``_count_valid`` on a split of the
points (evens against odds) that the producer's enumerator does not use.
A subset of the right size is the whole set, so a certificate cannot pass
by being self-consistent about a wrong answer.  The count packs, for each
point, one F-bit field per row of each complementary pair into a single
int weight, so a subset's summed weight holds its count in every row;
since a field of an even sum plus an odd sum is at most 2p < 2**F, no
field carries, and two halves match iff their sums add up to p in every
field.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import comb
from typing import Iterable

from .cmtypes import CMType, validate_cm_type
from .errors import CapExceeded, CmhodgeError
from .groups import EmbeddingSet, bits, build_group, embedding_set
from .monomials import HALF_TABLE_CAP, valid_delta
from .report import BUNDLE_KIND, CERTIFICATE_KIND, canonical_json

# checks, in the order they run; the verdict names the first one to fail
CHECKS = (
    "schema",
    "content_hash",
    "group_axioms",
    "factors",
    "cm_type",
    "degree",
    "delta_valid",
    "induced_family",
    "balanced",
    "translates",
    "orbit_reps",
    "weil_data",
    "coverage",
    "valid_set",
)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_check: str | None = None
    detail: str = ""

    def describe(self) -> str:
        if self.ok:
            return "pass"
        return f"fail [{self.failed_check}] {self.detail}"


def _fail(check: str, detail: str) -> VerificationResult:
    return VerificationResult(False, check, detail)


# The JSON shape of a certificate: a dict lists its fields, [s] is a list
# of s, {int} a list of distinct ints, and int means a non-negative int
# that is not a bool (JSON true loads as one, and int() would take "2").
_SCHEMA_V1 = {
    "instance": {
        "group": {"order": int, "table": [[int]], "iota": int},
        "factors": [{int}],
        "cm_type": {int},
    },
    "p": int,
    "witnesses": [
        {
            "delta": {int},
            "family": [{int}],
            "balanced_transcript": [int],
            "covered_translates": [{int}],
            "weil_data": {"d": int, "rank_over_f": int, "dim_over_q": int},
        }
    ],
    "orbit_reps": [{int}],
    "coverage": [{int}],
    "valid_set": [{int}],
    "verdict": bool,
}
# version 2 lists each orbit once, as its witness's covered translates
_SCHEMA = {k: s for k, s in _SCHEMA_V1.items() if k not in ("coverage", "valid_set")}
# the schema of each certificate kind, and the certificate kind of each
# bundle kind; the format generation is read from the kind
_SCHEMAS = {CERTIFICATE_KIND: _SCHEMA, "cmhodge.certificate": _SCHEMA_V1}
_BUNDLES = {BUNDLE_KIND: CERTIFICATE_KIND, "cmhodge.certificate-bundle": "cmhodge.certificate"}


def _conforms(value, shape) -> bool:
    return _all_conform([value], shape)


def _all_conform(values: list, shape) -> bool:
    """Whether every value has the shape, checked one schema node at a time:
    each field of a dict, and the items of every list, as one column."""
    if isinstance(shape, dict):
        return all(map(isinstance, values, repeat(dict))) and all(
            _all_conform([v.get(k) for v in values], s) for k, s in shape.items()
        )
    if isinstance(shape, (list, set)):
        # a set's items are ints once checked, so they can be hashed
        return (
            all(map(isinstance, values, repeat(list)))
            and _all_conform(list(chain.from_iterable(values)), *shape)
            and (isinstance(shape, list) or list(map(len, map(set, values))) == list(map(len, values)))
        )
    return set(map(type, values)) <= {shape} and (shape is not int or min(values, default=0) >= 0)


def _hash_ok(doc: dict, entries: dict[str, Iterable[str]]) -> bool:
    """Whether a parsed document's stored content hash is the SHA-256 of
    its canonical text without that hash.  ``entries`` holds the text of
    every other top-level entry, '"key":value', in pieces; the entries are
    read in key order, so their pieces may be made as the digest takes
    them."""
    digest = hashlib.sha256(b"{")
    for i, key in enumerate(sorted(entries)):
        digest.update(b"," if i else b"")
        for piece in entries[key]:
            digest.update(piece.encode("utf-8"))
    digest.update(b"}\n")
    return doc.get("content_hash") == digest.hexdigest()


def _entry(key: str, value) -> str:
    return f"{canonical_json(key)[:-1]}:{canonical_json(value)[:-1]}"


def _encoded(doc: dict) -> tuple[str, bool]:
    """The canonical text of a parsed document, each top-level value encoded
    once, and whether its stored content hash matches that text."""
    entries = {k: _entry(k, v) for k, v in doc.items()}
    text = "{" + ",".join(entries[k] for k in sorted(entries)) + "}\n"
    return text, _hash_ok(doc, {k: (e,) for k, e in entries.items() if k != "content_hash"})


def _count_valid(phi: CMType, p: int) -> int:
    """The number of valid monomials at degree p, counted without listing one.

    A subset S of the points splits into its even points E and odd points O,
    and |S & r| = |E & r| + |O & r| for every row r.  One row of each
    complementary pair is enough, since |S & (all ^ r)| = |S| - |S & r|.
    Each point gets a weight with one F-bit field per kept row, holding 1
    where the row contains the point, so the sum of a subset's weights holds
    |S & r| in the field of r.  No field carries into the next: a field of
    an even sum plus an odd sum is |S & r| <= |S| = 2p < 2**F.  So, size by
    size, each half's subsets are tabulated by summed weight, and S is valid
    iff its even and odd sums add up to the weight with p in every field.
    Raises ``CapExceeded``, before tabulating anything, if the two halves
    hold more than ``HALF_TABLE_CAP`` subsets over the sizes used.
    """
    m = phi.carrier.size
    rows: list[int] = []
    for r in phi.rows:
        if phi.carrier.all_mask ^ r not in rows:
            rows.append(r)
    f = (2 * p).bit_length()
    weights = [sum((r >> s & 1) << f * j for j, r in enumerate(rows)) for s in range(m)]
    evens, odds = weights[0::2], weights[1::2]
    sizes = range(max(0, 2 * p - len(odds)), min(len(evens), 2 * p) + 1)
    subsets = sum(comb(len(evens), k) + comb(len(odds), 2 * p - k) for k in sizes)
    if subsets > HALF_TABLE_CAP:
        raise CapExceeded(f"counting needs {subsets} subsets, above the cap of {HALF_TABLE_CAP}")
    target = sum(p << f * j for j in range(len(rows)))
    count = 0
    for k in sizes:
        odd = Counter(map(sum, combinations(odds, 2 * p - k)))
        count += sum(n * odd[target - w] for w, n in Counter(map(sum, combinations(evens, k))).items())
    return count


def _build(inst: dict) -> tuple[EmbeddingSet | None, CMType | None, VerificationResult | None]:
    """Build the embedding set and CM-type of a schema-checked instance.

    Returns (embeddings, phi, failure).  A failed ``group_axioms`` or
    ``factors`` check leaves both objects None; a failed ``cm_type`` check
    keeps the embedding set, because the points are bounded before the
    CM-type is checked.
    """
    try:
        group = build_group(inst["group"]["order"], inst["group"]["table"], inst["group"]["iota"])
    except CmhodgeError as exc:
        return None, None, _fail("group_axioms", str(exc))
    try:
        embeddings = embedding_set(group, inst["factors"])
    except CmhodgeError as exc:
        return None, None, _fail("factors", str(exc))
    try:
        return embeddings, validate_cm_type(embeddings, inst["cm_type"]), None
    except CmhodgeError as exc:
        return embeddings, None, _fail("cm_type", str(exc))


def verify_certificate(
    data, built: tuple | None = None, hash_ok: bool | None = None, kind: str | None = None
) -> VerificationResult:
    """Re-check a single certificate from scratch.  Input of the wrong shape
    fails the ``schema`` check before anything reads it.  The one exception
    that gets through is ``CapExceeded``, raised before any table is built
    when the valid set is too large to recount.

    ``verify_document`` passes what ``_build`` returned for the bundle's
    instance, after finding every certificate's instance equal to it, the
    certificate's hash result from ``_encoded``, so that neither is computed
    twice, and the certificate kind of the bundle's generation, the only
    kind it accepts."""
    if not isinstance(data, dict):
        return _fail("schema", "certificate is not a JSON object")
    if data.get("kind") not in ((kind,) if kind else tuple(_SCHEMAS)):
        return _fail("schema", f"unexpected kind {data.get('kind')!r}")
    v1 = data["kind"] != CERTIFICATE_KIND
    bad = [key for key, shape in _SCHEMAS[data["kind"]].items() if not _conforms(data.get(key), shape)]
    if bad:
        return _fail("schema", f"field {bad[0]!r} is missing or malformed")
    inst, p, witnesses, orbit_reps = data["instance"], data["p"], data["witnesses"], data["orbit_reps"]

    if hash_ok is None:
        try:
            hash_ok = _encoded(data)[1]
        except RecursionError:  # nested past what the encoder takes
            hash_ok = False
    if not hash_ok:
        return _fail("content_hash", "stored hash does not match the content")

    embeddings, phi, failure = built or _build(inst)
    if embeddings is None:
        return failure
    group = embeddings.parent
    # bound every point before it is shifted into a mask
    point_lists = [inst["cm_type"], *orbit_reps, *(data["coverage"] + data["valid_set"] if v1 else ())]
    point_lists += [pts for w in witnesses for pts in (w["delta"], *w["covered_translates"])]
    if max(map(max, filter(None, point_lists)), default=0) >= embeddings.size:
        return _fail("schema", f"a point lies outside 0..{embeddings.size - 1}")
    if phi is None:
        return failure
    # the points are bounded and distinct: a list's mask is the sum of its bits
    bit = [1 << s for s in range(embeddings.size)].__getitem__

    if 2 * p > embeddings.size:
        return _fail("degree", f"p = {p} exceeds m/2 = {embeddings.size // 2}")
    if len(witnesses) != len(orbit_reps):
        return _fail("schema", "witness count differs from orbit representative count")

    induced = [bits(t) for t in phi.induced_types]  # the induced type at each point
    found: list[int] = []  # the checked covered translates, witness by witness
    for i, w in enumerate(witnesses):
        delta = sum(map(bit, w["delta"]))
        if delta != sum(map(bit, orbit_reps[i])):
            return _fail("schema", f"witness {i} delta differs from its orbit representative")
        if len(w["delta"]) != 2 * p:
            return _fail("degree", f"witness {i} has {len(w['delta'])} points, expected {2 * p}")
        if not valid_delta(phi, delta, p):
            return _fail("delta_valid", f"witness {i} monomial fails the validity criterion")

        family = w["family"]
        delta_points = sorted(w["delta"])
        if len(family) != len(delta_points):
            return _fail("induced_family", f"witness {i} family size differs from |delta|")
        for s, stored in zip(delta_points, family):
            if sorted(stored) != induced[s]:
                return _fail(
                    "induced_family",
                    f"witness {i}: stored type at point {s} is not the induced type",
                )

        members = Counter(chain.from_iterable(family))
        recomputed = [members[t] for t in group.elements()]
        if w["balanced_transcript"] != recomputed:
            return _fail("balanced", f"witness {i} transcript does not match the family")
        if any(v != p for v in recomputed):
            return _fail("balanced", f"witness {i} transcript is not identically {p}")

        translates = sorted(set(embeddings.translates(delta)))
        if [sum(map(bit, d)) for d in w["covered_translates"]] != translates:
            return _fail("translates", f"witness {i} covered translates are wrong")
        if delta != translates[0]:
            return _fail("orbit_reps", f"representative {i} is not minimal in its orbit")
        found += translates

        wd = w["weil_data"]
        if (wd["d"], wd["rank_over_f"], wd["dim_over_q"]) != (2 * p, 1, group.order):
            return _fail("weil_data", f"witness {i} weil numerology is wrong")

    # version 2 lists each orbit once: its coverage and valid set are what
    # the witnesses cover, so a repeated or missing orbit fails valid_set
    listed = stored_coverage = found
    if v1:
        listed = sorted(sum(map(bit, d)) for d in data["valid_set"])
        # the producer writes the two lists alike; convert coverage only if not
        stored_coverage = listed
        if data["coverage"] != data["valid_set"]:
            stored_coverage = sorted(sum(map(bit, d)) for d in data["coverage"])
        if stored_coverage != sorted(set(found)):
            return _fail("coverage", "stored coverage is not the union of witness translates")

    # valid, distinct and as many as there are: the listed set is the valid set
    if not set(map(int.bit_count, listed)) <= {2 * p} or any(
        not set(map(int.bit_count, map(r.__and__, listed))) <= {p} for r in phi.rows
    ):
        return _fail("valid_set", "a listed monomial fails the validity criterion")
    if len(set(listed)) != len(listed):
        return _fail("valid_set", "a monomial is listed twice")
    if len(listed) != _count_valid(phi, p):
        return _fail("valid_set", "stored valid set differs in size from the independent count")
    if (stored_coverage == listed) != data["verdict"] or not data["verdict"]:
        return _fail("coverage", "coverage verdict is wrong")

    return VerificationResult(True)


def _label(cert) -> str:
    return f"p={cert.get('p', '?')}" if isinstance(cert, dict) else "p=?"


def verify_document(data) -> list[tuple[str, VerificationResult]]:
    """Verify a certificate or a bundle; returns (label, result) pairs,
    at least one, so that no input passes by checking nothing."""
    if not isinstance(data, dict):
        return [("document", _fail("schema", "top level is not a JSON object"))]
    kind = data.get("kind")
    if kind not in tuple(_BUNDLES):
        return [(_label(data), verify_certificate(data))]
    certs = data.get("certificates")
    if not isinstance(certs, list) or not certs:
        return [("bundle", _fail("schema", "bundle lists no certificates"))]
    hash_oks: list[bool] = []

    def certificates():
        # each certificate is encoded once: its hash is checked and its text
        # joins the bundle's digest, and only the result is kept
        yield '"certificates":['
        for i, cert in enumerate(certs):
            text, ok = _encoded(cert) if isinstance(cert, dict) else (canonical_json(cert), False)
            hash_oks.append(ok)
            yield ("," if i else "") + text[:-1]
        yield "]"

    try:
        others = {k: (_entry(k, v),) for k, v in data.items() if k not in ("certificates", "content_hash")}
        hash_ok = _hash_ok(data, {**others, "certificates": certificates()})
    except RecursionError:  # nested past what the encoder takes
        hash_ok = False
    if not hash_ok:
        return [("bundle", _fail("content_hash", "bundle hash mismatch"))]
    if any(isinstance(cert, dict) and cert.get("instance") != data.get("instance") for cert in certs):
        return [("bundle", _fail("schema", "a certificate's instance differs from the bundle's"))]
    # every certificate carries this instance, so it is built once; one
    # that does not conform fails each certificate's schema check instead
    inst = data.get("instance")
    built = _build(inst) if _conforms(inst, _SCHEMA["instance"]) else None
    return [(_label(cert), verify_certificate(cert, built, ok, _BUNDLES[kind])) for cert, ok in zip(certs, hash_oks)]
