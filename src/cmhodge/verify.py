"""Independent certificate verifier.

Takes nothing in a certificate bundle on trust: the group axioms, the
CM-type partition, validity of every monomial, the induced families and
the coverage claim are all recomputed from the raw tables in the file and
compared against what the bundle asserts.  What the instance fixes is
read off its checked action table once per bundle (``_Recount``), in one
table: t is in the induced type at s iff t*s lies in phi, so the points
whose type holds t form the row t^-1*phi.  The orbits are read off the
action table too: the verifier reads neither ``EmbeddingSet.translates``
nor the ``CMType`` tables, and no stored element is shifted into a mask.

A bundle (format version 4, the only one read) holds the instance and the
induced type at every point once, under one content hash, and each of its
certificates only its degree, the least member of each Galois orbit and
the verdict.  The hash is checked on text the verifier encodes itself and
never takes from ``report``, one certificate at a time, so the bundle's
text is never joined.  Any other ``kind``, the older formats' included,
fails the ``schema`` check, and so does a certificate that names a kind
of its own, as the older formats' certificates do.

One rule: what the bundle states once is checked once and fails once.
The shape of the instance and of the table, the group, the factors, the
bound on every stored group element, the CM-type and the stored table
against the recomputed one are checked by ``_bundle_facts``, and the
first of them to fail is the one ``bundle`` line.  Otherwise each
certificate gets a line of its own from ``verify_certificate``, naming
the first of its own checks, in ``CHECKS`` order, that fails.  A degree
whose count would sum more than ``HALF_TABLE_CAP`` subsets fails its
``degree`` check, so no input makes the verifier raise.

Each representative must be valid: it meets each row t^-1*phi in p
points, which is to say its family, the types at its points, holds each
group element p times, so the row test is the balance test.  It is made
on the point weights the count sums: a point's weight holds one field per
kept row, so a representative's summed weight holds its count in every
row.  The representatives must ascend and each be the least of its
translates, so no two share an orbit.  The orbits are then built one at a
time, and their sizes must add up to the independent count.

The valid set is checked by recount, not rebuilt.  Validity is
translate-invariant: if delta meets every row t^-1*phi in p points,
u*delta meets t^-1*phi as delta meets (tu)^-1*phi.  So every member of an
orbit built from the action table is valid once its representative is, and
the orbits are disjoint, so their union is a subset of the true valid set;
its size must then equal the number of valid monomials, counted by
``_Recount.count`` from the definition: p points of phi and p of its
conjugate, matched by their own packed row weights.  The producer's
enumerator groups the p-subsets of phi by row profile and pairs equal
profiles; the count does not use that lemma, and reads neither
``CMType.points`` nor the enumerator's table.  A subset of the right size
is the whole set, so a certificate cannot pass by being self-consistent
about a wrong answer.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain, combinations, repeat
from math import comb
from struct import Struct
from typing import Iterator, NamedTuple

from .cmtypes import CMType, validate_cm_type
from .errors import CmhodgeError
from .groups import bits, build_group, embedding_set
from .report import BUNDLE_KIND, canonical_json

# largest number of subsets, 2 * C(m/2, p), that ``_Recount.count`` sums
# for one degree
HALF_TABLE_CAP = 10**7
# checks, in the order they run; the verdict names the first one to fail
CHECKS = (
    "schema",
    "content_hash",
    "group_axioms",
    "factors",
    "cm_type",
    "induced_family",
    "degree",
    "delta_valid",
    "orbit_reps",
    "coverage",
    "valid_set",
)


class VerificationResult(NamedTuple):
    ok: bool
    failed_check: str | None = None
    detail: str = ""

    def describe(self) -> str:
        if self.ok:
            return "pass"
        return f"fail [{self.failed_check}] {self.detail}"


def _fail(check: str, detail: str) -> VerificationResult:
    return VerificationResult(False, check, detail)


# The JSON shape of a bundle's shared fields and of each certificate: a
# dict lists its fields, [s] is a list of s, {int} a list of distinct
# ints, and int means a non-negative int that is not a bool (JSON true
# loads as one, and int() would take "2").
_SCHEMA = {
    "instance": {
        "group": {"order": int, "table": [[int]], "iota": int},
        "factors": [{int}],
        "cm_type": {int},
    },
    # the induced type at each point, as a list of group elements
    "induced_types": [{int}],
}
_CERTIFICATE_SCHEMA = {
    "p": int,
    # the least member of each orbit
    "orbit_reps": [{int}],
    "verdict": bool,
}


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


def _misshapen(doc: dict, schema: dict) -> VerificationResult | None:
    bad = [key for key, shape in schema.items() if not _conforms(doc.get(key), shape)]
    return _fail("schema", f"field {bad[0]!r} is missing or malformed") if bad else None


def _texts(value) -> Iterator[str]:
    """The canonical text of a parsed value without the newline, a list's
    one item at a time, so that the text of a list is never joined."""
    if not isinstance(value, list):
        yield canonical_json(value)[:-1]
        return
    yield "["
    for i, item in enumerate(value):
        yield ("," if i else "") + canonical_json(item)[:-1]
    yield "]"


def _hash_ok(doc: dict) -> bool:
    """Whether a parsed document's stored content hash is the SHA-256 of
    its canonical text without that hash.  The text is digested one
    top-level entry at a time, and a list's one item at a time, so no two
    certificate texts are held at once."""
    digest = hashlib.sha256(b"{")
    try:
        for i, key in enumerate(sorted(doc.keys() - {"content_hash"})):
            digest.update(f"{',' if i else ''}{canonical_json(key)[:-1]}:".encode("utf-8"))
            for text in _texts(doc[key]):
                digest.update(text.encode("utf-8"))
    except (RecursionError, ValueError):  # nested past what the encoder takes, or a non-finite float
        return False
    digest.update(b"}\n")
    return doc.get("content_hash") == digest.hexdigest()


class _Recount:
    """What ``_bundle_facts`` derives from one instance for every degree,
    read off its checked action table: the number of points m, the induced
    types, the weight of every point (one field per kept row, see
    ``count``), which both checks each representative and is summed by the
    count, and the images of each point under every group element (see
    ``orbit``)."""

    def __init__(self, phi: CMType):
        carrier, m = phi.carrier, phi.carrier.size
        self.size = m
        # the points are bounded and distinct: a list's mask is the sum of its bits
        self.bit = [1 << s for s in range(m)].__getitem__
        # the one table: held[t][s] is 1 iff t*s lies in phi.  Column s is the
        # induced type at s, and row t, its transpose, is the mask of t^-1*phi
        held = [[phi.members >> x & 1 for x in row] for row in carrier.action]
        self.types = [[t for t, h in enumerate(column) if h] for column in zip(*held)]
        rows = {sum(h << s for s, h in enumerate(row)) for row in held}
        # the smaller row of each complementary pair, ascending (see ``count``)
        kept = sorted(r for r in rows if r < carrier.all_mask ^ r)
        f = m.bit_length()
        self.unit = sum(1 << f * j for j in range(len(kept)))
        self.weight = [sum((r >> s & 1) << f * j for j, r in enumerate(kept)) for s in range(m)].__getitem__
        self.sides = [list(map(self.weight, bits(side))) for side in (phi.members, carrier.all_mask ^ phi.members)]
        # images[s] holds the bit of t*s in field t, ceil(m/8) bytes wide (see ``orbit``)
        field = [(1 << s).to_bytes(-(-m // 8), "little") for s in range(m)]
        self.fields = Struct(f"{len(field[0])}s" * len(carrier.action))
        self.images = [
            int.from_bytes(b"".join(map(field.__getitem__, column)), "little") for column in zip(*carrier.action)
        ]

    def orbit(self, points: list[int]) -> set[int]:
        """The translates of a set of distinct points, as masks: field t of
        the sum of the points' images is the mask of t*points.  A
        translation is a bijection, so distinct points set distinct bits in
        each field, and the sum never carries."""
        packed = sum(map(self.images.__getitem__, points)).to_bytes(self.fields.size, "little")
        return set(map(int.from_bytes, self.fields.unpack(packed), repeat("little")))

    def count(self, p: int) -> int:
        """The number of valid monomials at degree p, counted without listing one.

        phi is a row, so a valid S is a p-subset E of phi and a p-subset O of
        iota*phi, and |S & r| = |E & r| + |O & r| for every row r.  One row
        of each complementary pair is enough, since |S & (all ^ r)| = 2p -
        |S & r|.  A point's weight has one F-bit field per kept row, set to 1
        iff the row holds the point, so a subset's summed weight holds its
        count in every row, and no field of E's sum plus O's carries, since
        |S & r| <= 2p <= m < 2**F: S is valid iff its weight is p * ``unit``,
        p in every field.  So O's sums are tabulated, and each E looks up
        the sum that adds up with its own to that.
        Nothing is kept between calls.  The two sides hold 2 * C(m/2, p)
        p-subsets in all, which ``verify_certificate`` bounds first.
        """
        ours, conj = self.sides
        theirs = Counter(map(sum, combinations(conj, p)))
        return sum(map(theirs.__getitem__, map((p * self.unit).__sub__, map(sum, combinations(ours, p)))))


def _bundle_facts(data: dict) -> VerificationResult | _Recount:
    """What a bundle states for every certificate, checked once: the shape
    of the instance and of the induced-type table, the group and the
    factors built from the instance, the bound on every stored group
    element, the CM-type, and the stored table against ``_Recount.types``.
    Returns the first failure, or the ``_Recount`` each certificate is
    checked against."""
    failure = _misshapen(data, _SCHEMA)
    if failure:
        return failure
    inst = data["instance"]
    try:
        group = build_group(inst["group"]["order"], inst["group"]["table"], inst["group"]["iota"])
    except CmhodgeError as exc:
        return _fail("group_axioms", str(exc))
    try:
        embeddings = embedding_set(group, inst["factors"])
    except CmhodgeError as exc:
        return _fail("factors", str(exc))
    # an element past the group is malformed, not a wrong type
    order = len(embeddings.action)
    if max(map(max, filter(None, data["induced_types"])), default=0) >= order:
        return _fail("schema", f"a group element lies outside 0..{order - 1}")
    try:
        phi = validate_cm_type(embeddings, inst["cm_type"])
    except CmhodgeError as exc:
        return _fail("cm_type", str(exc))
    recount = _Recount(phi)
    if data["induced_types"] != recount.types:
        return _fail("induced_family", "stored induced types differ from the recomputed table")
    return recount


def verify_certificate(cert, recount: _Recount) -> VerificationResult:
    """Re-check one certificate of a bundle whose hash and shared facts
    passed, in one pass in ``CHECKS`` order: its shape and the bound on its
    points; its degree, 2p at most m and at most ``HALF_TABLE_CAP`` subsets
    to count, before any representative is read; the size and validity of
    each representative; that they ascend and each is the least of its
    orbit, so that the orbits are disjoint; the verdict; and the sum of the
    orbit sizes against the independent count."""
    if not isinstance(cert, dict):
        return _fail("schema", "certificate is not a JSON object")
    if "kind" in cert:
        return _fail("schema", f"unexpected kind {cert['kind']!r}")
    failure = _misshapen(cert, _CERTIFICATE_SCHEMA)
    if failure:
        return failure
    p, reps, m = cert["p"], cert["orbit_reps"], recount.size
    if max(map(max, filter(None, reps)), default=0) >= m:
        return _fail("schema", f"a point lies outside 0..{m - 1}")

    if 2 * p > m:
        return _fail("degree", f"p = {p} exceeds m/2 = {m // 2}")
    subsets = 2 * comb(m // 2, p)
    if subsets > HALF_TABLE_CAP:
        return _fail("degree", f"counting p = {p} needs {subsets} subsets, above the cap of {HALF_TABLE_CAP}")
    for i, rep in enumerate(reps):
        if len(rep) != 2 * p:
            return _fail("degree", f"representative {i} has {len(rep)} points, expected {2 * p}")
        if sum(map(recount.weight, rep)) != p * recount.unit:
            return _fail("delta_valid", f"representative {i} fails the validity criterion")

    total, previous = 0, -1
    for i, rep in enumerate(reps):
        orbit, delta = recount.orbit(rep), sum(map(recount.bit, rep))
        if delta != min(orbit):
            return _fail("orbit_reps", f"representative {i} is not the least member of its orbit")
        if delta <= previous:
            return _fail("orbit_reps", f"representative {i} does not follow the one before in ascending order")
        previous = delta
        total += len(orbit)

    if not cert["verdict"]:
        return _fail("coverage", "coverage verdict is wrong")
    if total != recount.count(p):
        return _fail("valid_set", "the orbits differ in size from the independent count")
    return VerificationResult(True)


def _label(cert) -> str:
    """``p=N`` for a certificate whose degree is a non-negative int, so
    that no stored text is printed as part of a verdict line."""
    p = cert.get("p") if isinstance(cert, dict) else None
    return f"p={p}" if type(p) is int and p >= 0 else "p=?"


def verify_document(data) -> list[tuple[str, VerificationResult]]:
    """Verify a certificate bundle; returns (label, result) pairs, one per
    certificate, or one labelled ``bundle`` for a failure of the bundle as
    a whole, so that no input passes by checking nothing."""
    if not isinstance(data, dict):
        return [("document", _fail("schema", "top level is not a JSON object"))]
    if data.get("kind") != BUNDLE_KIND:
        return [("bundle", _fail("schema", f"unexpected kind {data.get('kind')!r}"))]
    certs = data.get("certificates")
    if not isinstance(certs, list) or not certs:
        return [("bundle", _fail("schema", "bundle lists no certificates"))]
    if not _hash_ok(data):
        return [("bundle", _fail("content_hash", "bundle hash mismatch"))]
    facts = _bundle_facts(data)
    if isinstance(facts, VerificationResult):
        return [("bundle", facts)]
    return [(_label(cert), verify_certificate(cert, facts)) for cert in certs]
