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
text is never joined.  What the bundle states for every certificate
(``_Shared``) is then checked once: the shape of the instance and of the
table, the group, factors and CM-type, the bound on every stored element,
and the stored table against the recomputed one.  Each certificate gets a
line of its own, naming the first check in ``CHECKS`` order that fails
for it, its own or a shared one.  Any other ``kind``, the older formats'
included, fails the ``schema`` check, and so does a certificate that
names a kind of its own, as the older formats' certificates do.

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
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import comb
from struct import Struct
from typing import Iterator

from .cmtypes import CMType, validate_cm_type
from .errors import CapExceeded, CmhodgeError
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
    "degree",
    "delta_valid",
    "induced_family",
    "orbit_reps",
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
    """What ``_Shared`` derives from one instance for every degree, read off
    its checked action table: the induced types, the weight of every point
    (one field per kept row, see ``count``), which both checks each
    representative and is summed by the count, and the images of each
    point under every group element (see ``orbit``)."""

    def __init__(self, phi: CMType):
        carrier, m = phi.carrier, phi.carrier.size
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
        Nothing is kept between calls.  Raises ``CapExceeded``, before summing anything,
        if the two sides hold more than ``HALF_TABLE_CAP`` p-subsets in all.
        """
        ours, conj = self.sides
        subsets = 2 * comb(len(ours), p)
        if subsets > HALF_TABLE_CAP:
            raise CapExceeded(f"counting needs {subsets} subsets, above the cap of {HALF_TABLE_CAP}")
        theirs = Counter(map(sum, combinations(conj, p)))
        return sum(map(theirs.__getitem__, map((p * self.unit).__sub__, map(sum, combinations(ours, p)))))


class _Shared:
    """What a bundle states for every certificate, checked once: the shape
    of the instance and of the induced-type table, the embedding set and
    CM-type built from the instance, the bound on every shared stored
    element, and the stored table against ``_Recount.types``.  Each
    failure is kept, to be reported on every certificate at its place in
    ``CHECKS`` (see ``verify_certificate``).

    ``shape`` is a failed shape check; ``built`` a failed ``group_axioms``
    or ``factors`` check, which leaves ``size`` 0; and ``cm_type`` a
    stored point or group element out of range, or a failed ``cm_type``
    check.  Any failure leaves ``recount`` None.
    """

    def __init__(self, data: dict):
        self.shape = _misshapen(data, _SCHEMA)
        self.built = self.cm_type = self.recount = None
        self.size, self.types_ok = 0, False
        if self.shape:
            return
        inst = data["instance"]
        try:
            group = build_group(inst["group"]["order"], inst["group"]["table"], inst["group"]["iota"])
        except CmhodgeError as exc:
            self.built = _fail("group_axioms", str(exc))
            return
        try:
            embeddings = embedding_set(group, inst["factors"])
        except CmhodgeError as exc:
            self.built = _fail("factors", str(exc))
            return
        # bound every point and group element before it is shifted into a
        # mask or read as an index
        self.size, order = embeddings.size, len(embeddings.action)
        if max(inst["cm_type"], default=0) >= self.size:
            self.cm_type = _fail("schema", f"a point lies outside 0..{self.size - 1}")
            return
        if max(map(max, filter(None, data["induced_types"])), default=0) >= order:
            self.cm_type = _fail("schema", f"a group element lies outside 0..{order - 1}")
            return
        try:
            phi = validate_cm_type(embeddings, inst["cm_type"])
        except CmhodgeError as exc:
            self.cm_type = _fail("cm_type", str(exc))
            return
        self.recount = _Recount(phi)
        self.types_ok = data["induced_types"] == self.recount.types


def verify_certificate(cert, shared: _Shared) -> VerificationResult:
    """Re-check one certificate of a bundle whose hash matched, against
    what the bundle states for all of them, checked once in ``shared``.
    Its own checks and the shared ones run in ``CHECKS`` order, so the
    first to fail is named whichever it is.  The one exception that gets
    through is ``CapExceeded``, raised before any table is built when the
    valid set is too large to recount."""
    if not isinstance(cert, dict):
        return _fail("schema", "certificate is not a JSON object")
    if "kind" in cert:
        return _fail("schema", f"unexpected kind {cert['kind']!r}")
    failure = shared.shape or _misshapen(cert, _CERTIFICATE_SCHEMA) or shared.built
    if failure:
        return failure
    if max(map(max, filter(None, cert["orbit_reps"])), default=0) >= shared.size:
        return _fail("schema", f"a point lies outside 0..{shared.size - 1}")
    if shared.cm_type:
        return shared.cm_type

    p = cert["p"]
    if 2 * p > shared.size:
        return _fail("degree", f"p = {p} exceeds m/2 = {shared.size // 2}")
    return _verify_orbit_reps(cert, shared.recount, shared.types_ok)


def _verify_orbit_reps(cert: dict, recount: _Recount, types_ok: bool) -> VerificationResult:
    """The checks of a certificate past the degree bound.

    Each representative is checked for its size and validity, its points'
    weights summing to p in every kept row's field (the balance of its
    family); then ``types_ok``, whether the bundle's induced-type table
    equals the recomputed one.  The representatives must ascend and each
    be the least of its orbit; two distinct least members cannot share an
    orbit, so the orbits are disjoint.  Each orbit is built by
    ``_Recount.orbit``, one at a time, and holds only translates of a
    valid representative, so only valid monomials; the orbit sizes must
    add up to the independent count, and the orbits are then the whole
    valid set.
    """
    p, reps = cert["p"], cert["orbit_reps"]
    for i, rep in enumerate(reps):
        if len(rep) != 2 * p:
            return _fail("degree", f"representative {i} has {len(rep)} points, expected {2 * p}")
        if sum(map(recount.weight, rep)) != p * recount.unit:
            return _fail("delta_valid", f"representative {i} fails the validity criterion")

    if not types_ok:
        return _fail("induced_family", "stored induced types differ from the recomputed table")

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
    shared = _Shared(data)
    return [(_label(cert), verify_certificate(cert, shared)) for cert in certs]
