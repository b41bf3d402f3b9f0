"""Independent certificate verifier.

Takes nothing in a certificate on trust: the group axioms, the CM-type
partition, validity of every monomial, the induced families, the balanced
transcripts, and the coverage claim are all recomputed from the raw tables
in the file and compared against what the certificate asserts.

The valid set is checked by recount, not rebuilt.  Every listed monomial
must pass the validity criterion and the listed masks must be distinct, so
the list is a subset of the true valid set; its length must then equal the
number of valid monomials, counted by ``_count_valid`` on a split of the
points (evens against odds) that the producer's enumerator does not use.
A subset of the right size is the whole set, so a certificate cannot pass
by being self-consistent about a wrong answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cmtypes import CMType, induced_type, validate_cm_type
from .errors import CapExceeded, CmhodgeError
from .groups import build_group, embedding_set, mask_of
from .monomials import HALF_TABLE_CAP, valid_delta
from .report import BUNDLE_KIND, CERTIFICATE_KIND, content_hash

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
_SCHEMA = {
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


def _conforms(value, shape) -> bool:
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_conforms(value.get(k), s) for k, s in shape.items())
    if isinstance(shape, list):
        return isinstance(value, list) and all(_conforms(v, shape[0]) for v in value)
    if isinstance(shape, set):
        # checked flat: valid_set and coverage each hold the whole valid set
        return (
            isinstance(value, list)
            and all(type(v) is int for v in value)
            and min(value, default=0) >= 0
            and len(set(value)) == len(value)
        )
    return type(value) is shape and (shape is not int or value >= 0)


def _count_valid(phi: CMType, p: int) -> int:
    """The number of valid monomials at degree p, counted without listing one.

    A subset S of the points splits into its even points E and odd points O,
    and |S & r| = |E & r| + |O & r| for every row r.  So each half's subsets
    are tabulated by (|S|, |S & r| for each row r), and S is valid iff its
    even key and its odd key add up to (2p, p, ..., p).  One row of each
    complementary pair is enough, since |S & (all ^ r)| = |S| - |S & r|.
    Raises ``CapExceeded``, before tabulating anything, if the two halves
    hold more than ``HALF_TABLE_CAP`` subsets over the sizes used.
    """
    m = phi.carrier.size
    rows: list[int] = []
    for r in phi.rows:
        if phi.carrier.all_mask ^ r not in rows:
            rows.append(r)
    evens = [1 << s for s in range(0, m, 2)]
    odds = [1 << s for s in range(1, m, 2)]
    sizes = range(max(0, 2 * p - len(odds)), min(len(evens), 2 * p) + 1)
    subsets = sum(comb(len(evens), k) + comb(len(odds), 2 * p - k) for k in sizes)
    if subsets > HALF_TABLE_CAP:
        raise CapExceeded(f"counting needs {subsets} subsets, above the cap of {HALF_TABLE_CAP}")

    def table(points: list[int], ks) -> Counter:
        return Counter(
            (k, *map(int.bit_count, map(s.__and__, rows)))
            for k in ks
            for s in map(sum, combinations(points, k))
        )

    even = table(evens, sizes)
    odd = table(odds, [2 * p - k for k in sizes])
    return sum(n * odd[(2 * p - k, *(p - c for c in counts))] for (k, *counts), n in even.items())


def verify_certificate(data: dict) -> VerificationResult:
    """Re-check a single certificate from scratch.  Input of the wrong shape
    fails the ``schema`` check before anything reads it.  The one exception
    that gets through is ``CapExceeded``, raised before any table is built
    when the valid set is too large to recount."""
    if not isinstance(data, dict):
        return _fail("schema", "certificate is not a JSON object")
    if data.get("kind") != CERTIFICATE_KIND:
        return _fail("schema", f"unexpected kind {data.get('kind')!r}")
    bad = [key for key, shape in _SCHEMA.items() if not _conforms(data.get(key), shape)]
    if bad:
        return _fail("schema", f"field {bad[0]!r} is missing or malformed")
    inst, p, witnesses, orbit_reps = data["instance"], data["p"], data["witnesses"], data["orbit_reps"]

    if data.get("content_hash") != content_hash(data):
        return _fail("content_hash", "stored hash does not match the content")

    try:
        group = build_group(inst["group"]["order"], inst["group"]["table"], inst["group"]["iota"])
    except CmhodgeError as exc:
        return _fail("group_axioms", str(exc))
    try:
        embeddings = embedding_set(group, inst["factors"])
    except CmhodgeError as exc:
        return _fail("factors", str(exc))
    # bound every point before it is shifted into a mask
    point_lists = [inst["cm_type"], *orbit_reps, *data["coverage"], *data["valid_set"]]
    point_lists += [pts for w in witnesses for pts in (w["delta"], *w["covered_translates"])]
    if max(map(max, filter(None, point_lists)), default=0) >= embeddings.size:
        return _fail("schema", f"a point lies outside 0..{embeddings.size - 1}")
    try:
        phi = validate_cm_type(embeddings, inst["cm_type"])
    except CmhodgeError as exc:
        return _fail("cm_type", str(exc))

    if 2 * p > embeddings.size:
        return _fail("degree", f"p = {p} exceeds m/2 = {embeddings.size // 2}")
    if len(witnesses) != len(orbit_reps):
        return _fail("schema", "witness count differs from orbit representative count")

    for i, w in enumerate(witnesses):
        delta = mask_of(w["delta"])
        if delta != mask_of(orbit_reps[i]):
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
            expected = sorted(induced_type(phi, s).elements)
            if sorted(stored) != expected:
                return _fail(
                    "induced_family",
                    f"witness {i}: stored type at point {s} is not the induced type",
                )

        recomputed = [sum(t in f for f in family) for t in group.elements()]
        if w["balanced_transcript"] != recomputed:
            return _fail("balanced", f"witness {i} transcript does not match the family")
        if any(v != p for v in recomputed):
            return _fail("balanced", f"witness {i} transcript is not identically {p}")

        translates = sorted(
            {embeddings.translate_mask(t, delta) for t in group.elements()}
        )
        if [mask_of(d) for d in w["covered_translates"]] != translates:
            return _fail("translates", f"witness {i} covered translates are wrong")
        if delta != translates[0]:
            return _fail("orbit_reps", f"representative {i} is not minimal in its orbit")

        wd = w["weil_data"]
        if (wd["d"], wd["rank_over_f"], wd["dim_over_q"]) != (2 * p, 1, group.order):
            return _fail("weil_data", f"witness {i} weil numerology is wrong")

    stored_coverage = sorted(mask_of(d) for d in data["coverage"])
    union = sorted(
        {
            mask_of(d)
            for w in witnesses
            for d in w["covered_translates"]
        }
    )
    if stored_coverage != union:
        return _fail("coverage", "stored coverage is not the union of witness translates")

    # valid, distinct and as many as there are: the listed set is the valid set
    listed = sorted(mask_of(d) for d in data["valid_set"])
    if not all(valid_delta(phi, d, p) for d in listed):
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
    if data.get("kind") != BUNDLE_KIND:
        return [(_label(data), verify_certificate(data))]
    certs = data.get("certificates")
    if not isinstance(certs, list) or not certs:
        return [("bundle", _fail("schema", "bundle lists no certificates"))]
    if data.get("content_hash") != content_hash(data):
        return [("bundle", _fail("content_hash", "bundle hash mismatch"))]
    if any(isinstance(cert, dict) and cert.get("instance") != data.get("instance") for cert in certs):
        return [("bundle", _fail("schema", "a certificate's instance differs from the bundle's"))]
    return [(_label(cert), verify_certificate(cert)) for cert in certs]
