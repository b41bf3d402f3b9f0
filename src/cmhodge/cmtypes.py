"""CM-types on an embedding set, induced types on the full group, and the
Hodge-grading bookkeeping.

A CM-type picks one point out of each conjugate pair; it is stored as a
bit mask over the canonical point order, so set algebra is mask algebra.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import comb
from typing import Iterable, Iterator

from .errors import CapExceeded, NotACMType
from .groups import EmbeddingSet, mask_of

# most conjugate pairs ``enumerate_cm_types`` counts over: 2**20 CM-types
CM_TYPE_CAP = 20


class CMType:
    """A CM-type on a carrier and its tables, each computed on first use.
    Two types compare by identity."""

    def __init__(self, carrier: EmbeddingSet, members: int):
        self.carrier = carrier
        self.members = members  # bit mask over points

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The distinct translates t*phi as point masks, ascending.

        The producer's statement of validity (the verifier reads its own
        rows off the action table): delta is valid at degree p iff
        |delta| = 2p and |delta & r| = p for every row r.  (|t*delta & phi|
        is |delta & t^-1*phi|, so translating delta is never needed.)
        """
        return tuple(sorted(set(self.carrier.translates(self.members))))

    @cached_property
    def class_pairs(self) -> tuple[tuple[int, int], ...]:
        """The column classes of the rows, as complementary pairs (U, iota*U).

        The column of a point records which rows contain it, and a class is
        the mask of the points sharing one column, so every row contains a
        class wholly or not at all.  Every row is a CM-type, so iota*s has
        the complementary column, and a pair {a, b} is valid (meets every
        row once) iff the columns of a and b are complementary, i.e. b lies
        in the partner class of a.  A monomial is therefore a disjoint union
        of valid pairs iff it meets U and iota*U in equally many points for
        every pair here: pair those points off in any order.  iota maps U
        onto iota*U, so |U| = |iota*U|.  Each pair is listed once, with U
        the class whose mask is smaller, in order of U's least point.
        """
        rows = self.rows
        classes: dict[int, int] = {}  # column (bit k for rows[k]) -> class
        for s in range(self.carrier.size):
            column = sum(1 << k for k, r in enumerate(rows) if r >> s & 1)
            classes[column] = classes.get(column, 0) | 1 << s
        full = (1 << len(rows)) - 1
        return tuple((u, classes[c ^ full]) for c, u in classes.items() if u < classes[c ^ full])

    @cached_property
    def points(self) -> tuple[int, ...]:
        """Each point s of phi, ascending, packed as bits s and iota*s below
        bit m and, above it, one F-bit field per kept row (the smaller of
        each complementary pair), F = (m/2).bit_length(), set to 1 iff s is
        in the row.  A p-subset A sums to A | iota*A below bit m and |A & r|
        in the field of each kept row r, never carrying, since |A & r| <=
        m/2 < 2**F.  The enumerator sums these; the independent routes must
        not read them."""
        carrier, m = self.carrier, self.carrier.size
        f = (m // 2).bit_length()
        kept = [r for r in self.rows if r < carrier.all_mask ^ r]
        return tuple(
            sum(1 << m + f * k for k, r in enumerate(kept) if r >> s & 1) | 1 << s | 1 << carrier.conj[s]
            for s in range(m)
            if self.members >> s & 1
        )

    @cached_property
    def induced_types(self) -> tuple[int, ...]:
        """The CM-type on the group induced at each point, indexed by point,
        as a mask over group elements: t is a member of the type at s iff
        the translate of s by t lies in phi.  Certificates are written from
        this table; the verifier recomputes it from the action table."""
        action = self.carrier.action
        return tuple(
            sum(1 << t for t, row in enumerate(action) if self.members >> row[s] & 1)
            for s in range(self.carrier.size)
        )


def validate_cm_type(carrier: EmbeddingSet, members: Iterable[int]) -> CMType:
    """Check that the listed points are a CM-type: each conjugate pair
    contributes exactly one member.  Raises ``NotACMType`` with the lower
    point of the first offending pair as witness, which is the first
    offending point."""
    points = list(members)
    if not all(0 <= s < carrier.size for s in points):
        raise NotACMType("member index out of range")
    mask = mask_of(points)
    for s, c in conjugate_pairs(carrier):
        inside = mask >> s & 1
        if inside == mask >> c & 1:
            where = "in" if inside else "out"
            raise NotACMType(f"point {s} and its conjugate {c} are both {where}", witness=s)
    return CMType(carrier, mask)


def conjugate_pairs(carrier: EmbeddingSet) -> list[tuple[int, int]]:
    """Conjugate pairs (s, conj s) with s < conj s, sorted by s."""
    return [(s, c) for s, c in enumerate(carrier.conj) if s < c]


def enumerate_cm_types(carrier: EmbeddingSet) -> Iterator[CMType]:
    """All 2^(m/2) CM-types, one point of each conjugate pair, as a binary
    counter over the pairs (first pair most significant; 0 picks the smaller).

    Streams lazily; raises ``CapExceeded`` up front if m/2 > ``CM_TYPE_CAP``.
    """
    pairs = conjugate_pairs(carrier)
    if len(pairs) > CM_TYPE_CAP:
        raise CapExceeded(f"{len(pairs)} conjugate pairs exceeds the cap of {CM_TYPE_CAP}")
    for choice in product(*pairs):
        yield CMType(carrier, sum(1 << s for s in choice))


def hodge_numbers(carrier: EmbeddingSet, r: int) -> dict[tuple[int, int], int]:
    """Counts of size-r point subsets by intersection pattern with a
    CM-type phi: (p, q) maps to the number of subsets meeting phi in p
    points and its conjugate in q = r - p points.

    With |phi| = m/2 the choices inside and outside phi are independent,
    so the count is a product of binomials; the row sum is C(m, r).  Only
    |phi| enters, so every CM-type on the carrier has the same table.
    """
    m = carrier.size
    g = m // 2
    if not 0 <= r <= m:
        raise ValueError(f"degree {r} outside 0..{m}")
    table: dict[tuple[int, int], int] = {}
    for p in range(max(0, r - g), min(r, g) + 1):
        q = r - p
        table[(p, q)] = comb(g, p) * comb(g, q)
    return table
