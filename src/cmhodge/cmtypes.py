"""CM-types on an embedding set, induced types on the full group, and the
Hodge-grading bookkeeping.

A CM-type picks one point out of each conjugate pair; it is stored as a
bit mask over the canonical point order, so set algebra is mask algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator

from .errors import CapExceeded, NotACMType
from .groups import EmbeddingSet, mask_of


@dataclass(frozen=True)
class CMType:
    carrier: EmbeddingSet
    members: int  # bit mask over points

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The distinct translates t*phi as point masks, ascending.

        This is the one statement of validity that every route shares: a
        monomial delta is valid at degree p iff |delta| = 2p and
        |delta & r| = p for every row r.  (|t*delta & phi| equals
        |delta & t^-1*phi|, so translating delta is never needed.)
        """
        return tuple(sorted(set(self.carrier.translates(self.members))))

    @cached_property
    def classes(self) -> dict[int, int]:
        """Each column to its class, in order of least point: the column of
        a point records which rows contain it (bit k for ``rows[k]``), and a
        class is the mask of the points sharing one column.  The lattice
        matrix and the class pairs share this table: do not change it."""
        rows = self.rows
        classes: dict[int, int] = {}
        for s in range(self.carrier.size):
            column = sum(1 << k for k, r in enumerate(rows) if r >> s & 1)
            classes[column] = classes.get(column, 0) | 1 << s
        return classes

    @cached_property
    def class_pairs(self) -> tuple[tuple[int, int], ...]:
        """The complementary column classes (U, iota*U) of ``classes``.

        Every row is a CM-type, so iota*s has the complementary column, and
        a pair {a, b} is valid (meets every row once) iff the columns of a
        and b are complementary, i.e. b lies in the partner class of a.  A
        monomial is therefore a disjoint union of valid pairs iff it meets U
        and iota*U in equally many points for every pair here: pair those
        points off in any order.  iota maps U onto iota*U, so |U| = |iota*U|.
        Each pair is listed once, with U the class whose mask is smaller.
        """
        classes = self.classes
        full = (1 << len(self.rows)) - 1
        return tuple((u, classes[c ^ full]) for c, u in classes.items() if u < classes[c ^ full])

    @cached_property
    def induced_types(self) -> tuple[int, ...]:
        """The CM-type on the group induced at each point, indexed by point,
        as a mask over group elements: t is a member of the type at s iff
        the translate of s by t lies in phi.  Certificates and the verifier
        read this one table."""
        action = self.carrier.action
        return tuple(
            sum(1 << t for t, row in enumerate(action) if self.members >> row[s] & 1)
            for s in range(self.carrier.size)
        )


def validate_cm_type(carrier: EmbeddingSet, members: int | Iterable[int]) -> CMType:
    """Check the defining partition condition: each conjugate pair
    contributes exactly one member.  Raises ``NotACMType`` with the first
    offending point as witness."""
    mask = members if isinstance(members, int) else mask_of(members)
    if mask >> carrier.size:
        raise NotACMType("member index out of range")
    conj = carrier.conj
    for s in range(carrier.size):
        inside = (mask >> s) & 1
        partner_inside = (mask >> conj[s]) & 1
        if inside == partner_inside:
            where = "in" if inside else "out"
            raise NotACMType(
                f"point {s} and its conjugate {conj[s]} are both {where}",
                witness=s,
            )
    return CMType(carrier, mask)


def conjugate_pairs(carrier: EmbeddingSet) -> list[tuple[int, int]]:
    """Conjugate pairs (s, conj s) with s < conj s, sorted by s."""
    return [(s, c) for s, c in enumerate(carrier.conj) if s < c]


def enumerate_cm_types(carrier: EmbeddingSet, cap: int = 20) -> Iterator[CMType]:
    """All 2^(m/2) CM-types, as a binary counter over the conjugate pairs
    (first pair most significant; bit 0 picks the smaller point).

    Streams lazily; raises ``CapExceeded`` up front if m/2 exceeds ``cap``.
    """
    pairs = conjugate_pairs(carrier)
    g = len(pairs)
    if g > cap:
        raise CapExceeded(f"{g} conjugate pairs exceeds the cap of {cap}")
    for code in range(1 << g):
        mask = 0
        for i, (lo, hi) in enumerate(pairs):
            bit = (code >> (g - 1 - i)) & 1
            mask |= 1 << (hi if bit else lo)
        yield CMType(carrier, mask)


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
