"""Valid Hodge monomials: the translation-invariant intersection criterion,
two independent enumerators, Galois-orbit partitioning, and the
divisor-generated / exotic split.

A monomial is a subset of the embedding points, held as a bit mask.  It is
valid at degree p when every group translate meets the CM-type in exactly
p points; the valid monomials index lines of Hodge classes after scalar
extension, so their count is the Hodge-class dimension.

The meet-in-the-middle enumerator matches tables of subsets of the two
halves of the points by packed row weight.  The tables depend on m and
the translate rows, not on the degree, so one module-level slot holds the
tables of the rows last enumerated, and every degree of those rows reads
them, in any order; a call on other rows replaces them.  The slot keeps at
most ``HALF_TABLE_CAP`` subsets, as many as one half table may hold, and a
table past that budget is built for its call and dropped.  The tables are
not a cached property of ``CMType``: a sweep holds every type of a carrier
at once, and each would keep its own.  ``check_listing_cap`` counts a
degree's valid monomials from the same tables, so a command can refuse an
input before listing any degree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb

from .cmtypes import CMType
from .errors import CapExceeded, NotClosed
from .groups import mask_of

# largest number of subsets one half table of ``enumerate_valid`` may hold,
# and the most its shared tables keep between calls
HALF_TABLE_CAP = 10**7
# largest number of masks ``enumerate_valid`` lists at one degree
LISTING_CAP = 10**6


def valid_delta(phi: CMType, delta: int, p: int) -> bool:
    """Pohlmann validity: |delta| = 2p and every translate of delta meets
    phi in exactly p points, stated on the translate rows of phi."""
    return delta.bit_count() == 2 * p and all((delta & r).bit_count() == p for r in phi.rows)


def enumerate_valid_bruteforce(phi: CMType, p: int, cap: int = 10**7) -> list[int]:
    """Reference oracle: test every size-2p subset directly.

    Returns masks in ascending order.  Raises ``CapExceeded`` when the
    binomial count is above ``cap``.
    """
    m = phi.carrier.size
    if 2 * p > m:
        return []
    if comb(m, 2 * p) > cap:
        raise CapExceeded(f"C({m},{2 * p}) exceeds the cap of {cap}")
    rows = phi.rows
    out = [
        delta
        for delta in map(mask_of, combinations(range(m), 2 * p))
        if all((delta & r).bit_count() == p for r in rows)
    ]
    out.sort()
    return out


class _HalfTables:
    """The tables of one set of translate rows; see the module docstring.

    Point s weighs ``1 + sum_k [s in rows[k]] << F*(k+1)``, F = m.bit_length(),
    over one row of each complementary pair: a size-2p subset meets the
    other row of a pair in 2p minus its count in this one.  So a subset's
    weight packs its size and its count in each kept row into F-bit fields,
    and ``unit`` is the weight of a pair meeting each kept row once.  The
    size-k subsets of a half are tabulated on first use, keyed (a dict from
    weight to masks) or scanned (a list of weights and one of their masks).
    """

    def __init__(self, m: int, rows: tuple[int, ...]):
        self.key = (m, rows)
        self.half = m // 2
        f = m.bit_length()
        full = (1 << m) - 1
        rows = [r for r in rows if r < full ^ r]
        self.weight = [1 + sum(1 << f * (k + 1) for k, r in enumerate(rows) if r >> s & 1) for s in range(m)]
        self.unit = 2 + sum(1 << f * (k + 1) for k in range(len(rows)))
        self.bit = [1 << s for s in range(m)]
        self.kept: dict[tuple[int, int, bool], object] = {}
        self.subsets = 0  # held in ``kept``

    def table(self, side: int, k: int, keyed: bool):
        """The size-k subsets of the low (side 0) or high (side 1) half."""
        table = self.kept.get((side, k, keyed))
        if table is None:
            part = slice(self.half, None) if side else slice(self.half)
            weights = map(sum, combinations(self.weight[part], k))
            masks = map(sum, combinations(self.bit[part], k))
            if keyed:
                table = defaultdict(list)
                for w, b in zip(weights, masks):
                    table[w].append(b)
            else:
                table = list(weights), list(masks)
            n = comb(self.half, k)
            if self.subsets + n <= HALF_TABLE_CAP:
                self.kept[side, k, keyed] = table
                self.subsets += n
        return table

    def matches(self, p: int, sizes: range):
        """For each split of 2p points into k low and 2p-k high: the keyed
        table of the smaller side and the scanned lists of the other."""
        for k in sizes:
            j = 2 * p - k
            if comb(self.half, k) <= comb(self.half, j):
                yield self.table(0, k, keyed=True), self.table(1, j, keyed=False)
            else:
                yield self.table(1, j, keyed=True), self.table(0, k, keyed=False)


# the tables of the rows last enumerated; other rows replace them
_slot: _HalfTables | None = None


def _half_tables(phi: CMType, p: int) -> tuple[_HalfTables, range]:
    """The shared tables for phi and the low-half subset sizes degree p
    reads.  Raises ``CapExceeded``, before building anything, if one half
    table of those sizes would hold more than ``HALF_TABLE_CAP`` subsets."""
    global _slot
    m = phi.carrier.size
    half = m // 2
    sizes = range(max(0, 2 * p - half), min(half, 2 * p) + 1)  # empty if 2p > m
    largest = max((comb(half, k) for k in sizes), default=0)
    if largest > HALF_TABLE_CAP:
        raise CapExceeded(f"a half table of {largest} subsets exceeds the cap of {HALF_TABLE_CAP}")
    if _slot is None or _slot.key != (m, phi.rows):
        _slot = _HalfTables(m, phi.rows)
    return _slot, sizes


def _listing_cap(p: int) -> CapExceeded:
    return CapExceeded(f"degree {p} has more than {LISTING_CAP} valid monomials, the listing cap")


def check_listing_cap(phi: CMType, degrees: list[int]) -> None:
    """Raise the ``CapExceeded`` that ``enumerate_valid`` would raise at the
    first of these degrees that has one, without listing a monomial.

    Each degree is counted from the shared half tables: every scanned
    subset adds the number of keyed masks that complete it.  The listing
    that follows reads the same tables.
    """
    for p in degrees:
        tables, sizes = _half_tables(phi, p)
        target = p * tables.unit
        count = 0
        for keyed, (weights, _) in tables.matches(p, sizes):
            count += sum(map(len, map(keyed.get, map(target.__sub__, weights), repeat(()))))
            if count > LISTING_CAP:
                raise _listing_cap(p)


def enumerate_valid(phi: CMType, p: int) -> list[int]:
    """Meet-in-the-middle enumerator; must agree with the brute-force oracle.

    A subset's packed weight (see ``_HalfTables``) holds its size and its
    count in each kept row in fields that never carry, since each counts
    at most m < 2**F points; so delta is valid iff its weight is
    ``p * unit``.  For each split of the 2p points between the halves, each
    subset of the scanned side looks up the keyed masks of the completing
    weight (Horowitz-Sahni); the smaller side is keyed.  The tables are
    shared with every other degree of the same rows.  Masks come back
    ascending.  Raises ``CapExceeded``, before building anything, if a half
    table would hold more than ``HALF_TABLE_CAP`` subsets, and as soon as
    the list would hold more than ``LISTING_CAP`` masks.
    """
    tables, sizes = _half_tables(phi, p)
    target = p * tables.unit
    out: list[int] = []
    for keyed, (weights, masks) in tables.matches(p, sizes):
        for b, found in zip(masks, map(keyed.get, map(target.__sub__, weights))):
            if found:
                out.extend(map(b.__or__, found))
                if len(out) > LISTING_CAP:
                    raise _listing_cap(p)
    out.sort()
    return out


def galois_orbits(carrier, deltas: list[int]) -> list[tuple[int, ...]]:
    """Partition a translation-closed set of monomials into Galois orbits.

    Orbits are sorted tuples, listed by their minimal mask (the canonical
    representative).  Raises ``NotClosed`` if some translate escapes the
    input set; for genuinely valid sets that cannot happen, so it flags an
    enumerator bug.
    """
    pool = set(deltas)  # the monomials of no orbit taken yet
    orbits: list[tuple[int, ...]] = []
    for d in sorted(deltas):
        if d not in pool:
            continue
        orbit = set(carrier.translates(d))
        # orbits are disjoint, so no taken orbit holds a translate of d
        stray = orbit - pool
        if stray:
            raise NotClosed(f"translate {min(stray)} of {d} missing from the input set")
        pool -= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


@dataclass(frozen=True)
class DecompositionReport:
    """Full per-degree classification: the valid monomials, their orbits,
    and the exotic ones, all canonically sorted; the rest of the valid
    monomials are divisor-generated."""

    p: int
    valid: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    valid_pair_count: int
    exotic: tuple[int, ...]

    @property
    def decomposable(self) -> tuple[int, ...]:
        """The valid monomials that are not exotic, ascending."""
        exotic = set(self.exotic)
        return tuple(d for d in self.valid if d not in exotic)

    @property
    def hodge_dim(self) -> int:
        return len(self.valid)

    @property
    def lefschetz_dim(self) -> int:
        # counts only products of degree-2 classes of the variety itself
        return self.hodge_dim - len(self.exotic)


def classify(phi: CMType, p: int) -> DecompositionReport:
    """Split the valid monomials at degree p into divisor-generated and exotic.

    A valid pair joins a column class U to its partner iota*U, so delta is
    a disjoint union of valid pairs iff it meets U and iota*U equally often
    for every pair of ``CMType.class_pairs``; there are sum |U|**2 valid
    pairs.  Translates permute the class pairs, so the balance is tested
    once per Galois orbit, on its least member, and the orbit filed with it.
    """
    valid = enumerate_valid(phi, p)
    orbits = galois_orbits(phi.carrier, valid)
    pairs = phi.class_pairs
    exotic = []
    for orbit in orbits:
        d = orbit[0]
        if any((d & u).bit_count() != (d & w).bit_count() for u, w in pairs):
            exotic.extend(orbit)
    return DecompositionReport(
        p=p,
        valid=tuple(valid),
        orbits=tuple(orbits),
        valid_pair_count=sum(u.bit_count() ** 2 for u, _ in pairs),
        exotic=tuple(sorted(exotic)),
    )
