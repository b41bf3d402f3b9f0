"""Valid Hodge monomials: the translation-invariant intersection criterion,
two independent enumerators, Galois-orbit partitioning, and the
divisor-generated / exotic split.  The brute force tests every subset of
2p points against the rows it is given, by default the translate rows.

A monomial is a subset of the embedding points, held as a bit mask.  It is
valid at degree p when every group translate meets the CM-type in exactly
p points; the valid monomials index lines of Hodge classes after scalar
extension, so their count is the Hodge-class dimension.

The enumerator lists a degree from one table of the p-subsets of phi.  phi
is a row, so a valid delta is p points A of phi and p points iota*A' of its
conjugate.  Every row r is a CM-type, so iota*r is the complement of r, and
|delta & r| = |A & r| + p - |A' & r|: delta is valid iff A and A' meet
every row equally often, that is, have the same row profile.  Each point
of phi is packed once per CM-type, in ``CMType.points``, and the table
holds the sum of the points of each p-subset A of phi: the profile of A
above bit m and A | iota*A below.  The valid monomials are A | iota*A' for
A, A' in one profile group W, sum |W|**2 of them.  A | iota*A is always
valid, so degree p has at least C(m/2, p) valid monomials, and a degree
with more than ``LISTING_CAP`` subsets of phi is refused unsummed.  The
table is summed lazily, once to count and once to list, and never held.
``check_listing_cap`` counts a degree from its group sizes, so a command
can refuse an input before listing any degree.  It counts only the degrees
past the Hodge bound: degree p has at most C(m/2, p)**2 valid monomials.

Complement, delta -> delta ^ all, maps the valid monomials of degree p onto
those of m/2 - p, Galois orbits onto orbits and exotic onto exotic.  So
``analyze``, ``deltas`` and ``witness`` work out each pair {q, m/2 - q} once,
at q <= m/4, and map it onto the partner before the next pair.  A classified
degree holds its monomials once, as Galois orbits.  Every function here
works out the degree it is given; ``oracle`` and ``verify`` skip the map.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .cmtypes import CMType
from .errors import CapExceeded, NotClosed

# largest number of masks ``enumerate_valid`` lists at one degree
LISTING_CAP = 10**6
# largest number of subsets ``enumerate_valid_bruteforce`` tests
BRUTEFORCE_CAP = 10**7


def valid_delta(phi: CMType, delta: int, p: int) -> bool:
    """Pohlmann validity: |delta| = 2p and every translate of delta meets
    phi in exactly p points, stated on the translate rows of phi."""
    return delta.bit_count() == 2 * p and all((delta & r).bit_count() == p for r in phi.rows)


def check_bruteforce_cap(phi: CMType, degrees: Iterable[int]) -> None:
    """Raise the ``CapExceeded`` that ``enumerate_valid_bruteforce`` would
    raise at the first of these degrees that has one, testing no subset."""
    m = phi.carrier.size
    for p in degrees:
        if comb(m, 2 * p) > BRUTEFORCE_CAP:
            raise CapExceeded(f"C({m},{2 * p}) exceeds the cap of {BRUTEFORCE_CAP}")


def enumerate_valid_bruteforce(phi: CMType, p: int, rows: tuple[int, ...] | None = None) -> list[int]:
    """Reference oracle: test every size-2p subset directly against
    ``rows``, by default the translate rows of phi.

    Returns masks in ascending order.  Raises ``CapExceeded`` when the
    binomial count is above ``BRUTEFORCE_CAP``.
    """
    m = phi.carrier.size
    check_bruteforce_cap(phi, [p])
    rows = phi.rows if rows is None else rows
    # the bits are distinct, so their sum is the mask
    out = [
        delta
        for delta in map(sum, combinations([1 << s for s in range(m)], 2 * p))
        if all((delta & r).bit_count() == p for r in rows)
    ]
    out.sort()
    return out


def _profile_table(phi: CMType, p: int) -> Iterator[int]:
    """The table of degree p, lazily: the sum of ``CMType.points`` over
    each p-subset A of phi, A's row profile above bit m, A | iota*A below."""
    return map(sum, combinations(phi.points, p))


def _group_sizes(phi: CMType, p: int) -> Counter | None:
    """The number of p-subsets of phi with each row profile, or None past
    ``LISTING_CAP`` valid monomials (a group of n subsets gives n * n),
    before any sum if phi alone has more p-subsets than the cap."""
    if comb(phi.carrier.size // 2, p) > LISTING_CAP:
        return None
    sizes = Counter(map(phi.carrier.size.__rrshift__, _profile_table(phi, p)))
    return sizes if sum(n * n for n in sizes.values()) <= LISTING_CAP else None


def _listing_cap(p: int) -> CapExceeded:
    return CapExceeded(f"degree {p} has more than {LISTING_CAP} valid monomials, the listing cap")


def check_listing_cap(phi: CMType, degrees: list[int]) -> None:
    """Raise the ``CapExceeded`` that ``enumerate_valid`` would raise at the
    first of these degrees that has one, without listing a monomial.

    A degree with C(m/2, p)**2 <= ``LISTING_CAP`` passes uncounted, and
    one with C(m/2, p) > ``LISTING_CAP`` is refused uncounted.  Any other
    is counted from its table's group sizes.  Complement maps degree p onto
    m/2 - p, so each pair of such degrees is counted once, at the lower one.
    """
    half = phi.carrier.size // 2
    counted = set()
    for p in degrees:
        q = min(p, half - p)
        if q in counted or comb(half, q) ** 2 <= LISTING_CAP:
            continue
        counted.add(q)
        if _group_sizes(phi, q) is None:
            raise _listing_cap(p)


def enumerate_valid(phi: CMType, p: int) -> list[int]:
    """Profile-table enumerator; must agree with the brute-force oracle.

    Each group of the table (see the module docstring) gives A | iota*A'
    for each A and A' in it.  A sum's bits in phi are A, its bits in the
    conjugate iota*A, and its low m bits A | iota*A, the one monomial of a
    singleton.  A larger group, the only profiles kept past the count,
    gives one ascending run per A, its iota*A' masks sorted; the runs are
    then sorted once, so masks come back ascending.  Raises
    ``CapExceeded`` if the degree has more than ``LISTING_CAP`` valid
    monomials: before summing anything if phi has more p-subsets than
    that, and otherwise once the group sizes are counted, before listing.
    """
    sizes = _group_sizes(phi, p)
    if sizes is None:
        raise _listing_cap(p)
    shared = {w for w, n in sizes.items() if n > 1}
    del sizes
    m, full, members = phi.carrier.size, phi.carrier.all_mask, phi.members
    conjugate = full ^ members
    out: list[int] = []
    groups = defaultdict(lambda: ([], []))
    for d in _profile_table(phi, p):
        w = d >> m
        if w not in shared:
            out.append(d & full)
        else:
            group = groups[w]
            group[0].append(d & members)
            group[1].append(d & conjugate)
    for ours, theirs in groups.values():
        theirs.sort()
        for a in ours:
            out.extend(map(a.__or__, theirs))
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


class DecompositionReport(NamedTuple):
    """Full per-degree classification: the Galois orbits of the valid
    monomials, their only stored listing, and the exotic ones, all sorted
    canonically; the rest of the valid monomials are divisor-generated."""

    p: int
    orbits: tuple[tuple[int, ...], ...]
    valid_pair_count: int
    exotic: tuple[int, ...]

    @property
    def valid(self) -> tuple[int, ...]:
        return tuple(sorted(chain.from_iterable(self.orbits)))

    @property
    def hodge_dim(self) -> int:
        return sum(map(len, self.orbits))

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
    orbits = galois_orbits(phi.carrier, enumerate_valid(phi, p))
    pairs = phi.class_pairs
    exotic = []
    for orbit in orbits:
        d = orbit[0]
        if any((d & u).bit_count() != (d & w).bit_count() for u, w in pairs):
            exotic.extend(orbit)
    return DecompositionReport(
        p=p,
        orbits=tuple(orbits),
        valid_pair_count=sum(u.bit_count() ** 2 for u, _ in pairs),
        exotic=tuple(sorted(exotic)),
    )
