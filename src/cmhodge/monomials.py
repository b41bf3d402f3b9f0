"""Valid Hodge monomials: the translation-invariant intersection criterion,
two independent enumerators, Galois-orbit partitioning, and the
divisor-generated / exotic split.

A monomial is a subset of the embedding points, held as a bit mask.  It is
valid at degree p when every group translate meets the CM-type in exactly
p points; the valid monomials index lines of Hodge classes after scalar
extension, so their count is the Hodge-class dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cmtypes import CMType
from .errors import CapExceeded, NotClosed
from .groups import mask_of

# largest number of subsets one half table of ``enumerate_valid`` may hold
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


def enumerate_valid(phi: CMType, p: int) -> list[int]:
    """Meet-in-the-middle enumerator; must agree with the brute-force oracle.

    Point s weighs ``1 + sum_k [s in rows[k]] << F*(k+1)``, F = m.bit_length(),
    so a subset's weight packs its size and its count in each translate row
    into F-bit fields.  No field carries, because it counts at most m < 2**F
    points; so delta is valid iff its weight is ``2p + sum_k p << F*(k+1)``.
    The size-k subsets of the low half of the points are indexed by weight,
    and each size-(2p-k) subset of the high half looks up the weight that
    completes the target (Horowitz-Sahni).  Masks come back ascending.
    Raises ``CapExceeded``, before building anything, if a half table
    would hold more than ``HALF_TABLE_CAP`` subsets, and as soon as the list
    would hold more than ``LISTING_CAP`` masks.
    """
    m = phi.carrier.size
    half = m // 2
    sizes = range(max(0, 2 * p - half), min(half, 2 * p) + 1)  # empty if 2p > m
    largest = max((comb(half, k) for k in sizes), default=0)
    if largest > HALF_TABLE_CAP:
        raise CapExceeded(f"a half table of {largest} subsets exceeds the cap of {HALF_TABLE_CAP}")
    f = m.bit_length()
    weight = [1 + sum(1 << f * (k + 1) for k, r in enumerate(phi.rows) if r >> s & 1) for s in range(m)]
    target = 2 * p + sum(p << f * (k + 1) for k in range(len(phi.rows)))
    bit = [1 << s for s in range(m)]
    out: list[int] = []
    for k in sizes:
        low: dict[int, list[int]] = {}
        for w, b in zip(combinations(weight[:half], k), combinations(bit[:half], k)):
            low.setdefault(sum(w), []).append(sum(b))
        for w, b in zip(combinations(weight[half:], 2 * p - k), combinations(bit[half:], 2 * p - k)):
            for lo in low.get(target - sum(w), ()):
                out.append(sum(b) | lo)
            if len(out) > LISTING_CAP:
                raise CapExceeded(f"degree {p} has more than {LISTING_CAP} valid monomials, the listing cap")
    out.sort()
    return out


def galois_orbits(carrier, deltas: list[int]) -> list[tuple[int, ...]]:
    """Partition a translation-closed set of monomials into Galois orbits.

    Orbits are sorted tuples, listed by their minimal mask (the canonical
    representative).  Raises ``NotClosed`` if some translate escapes the
    input set; for genuinely valid sets that cannot happen, so it flags an
    enumerator bug.
    """
    pool = set(deltas)
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for d in sorted(deltas):
        if d in seen:
            continue
        orbit = set(carrier.translates(d))
        stray = orbit - pool
        if stray:
            raise NotClosed(f"translate {min(stray)} of {d} missing from the input set")
        seen |= orbit
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
