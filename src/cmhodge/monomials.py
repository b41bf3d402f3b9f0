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
from .groups import bits, mask_of


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
    """Optimized enumerator; must agree with the brute-force oracle.

    Backtracks over points in canonical order, maintaining for every
    translate row r the running count of chosen points inside r.  A branch
    is cut as soon as some count exceeds p, or can no longer reach p given
    the points still available (both the open-slot bound and a per-row
    suffix-hit bound are applied).
    """
    m = phi.carrier.size
    rows = phi.rows
    n = len(rows)
    target = 2 * p
    if target > m:
        return []
    if p == 0:
        return [0]

    # hits[s] = indices of the rows containing point s
    hits = [[k for k in range(n) if (rows[k] >> s) & 1] for s in range(m)]
    # suffix_hits[k][s] = how many points >= s lie in row k
    suffix_hits = [[0] * (m + 1) for _ in range(n)]
    for s in range(m - 1, -1, -1):
        for k in range(n):
            suffix_hits[k][s] = suffix_hits[k][s + 1]
        for k in hits[s]:
            suffix_hits[k][s] += 1

    counts = [0] * n
    out: list[int] = []

    def extend(start: int, mask: int, size: int) -> None:
        if size == target:
            out.append(mask)
            return
        need = target - size
        for s in range(start, m - need + 1):
            for k in hits[s]:
                counts[k] += 1
            feasible = True
            for k in range(n):
                c = counts[k]
                if c > p or c + min(need - 1, suffix_hits[k][s + 1]) < p:
                    feasible = False
                    break
            if feasible:
                extend(s + 1, mask | (1 << s), size + 1)
            for k in hits[s]:
                counts[k] -= 1

    extend(0, 0, 0)
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
        orbit = {carrier.translate_mask(t, d) for t in carrier.parent.elements()}
        stray = orbit - pool
        if stray:
            raise NotClosed(f"translate {min(stray)} of {d} missing from the input set")
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def pairing_witness(delta: int, valid_pairs: list[int]) -> list[int] | None:
    """Lexicographically least decomposition of delta into disjoint valid
    pairs, or None if there is none.

    Backtracking perfect matching: always branch on the smallest unmatched
    point and try its partners in ascending order, so the first complete
    matching found is the least one.
    """
    pair_set = set(valid_pairs)

    def rec(remaining: int, acc: list[int]) -> list[int] | None:
        if remaining == 0:
            return list(acc)
        v = (remaining & -remaining).bit_length() - 1
        rest = remaining ^ (1 << v)
        for u in bits(rest):
            pm = (1 << v) | (1 << u)
            if pm in pair_set:
                acc.append(pm)
                found = rec(rest ^ (1 << u), acc)
                if found is not None:
                    return found
                acc.pop()
        return None

    return rec(delta, [])


@dataclass(frozen=True)
class DecompositionReport:
    """Full per-degree classification: the valid monomials, their orbits,
    and the divisor-generated / exotic split, all canonically sorted."""

    cm_type: CMType
    p: int
    valid: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    valid_pair_count: int
    decomposable: tuple[int, ...]
    exotic: tuple[int, ...]

    @property
    def hodge_dim(self) -> int:
        return len(self.valid)

    @property
    def lefschetz_dim(self) -> int:
        # counts only products of degree-2 classes of the variety itself
        return len(self.decomposable)


def classify(phi: CMType, p: int) -> DecompositionReport:
    valid = enumerate_valid(phi, p)
    orbits = galois_orbits(phi.carrier, valid)
    pairs = enumerate_valid(phi, 1)
    decomposable = []
    exotic = []
    for d in valid:
        (exotic if pairing_witness(d, pairs) is None else decomposable).append(d)
    return DecompositionReport(
        cm_type=phi,
        p=p,
        valid=tuple(valid),
        orbits=tuple(orbits),
        valid_pair_count=len(pairs),
        decomposable=tuple(decomposable),
        exotic=tuple(exotic),
    )
