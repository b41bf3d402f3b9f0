"""The benchmark's own arithmetic, independent of the cmhodge package.

Group tables for the catalog entries the workloads use, translation of
point sets, and the validity test every listed monomial is re-checked
with: on the regular embedding set (points = group elements), a monomial
delta is valid at degree p iff |delta| = 2p and |delta & r| = p for every
distinct translate row r of the CM-type phi.

`freeze.py` builds the frozen answer table from the brute-force routes
below; `run.py` uses the popcount test at run time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _cyclic(n: int) -> tuple[list[list[int]], int]:
    return [[(a + b) % n for b in range(n)] for a in range(n)], n // 2


def _elementary_abelian(n: int) -> tuple[list[list[int]], int]:
    return [[a ^ b for b in range(n)] for a in range(n)], n - 1


def _dihedral(order: int) -> tuple[list[list[int]], int]:
    # r^i s^j has index i + rot * j, and s r = r^-1 s
    rot = order // 2

    def mul(x: int, y: int) -> int:
        i1, j1 = x % rot, x // rot
        i2, j2 = y % rot, y // rot
        i = (i1 + i2) % rot if j1 == 0 else (i1 - i2) % rot
        return i + rot * ((j1 + j2) % 2)

    return [[mul(a, b) for b in range(order)] for a in range(order)], order // 4


_FAMILIES = {"cyclic": _cyclic, "elementary-abelian": _elementary_abelian, "dihedral": _dihedral}


def group_table(entry: str) -> tuple[list[list[int]], int]:
    """(multiplication table, index of iota) for a catalog entry such as
    ``cyclic:20`` or ``product:cyclic.6xcyclic.4`` (iota from the first
    factor, element (a, b) at index a * |B| + b)."""
    family, _, params = entry.partition(":")
    if family != "product":
        return _FAMILIES[family](int(params))
    (f1, _, n1), (f2, _, n2) = (part.partition(".") for part in params.split("x"))
    t1, iota1 = _FAMILIES[f1](int(n1))
    t2, _ = _FAMILIES[f2](int(n2))
    k = len(t2)
    table = [
        [t1[a // k][b // k] * k + t2[a % k][b % k] for b in range(len(t1) * k)]
        for a in range(len(t1) * k)
    ]
    return table, iota1 * k


def mask_of(points) -> int:
    mask = 0
    for s in points:
        mask |= 1 << s
    return mask


def points_of(mask: int) -> list[int]:
    return [s for s in range(mask.bit_length()) if mask >> s & 1]


def translate(table, t: int, mask: int) -> int:
    row = table[t]
    return mask_of(row[s] for s in points_of(mask))


def translate_rows(table, phi: int) -> list[int]:
    """Distinct translates of phi, ascending."""
    return sorted({translate(table, t, phi) for t in range(len(table))})


def is_valid(delta: int, p: int, rows: list[int]) -> bool:
    return delta.bit_count() == 2 * p and all((delta & r).bit_count() == p for r in rows)


def is_orbit_minimum(table, delta: int) -> bool:
    return all(translate(table, t, delta) >= delta for t in range(len(table)))


def greedy_cm_type(table, iota: int) -> int:
    """The catalog's documented default: scan elements in order, keeping
    each one whose conjugate is not kept yet."""
    kept = 0
    for s in range(len(table)):
        if not kept >> table[iota][s] & 1:
            kept |= 1 << s
    return kept


def all_cm_types(table, iota: int) -> list[int]:
    """Every CM-type: one point from each conjugate pair."""
    pairs = [(s, table[iota][s]) for s in range(len(table)) if s < table[iota][s]]
    out = []
    for code in range(1 << len(pairs)):
        out.append(mask_of(hi if code >> i & 1 else lo for i, (lo, hi) in enumerate(pairs)))
    return sorted(out)


def brute_force_valid(m: int, phi: int, p: int, rows: list[int]) -> list[int]:
    """Every valid monomial at degree p, ascending.  Since phi is itself a
    row, a valid delta has p points in phi and p outside, so only those
    C(m/2, p)^2 subsets are tested."""
    inside = points_of(phi)
    outside = [s for s in range(m) if not phi >> s & 1]
    found = [
        mask_of(a) | mask_of(b)
        for a in combinations(inside, p)
        for b in combinations(outside, p)
        if is_valid(mask_of(a) | mask_of(b), p, rows)
    ]
    return sorted(found)


def orbit_count(table, valid: list[int]) -> int:
    return sum(1 for d in valid if is_orbit_minimum(table, d))


def decomposes(delta: int, pairs: set[int]) -> bool:
    """Whether delta is a disjoint union of valid pairs."""
    if delta == 0:
        return True
    low = delta & -delta
    rest = delta ^ low
    for s in points_of(rest):
        pair = low | 1 << s
        if pair in pairs and decomposes(rest ^ 1 << s, pairs):
            return True
    return False


def rank(rows: list[int], m: int) -> int:
    """Rank over Q of the 0/1 row vectors."""
    basis: list[list[Fraction]] = []
    for r in rows:
        v = [Fraction(r >> s & 1) for s in range(m)]
        for b in basis:
            lead = next(c for c in range(m) if b[c])
            if v[lead]:
                f = v[lead] / b[lead]
                v = [x - f * y for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    return len(basis)


def instance_text(entry: str, phi: int) -> str:
    """An instance file in the documented line format, regular embedding
    set (the trivial subgroup as the only factor)."""
    table, iota = group_table(entry)
    lines = [f"name {entry}", f"group {len(table)}", "table"]
    lines += [" ".join(map(str, row)) for row in table]
    lines += [f"iota {iota}", "factor 0", "cmtype " + " ".join(map(str, points_of(phi))), "degrees all"]
    return "\n".join(lines) + "\n"
