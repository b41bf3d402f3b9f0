"""Finite groups as explicit multiplication tables, and the coset spaces they act on.

Element and point indices are 0-based everywhere.  Groups are small
(order <= MAX_ORDER = 64, enforced by ``build_group``), so every
structural check is done by a direct exhaustive loop rather than anything
clever.  All values are immutable after
construction; everything here is a pure function.

Convention: only left cosets and left actions are used anywhere.  The
composite "t after s" is ``action[t][s]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import lshift, or_
from struct import Struct
from typing import Callable, Iterable

from .errors import BadInvolution, IotaInSubgroup, NotAGroup, NotASubgroup

MAX_ORDER = 64


def _byte_points(offset: int) -> tuple[tuple[int, ...], ...]:
    """Entry b lists ``offset + s`` for each set bit s of the byte b, ascending."""
    table: list[tuple[int, ...]] = [()]
    for s in range(offset, offset + 8):
        table += [t + (s,) for t in table]
    return tuple(table)


# _BYTE_POINTS[i][b]: the set bits of a mask whose byte i is b
_BYTE_POINTS = tuple(_byte_points(8 * i) for i in range(8))


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending, read a byte at a time from tables."""
    out: list[int] = []
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for base in range(0, len(data), 8):  # 64 points per round
        for table, byte in zip(_BYTE_POINTS, data[base : base + 8]):
            if byte:
                out += [8 * base + s for s in table[byte]] if base else table[byte]
    return out


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table, together with
    a distinguished central involution ``iota`` playing the role of complex
    conjugation."""

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    iota: int

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)


def check_order(order: int) -> int:
    """Return ``order`` if it lies in 1..MAX_ORDER; raise ``NotAGroup``
    otherwise, before any table of that size is built."""
    if not 0 < order <= MAX_ORDER:
        raise NotAGroup(f"order must be in 1..{MAX_ORDER}, got {order}")
    return order


def build_group(order: int, mult_table: Iterable[Iterable[int]], iota_index: int) -> GroupTable:
    """Validate a multiplication table and wrap it as a ``GroupTable``.

    The identity and inverse tables are derived, not supplied.  Raises
    ``NotAGroup`` (with a witness) if the table is not a group, and
    ``BadInvolution`` if ``iota_index`` is not a central involution
    distinct from the identity.
    """
    n = check_order(int(order))
    mult = tuple(tuple(int(x) for x in row) for row in mult_table)
    if len(mult) != n or any(len(row) != n for row in mult):
        raise NotAGroup(f"multiplication table is not {n}x{n}")
    for a in range(n):
        for b in range(n):
            if not 0 <= mult[a][b] < n:
                raise NotAGroup(f"entry mult[{a}][{b}] = {mult[a][b]} out of range", (a, b))

    identity = None
    for e in range(n):
        if all(mult[e][g] == g and mult[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element")

    inverse = [-1] * n
    for g in range(n):
        for h in range(n):
            if mult[g][h] == identity and mult[h][g] == identity:
                inverse[g] = h
                break
        else:
            raise NotAGroup(f"element {g} has no inverse", (g,))

    for a in range(n):
        for b in range(n):
            ab = mult[a][b]
            for c in range(n):
                if mult[ab][c] != mult[a][mult[b][c]]:
                    raise NotAGroup(
                        f"associativity fails at ({a},{b},{c})", (a, b, c)
                    )

    iota = int(iota_index)
    if not 0 <= iota < n:
        raise BadInvolution(f"iota index {iota} out of range")
    if iota == identity:
        raise BadInvolution("iota equals the identity")
    if mult[iota][iota] != identity:
        raise BadInvolution(f"iota has order > 2: iota*iota = {mult[iota][iota]}")
    for g in range(n):
        if mult[iota][g] != mult[g][iota]:
            raise BadInvolution(f"iota is not central: fails to commute with {g}")

    return GroupTable(n, mult, identity, tuple(inverse), iota)


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets of a subgroup, with the left translation action and the
    conjugation involution (translation by iota).

    Points are indexed 0..m-1 in canonical order: each coset is stored as
    its sorted element tuple and cosets are ordered by minimal
    representative, so indices are reproducible across runs.
    """

    parent: GroupTable
    subgroup: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]
    action: tuple[tuple[int, ...], ...]  # action[t][point] -> point
    conj: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.points)


def coset_space(group: GroupTable, subgroup_elements: Iterable[int]) -> CosetSpace:
    """Build the space of left cosets gH with its translation action.

    Raises ``NotASubgroup`` if the elements do not form a subgroup and
    ``IotaInSubgroup`` if iota lies in it (conjugation would then fix a
    point, which no CM-algebra allows).
    """
    n = group.order
    elems = sorted({int(x) for x in subgroup_elements})
    if any(not 0 <= x < n for x in elems):
        raise NotASubgroup(f"subgroup element out of range in {elems}")
    if group.identity not in elems:
        raise NotASubgroup("subgroup does not contain the identity")
    in_h = set(elems)
    for a in elems:
        if group.inv(a) not in in_h:
            raise NotASubgroup(f"not closed under inverse at {a}", (a,))
        for b in elems:
            if group.mul(a, b) not in in_h:
                raise NotASubgroup(f"not closed under multiplication at ({a},{b})", (a, b))
    if group.iota in in_h:
        raise IotaInSubgroup(f"iota = {group.iota} lies in the subgroup {elems}")

    elem_to_point: dict[int, int] = {}
    cosets: list[tuple[int, ...]] = []
    for g in range(n):
        if g in elem_to_point:
            continue
        coset = tuple(sorted(group.mul(g, h) for h in elems))
        idx = len(cosets)
        cosets.append(coset)
        for x in coset:
            elem_to_point[x] = idx
    # reorder by minimal representative (first element of the sorted tuple)
    order = sorted(range(len(cosets)), key=lambda i: cosets[i])
    points = tuple(cosets[i] for i in order)
    relabel = {old: new for new, old in enumerate(order)}
    elem_to_point = {x: relabel[i] for x, i in elem_to_point.items()}

    m = len(points)
    action = tuple(
        tuple(elem_to_point[group.mul(t, coset[0])] for coset in points)
        for t in range(n)
    )
    conj = action[group.iota]
    for s in range(m):
        assert conj[s] != s and conj[conj[s]] == s
    return CosetSpace(group, tuple(elems), points, action, tuple(conj))


@dataclass(frozen=True)
class EmbeddingSet:
    """Disjoint union of coset spaces: the set of embeddings of a product
    of CM-fields, with the global group action and conjugation."""

    parent: GroupTable
    size: int
    action: tuple[tuple[int, ...], ...]  # n x m
    conj: tuple[int, ...]

    @property
    def all_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _translate_tables(self) -> tuple[Callable, tuple[tuple[int, int, tuple], ...]]:
        """An unpacker and one (offset, size, tables) per factor.

        A factor is an orbit of the action: the points offset..offset+size-1,
        which every group element maps among themselves.  Its size divides
        the order, so it is at most 64, and the images of a set of its
        points under every group element pack into one int: 64 bits per
        element, in element order, each image shifted down by the offset.
        The unpacker splits such an int.  ``tables[i]`` is a pair of
        16-entry tables, for the low and the high nibble of byte i of the
        factor: entry b packs the images of the points offset + 8i + s
        (s + 4 for the high nibble) for the set bits s of b.  So the tables
        hold 32 ints of 8 * order bytes for every 8 points, about as much
        memory as the action table.
        """
        factors = []
        offset = 0
        while offset < self.size:
            size = len({row[offset] for row in self.action})
            images = [
                sum(1 << (64 * t + row[s] - offset) for t, row in enumerate(self.action))
                for s in range(offset, offset + size)
            ] + [0] * (-size % 8)  # no points past the factor: whole bytes
            nibbles = []
            for base in range(0, len(images), 4):
                table = [0]
                for image in images[base : base + 4]:
                    table += [packed | image for packed in table]
                nibbles.append(tuple(table))
            factors.append((offset, size, tuple(zip(nibbles[::2], nibbles[1::2]))))
            offset += size
        return Struct(f"<{self.parent.order}Q").unpack, tuple(factors)

    def translates(self, mask: int) -> list[int]:
        """The images of a point set under every group element, in element
        order: per factor, the table entries of its nibbles OR-ed into one
        packed int, unpacked and shifted up to the factor's offset.

        Every translation goes through these tables (the conjugate of a
        set is its image under iota), so CM-types and monomials cannot be
        translated differently.
        """
        unpack, factors = self._translate_tables
        images = [0] * self.parent.order
        for offset, size, tables in factors:
            local = mask >> offset & ((1 << size) - 1)
            if not local:
                continue
            packed = 0
            for (low, high), byte in zip(tables, local.to_bytes(len(tables), "little")):
                if byte:
                    packed |= low[byte & 15] | high[byte >> 4]
            part = unpack(packed.to_bytes(8 * len(images), "little"))
            images = list(map(or_, images, map(lshift, part, repeat(offset)))) if offset else list(part)
        return images


def embedding_set(group: GroupTable, subgroups: Iterable[Iterable[int]]) -> EmbeddingSet:
    """Disjoint union of the coset spaces of the given subgroups, with
    deterministic global indices (factor order, then coset order)."""
    factors = tuple(coset_space(group, h) for h in subgroups)
    if not factors:
        raise NotASubgroup("at least one factor is required")
    n = group.order
    sizes = [f.size for f in factors]
    m = sum(sizes)
    offsets = []
    off = 0
    for sz in sizes:
        offsets.append(off)
        off += sz
    action = tuple(
        tuple(
            offsets[k] + factors[k].action[t][s]
            for k in range(len(factors))
            for s in range(sizes[k])
        )
        for t in range(n)
    )
    conj = tuple(
        offsets[k] + factors[k].conj[s]
        for k in range(len(factors))
        for s in range(sizes[k])
    )
    assert m % 2 == 0
    return EmbeddingSet(group, m, action, conj)
