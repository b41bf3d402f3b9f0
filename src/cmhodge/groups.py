"""Embedding sets: finite groups acting on points, each given by its
action table and the central involution iota.

A group itself is given by a multiplication table.  ``build_group`` checks
it and keeps it as the carrier of the group's left-regular action, which
is the action table of G/{e}; nothing else of the group is kept.  Element
and point indices are 0-based everywhere.  Groups are small (order <=
MAX_ORDER = 64, enforced by ``build_group``), and so are embedding sets
(at most MAX_POINTS = 1024 points, enforced by ``embedding_set``; the
largest carrier the tests build), so every structural check is
exhaustive, associativity one row at a time.  All values are immutable
after construction; everything here is a pure function.

The embedding set of a product of CM-fields E = E_1 x ... x E_k is the
disjoint union of the left coset spaces G/H_i, one per factor; G acts on
it by left translation, and complex conjugation is translation by the
central iota.  Only left cosets and left actions are used anywhere.  The
image of point s under t is ``action[t][s]``; the group order is the
number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter, lshift, or_
from struct import Struct
from typing import Callable, Iterable

from .errors import BadInvolution, CapExceeded, IotaInSubgroup, NotAGroup, NotASubgroup

MAX_ORDER = 64
MAX_POINTS = 1024


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending, read from the binary text of the mask."""
    return [s for s, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def check_order(order: int) -> int:
    """Return ``order`` if it lies in 1..MAX_ORDER; raise ``NotAGroup``
    otherwise, before any table of that size is built."""
    if not 0 < order <= MAX_ORDER:
        raise NotAGroup(f"order must be in 1..{MAX_ORDER}, got {order}")
    return order


def build_group(order: int, mult_table: Iterable[Iterable[int]], iota_index: int) -> EmbeddingSet:
    """Validate a multiplication table and return it as the carrier of the
    group's left-regular action: ``action[t][g]`` is t*g, the coset space
    G/{e} that ``embedding_set`` builds from it with the one factor {e}.

    The identity and the inverses are found, not supplied, and not kept.
    Raises ``NotAGroup`` (with a witness) if the table is not a group, and
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

    for g in range(n):
        if not any(mult[g][h] == identity and mult[h][g] == identity for h in range(n)):
            raise NotAGroup(f"element {g} has no inverse", (g,))

    # (ab)c = a(bc) for all c iff row ab is row b read through row a; a row
    # failing that (at order 1, every row) is searched for its first (b, c)
    compose = [itemgetter(*row) for row in mult]
    for a, row_a in enumerate(mult):
        if [read(row_a) for read in compose] == list(map(mult.__getitem__, row_a)):
            continue
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

    return EmbeddingSet(iota, n, mult)


def _cosets(group: EmbeddingSet, elements: Iterable[int]) -> list[tuple[int, ...]]:
    """The left cosets gH of the subgroup H with the given elements, each
    as its sorted element tuple, in order of least element.  ``group`` is
    a checked regular carrier (see ``build_group``): its identity is
    iota*iota, and the inverse of a is the element that a sends to it.

    Raises ``NotASubgroup`` if the elements do not form a subgroup and
    ``IotaInSubgroup`` if iota lies in it (conjugation would then fix a
    point, which no CM-algebra allows).
    """
    mult = group.action
    identity = mult[group.iota][group.iota]
    elems = sorted({int(x) for x in elements})
    if any(not 0 <= x < len(mult) for x in elems):
        raise NotASubgroup(f"subgroup element out of range in {elems}")
    if identity not in elems:
        raise NotASubgroup("subgroup does not contain the identity")
    in_h = set(elems)
    for a in elems:
        if mult[a].index(identity) not in in_h:
            raise NotASubgroup(f"not closed under inverse at {a}", (a,))
        for b in elems:
            if mult[a][b] not in in_h:
                raise NotASubgroup(f"not closed under multiplication at ({a},{b})", (a, b))
    if group.iota in in_h:
        raise IotaInSubgroup(f"iota = {group.iota} lies in the subgroup {elems}")
    # disjoint sorted tuples sort by their least elements
    return sorted({tuple(sorted(row[h] for h in elems)) for row in mult})


@dataclass(frozen=True)
class EmbeddingSet:
    """Disjoint union of coset spaces: the set of embeddings of a product
    of CM-fields, with the group's action by left translation.  The action
    table and iota are all of the group that is kept."""

    iota: int
    size: int
    action: tuple[tuple[int, ...], ...]  # n x m

    @property
    def conj(self) -> tuple[int, ...]:
        """Complex conjugation: translation by the central iota."""
        return self.action[self.iota]

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
        return Struct(f"<{len(self.action)}Q").unpack, tuple(factors)

    def translates(self, mask: int) -> list[int]:
        """The images of a point set under every group element, in element
        order: per factor, the table entries of its nibbles OR-ed into one
        packed int, unpacked and shifted up to the factor's offset.

        Every translation the producer makes goes through these tables (the
        conjugate of a set is its image under iota), so CM-types and
        monomials cannot be translated differently; the verifier reads its
        orbits off the action table, so a fault here cannot agree with it.
        """
        unpack, factors = self._translate_tables
        images = [0] * len(self.action)
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


def embedding_set(group: EmbeddingSet, subgroups: Iterable[Iterable[int]]) -> EmbeddingSet:
    """The disjoint union of the left coset spaces G/H of the given
    subgroups of the group whose regular carrier ``build_group`` returned,
    its points numbered factor by factor and, within a factor, coset by
    coset in order of least element.  Raises ``CapExceeded``,
    before the action table is built, past ``MAX_POINTS`` points."""
    owner: list[list[int]] = []  # per point: its factor's map from element to point
    least: list[int] = []  # per point: the least element of its coset
    for h in subgroups:
        cosets = _cosets(group, h)
        if len(least) + len(cosets) > MAX_POINTS:
            raise CapExceeded(f"the factors have more than {MAX_POINTS} points")
        point_of = [0] * len(group.action)
        for coset in cosets:
            for g in coset:
                point_of[g] = len(least)
            owner.append(point_of)
            least.append(coset[0])
    if not least:
        raise NotASubgroup("at least one factor is required")
    # t maps the coset gH to tgH, the point of t*g for any g in it
    action = tuple(tuple(point_of[row[g]] for point_of, g in zip(owner, least)) for row in group.action)
    conj = action[group.iota]
    assert all(conj[s] != s and conj[conj[s]] == s for s in range(len(conj)))
    return EmbeddingSet(group.iota, len(least), action)
