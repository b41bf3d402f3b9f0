"""Exact integer-lattice view of a CM-type: the matrix of its Galois
translates, its rank over Q, and a reduced linear system that decides
validity with fewer dot products.

All arithmetic is exact integer arithmetic (fraction-free elimination for
ranks, popcounts for the reduced system).  No floating point: validity is
an integer statement and any epsilon would be a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmtypes import CMType


@dataclass(frozen=True)
class OrbitMatrix:
    """Distinct 0/1 characteristic rows of the translates of phi, in
    ascending mask order.  Every row r satisfies r + (r . conj) = 1 since a
    translate of a CM-type is a CM-type; the row count divides |G|."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int


def orbit_matrix(phi: CMType) -> OrbitMatrix:
    m = phi.carrier.size
    return OrbitMatrix(tuple(_unpack(r, m) for r in phi.rows), m)


def _unpack(mask: int, ncols: int) -> tuple[int, ...]:
    return tuple((mask >> s) & 1 for s in range(ncols))


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on integers."""
    m = [row[:] for row in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (pv * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def lattice_rank(matrix: OrbitMatrix) -> int:
    return _rank_bareiss([list(r) for r in matrix.rows])


def lattice_rank_with_ones(matrix: OrbitMatrix) -> int:
    """Rank after adjoining the all-ones vector (the weight direction)."""
    rows = [list(r) for r in matrix.rows]
    rows.append([1] * matrix.ncols)
    return _rank_bareiss(rows)


def is_rank_maximal(matrix: OrbitMatrix) -> bool:
    # the rows live in an affine set whose direction space has dim ncols/2,
    # so the rank can never exceed ncols/2 + 1
    return lattice_rank(matrix) == matrix.ncols // 2 + 1


@dataclass(frozen=True)
class ValiditySystem:
    """A maximal independent subset of the translate rows, as point masks.
    A valid monomial meets each basis row in exactly p points.

    Soundness: every row is a rational combination of basis rows whose
    coefficients sum to 1 (all rows have the same dot with the all-ones
    vector), so meeting every basis row in p points forces the full system.
    """

    ncols: int
    p: int
    basis: tuple[int, ...]


def reduced_validity_system(phi: CMType, p: int) -> ValiditySystem:
    m = phi.carrier.size
    basis: list[int] = []
    unpacked: list[list[int]] = []
    for row in phi.rows:
        candidate = unpacked + [list(_unpack(row, m))]
        if _rank_bareiss(candidate) > len(basis):
            basis.append(row)
            unpacked = candidate
    return ValiditySystem(m, p, tuple(basis))


def check_via_system(system: ValiditySystem, delta: int, p: int) -> bool:
    """Check a size-2p subset against the reduced system only; must agree
    with the direct validity test on every input."""
    if p != system.p or delta.bit_count() != 2 * p:
        return False
    return all((delta & row).bit_count() == p for row in system.basis)
