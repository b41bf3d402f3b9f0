"""Exact integer-lattice view of a CM-type: one matrix over its class
pairs and one elimination over its rows.

The matrix has a row for each distinct translate of phi and, for each
pair (U, iota*U) of ``CMType.class_pairs``, a column that is 1 where the
row contains U; a last column is all ones.  A row contains iota*U iff it
does not contain U, so the iota*U column is the ones column minus the U
column: this R x (K+1) matrix has the column span, hence the rank and the
row relations, of the R x m matrix of points.  Without the ones column the
iota*U columns would leave the span.  A fraction-free elimination over the
rows in ascending order keeps each row independent of those kept before
it: the kept rows are the validity basis, and the rank is their number.
The all-ones point vector adds no rank: for every row r, iota*r is also a
row, and r + iota*r = 1 because r is a CM-type.

All arithmetic is exact integer arithmetic.  No floating point: validity is
an integer statement and any epsilon would be a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cmtypes import CMType


@dataclass(frozen=True)
class OrbitMatrix:
    """The distinct translates of phi as point masks, ascending (their
    count divides |G|), and the kept rows, whose number is the rank.

    The basis decides validity on its own: every row is a rational
    combination of basis rows whose coefficients sum to 1, since every row
    has m/2 points, so a size-2p monomial meeting each basis row in p
    points meets every row in p points.
    """

    rows: tuple[int, ...]
    basis: tuple[int, ...]


def orbit_matrix(phi: CMType) -> OrbitMatrix:
    """The one elimination, over the rows read on the K + 1 columns."""
    pairs = phi.class_pairs
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    basis = []
    for row in phi.rows:
        v = [1 if row & u else 0 for u, _ in pairs] + [1]
        for col, kept in echelon:
            if v[col]:
                a, b = kept[col], v[col]
                v = [a * x - b * y for x, y in zip(v, kept)]
                # without this the entries grow past any use within a few
                # dozen rows; a zero vector has gcd 0 and stays as it is
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        pivot = next((col for col, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, v))
            basis.append(row)
    return OrbitMatrix(phi.rows, tuple(basis))
