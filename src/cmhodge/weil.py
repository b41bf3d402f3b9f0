"""Split-Weil witnesses and coverage certificates.

For a valid monomial the induced CM-type family is balanced, which is the
criterion for the associated product variety to be of split Weil type; one
witness per Galois orbit covers every translate of its representative.

The certificate's verdict, that the covered translates exhaust the valid
set, holds by construction: each witness covers an orbit that
``galois_orbits`` returned, and those orbits partition the valid set
(``galois_orbits`` raises ``NotClosed`` if a translate escapes it).
Validity forces the rest of the certificate too.  The balanced transcript
is the validity count vector in another guise: the number of family
members containing t is the number of points of t*delta in phi, so it is
p at every group element.  The Weil numerology is d = 2p, and the d-fold
exterior power of a rank-d module over the split field has rank 1, of
dimension |G| over Q.  So only computed data is held here; ``report``
writes the forced values, and the independent verifier recomputes every
one of them from the raw tables in the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmtypes import CMType, RegularCMType
from .groups import bits
from .monomials import enumerate_valid, galois_orbits


@dataclass(frozen=True)
class SplitWeilWitness:
    """Constructive data for one Galois orbit of valid monomials: its least
    member, that member's induced CM-type family, and the translates it
    covers, which are the orbit."""

    delta: int
    family: tuple[RegularCMType, ...]  # ordered by point index within delta
    covered_translates: tuple[int, ...]  # ascending masks


@dataclass(frozen=True)
class CoverageCertificate:
    p: int
    witnesses: tuple[SplitWeilWitness, ...]  # one per orbit, by least member


def split_weil_witness(phi: CMType, orbit: tuple[int, ...]) -> SplitWeilWitness:
    """Build the witness for one orbit as ``galois_orbits`` lists it."""
    delta = orbit[0]
    types = phi.induced_types
    return SplitWeilWitness(delta, tuple(types[s] for s in bits(delta)), orbit)


def coverage_certificate(phi: CMType, p: int) -> CoverageCertificate:
    """One witness per Galois orbit of the valid monomials at degree p."""
    orbits = galois_orbits(phi.carrier, enumerate_valid(phi, p))
    return CoverageCertificate(p, tuple(split_weil_witness(phi, orbit) for orbit in orbits))
