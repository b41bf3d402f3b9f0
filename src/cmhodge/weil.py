"""Split-Weil witnesses and coverage certificates.

For a valid monomial the induced CM-type family is balanced, which is the
criterion for the associated product variety to be of split Weil type; one
witness per Galois orbit accounts for every translate, so the union of the
covered translates must equal the full valid set.  That equality is the
certificate's verdict.

The balanced transcript is the validity count vector in another guise:
the number of family members containing t is the number of points of
t*delta in phi.  So it is p at every group element exactly when the
monomial is valid, and the independent verifier recounts it from the
stored family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmtypes import CMType, RegularCMType, induced_type
from .errors import NotValid
from .monomials import enumerate_valid, galois_orbits, valid_delta
from .groups import bits


@dataclass(frozen=True)
class SplitWeilWitness:
    """Constructive data for one valid monomial: the induced CM-type
    family, its balanced transcript, the translates it covers, and the
    Weil-class numerology (d = 2p; the d-fold exterior power of a rank-d
    module over the split field has rank 1, of dimension |G| over Q)."""

    cm_type: CMType
    delta: int
    p: int
    family: tuple[RegularCMType, ...]  # ordered by point index within delta
    balanced_transcript: tuple[int, ...]  # indexed by group element
    covered_translates: tuple[int, ...]  # deduplicated, ascending masks
    weil_d: int
    weil_rank_over_f: int
    weil_dim_over_q: int


@dataclass(frozen=True)
class CoverageCertificate:
    cm_type: CMType
    p: int
    orbit_reps: tuple[int, ...]
    witnesses: tuple[SplitWeilWitness, ...]
    coverage: tuple[int, ...]
    valid_set: tuple[int, ...]
    verdict: bool


def split_weil_witness(phi: CMType, delta: int, p: int) -> SplitWeilWitness:
    """Build the witness for one valid monomial; raises ``NotValid`` for
    any other.  Validity forces the transcript (see the module notes)."""
    if not valid_delta(phi, delta, p):
        raise NotValid(f"monomial {sorted(bits(delta))} is not valid at degree {p}")
    carrier = phi.carrier
    group = carrier.parent
    family = tuple(induced_type(phi, s) for s in bits(delta))
    covered = tuple(sorted({carrier.translate_mask(t, delta) for t in group.elements()}))
    return SplitWeilWitness(
        cm_type=phi,
        delta=delta,
        p=p,
        family=family,
        balanced_transcript=(p,) * group.order,
        covered_translates=covered,
        weil_d=2 * p,
        weil_rank_over_f=1,
        weil_dim_over_q=group.order,
    )


def coverage_certificate(phi: CMType, p: int) -> CoverageCertificate:
    """One witness per orbit representative; verdict is whether the covered
    translates exhaust the valid set."""
    valid = enumerate_valid(phi, p)
    orbits = galois_orbits(phi.carrier, valid)
    reps = tuple(orbit[0] for orbit in orbits)
    witnesses = tuple(split_weil_witness(phi, rep, p) for rep in reps)
    coverage = tuple(sorted({d for w in witnesses for d in w.covered_translates}))
    return CoverageCertificate(
        cm_type=phi,
        p=p,
        orbit_reps=reps,
        witnesses=witnesses,
        coverage=coverage,
        valid_set=tuple(valid),
        verdict=coverage == tuple(valid),
    )
