from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cmhodge.catalog import sweep_instances
from cmhodge.cmtypes import enumerate_cm_types
from cmhodge.groups import mask_of
from cmhodge.instance import build_instance
from cmhodge.lattice import orbit_matrix
from cmhodge.monomials import valid_delta
from conftest import MIXED_CARRIERS, mixed_carrier, random_types


def meets_basis(basis: tuple[int, ...], delta: int, p: int) -> bool:
    """The oracle's third route: a size-2p monomial meeting every basis row
    in p points."""
    return delta.bit_count() == 2 * p and all((delta & row).bit_count() == p for row in basis)


def test_orbit_matrix_z2(z2):
    assert orbit_matrix(z2.cm_type).rows == (0b01, 0b10)


def test_orbit_matrix_z4(z4):
    rows = orbit_matrix(z4.cm_type).rows
    assert set(rows) == {0b0011, 0b0110, 0b1100, 0b1001}
    assert len(rows) == 4


def test_orbit_matrix_ea4_dedupes(ea4):
    # phi = {0, 1} is stabilized by translation by 1, so only 2 rows survive
    rows = orbit_matrix(ea4.cm_type).rows
    assert rows == (0b0011, 0b1100)


def test_rows_partition_with_conjugate(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        matrix = orbit_matrix(built.cm_type)
        for row in matrix.rows:
            for x in range(s.size):
                assert (row >> x & 1) + (row >> s.conj[x] & 1) == 1


def test_ranks_small_cases(z2, z4, ea4):
    assert len(orbit_matrix(z2.cm_type).basis) == 2
    assert len(orbit_matrix(z4.cm_type).basis) == 3  # 1100 - 0110 + 0011 = 1001
    assert len(orbit_matrix(ea4.cm_type).basis) == 2


def test_rank_bound(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            assert len(orbit_matrix(phi).basis) <= half + 1


def test_dedup_against_stabilizer(order8_instances):
    for built in order8_instances:
        s, order = built.embeddings, len(built.embeddings.action)
        for phi in enumerate_cm_types(s):
            matrix = orbit_matrix(phi)
            stab = sum(
                1 for t in range(order) if s.translates(phi.members)[t] == phi.members
            )
            assert len(matrix.rows) * stab == order


def reference_elimination(phi) -> tuple[int, tuple[int, ...], int]:
    """(rank, greedy basis, rank with the all-ones vector adjoined) by
    Gauss-Jordan elimination in Fractions over the literal R x m 0/1 rows,
    one column per point: no class compression and no integer scaling."""
    m = phi.carrier.size

    def kept(vectors: list[list[Fraction]]) -> list[int]:
        reduced: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)
        out = []
        for index, v in enumerate(vectors):
            for col, row in reduced:
                if f := v[col]:
                    v = [x - f * y for x, y in zip(v, row)]
            pivot = next((col for col, x in enumerate(v) if x), None)
            if pivot is None:
                continue
            v = [x / v[pivot] for x in v]
            reduced = [(col, [x - row[pivot] * y for x, y in zip(row, v)]) for col, row in reduced]
            reduced.append((pivot, v))
            out.append(index)
        return out

    # the elimination is greedy, so the ones vector put last leaves the
    # rows before it kept as they are kept alone
    rows = [[Fraction(r >> s & 1) for s in range(m)] for r in phi.rows]
    with_ones = kept(rows + [[Fraction(1)] * m])
    basis = tuple(phi.rows[k] for k in with_ones if k < len(rows))
    return len(basis), basis, len(with_ones)


def test_elimination_matches_fraction_reference():
    types = [
        phi
        for spec in sweep_instances(12)
        for phi in enumerate_cm_types(build_instance(spec).embeddings)
    ]
    types += [phi for entry in MIXED_CARRIERS for phi in enumerate_cm_types(mixed_carrier(*entry))]
    # seed 3 draws a type of rank 25 < 33 with 32 class pairs (33 columns)
    # on elementary-abelian:64; the defaults there have few class pairs
    for entry in ("cyclic:64", "dihedral:64", "elementary-abelian:64", "product:cyclic.8xcyclic.4"):
        types += random_types(entry, (0, 3))
    for phi in types:
        rank, basis, rank_with_ones = reference_elimination(phi)
        got = orbit_matrix(phi).basis
        assert (len(got), got) == (rank, basis), bin(phi.members)
        # forced: the complement of every row, its translate by iota, is a
        # row, and the two sum to 1
        assert rank_with_ones == rank
        assert {phi.carrier.all_mask ^ r for r in phi.rows} == set(phi.rows)


def test_system_targets_are_p(z2, z4):
    # basis rows are original translate rows, of weight m/2, so a valid
    # monomial meets each in exactly p points
    for built in (z2, z4):
        basis = orbit_matrix(built.cm_type).basis
        assert set(basis) <= set(built.cm_type.rows)
        assert all(row.bit_count() == built.embeddings.size // 2 for row in basis)
    assert len(orbit_matrix(z4.cm_type).basis) == 3


def test_system_p0_only_empty_set(z4):
    basis = orbit_matrix(z4.cm_type).basis
    assert meets_basis(basis, 0, 0)
    assert not meets_basis(basis, mask_of([0, 2]), 0)


def test_system_examples(z4):
    basis = orbit_matrix(z4.cm_type).basis
    assert meets_basis(basis, mask_of([0, 2]), 1)
    assert not meets_basis(basis, mask_of([0, 1]), 1)
    assert meets_basis(basis, z4.embeddings.all_mask, 2)


def test_system_agrees_with_direct_check_exhaustively(order8_instances):
    # both checks read phi.rows, so pin them to the literal definition too:
    # every translate of delta meets phi in exactly p points
    for built in order8_instances:
        s = built.embeddings
        m = s.size
        for phi in enumerate_cm_types(s):
            basis = orbit_matrix(phi).basis
            for p in range(m // 2 + 1):
                for pts in combinations(range(m), 2 * p):
                    delta = mask_of(pts)
                    literal = all(
                        (s.translates(delta)[t] & phi.members).bit_count() == p
                        for t in range(len(s.action))
                    )
                    assert valid_delta(phi, delta, p) == literal
                    assert meets_basis(basis, delta, p) == literal


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_system_agrees_on_random_subsets(data):
    built = build_instance(data.draw(st.sampled_from(sweep_instances(12))))
    m = built.embeddings.size
    phi = built.cm_type
    p = data.draw(st.integers(min_value=0, max_value=m // 2))
    pts = data.draw(
        st.sets(st.integers(min_value=0, max_value=m - 1), min_size=2 * p, max_size=2 * p)
    )
    delta = mask_of(pts)
    assert meets_basis(orbit_matrix(phi).basis, delta, p) == valid_delta(phi, delta, p)
