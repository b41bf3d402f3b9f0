from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cmhodge.catalog import sweep_instances
from cmhodge.cmtypes import enumerate_cm_types
from cmhodge.groups import mask_of
from cmhodge.instance import build_instance
from cmhodge.lattice import (
    check_via_system,
    is_rank_maximal,
    lattice_rank,
    lattice_rank_with_ones,
    orbit_matrix,
    reduced_validity_system,
)
from cmhodge.monomials import valid_delta


def test_orbit_matrix_z2(z2):
    assert orbit_matrix(z2.cm_type).rows == ((1, 0), (0, 1))


def test_orbit_matrix_z4(z4):
    rows = orbit_matrix(z4.cm_type).rows
    assert set(rows) == {(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)}
    assert len(rows) == 4


def test_orbit_matrix_ea4_dedupes(ea4):
    # phi = {0, 1} is stabilized by translation by 1, so only 2 rows survive
    rows = orbit_matrix(ea4.cm_type).rows
    assert rows == ((1, 1, 0, 0), (0, 0, 1, 1))  # masks 0b0011, 0b1100


def test_rows_partition_with_conjugate(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        matrix = orbit_matrix(built.cm_type)
        for row in matrix.rows:
            for x in range(s.size):
                assert row[x] + row[s.conj[x]] == 1


def test_ranks_small_cases(z2, z4, ea4):
    assert lattice_rank(orbit_matrix(z2.cm_type)) == 2
    assert lattice_rank(orbit_matrix(z4.cm_type)) == 3  # 1100 - 0110 + 0011 = 1001
    assert lattice_rank(orbit_matrix(ea4.cm_type)) == 2


def test_rank_bound(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            matrix = orbit_matrix(phi)
            r = lattice_rank(matrix)
            assert r <= half + 1
            assert r <= lattice_rank_with_ones(matrix) <= half + 1
            assert is_rank_maximal(matrix) == (r == half + 1)


def test_dedup_against_stabilizer(order8_instances):
    for built in order8_instances:
        s, g = built.embeddings, built.group
        for phi in enumerate_cm_types(s):
            matrix = orbit_matrix(phi)
            stab = sum(
                1 for t in g.elements() if s.translate_mask(t, phi.members) == phi.members
            )
            assert len(matrix.rows) * stab == g.order


def test_system_targets_are_p(z2, z4):
    # basis rows are original translate rows, of weight m/2, so a valid
    # monomial meets each in exactly p points
    for built, p in ((z2, 1), (z4, 1), (z4, 0)):
        system = reduced_validity_system(built.cm_type, p)
        assert set(system.basis) <= set(built.cm_type.rows)
        assert all(row.bit_count() == built.embeddings.size // 2 for row in system.basis)
    assert len(reduced_validity_system(z4.cm_type, 1).basis) == 3


def test_system_p0_only_empty_set(z4):
    system = reduced_validity_system(z4.cm_type, 0)
    assert check_via_system(system, 0, 0)
    assert not check_via_system(system, mask_of([0, 2]), 1)


def test_system_examples(z4):
    system = reduced_validity_system(z4.cm_type, 1)
    assert check_via_system(system, mask_of([0, 2]), 1)
    assert not check_via_system(system, mask_of([0, 1]), 1)
    top = reduced_validity_system(z4.cm_type, 2)
    assert check_via_system(top, z4.embeddings.all_mask, 2)


def test_system_agrees_with_direct_check_exhaustively(order8_instances):
    # both checks read phi.rows, so pin them to the literal definition too:
    # every translate of delta meets phi in exactly p points
    for built in order8_instances:
        s = built.embeddings
        m = s.size
        for phi in enumerate_cm_types(s):
            for p in range(m // 2 + 1):
                system = reduced_validity_system(phi, p)
                for pts in combinations(range(m), 2 * p):
                    delta = mask_of(pts)
                    literal = all(
                        (s.translate_mask(t, delta) & phi.members).bit_count() == p
                        for t in built.group.elements()
                    )
                    assert valid_delta(phi, delta, p) == literal
                    assert check_via_system(system, delta, p) == literal


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
    system = reduced_validity_system(phi, p)
    assert check_via_system(system, delta, p) == valid_delta(phi, delta, p)
