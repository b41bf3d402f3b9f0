from __future__ import annotations

import json
import runpy
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhodge.catalog import catalog, sweep_instances
from cmhodge import monomials, verify
from cmhodge.cmtypes import CMType, enumerate_cm_types, validate_cm_type
from cmhodge.errors import CapExceeded, NotClosed
from cmhodge.groups import EmbeddingSet, bits, mask_of
from cmhodge.instance import build_instance
from cmhodge.lattice import orbit_matrix
from cmhodge.monomials import (
    check_listing_cap,
    classify,
    enumerate_valid,
    enumerate_valid_bruteforce,
    galois_orbits,
    valid_delta,
)
from cmhodge.verify import VerificationResult, _Recount, verify_certificate, verify_document
from conftest import (
    MIXED_CARRIERS,
    catalog_defaults,
    mixed_carrier,
    random_types,
    with_cm_type,
    written_bundle,
)

EXOTIC_HUNT = Path(__file__).parents[1] / "scripts" / "exotic_hunt.py"
# carriers for the table tests: two catalog defaults and the mixed ones
TABLE_CARRIERS = [("product:cyclic.4xcyclic.4", None), ("dihedral:16", None), *MIXED_CARRIERS]


def masks(point_lists):
    return sorted(mask_of(pts) for pts in point_lists)


def has_pair_matching(delta, pairs):
    # oracle for the balance test: search for any perfect matching of delta
    # into the given pairs, branching on its lowest point
    if not delta:
        return True
    low = delta & -delta
    return any(
        pm & low and pm & delta == pm and has_pair_matching(delta ^ pm, pairs) for pm in pairs
    )


def test_empty_monomial_is_valid(z4):
    assert valid_delta(z4.cm_type, 0, 0)


def test_elliptic_curve_h2(z2):
    assert valid_delta(z2.cm_type, 0b11, 1)


def test_valid_delta_z4(z4):
    assert not valid_delta(z4.cm_type, mask_of([0, 1]), 1)  # t=0 meets phi twice
    assert valid_delta(z4.cm_type, mask_of([0, 2]), 1)


def test_bruteforce_small_cases(z2, z4, ea4):
    assert enumerate_valid_bruteforce(z2.cm_type, 1) == [0b11]
    assert enumerate_valid_bruteforce(z4.cm_type, 1) == masks([[0, 2], [1, 3]])
    assert enumerate_valid_bruteforce(z4.cm_type, 3) == []  # 2p > m: C(4, 6) = 0
    assert enumerate_valid_bruteforce(ea4.cm_type, 1) == masks(
        [[0, 3], [1, 2], [0, 2], [1, 3]]
    )


def test_bruteforce_cap(z4, monkeypatch):
    monkeypatch.setattr(monomials, "BRUTEFORCE_CAP", 5)
    assert enumerate_valid_bruteforce(z4.cm_type, 0) == [0]  # C(4, 0) = 1
    with pytest.raises(CapExceeded, match=r"C\(4,2\) exceeds the cap of 5"):
        enumerate_valid_bruteforce(z4.cm_type, 1)


def test_enumerate_valid_degenerate_cases(z4):
    assert enumerate_valid(z4.cm_type, 3) == []  # 2p > m
    assert enumerate_valid(z4.cm_type, 0) == [0]
    # the full point set is always valid at top degree
    assert z4.embeddings.all_mask in enumerate_valid(z4.cm_type, 2)


def test_enumerator_matches_oracle_everywhere(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for phi in enumerate_cm_types(built.embeddings):
            for p in range(half + 1):
                assert enumerate_valid(phi, p) == enumerate_valid_bruteforce(phi, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enumerator_matches_oracle_hypothesis(data):
    specs = sweep_instances(12)
    built = build_instance(data.draw(st.sampled_from(specs)))
    m = built.embeddings.size
    code = data.draw(st.integers(min_value=0, max_value=2 ** (m // 2) - 1))
    phi = list(enumerate_cm_types(built.embeddings))[code]
    p = data.draw(st.integers(min_value=0, max_value=m // 2))
    oracle = enumerate_valid_bruteforce(phi, p)
    assert enumerate_valid(phi, p) == oracle
    assert _Recount(phi).count(p) == len(oracle)


@pytest.mark.parametrize("entry, factors", MIXED_CARRIERS)
def test_enumerator_matches_oracle_on_mixed_embedding_sets(entry, factors):
    # m = 16 from two factors, at least one a coset space of a non-trivial
    # subgroup
    carrier = mixed_carrier(entry, factors)
    assert carrier.size == 16
    for phi in list(enumerate_cm_types(carrier))[::32]:
        recount = _Recount(phi)
        for p in range(9):
            oracle = enumerate_valid_bruteforce(phi, p)
            assert enumerate_valid(phi, p) == oracle
            assert recount.count(p) == len(oracle)


@cache
def table_carrier_types(index):
    entry, factors = TABLE_CARRIERS[index]
    if factors is None:
        carrier = build_instance(catalog(*entry.split(":"))).embeddings
    else:
        carrier = mixed_carrier(entry, factors)
    return carrier, list(enumerate_cm_types(carrier))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_enumerator_matches_the_oracle_in_any_order(data):
    # degrees in shuffled order, calls alternating between two types of one
    # carrier with different rows, and a translate of the first type, which
    # has its rows and so its valid monomials
    carrier, types = table_carrier_types(data.draw(st.integers(0, len(TABLE_CARRIERS) - 1)))
    phi = data.draw(st.sampled_from(types))
    other = data.draw(st.sampled_from([psi for psi in types if psi.rows != phi.rows]))
    t = data.draw(st.integers(0, len(carrier.action) - 1))
    moved = CMType(carrier, carrier.translates(phi.members)[t])
    assert moved.rows == phi.rows
    for p in data.draw(st.permutations(range(carrier.size // 2 + 1))):
        oracle = enumerate_valid_bruteforce(phi, p)
        assert enumerate_valid(phi, p) == oracle
        assert enumerate_valid(moved, p) == oracle
        assert enumerate_valid(other, p) == enumerate_valid_bruteforce(other, p)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conjugate_unions_bound_each_degree_below(data):
    # A | iota*A meets every row r in |A & r| + p - |A & r| = p points, so
    # degree p has at least C(m/2, p) valid monomials: the enumerator
    # refuses a degree with more p-subsets of phi than LISTING_CAP unbuilt
    carrier, types = table_carrier_types(data.draw(st.integers(0, len(TABLE_CARRIERS) - 1)))
    phi = data.draw(st.sampled_from(types))
    p = data.draw(st.integers(0, carrier.size // 2))
    points = [s for s in range(carrier.size) if phi.members >> s & 1]
    for chosen in data.draw(st.lists(st.permutations(points), min_size=1, max_size=5)):
        delta = mask_of(chosen[:p]) | mask_of(carrier.conj[s] for s in chosen[:p])
        assert valid_delta(phi, delta, p)
    assert len(enumerate_valid(phi, p)) >= comb(carrier.size // 2, p)


def assert_packed(phi, chosen):
    # the sum of the packed points of A holds |A & r| in the F-bit field
    # of each kept row r, in order, A | iota*A below bit m, nothing above
    carrier, m = phi.carrier, phi.carrier.size
    f = (m // 2).bit_length()
    kept = [r for r in phi.rows if r < carrier.all_mask ^ r]
    points = [s for s in range(m) if phi.members >> s & 1]
    total = sum(phi.points[points.index(s)] for s in chosen)
    a = mask_of(chosen)
    assert total & carrier.all_mask == a | mask_of(carrier.conj[s] for s in chosen)
    for k, r in enumerate(kept):
        assert total >> m + f * k & (1 << f) - 1 == (a & r).bit_count()
    assert total >> m + f * len(kept) == 0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_points_sum_to_row_profiles(data):
    carrier, types = table_carrier_types(data.draw(st.integers(0, len(TABLE_CARRIERS) - 1)))
    phi = data.draw(st.sampled_from(types))
    points = [s for s in range(carrier.size) if phi.members >> s & 1]
    assert len(phi.points) == len(points)
    for p in range(len(points) + 1):
        assert_packed(phi, data.draw(st.permutations(points))[:p])
    # types[0] takes the lesser point of each pair, so phi < iota*phi: phi
    # is a kept row, and at p = m/2 its own field reaches m/2
    first = types[0]
    assert first.members < carrier.all_mask ^ first.members
    assert_packed(first, [s for s in range(carrier.size) if first.members >> s & 1])


def test_count_is_exact_at_the_listing_cap(monkeypatch):
    # check_listing_cap lets a degree through iff it has at most
    # LISTING_CAP valid monomials, so it counts each degree exactly
    carrier, types = table_carrier_types(0)
    for phi in types[::37]:
        for p in range(carrier.size // 2 + 1):
            n = len(enumerate_valid_bruteforce(phi, p))
            monkeypatch.setattr(monomials, "LISTING_CAP", n)
            check_listing_cap(phi, [p])
            monkeypatch.setattr(monomials, "LISTING_CAP", n - 1)
            with pytest.raises(CapExceeded, match=f"degree {p} has more than {n - 1} valid monomials"):
                check_listing_cap(phi, [p])


def refuse_table(*args):
    raise AssertionError("the enumerator's table was built")


def test_degree_past_the_cap_is_refused_before_its_table(monkeypatch):
    # m = 16: phi has C(8, 4) = 70 subsets of 4 points, so with the cap at
    # 69 degree 4 is refused, by both routes, before its table is built
    _, types = table_carrier_types(0)
    phi = types[100]
    monkeypatch.setattr(monomials, "LISTING_CAP", 69)
    monkeypatch.setattr(monomials, "_profile_table", refuse_table)
    with pytest.raises(CapExceeded, match="degree 4 has more than 69 valid monomials, the listing cap"):
        enumerate_valid(phi, 4)
    with pytest.raises(CapExceeded, match="degree 4 has more than 69 valid monomials, the listing cap"):
        check_listing_cap(phi, [4])


def test_listing_cap_leaves_the_tables_usable(monkeypatch):
    # refused before the table is built (C(8, 4) = 70 subsets) and after it
    # is counted: either way the next call lists the degree
    _, types = table_carrier_types(1)
    phi = types[77]
    oracle = enumerate_valid_bruteforce(phi, 4)
    assert len(oracle) - 1 >= comb(8, 4)
    for cap in (10, len(oracle) - 1):
        monkeypatch.setattr(monomials, "LISTING_CAP", cap)
        with pytest.raises(CapExceeded, match=f"degree 4 has more than {cap} valid monomials, the listing cap"):
            enumerate_valid(phi, 4)
        monkeypatch.undo()
        assert enumerate_valid(phi, 4) == oracle


def test_independent_routes_do_not_read_the_tables(monkeypatch, z4):
    # the verifier's count, the brute force and the verifier itself must
    # agree with the enumerator without building its table or reading the
    # packed points it sums, and the verifier states validity itself; a
    # property overrides a cached value
    bundle = json.loads(written_bundle(z4, z4.degrees))
    carrier, types = table_carrier_types(3)
    enumerate_valid(types[5], 1)
    monkeypatch.setattr(monomials, "_profile_table", refuse_table)
    monkeypatch.setattr(CMType, "points", property(refuse_table))
    monkeypatch.setattr(monomials, "valid_delta", refuse_table)
    with pytest.raises(AssertionError, match="table was built"):
        types[5].points
    # and the verifier holds no name from ``monomials`` that the patches miss
    assert not [name for name, value in vars(verify).items() if getattr(value, "__module__", "") == monomials.__name__]
    assert all(result.ok for _, result in verify_document(bundle))
    recount = _Recount(types[5])
    for p in range(carrier.size // 2 + 1):
        assert recount.count(p) == len(enumerate_valid_bruteforce(types[5], p))


def test_verifier_reads_none_of_the_cm_type_tables(monkeypatch):
    # the verifier reads its rows, types and orbits off the action table, so
    # a fault in a table of CMType or in EmbeddingSet.translates cannot agree
    # with itself there.  The bundles and the brute-force counts read those
    # tables, so they are made first
    built = build_instance(catalog("dihedral", "16"))
    phi = table_carrier_types(1)[1][100]
    degrees = list(range(built.embeddings.size // 2 + 1))
    bundles = [json.loads(written_bundle(b, degrees)) for b in (built, with_cm_type(built, phi))]
    expected = [len(enumerate_valid_bruteforce(phi, p)) for p in degrees]

    def refuse(*args):
        raise AssertionError("a CMType table or the translates were read")

    for name in ("rows", "points", "class_pairs", "induced_types"):
        monkeypatch.setattr(CMType, name, property(refuse))
    monkeypatch.setattr(EmbeddingSet, "translates", refuse)
    with pytest.raises(AssertionError, match="a CMType table or the translates were read"):
        phi.rows
    with pytest.raises(AssertionError, match="a CMType table or the translates were read"):
        phi.carrier.translates(phi.members)
    for bundle in bundles:
        assert all(result.ok for _, result in verify_document(bundle))
    recount = _Recount(phi)
    assert list(map(recount.count, degrees)) == expected


def test_each_complement_pair_of_degrees_is_counted_once(monkeypatch):
    # degrees p and m/2 - p have equally many valid monomials, so the count
    # is taken once per pair, at the lower degree; C(8, p)**2 > 400 at p = 2..6
    _, types = table_carrier_types(0)
    phi = types[100]
    counted = []
    profile_table = monomials._profile_table

    def spy(phi, p):
        counted.append(p)
        return profile_table(phi, p)

    monkeypatch.setattr(monomials, "_profile_table", spy)
    monkeypatch.setattr(monomials, "LISTING_CAP", 400)
    check_listing_cap(phi, [0, 6, 2, 3, 5, 4, 8])
    assert counted == [2, 3, 4]
    # the first degree asked for is named, whether it is refused unbuilt
    # (28 = C(8, 2) subsets of phi at p = 2 and 6) or once counted (types[3]
    # has 32 valid monomials there)
    monkeypatch.setattr(monomials, "LISTING_CAP", 27)
    with pytest.raises(CapExceeded, match="degree 6 has more than 27"):
        check_listing_cap(phi, [6, 2])
    assert counted[3:] == []
    monkeypatch.setattr(monomials, "LISTING_CAP", 31)
    with pytest.raises(CapExceeded, match="degree 6 has more than 31"):
        check_listing_cap(types[3], [6, 2])
    assert counted[3:] == [2]


def test_degrees_within_the_hodge_bound_are_not_counted(monkeypatch):
    # C(m/2, p)**2 <= C(12, 6)**2 = 853,776 <= LISTING_CAP: no degree of a
    # carrier of at most 24 points is counted, so no table is built
    monkeypatch.setattr(monomials, "_profile_table", refuse_table)
    instances = catalog_defaults(24)
    assert len(instances) > 40
    for built in instances:
        check_listing_cap(built.cm_type, list(range(built.embeddings.size // 2 + 1)))


def test_degrees_within_the_hodge_bound_fit_the_listing_cap(monkeypatch):
    # a degree let through uncounted lists sum |W|**2 <= (sum |W|)**2 =
    # C(m/2, p)**2 monomials, so it cannot pass the cap once listed either:
    # exit 4 still comes before any degree is listed
    for index in range(len(TABLE_CARRIERS)):
        carrier, types = table_carrier_types(index)
        half = carrier.size // 2
        for phi in types[::29]:
            for p in range(half + 1):
                monkeypatch.setattr(monomials, "LISTING_CAP", comb(half, p) ** 2)
                assert enumerate_valid(phi, p) == enumerate_valid_bruteforce(phi, p)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_recount_counts_every_degree_in_any_order(data):
    # a document's degrees share one _Recount, which keeps no count table
    carrier, types = table_carrier_types(data.draw(st.integers(0, len(TABLE_CARRIERS) - 1)))
    phi = data.draw(st.sampled_from(types))
    recount = _Recount(phi)
    for p in data.draw(st.permutations(range(carrier.size // 2 + 1))):
        assert recount.count(p) == len(enumerate_valid_bruteforce(phi, p))


def test_count_refuses_before_summing_a_subset(monkeypatch):
    # m = 16: degree p sums 2 * C(8, p) subsets, 16 at p = 1 and 56 at p = 2;
    # a certificate past the cap fails its degree before the count runs
    _, types = table_carrier_types(0)
    phi = types[100]
    recount = _Recount(phi)
    unlisted = {p: {"p": p, "orbit_reps": [], "verdict": True} for p in (1, 2)}

    def refuse(*args):
        raise AssertionError("a count past the cap summed a subset")

    monkeypatch.setattr(verify, "HALF_TABLE_CAP", 15)
    monkeypatch.setattr(verify, "combinations", refuse)
    for p, subsets in ((1, 16), (2, 56)):
        detail = f"counting p = {p} needs {subsets} subsets, above the cap of 15"
        assert verify_certificate(unlisted[p], recount) == VerificationResult(False, "degree", detail)
    # a count of exactly the cap's subsets goes ahead, and finds the valid
    # monomials that the certificate leaves out
    monkeypatch.setattr(verify, "HALF_TABLE_CAP", 16)
    monkeypatch.setattr(verify, "combinations", combinations)
    assert verify_certificate(unlisted[1], recount).failed_check == "valid_set"
    assert recount.count(1) == len(enumerate_valid_bruteforce(phi, 1))


def test_every_listed_degree_is_counted_within_the_count_cap(monkeypatch):
    # a listed degree has at most LISTING_CAP p-subsets of phi, and the count
    # sums 2 * C(m/2, p) subsets, so the verifier counts every degree that
    # ``witness`` can certify; at m = 16 degree 2 has 28 subsets of phi
    monkeypatch.setattr(monomials, "LISTING_CAP", 40)
    monkeypatch.setattr(verify, "HALF_TABLE_CAP", 80)
    listed = set()
    for index in range(len(TABLE_CARRIERS)):
        carrier, types = table_carrier_types(index)
        for phi in types[::5]:
            recount = _Recount(phi)
            for p in range(carrier.size // 2 + 1):
                try:
                    valid = enumerate_valid(phi, p)
                except CapExceeded:
                    continue
                # the certificate ``witness`` would write passes, count included
                reps = [bits(orbit[0]) for orbit in galois_orbits(carrier, valid)]
                cert = {"p": p, "orbit_reps": reps, "verdict": True}
                assert verify_certificate(cert, recount).ok, (index, phi.members, p)
                listed.add(p)
    assert listed == {0, 1, 2, 6, 7, 8}


def test_orbits_z4(z4):
    valid = enumerate_valid(z4.cm_type, 1)
    orbits = galois_orbits(z4.embeddings, valid)
    assert orbits == [tuple(masks([[0, 2], [1, 3]]))]


def test_orbits_ea4(ea4):
    valid = enumerate_valid(ea4.cm_type, 1)
    orbits = galois_orbits(ea4.embeddings, valid)
    assert orbits == [
        tuple(masks([[0, 2], [1, 3]])),
        tuple(masks([[0, 3], [1, 2]])),
    ]


def test_orbit_of_empty_monomial(z4):
    assert galois_orbits(z4.embeddings, [0]) == [(0,)]


def test_orbits_reject_unclosed_input(z4):
    with pytest.raises(NotClosed):
        galois_orbits(z4.embeddings, [mask_of([0, 2])])  # missing {1,3}


def test_translation_and_conjugation_closure(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        half = s.size // 2
        for phi in enumerate_cm_types(s):
            for p in range(half + 1):
                valid = set(enumerate_valid(phi, p))
                for d in valid:
                    assert s.translates(d)[s.iota] in valid
                    for t in range(len(s.action)):
                        assert s.translates(d)[t] in valid


def test_complement_duality(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        half = s.size // 2
        for phi in enumerate_cm_types(s):
            for p in range(half + 1):
                dual = set(enumerate_valid(phi, half - p))
                for d in enumerate_valid(phi, p):
                    assert (s.all_mask ^ d) in dual


# carriers whose every CM-type the closed-form tests run, at every degree
CLOSED_FORM_CARRIERS = (
    "cyclic:8", "cyclic:12", "cyclic:16", "dihedral:8", "dihedral:16", "quaternion:8", "elementary-abelian:8",
    "product:cyclic.4xcyclic.4",
)


@pytest.fixture(scope="module")
def classified_types():
    """(all_mask, half, rank, per degree (hodge_dim, orbit count, exotic))
    for every CM-type of ``CLOSED_FORM_CARRIERS``."""
    out = []
    for name in CLOSED_FORM_CARRIERS:
        carrier = build_instance(catalog(*name.split(":", 1))).embeddings
        half = carrier.size // 2
        for phi in enumerate_cm_types(carrier):
            reports = [classify(phi, p) for p in range(half + 1)]
            degrees = [(r.hodge_dim, len(r.orbits), r.exotic) for r in reports]
            out.append((carrier.all_mask, half, len(orbit_matrix(phi).basis), degrees))
    assert len(out) == 4 * 2**4 + 2**6 + 3 * 2**8
    return out


def test_complement_maps_degree_p_onto_degree_half_minus_p(classified_types):
    # |~d & r| = m/2 - |d & r| for every row r, and each class difference
    # d_k changes sign: complement maps orbits onto orbits, exotic onto exotic
    for all_mask, half, _, degrees in classified_types:
        for p, (hodge_dim, orbit_count, exotic) in enumerate(degrees):
            dual = degrees[half - p]
            assert (hodge_dim, orbit_count) == dual[:2]
            assert sorted(all_mask ^ d for d in exotic) == list(dual[2])


def test_rank_maximal_type_has_binomial_hodge_dim_and_no_exotic(classified_types):
    # the rank is at most K + 1 for K class pairs, so at m/2 + 1 every class
    # is one point: the only relation is d = 0, and a valid monomial is a
    # union of p of the m/2 conjugate pairs
    maximal = [degrees for _, half, rank, degrees in classified_types if rank == half + 1]
    assert maximal
    for degrees in maximal:
        for p, (hodge_dim, _, exotic) in enumerate(degrees):
            assert (hodge_dim, exotic) == (comb(len(degrees) - 1, p), ())


def test_conjugate_pair_unions_are_valid(order8_instances):
    for built in order8_instances:
        s = built.embeddings
        pairs = [
            mask_of([x, s.conj[x]]) for x in range(s.size) if x < s.conj[x]
        ]
        for phi in enumerate_cm_types(s):
            for p in range(len(pairs) + 1):
                for chosen in combinations(pairs, p):
                    union = 0
                    for pm in chosen:
                        union |= pm
                    assert valid_delta(phi, union, p)


def test_classify_z4_top_degree(z4):
    report = classify(z4.cm_type, 2)
    assert report.hodge_dim == 1
    assert report.lefschetz_dim == 1
    assert report.exotic == ()


def test_classify_m2_instances(z2):
    report = classify(z2.cm_type, 1)
    assert report.hodge_dim == report.lefschetz_dim == 1


def test_classify_partition_invariants(order8_instances):
    for built in order8_instances:
        half = built.embeddings.size // 2
        for p in range(half + 1):
            report = classify(built.cm_type, p)
            valid = enumerate_valid(built.cm_type, p)
            # the rest of the valid monomials are divisor-generated
            assert len(set(report.exotic)) == len(report.exotic)
            assert set(report.exotic) <= set(valid)
            # the orbits partition the listing
            assert sorted(d for orbit in report.orbits for d in orbit) == valid
            assert report.hodge_dim == len(valid)


def test_classify_agrees_with_per_monomial_matching_c4xc4():
    # classify tests one member per Galois orbit for balance; at p = 2, the
    # degree of the smallest exotic hits, every CM-type gives the
    # per-monomial matching answer
    built = build_instance(catalog("product", "cyclic.4xcyclic.4"))
    with_exotic = 0
    for phi in enumerate_cm_types(built.embeddings):
        pairs = enumerate_valid_bruteforce(phi, 1)
        exotic = [d for d in enumerate_valid(phi, 2) if not has_pair_matching(d, pairs)]
        assert list(classify(phi, 2).exotic) == exotic, bits(phi.members)
        with_exotic += bool(exotic)
    assert with_exotic > 0


def test_classify_agrees_with_per_monomial_matching_mixed_carrier():
    # non-regular carrier with exotic monomials at p = 2..6
    carrier = mixed_carrier(*MIXED_CARRIERS[1])
    exotic_total = 0
    for phi in list(enumerate_cm_types(carrier))[::8]:
        pairs = enumerate_valid_bruteforce(phi, 1)
        for p in range(9):
            report = classify(phi, p)
            exotic = [d for d in report.valid if not has_pair_matching(d, pairs)]
            assert list(report.exotic) == exotic, (bits(phi.members), p)
            exotic_total += len(exotic)
    assert exotic_total == 1632


def test_class_pairs_partition_points(order8_instances):
    types = [phi for built in order8_instances for phi in enumerate_cm_types(built.embeddings)]
    types += [phi for entry in MIXED_CARRIERS for phi in enumerate_cm_types(mixed_carrier(*entry))]
    for entry in ("dihedral:24", "product:cyclic.6xcyclic.4"):
        types += random_types(entry, range(40))
    for phi in types:
        carrier = phi.carrier
        covered = 0
        for u, w in phi.class_pairs:
            assert carrier.translates(u)[carrier.iota] == w
            assert u.bit_count() == w.bit_count()
            assert not (u & w or covered & (u | w))
            covered |= u | w
            # the induced types at U's and iota*U's least points are complementary
            at_u, at_w = (phi.induced_types[(c & -c).bit_length() - 1] for c in (u, w))
            assert at_u ^ at_w == (1 << len(carrier.action)) - 1
        assert covered == carrier.all_mask
        # the classes are the points of one induced type each
        by_type: dict[int, int] = {}
        for s, induced in enumerate(phi.induced_types):
            by_type[induced] = by_type.get(induced, 0) | 1 << s
        assert sorted(by_type.values()) == sorted(c for pair in phi.class_pairs for c in pair)
        assert classify(phi, 1).valid_pair_count == len(enumerate_valid(phi, 1))


def test_exotic_hunt_script():
    hunt = runpy.run_path(str(EXOTIC_HUNT))["hunt"]
    assert hunt("product:cyclic.4xcyclic.4", 2) == 64
    assert hunt("dihedral:16", 2) == 0


def test_exotic_regression_c4xc4():
    # smallest exotic hit found by scripts/exotic_hunt.py; frozen after a
    # brute-force verified run
    built = build_instance(catalog("product", "cyclic.4xcyclic.4"))
    phi = validate_cm_type(built.embeddings, [0, 1, 2, 3, 4, 5, 14, 15])
    report = classify(phi, 2)
    assert list(report.valid) == enumerate_valid_bruteforce(phi, 2)
    assert report.hodge_dim == 32
    assert report.lefschetz_dim == 28
    assert report.valid_pair_count == 8
    assert len(report.orbits) == 6
    assert list(report.exotic) == masks(
        [[1, 3, 8, 10], [0, 2, 9, 11], [5, 7, 12, 14], [4, 6, 13, 15]]
    )
