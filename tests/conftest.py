from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from cmhodge.catalog import catalog, sweep_instances
from cmhodge.cmtypes import CMType, conjugate_pairs, validate_cm_type
from cmhodge.errors import CmhodgeError
from cmhodge.groups import EmbeddingSet, bits, build_group, embedding_set
from cmhodge.instance import BuiltInstance, InstanceSpec, build_instance
from cmhodge.monomials import enumerate_valid, galois_orbits
from cmhodge.report import canonical_json, certificate_bundle
from cmhodge.verify import VerificationResult, verify_document


def content_hash(doc: dict) -> str:
    """The content hash of a parsed document, from one encoding of the whole
    document without its hash: independent of how the package assembles
    its output and of how the verifier re-encodes it."""
    stripped = {k: v for k, v in doc.items() if k != "content_hash"}
    return hashlib.sha256(canonical_json(stripped).encode("utf-8")).hexdigest()


def group_of(spec: InstanceSpec) -> EmbeddingSet:
    """The group of an instance as ``build_group`` keeps it: the carrier of
    its left-regular action, ``action[t][g]`` = t*g."""
    return build_group(spec.order, spec.mult, spec.iota)


def relabelled(spec: InstanceSpec, sigma: list[int]) -> InstanceSpec:
    """``spec`` with every group element g renamed sigma[g]: the table,
    iota and the factors are carried across sigma, and the CM-type across
    the bijection of points gH -> sigma(g)sigma(H).  The points on both
    sides are numbered as ``embedding_set`` numbers them, factor by factor
    and cosets in order of least element, here from the tables alone."""
    n = spec.order
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[sigma[a]][sigma[b]] = sigma[spec.mult[a][b]]
    factors = tuple(tuple(sorted(sigma[h] for h in factor)) for factor in spec.factors)

    def points(table, factors) -> list[tuple[int, frozenset]]:
        cosets = [{frozenset(table[g][h] for h in factor) for g in range(n)} for factor in factors]
        return [(k, coset) for k, space in enumerate(cosets) for coset in sorted(space, key=min)]

    old_points = points(spec.mult, spec.factors)
    new_point = {point: s for s, point in enumerate(points(mult, factors))}
    cm_type = sorted(
        new_point[k, frozenset(sigma[g] for g in coset)] for k, coset in (old_points[s] for s in spec.cm_type)
    )
    return replace(spec, mult=tuple(map(tuple, mult)), iota=sigma[spec.iota], factors=factors, cm_type=tuple(cm_type))


def with_cm_type(built: BuiltInstance, phi: CMType) -> BuiltInstance:
    """``built`` with phi as its CM-type, in its spec too."""
    return replace(built, spec=replace(built.spec, cm_type=tuple(bits(phi.members))), cm_type=phi)


def written_bundle(built: BuiltInstance, degrees: list[int]) -> str:
    """The bundle ``witness`` writes for these degrees."""
    orbits = [galois_orbits(built.embeddings, enumerate_valid(built.cm_type, p)) for p in degrees]
    reps = [[orbit[0] for orbit in degree] for degree in orbits]
    return certificate_bundle(built, list(zip(degrees, reps)))


def one_degree_bundle(built: BuiltInstance, p: int) -> dict:
    """The bundle ``witness`` writes for degree p alone, parsed."""
    return json.loads(written_bundle(built, [p]))


def induced_family(built: BuiltInstance) -> list[list[int]]:
    """The induced type at every point, as a bundle writes it, once for
    all its certificates."""
    return one_degree_bundle(built, 0)["induced_types"]


def verdict(doc) -> VerificationResult:
    """The one line ``verify_document`` prints for a one-degree bundle: its
    certificate's result, or the bundle's if the bundle fails as a whole."""
    ((_, result),) = verify_document(doc)
    return result


def catalog_defaults(max_order):
    """Every catalog entry of order at most max_order that builds, with its
    default CM-type: the single groups and the products of two."""
    singles = [(name, n) for name in ("cyclic", "elementary-abelian", "dihedral") for n in range(2, max_order + 1)]
    singles.append(("quaternion", 8))
    entries = [(name, str(n)) for name, n in singles]
    entries += [("product", f"{a}.{n}x{b}.{k}") for a, n in singles for b, k in singles if n * k <= max_order]
    built = []
    for entry in entries:
        try:
            built.append(build_instance(catalog(*entry)))
        except CmhodgeError:
            pass
    return built


# non-regular carriers: several factors, non-normal subgroups
MIXED_CARRIERS = [("dihedral:16", [[0, 8], [0, 9]]), ("cyclic:12", [[0, 4, 8], [0]])]


def mixed_carrier(entry, factors):
    spec = catalog(*entry.split(":"))
    return embedding_set(build_group(spec.order, spec.mult, spec.iota), factors)


def random_types(entry: str, seeds):
    """The default type of a catalog entry, then one random type per seed."""
    built = build_instance(catalog(*entry.split(":")))
    yield built.cm_type
    pairs = conjugate_pairs(built.embeddings)
    for seed in seeds:
        rng = random.Random(seed)
        yield validate_cm_type(built.embeddings, [rng.choice(pair) for pair in pairs])


@pytest.fixture(scope="session")
def order8_instances() -> list[BuiltInstance]:
    """Every catalog group of order <= 8 with its default instance."""
    return [build_instance(spec) for spec in sweep_instances(8)]


@pytest.fixture(scope="session")
def m12_instances() -> list[BuiltInstance]:
    return [build_instance(spec) for spec in sweep_instances(12)]


@pytest.fixture(scope="session")
def z4() -> BuiltInstance:
    """Regular instance on the cyclic group of order 4 (iota = 2, phi = {0,1})."""
    return build_instance(catalog("cyclic", "4"))


@pytest.fixture(scope="session")
def ea4() -> BuiltInstance:
    """Regular instance on (Z/2)^2 (iota = the sum of the generators)."""
    return build_instance(catalog("elementary-abelian", "4"))


@pytest.fixture(scope="session")
def z2() -> BuiltInstance:
    return build_instance(catalog("cyclic", "2"))
