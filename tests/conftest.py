from __future__ import annotations

import hashlib

import pytest

from cmhodge.catalog import catalog, sweep_instances
from cmhodge.instance import BuiltInstance, build_instance
from cmhodge.report import canonical_json


def content_hash(doc: dict) -> str:
    """The content hash of a parsed document, from one encoding of the whole
    document without its hash: independent of how the package assembles
    its output and of how the verifier re-encodes it."""
    stripped = {k: v for k, v in doc.items() if k != "content_hash"}
    return hashlib.sha256(canonical_json(stripped).encode("utf-8")).hexdigest()


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
