"""Built-in instances: small groups with a central involution, taken with
the trivial subgroup (the full-Galois case, where the CM-algebra is the
whole splitting field) and a canonical default CM-type, the lower point of
each conjugate pair.
"""

from __future__ import annotations

from .errors import NoCentralInvolution, UnknownCatalogEntry
from .groups import check_order
from .instance import InstanceSpec, decimal

CATALOG_NAMES = ("cyclic", "elementary-abelian", "dihedral", "quaternion", "product")


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def elementary_abelian_table(size: int) -> list[list[int]]:
    if size < 2 or size & (size - 1):
        raise UnknownCatalogEntry(f"elementary-abelian size must be a power of 2, got {size}")
    return [[a ^ b for b in range(size)] for a in range(size)]


def dihedral_table(order: int) -> list[list[int]]:
    """Dihedral group of the given order; element r^i s^j has index i + (order/2) j."""
    if order < 4 or order % 2:
        raise UnknownCatalogEntry(f"dihedral order must be even and >= 4, got {order}")
    rot = order // 2

    def mul(x: int, y: int) -> int:
        i1, j1 = x % rot, x // rot
        i2, j2 = y % rot, y // rot
        i = (i1 + i2) % rot if j1 == 0 else (i1 - i2) % rot
        return i + rot * ((j1 + j2) % 2)

    return [[mul(a, b) for b in range(order)] for a in range(order)]


def quaternion_table() -> list[list[int]]:
    """Quaternion group of order 8: indices 0..7 are 1,-1,i,-i,j,-j,k,-k."""
    # unit products with sign: table over {1:0, i:1, j:2, k:3}
    unit_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }

    def mul(x: int, y: int) -> int:
        ux, sx = x // 2, 1 - 2 * (x % 2)
        uy, sy = y // 2, 1 - 2 * (y % 2)
        u, s = unit_mul[(ux, uy)]
        return 2 * u + (0 if s * sx * sy == 1 else 1)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def _product_table(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    n = n1 * n2

    def mul(x: int, y: int) -> int:
        a1, a2 = divmod(x, n2)
        b1, b2 = divmod(y, n2)
        return t1[a1][b1] * n2 + t2[a2][b2]

    return [[mul(a, b) for b in range(n)] for a in range(n)]


def _order(name: str, params: str) -> int:
    try:
        n = decimal(params)
    except ValueError:
        raise UnknownCatalogEntry(f"{name} wants an integer order, got {params!r}") from None
    return check_order(n)


def _group_data(name: str, params: str) -> tuple[str, list[list[int]], int]:
    """Resolve a catalog entry to (label, table, iota index)."""
    if name == "cyclic":
        n = _order(name, params)
        if n % 2:
            raise NoCentralInvolution(f"cyclic group of odd order {n} has no involution")
        return f"cyclic:{n}", cyclic_table(n), n // 2
    if name == "elementary-abelian":
        size = _order(name, params)
        # iota = the all-ones vector
        return f"elementary-abelian:{size}", elementary_abelian_table(size), size - 1
    if name == "dihedral":
        order = _order(name, params)
        table = dihedral_table(order)
        if order % 4:
            raise NoCentralInvolution(
                f"dihedral group of order {order} has trivial center"
            )
        # the half-turn rotation is the unique central involution
        return f"dihedral:{order}", table, order // 4
    if name == "quaternion":
        if params not in ("", "8"):
            raise UnknownCatalogEntry(f"quaternion only comes in order 8, got {params}")
        return "quaternion:8", quaternion_table(), 1
    if name == "product":
        # e.g. "cyclic.4xcyclic.2"; iota comes from the first factor
        parts = params.split("x")
        if len(parts) != 2:
            raise UnknownCatalogEntry(f"product wants two factors, got {params!r}")
        specs = []
        for which, part in zip(("first", "second"), parts):
            inner_name, _, inner_params = part.partition(".")
            if not inner_name:
                raise UnknownCatalogEntry(
                    f"the {which} factor of product {params!r} has no name; expected NAME.PARAMSxNAME.PARAMS"
                )
            specs.append(_group_data(inner_name, inner_params))
        (label1, t1, iota1), (label2, t2, _) = specs
        check_order(len(t1) * len(t2))
        table = _product_table(t1, t2)
        iota = iota1 * len(t2)  # (iota1, identity)
        return f"product:{params}", table, iota
    raise UnknownCatalogEntry(f"unknown catalog entry {name!r}")


def default_cm_type(table: list[list[int]], iota: int) -> list[int]:
    """The canonical CM-type on the regular point set: the lower point of
    each conjugate pair {s, iota*s}, which is the first type
    ``enumerate_cm_types`` yields."""
    return [s for s, c in enumerate(table[iota]) if s < c]


def catalog(name: str, params: str = "") -> InstanceSpec:
    """Deterministic built-in instance for a catalog entry.  Every table made
    here has the identity at index 0; ``build_instance`` checks the group."""
    label, table, iota = _group_data(name, params)
    return InstanceSpec(
        name=label,
        order=len(table),
        mult=tuple(tuple(row) for row in table),
        iota=iota,
        factors=((0,),),
        cm_type=tuple(default_cm_type(table, iota)),
        degrees=None,
    )


def sweep_instances(max_order: int = 8) -> list[InstanceSpec]:
    """The standard sweep list: every group of order <= max_order admitting
    a central involution, one instance each (trivial subgroup)."""
    entries = [
        ("cyclic", "2"),
        ("cyclic", "4"),
        ("elementary-abelian", "4"),
        ("cyclic", "6"),
        ("cyclic", "8"),
        ("elementary-abelian", "8"),
        ("product", "cyclic.4xcyclic.2"),
        ("dihedral", "8"),
        ("quaternion", "8"),
        ("cyclic", "10"),
        ("cyclic", "12"),
    ]
    out = []
    for name, params in entries:
        spec = catalog(name, params)
        if spec.order <= max_order:
            out.append(spec)
    return out
