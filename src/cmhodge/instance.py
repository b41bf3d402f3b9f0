"""Instance specifications: the line-oriented input format, its parser and
serializer, and construction of the validated in-memory objects.

Format (``#`` starts a comment, blank lines are ignored)::

    name my-instance          # optional
    group 4                   # group order; the table follows
    table
    0 1 2 3
    1 2 3 0
    2 3 0 1
    3 0 1 2
    iota 2
    factor 0                  # subgroup element list, one line per factor
    cmtype 0 1                # point indices into the embedding set
    degrees all               # or a list of p values; optional, default all

Exactly one ``group``/``table``/``iota``/``cmtype`` each; at least one
``factor``.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .cmtypes import CMType, validate_cm_type
from .errors import CmhodgeError, ParseError, ValidationError
from .groups import EmbeddingSet, build_group, embedding_set


class InstanceSpec(NamedTuple):
    name: str
    order: int
    mult: tuple[tuple[int, ...], ...]
    iota: int
    factors: tuple[tuple[int, ...], ...]
    cm_type: tuple[int, ...]
    degrees: tuple[int, ...] | None  # None means "all"


class BuiltInstance(NamedTuple):
    spec: InstanceSpec
    embeddings: EmbeddingSet
    cm_type: CMType

    @property
    def degrees(self) -> list[int]:
        if self.spec.degrees is None:
            return list(range(self.embeddings.size // 2 + 1))
        return list(self.spec.degrees)


def build_instance(spec: InstanceSpec) -> BuiltInstance:
    """Construct and validate the group, embedding set and CM-type; wraps
    any structural failure in ``ValidationError`` naming the cause."""
    try:
        embeddings = embedding_set(build_group(spec.order, spec.mult, spec.iota), spec.factors)
        phi = validate_cm_type(embeddings, spec.cm_type)
    except CmhodgeError as exc:
        raise ValidationError(f"{type(exc).__name__}: {exc}") from exc
    if spec.degrees is not None:
        half = embeddings.size // 2
        for p in spec.degrees:
            if not 0 <= p <= half:
                raise ValidationError(f"degree {p} outside 0..{half}")
    return BuiltInstance(spec, embeddings, phi)


def decimals(words: list[str]) -> list[int]:
    """The integers that plain decimal tokens ``-?[0-9]+`` name: of all that
    ``int`` takes ("1_0", "+3", " 3", non-ASCII digits), only those hold ASCII digits and "-" alone."""
    values = list(map(int, words))
    digits = "".join(words).replace("-", "")
    if words and not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not decimal integers: {words!r}")
    return values


def decimal(text: str) -> int:
    return decimals([text])[0]


def _ints(parts: list[str], line_no: int) -> list[int]:
    try:
        return decimals(parts)
    except ValueError as exc:
        raise ParseError(f"expected integers, got {parts!r}", line_no) from exc


def _distinct(parts: list[str], what: str, line_no: int) -> tuple[int, ...]:
    # a repeat would be computed or written twice, or dropped without a word
    values = tuple(_ints(parts, line_no))
    if len(set(values)) < len(values):
        raise ParseError(f"{what} {Counter(values).most_common(1)[0][0]} is repeated", line_no)
    return values


def parse_instance(text: str) -> InstanceSpec:
    """Parse the documented line format; errors carry the line number."""
    name = ""
    order: int | None = None
    rows: list[tuple[int, ...]] = []
    iota: int | None = None
    factors: list[tuple[int, ...]] = []
    cm_type: tuple[int, ...] | None = None
    degrees: tuple[int, ...] | None = None

    lines = text.splitlines()
    # (line number, words) of each line that keeps a word once its comment is cut
    cut = ((n, line.split("#", 1)[0].split()) for n, line in enumerate(lines, 1))
    stream = ((n, words) for n, words in cut if words)
    for line_no, (key, *parts) in stream:
        if key == "name":
            name = " ".join(parts)
        elif key == "group":
            if order is not None:
                raise ParseError("duplicate group line", line_no)
            if len(parts) != 1:
                raise ParseError("group wants exactly one integer (the order)", line_no)
            order = _ints(parts, line_no)[0]
        elif key == "table":
            if order is None:
                raise ParseError("table must come after the group line", line_no)
            if rows:
                raise ParseError("duplicate table", line_no)
            if parts:
                raise ParseError("table takes no value; its rows follow", line_no)
            for r in range(order):
                row_no, words = next(stream, (len(lines), None))
                if words is None:
                    raise ParseError(f"table row {r} missing", row_no)
                row = _ints(words, row_no)
                if len(row) != order:
                    raise ParseError(f"table row has {len(row)} entries, expected {order}", row_no)
                rows.append(tuple(row))
        elif key == "iota":
            if iota is not None:
                raise ParseError("duplicate iota line", line_no)
            if len(parts) != 1:
                raise ParseError("iota wants exactly one integer", line_no)
            iota = _ints(parts, line_no)[0]
        elif key == "factor":
            factors.append(_distinct(parts, "element", line_no))
        elif key == "cmtype":
            if cm_type is not None:
                raise ParseError("duplicate cmtype line", line_no)
            cm_type = _distinct(parts, "point", line_no)
        elif key == "degrees":
            if not parts:
                # zero degrees would make every command a vacuous success
                raise ParseError("degrees wants 'all' or at least one degree", line_no)
            if parts == ["all"]:
                degrees = None
            else:
                degrees = _distinct(parts, "degree", line_no)
        else:
            raise ParseError(f"unknown directive {key!r}", line_no)

    if order is None:
        raise ParseError("missing group line")
    if len(rows) != order:
        raise ParseError("missing or incomplete table")
    if iota is None:
        raise ParseError("missing iota line")
    if not factors:
        raise ParseError("at least one factor line is required")
    if cm_type is None:
        raise ParseError("missing cmtype line")
    return InstanceSpec(
        name=name,
        order=order,
        mult=tuple(rows),
        iota=iota,
        factors=tuple(factors),
        cm_type=cm_type,
        degrees=degrees,
    )


def serialize_instance(spec: InstanceSpec) -> str:
    out = []
    if spec.name:
        out.append(f"name {spec.name}")
    out.append(f"group {spec.order}")
    out.append("table")
    for row in spec.mult:
        out.append(" ".join(str(x) for x in row))
    out.append(f"iota {spec.iota}")
    for factor in spec.factors:
        out.append("factor " + " ".join(str(x) for x in factor))
    out.append("cmtype " + " ".join(str(x) for x in spec.cm_type))
    out.append("degrees " + ("all" if spec.degrees is None else " ".join(map(str, spec.degrees))))
    return "\n".join(out) + "\n"
