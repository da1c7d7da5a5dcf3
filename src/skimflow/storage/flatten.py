"""Flattening nested record schemas to flat column lists.

Nested record paths join with SEPARATOR (met.pt -> met_pt). Arrays are
never auto-flattened; collection contents reach ntuples only through
projection expressions (size/count/max/min/sum).
"""

from __future__ import annotations

from ..errors import NameCollision
from ..schema import Primitive, Record, Schema

SEPARATOR = "_"


def flatten_paths(schema: Schema) -> list[tuple[str, str]]:
    """Return [(column name, dotted source path), ...] for every scalar
    leaf outside arrays.

    Raises NameCollision when two distinct paths flatten to the same name.
    """
    out: list[tuple[str, str]] = []
    seen: dict[str, str] = {}

    def walk(node, column: str, dotted: str) -> None:
        if isinstance(node, Primitive):
            if column in seen:
                raise NameCollision(
                    f"column {column!r} produced by both {seen[column]!r} and {dotted!r}"
                )
            seen[column] = dotted
            out.append((column, dotted))
        elif isinstance(node, Record):
            for name, child in node.fields:
                walk(
                    child,
                    name if not column else column + SEPARATOR + name,
                    name if not dotted else dotted + "." + name,
                )

    walk(schema.root, "", "")
    return out
