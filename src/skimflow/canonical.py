"""Canonical JSON shared by file headers, configs and report emitters,
and the CSV the report emitters write.

Canonical form: compact separators, no key sorting (construction order is
the declared order), UTF-8 without ASCII escaping, and no NaN/Infinity.
Identical objects always serialize to identical bytes. `loads` reads
JSON as strictly as `dumps` writes it.
"""

from __future__ import annotations

import csv
import io
import json


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def dump_bytes(obj) -> bytes:
    return dumps(obj).encode("utf-8")


def loads(text: str):
    """Parse JSON text, rejecting what `json.loads` lets through: a key
    repeated within one object (it keeps the last) and `Infinity`,
    `-Infinity` or `NaN`, and nesting too deep for the parser's recursion.
    Raises `ValueError`, a `json.JSONDecodeError` for bad syntax."""
    try:
        return json.loads(text, parse_constant=_non_finite, object_pairs_hook=_unique)
    except RecursionError as exc:
        raise ValueError("JSON nests too deeply") from exc


def _non_finite(literal):
    raise ValueError(f"{literal} is not a JSON number")


def _unique(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def csv_text(rows) -> str:
    """Rows as CSV: a field is quoted only when it holds a comma, a quote
    or a `\n`, lines end in `\n`, and a float is written as its `repr`."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
