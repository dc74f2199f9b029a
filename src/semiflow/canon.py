"""Canonical, byte-stable serialization for reports.

One ``json.dumps`` call: dict keys keep insertion order, no whitespace is
added, every float prints as its shortest round-trip repr, and the text is
ASCII, so identical payloads always produce identical bytes.  A complex
prints as [re, im] and a numpy scalar as its Python value.  Reports hold
only finite numbers; a nan or an infinity is a numerical failure.
"""

from __future__ import annotations

import json

from .errors import InvalidArgument, NumericalFailure


def _default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    raise InvalidArgument(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False, default=_default)
    except InvalidArgument:  # from _default, and a ValueError too
        raise
    except ValueError as exc:  # a nan or an infinity
        raise NumericalFailure(f"a report value is not finite: {exc}") from exc


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v:
            return '"' + v.replace('"', '""') + '"'
        return v
    return canonical_json(v)


def canonical_csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    return "\n".join(lines) + "\n"
