"""Canonical, byte-stable serialization for reports.

Dict keys keep insertion order, floats print at 17 significant digits, and
no whitespace depends on the environment, so identical payloads always
produce identical bytes.
"""

from __future__ import annotations

import math

from .errors import InvalidArgument


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


# the quote, the backslash and the control characters, as JSON escapes
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\",
            **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _float_column(values: list) -> list:
    """``_fmt_float`` of each value of a list of floats, from one "%.17g"
    format of the whole list, which is format(x, ".17g") of each value: a
    value printed without a point or an exponent (an integral value, nan or
    an infinity) goes through ``_fmt_float``, and every other text is
    already its ".17g" form."""
    texts = ("%.17g," * len(values) % tuple(values)).split(",")
    return [text if "." in text or "e" in text else _fmt_float(x)
            for text, x in zip(texts, values)]


# the formatter of a column whose values all have one of these exact types;
# a column of floats goes through ``_float_column``
_COLUMN_FORMATS = {int: str, str: _escape}


def _column_json(values: list) -> list:
    """The canonical JSON of each value of a column: one formatting pass
    when every value has the same exact type float, int or str, and the
    per-value path otherwise (bools, numpy scalars, containers, mixes)."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return _float_column(values)
    return list(map(_COLUMN_FORMATS.get(kind) or canonical_json, values))


def _rows_json(rows) -> str:
    """A list of dicts sharing one key order, rendered column by column:
    each key escaped once, each column formatted in one pass."""
    keys = list(rows[0])
    template = "{" + ",".join(_escape(str(k)).replace("%", "%%") + ":%s" for k in keys) + "}"
    columns = [_column_json([row[k] for row in rows]) for k in keys]
    return "[" + ",".join(map(template.__mod__, zip(*columns))) + "]"


def _shares_keys(rows) -> bool:
    """True for a nonempty list of dicts whose keys come in one order."""
    if not rows or not all(type(row) is dict for row in rows):
        return False
    keys = list(rows[0])
    return all(list(row) == keys for row in rows)


def canonical_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag])
    if isinstance(obj, dict):
        items = ",".join(f"{_escape(str(k))}:{canonical_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if _shares_keys(obj):
            return _rows_json(obj)
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return canonical_json(obj.item())
    raise InvalidArgument(f"cannot serialize object of type {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        s = _fmt_float(v)
        return s.strip('"')
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v:
            return '"' + v.replace('"', '""') + '"'
        return v
    if hasattr(v, "item"):
        return _csv_cell(v.item())
    return str(v)


def canonical_csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    return "\n".join(lines) + "\n"
