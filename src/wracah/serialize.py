"""Deterministic text encodings: canonical JSON, table rows, matrix dumps.

Floats are rendered with 17 significant digits (lossless for binary64) and
dict keys keep their insertion order, so repeated runs produce byte-identical
output.  `dumps` renders an array a row at a time, a finite complex row in
one pass, so no dict per entry is built; a complex value reads {"re", "im"}.
`fmt_cell` decides how one value reads in CSV and in the CLI's text: a
string as it is, None as nothing, booleans as true/false, integers in
decimal, floats by `fmt_float` and complex values as re+imi.
`render_table` writes a table's rows, as CSV, text or JSON records, straight
from its array and the labels of its axes.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "fmt_float",
    "fmt_complex",
    "fmt_cell",
    "dumps",
    "matrix_to_csv",
    "render_table",
]


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidArgumentError(f"refusing to serialize non-finite float {x!r}")
    return f"{x:.17g}"


def fmt_complex(z: complex) -> str:
    """Fixed 're+imi' rendering used in CSV columns."""
    z = complex(z)
    real, imag = fmt_float(z.real), fmt_float(z.imag)
    return f"{real}{'' if imag.startswith('-') else '+'}{imag}i"


def dumps(obj) -> str:
    """Canonical JSON with insertion-ordered keys and 17-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return fmt_float(obj)
    if isinstance(obj, numbers.Complex):
        return f'{{"re": {fmt_float(obj.real)}, "im": {fmt_float(obj.imag)}}}'
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(key))}: {dumps(value)}" for key, value in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim > 1:
            return "[" + ", ".join(map(dumps, obj)) + "]"
        if obj.ndim == 1 and obj.dtype.kind == "c" and np.isfinite(obj).all():
            pairs = zip(obj.real.tolist(), obj.imag.tolist())
            return "[" + ", ".join(f'{{"re": {x:.17g}, "im": {y:.17g}}}' for x, y in pairs) + "]"
        # a 0-d array, a real row, or a row with a non-finite entry, which the scalar path names
        return dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def matrix_to_csv(mat: np.ndarray) -> str:
    """One matrix row per line, complex entries rendered as re+imi."""
    return "".join(",".join(map(fmt_complex, row.tolist())) + "\n" for row in np.atleast_2d(mat))


def fmt_cell(value) -> str:
    """One value as a CSV cell or a text field; a string, already rendered, is checked first."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return fmt_float(float(value))
    if isinstance(value, numbers.Complex):
        return fmt_complex(value)
    return str(value)


def render_table(fmt: str, axes, values=None, value: str | None = "value") -> str:
    """A table as csv lines under a header, text `col=value` lines ("(no records)" for none), or json records.

    axes holds one mapping per axis, from each of its columns to its cells,
    one per index along the axis; an axis of length one is a column every
    row shares.  Each cell is rendered once, by fmt_cell (dumps in json), and
    the rows walk the axes in C order, each ending in its entry of the
    complex array values, if given: as one re+imi column named value, or as
    columns re and im when value is None, and always in json.
    """
    enc, sep, key = {
        "json": (dumps, ", ", lambda col: f"{json.dumps(col)}: "),
        "csv": (fmt_cell, ",", lambda col: ""),
        "text": (fmt_cell, " ", lambda col: f"{col}="),
    }[fmt]
    columns = [col for axis in axes for col in axis]
    cells = [[sep.join(key(col) + enc(x) for col, x in zip(axis, row)) for row in zip(*axis.values())] for axis in axes]
    rows = map(sep.join, itertools.product(*cells))
    if values is not None:
        entries = zip(rows, np.ravel(values).tolist(), strict=True)
        if value is None or fmt == "json":
            columns += ["re", "im"]
            key_re, key_im = key("re"), key("im")
            rows = (f"{row}{sep}{key_re}{fmt_float(z.real)}{sep}{key_im}{fmt_float(z.imag)}" for row, z in entries)
        else:
            columns.append(value)
            head = key(value)
            rows = (f"{row}{sep}{head}{fmt_complex(z)}" for row, z in entries)
    if fmt == "json":
        return f"[{', '.join(f'{{{row}}}' for row in rows)}]"
    if fmt == "csv":
        return "\n".join([",".join(columns), *rows, ""])
    return "\n".join([*rows, ""]) or "(no records)\n"
