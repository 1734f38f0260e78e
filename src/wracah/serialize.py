"""Deterministic text encodings: canonical JSON, CSV rows, matrix dumps.

Floats are rendered with 17 significant digits (lossless for binary64) and
dict keys keep their insertion order, so repeated runs produce byte-identical
output.  `dumps` renders an array a row at a time, a finite complex row in
one pass, so no dict per entry is built; a complex value reads {"re", "im"}.
`fmt_cell` decides how one value reads in CSV and in the CLI's text: a
string as it is, None as nothing, booleans as true/false, integers in
decimal, floats by `fmt_float` and complex values as re+imi.
"""

from __future__ import annotations

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
    "rows_to_csv",
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


def rows_to_csv(columns: list[str], rows) -> str:
    """A header of columns, then one line per row (a dict keyed by column), each cell by fmt_cell."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_cell(row[col]) for col in columns))
    return "\n".join(lines) + "\n"
