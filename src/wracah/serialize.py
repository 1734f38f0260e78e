"""Deterministic text encodings: canonical JSON, CSV rows, matrix dumps.

Floats are rendered with 17 significant digits (lossless for binary64) and
dict keys keep their insertion order, so repeated runs produce byte-identical
output.  `fmt_cell` decides how one value reads in CSV and in the CLI's
text: a string as it is, None as nothing, booleans as true/false, integers
in decimal, floats by `fmt_float` and complex values as re+imi.
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
    "complex_record",
    "matrix_to_csv",
    "matrix_to_json_entries",
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
    return f"{fmt_float(z.real)}{z.imag:+.17g}i"


def complex_record(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, numbers.Complex):
        _emit(complex_record(obj), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, value in enumerate(seq):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical JSON with insertion-ordered keys and 17-digit floats."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def matrix_to_csv(mat: np.ndarray) -> str:
    """One matrix row per line, complex entries rendered as re+imi."""
    mat = np.asarray(mat)
    lines = []
    for row in np.atleast_2d(mat):
        lines.append(",".join(fmt_complex(entry) for entry in row))
    return "\n".join(lines) + "\n"


def matrix_to_json_entries(mat: np.ndarray) -> list[list[dict]]:
    mat = np.asarray(mat)
    return [[complex_record(entry) for entry in row] for row in np.atleast_2d(mat)]


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
