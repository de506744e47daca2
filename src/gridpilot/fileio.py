"""The file boundary: atomic artifact writes and typed reads of parsed JSON.

``write_atomic`` writes a temporary file beside the target and renames it
over the target with ``os.replace``. Nothing is fsync'd: this guards
against a failing or interrupted process, not against a power loss.
``write_csv`` is the one encoder of a CSV artifact.
``from_json`` is the one type check every JSON reader (config, checkpoint
metadata, scenario sidecar) puts between a parsed value and a dataclass.
"""

from __future__ import annotations

import math
import os
import sys
import typing


def write_atomic(path, *chunks: str | bytes) -> None:
    """Replace ``path`` with the concatenated ``chunks`` (text as UTF-8).

    On any failure the temporary file is removed and the error re-raised.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header``'s names joined by ", ", then each of ``rows`` with its
    cells joined by ",", each line ending in a newline, through ``write_atomic``
    once ``rows`` is consumed. A float cell (np.float64 is one) is written as
    ``repr(float(cell))``, the shortest text that reads back to it; others with ``str``."""
    lines = [", ".join(header)]
    lines.extend(",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row)
                 for row in rows)
    write_atomic(path, "\n".join(lines), "\n")


def from_json(hint, value, where: str, **fixed):
    """``value``, parsed from JSON, as type ``hint``, or ValueError naming ``where``.

    A dataclass takes an object of fitting field values and is built from it
    plus ``fixed``; a float takes an integer or a finite real; a tuple takes
    a list (returned as a tuple); int, bool, str and None take only their own
    JSON kind."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hasattr(hint, "__dataclass_fields__") and isinstance(value, dict):
        hints = typing.get_type_hints(hint)
        return hint(**fixed, **{k: from_json(hints[k], v, f"{where}.{k}") if k in hints else v
                                for k, v in value.items()})
    if origin is tuple and isinstance(value, list):
        items = args[:1] * len(value) if args[-1] is ... else args
        if len(value) == len(items):
            return tuple(from_json(h, v, where) for h, v in zip(items, value))
    elif args and origin is not tuple:  # a union, such as float | None
        for arg in args:
            try:
                return from_json(arg, value, where)
            except ValueError:
                pass
    elif hint is float:
        if (type(value) is float and math.isfinite(value)
                or type(value) is int and abs(value) <= sys.float_info.max):
            return value
    elif type(value) is hint:
        return value
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ValueError(f"{where} must be of type {name}, got {value!r}")
