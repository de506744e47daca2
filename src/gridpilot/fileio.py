"""The file boundary: atomic artifact writes and typed reads of JSON.

``write_atomic`` writes a temporary file beside the target and renames it
over the target with ``os.replace``. Nothing is fsync'd: this guards
against a failing or interrupted process, not against a power loss.
``write_csv`` and ``write_json`` are the one encoder of a CSV and of a JSON
artifact. ``read_json`` is the one reader of a JSON file (config, feeder,
scenario sidecar), and ``from_json`` the one type check every JSON reader
(also of checkpoint metadata) puts between a parsed value and a dataclass.
"""

from __future__ import annotations

import json
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


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys, through ``write_atomic``."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path, error: type[Exception], what: str) -> dict:
    """The JSON object in the UTF-8 file ``path``, or ``error`` naming ``what``
    when the file cannot be read, is not UTF-8 JSON, nests too deep to parse
    or holds anything but an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return value


def from_json(hint, value, where: str, **fixed):
    """``value``, parsed from JSON, as type ``hint``, or ValueError naming ``where``.

    A dataclass takes an object of fitting field values and is built from it
    plus ``fixed``; a float takes an integer or a finite real; a tuple takes
    a list (returned as a tuple); int, bool, str and None take only their own
    JSON kind."""
    # the plain hints come first: they are most of the calls, and need no typing call
    if hint is float:
        if (type(value) is float and math.isfinite(value)
                or type(value) is int and abs(value) <= sys.float_info.max):
            return value
    elif type(value) is hint:
        return value
    elif hasattr(hint, "__dataclass_fields__") and isinstance(value, dict):
        hints = typing.get_type_hints(hint)
        return hint(**fixed, **{k: from_json(hints[k], v, f"{where}.{k}") if k in hints else v
                                for k, v in value.items()})
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            args = typing.get_args(hint)
            items = args[:1] * len(value) if args[-1] is ... else args
            if len(value) == len(items):
                return tuple(from_json(h, v, where) for h, v in zip(items, value))
    else:  # a union, such as float | None (any other hint has no args)
        for arg in typing.get_args(hint):
            try:
                return from_json(arg, value, where)
            except ValueError:
                pass
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ValueError(f"{where} must be of type {name}, got {value!r}")
