"""Artifact writes that leave either the old file or the new one, never a part.

``write_atomic`` writes a temporary file beside the target and renames it
over the target with ``os.replace``. Nothing is fsync'd: this guards
against a failing or interrupted process, not against a power loss.
"""

from __future__ import annotations

import os


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
