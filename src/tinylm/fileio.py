"""Artifact output, in one place.

``write_atomic`` is the only code in tinylm that opens a file for writing.
It streams byte chunks through a temp file and moves that onto the target
with ``os.replace``, so an error or a crash mid-write never leaves a partial
file under the target name. It hashes the bytes as it writes them, so a run
records each artifact's SHA-256 without reading the file back.

``csv_text`` formats every CSV artifact: floats as ``repr`` (the shortest
string that reads back to the same float), everything else as ``str``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path


def write_atomic(path, chunks) -> tuple[str, int]:
    """Write the concatenation of ``chunks`` (bytes-like, e.g. bytes or a
    contiguous numpy array) to ``path``; return its (sha256 hex, byte count).

    When ``chunks`` or the replace raises, the temp file is removed and
    ``path`` keeps its previous contents, or stays absent.
    """
    path = Path(path)
    # unique among live writers: one per process and thread at a time
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    digest, nbytes = hashlib.sha256(), 0
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                nbytes += fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest(), nbytes


def csv_text(header, rows) -> str:
    """A header line and one line per row, each ending in a newline."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"
