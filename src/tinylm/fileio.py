"""Atomic file writes: an error or a crash mid-write never leaves a partial
file under the target name."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Write ``path`` through a temp file in the same directory.

    Yields the temp file opened with ``mode`` ("wb" or "w") and ``kwargs``.
    When the block finishes, ``os.replace`` moves it onto ``path`` in one
    step; when the block or the replace raises, the temp file is removed and
    ``path`` keeps its previous contents, or stays absent.
    """
    path = Path(path)
    # unique among live writers: one per process and thread at a time
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
