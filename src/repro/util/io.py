"""Crash-safe file I/O primitives.

Every whole-file artifact the project persists — trace/probe store
entries and bench reports — goes through :func:`write_atomic_bytes`:
readers either see the previous complete file or the new complete file,
never a torn write, even when the writer is killed mid-write or several
processes race on the same path.
"""

from __future__ import annotations

import itertools
import os

__all__ = ["write_atomic", "write_atomic_bytes"]

#: Per-process sequence for temp names; combined with the pid it never
#: collides between live writers racing on one entry.
_tmp_counter = itertools.count()


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (see :func:`write_atomic_bytes`)."""
    write_atomic_bytes(path, text.encode("utf-8"))


def write_atomic_bytes(
    path: str | os.PathLike, data: bytes, *, durable: bool = True
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in ``path``'s directory so the final rename stays
    on one filesystem and is atomic; a crash at any point leaves either
    the old content or the new, and the temp file is removed on failure.

    ``durable=True`` fsyncs the temp file before the rename, so the new
    content also survives power loss.  ``durable=False`` skips that fsync:
    the rename stays atomic for every *live* reader, but a machine crash
    can leave a renamed file with missing tail pages.  Only callers whose
    readers detect and recover from torn content (the checksummed,
    self-healing trace store) may opt out.
    """
    target = os.fspath(path)
    tmp = f"{target}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if durable:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
