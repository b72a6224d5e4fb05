"""Atomic artifact writes shared by every observability exporter.

A crashed or interrupted run must never leave a *truncated* metrics
snapshot, span trace, or database export behind: a half-written JSON
file is worse than none, because downstream tooling (the bench gate,
the results database, Perfetto) trusts whatever parses.  The protocol
is the standard one the campaign journal already uses: write the whole
payload to a same-directory ``.tmp`` sibling, optionally fsync, then
``os.replace`` it into place -- readers see either the old complete
file or the new complete file, never a prefix.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str, text: str, fsync: bool = False) -> None:
    """Atomically replace ``path`` with ``text``.

    The temporary sibling lives in the destination directory (cross-
    device renames are not atomic), is uniquely named (concurrent
    writers cannot corrupt each other's staging file), and is cleaned
    up on any failure.  ``fsync=True`` makes the write durable: the
    payload is fsynced before the rename and the directory after it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        # the rename lives in the directory entry: without this, a power
        # loss can leave the old file (or none) behind a synced payload
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
