"""Output files written whole or not at all.

Each file is written to a temporary file in its own directory, flushed to
disk, and then renamed over the destination with ``os.replace``, which is
atomic on POSIX and Windows. A reader or a crash mid-write sees either the
previous file or the complete new one, never a truncated mix.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_output(path: str | Path) -> Iterator[BinaryIO]:
    """Binary handle whose bytes replace ``path`` when the block completes.

    If the block raises, ``path`` is left as it was and the temporary file
    is removed. A symlink is followed, so the file it names is replaced; a
    destination that is not a regular file (``/dev/stdout``, a pipe) is
    written directly.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "wb") as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | Path, data: bytes) -> None:
    with atomic_output(path) as fh:
        fh.write(data)
