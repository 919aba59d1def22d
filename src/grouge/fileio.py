"""Output files written whole or not at all, and the CSV dialect.

Each file is written to a temporary file in its own directory, flushed to
disk, and then renamed over the destination with ``os.replace``, which is
atomic on POSIX and Windows. A reader or a crash mid-write sees either the
previous file or the complete new one, never a truncated mix.

Every CSV file the program writes is ``csv_bytes``: the ``csv`` module's
default quoting, ``\n`` line ends and UTF-8. Every CSV file it reads comes
through ``csv_rows``, which names the file and line of a row the ``csv``
module rejects, such as one with a field over its size limit.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence


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


def csv_bytes(rows: Iterable[Sequence]) -> bytes:
    """The bytes of an output CSV file holding rows, header included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Each row of a UTF-8 CSV file, blank ones included, with the line it
    ends on. A row the ``csv`` module rejects raises ValueError naming
    ``path:line``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
