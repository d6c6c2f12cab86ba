"""Small file helpers: atomic writes, content hashing and tab-separated tables."""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path


def _new_file_mode() -> int:
    """The mode ``open()`` gives a new file: 0o666 less the process umask."""
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


def atomic_write_chunks(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks via a temp file in the same directory, then rename.

    ``mkstemp`` creates the temp file at mode 0600 whatever the umask, so the
    file gets the usual new-file mode before it takes the target's name. If
    writing fails, or ``chunks`` raises part way, the temp file is removed and
    the target is left as it was. An ``OSError`` is raised again naming the
    target, since the temp file's name means nothing to the caller.
    """
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), _new_file_mode())
                fh.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from exc


def atomic_write_bytes(path, data: bytes) -> None:
    atomic_write_chunks(path, (data,))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tsv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Tab-separated table: the header line, then one line per row, each cell
    written with ``str`` (for Python floats and ints, the same as ``repr``)."""
    return "".join("\t".join(map(str, row)) + "\n" for row in (header, *rows))
