"""Small file helpers: atomic writes, content hashing, CRC-framed binary
blocks and tab-separated tables."""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
import zlib
from collections.abc import Iterable, Iterator, Sequence
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


def framed(count: int, chunks: Iterable) -> Iterator:
    """A CRC-framed block: ``count`` as little-endian int64, the chunks, then
    the CRC-32 of the chunks' bytes (not of ``count``) as little-endian uint32.

    ``count`` is the block's length in the caller's unit: bytes or values.
    The chunks are passed through as they are, so a caller can stream a
    block of buffers (memoryviews, arrays) without joining them.
    """
    yield struct.pack("<q", count)
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def json_block(payload) -> Iterator:
    """``payload`` as strict JSON text in one ``framed`` block whose count is its
    byte length; a NaN or infinite float raises ``ValueError``."""
    data = json.dumps(payload, allow_nan=False).encode()
    return framed(len(data), (data,))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


class FrameReader:
    """Exact-size reads of a binary file, each fed to a SHA-256 digest.

    ``section`` names the part of the file being read; the caller sets it as
    it goes. A read past the end raises ``error`` naming ``source`` and the
    section, before anything is read.
    """

    def __init__(self, fh, source: str, error: type[Exception], section: str):
        self.fh, self.source, self.error, self.section = fh, source, error, section
        self.size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        self.off = 0
        self.digest = hashlib.sha256()

    def need(self, n: int) -> None:
        """Raise unless ``n`` is not negative and that many bytes are left to read."""
        if n < 0:
            raise self.error(f"{self.source}: bad {self.section} length {n}")
        if n > self.size - self.off:
            raise self.error(f"{self.source}: truncated {self.section}")

    def readinto(self, buffer) -> None:
        """Fill ``buffer``, a C-contiguous array or buffer, from the file."""
        view = memoryview(buffer).cast("B")
        self.need(view.nbytes)
        if self.fh.readinto(view) != view.nbytes:  # the file shrank while it was read
            raise self.error(f"{self.source}: truncated {self.section}")
        self.digest.update(view)
        self.off += view.nbytes

    def take(self, n: int) -> bytearray:
        self.need(n)
        data = bytearray(n)
        self.readinto(data)
        return data

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def at_end(self) -> bool:
        return self.off == self.size

    def check_crc(self, crc: int, error: type[Exception] | None = None) -> None:
        """Read a stored CRC-32; unless it is ``crc``, raise ``error`` or ``self.error``."""
        (stored,) = self.unpack("<I")
        if stored != crc:
            raise (error or self.error)(f"{self.source}: {self.section}: checksum mismatch")

    def read_json(self, section: str):
        """The value of a ``json_block``, CRC-checked; ``section`` names it in errors.
        JSON's non-standard ``NaN``, ``Infinity`` and ``-Infinity`` are invalid."""
        self.section = section
        (n,) = self.unpack("<q")
        data = self.take(n)
        self.check_crc(zlib.crc32(data))
        try:
            return json.loads(data, parse_constant=_reject_constant)
        except (ValueError, RecursionError):  # bad UTF-8 or JSON, or nested too deeply
            raise self.error(f"{self.source}: {section}: invalid JSON") from None


def tsv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Tab-separated table: the header line, then one line per row, each cell
    written with ``str`` (for Python floats and ints, the same as ``repr``)."""
    return "".join("\t".join(map(str, row)) + "\n" for row in (header, *rows))
