"""Take a ``dfuse-corpus-v2`` file apart and frame it again, for tests that
corrupt one.

``blocks`` splits a well-formed file into its framed blocks, and
``assemble`` joins blocks with fresh CRC-32s, so a test can change what a
block holds and still get past its checksum to the check it means to reach.
"""

import json
import struct
import zlib

import numpy as np

from dfuse.corpus import KINDS, MAGIC, SPLITS

NAMES = ("header", *(f"{split} {kind} {part}" for split in SPLITS for kind in KINDS
                     for part in ("metadata", "features")))


def blocks(data: bytes) -> dict:
    """Block name -> ``[count, payload, start]``; ``start`` is the offset of
    the block's length field, in ``NAMES`` order."""
    assert data.startswith(MAGIC)
    out, off = {}, len(MAGIC)
    for name in NAMES:
        (count,) = struct.unpack_from("<q", data, off)
        size = count * (8 if name.endswith("features") else 1)
        out[name] = [count, data[off + 8:off + 8 + size], off]
        off += 8 + size + 4
    assert off == len(data)
    return out


def assemble(parts: dict) -> bytes:
    chunks = [MAGIC]
    for name in NAMES:
        count, payload = parts[name][:2]
        chunks += [struct.pack("<q", count), payload, struct.pack("<I", zlib.crc32(payload))]
    return b"".join(chunks)


def replace(data: bytes, name: str, payload: bytes, count=None) -> bytes:
    """``data`` with block ``name`` holding ``payload`` (and ``count``, by
    default the payload's length in the block's unit), framed again."""
    parts = blocks(data)
    unit = 8 if name.endswith("features") else 1
    parts[name][:2] = [len(payload) // unit if count is None else count, payload]
    return assemble(parts)


def edit_json(data: bytes, name: str, change) -> bytes:
    """``data`` with block ``name``'s JSON passed through ``change``, which
    edits it in place or returns a new value."""
    value = json.loads(blocks(data)[name][1])
    new = change(value)
    return replace(data, name, json.dumps(value if new is None else new).encode())


def edit_row(data: bytes, name: str, index: int, **fields) -> bytes:
    """``data`` with fields of row ``index`` of metadata block ``name`` set."""
    columns = ("id", "concept_id", "pair_index", "class_name")

    def change(rows):
        for key, value in fields.items():
            rows[index][columns.index(key)] = value
    return edit_json(data, name, change)


def edit_values(data: bytes, name: str, change) -> bytes:
    """``data`` with features block ``name``'s values, a flat float64 array,
    passed through ``change``, which edits them in place."""
    values = np.frombuffer(blocks(data)[name][1], dtype="<f8").copy()
    change(values)
    return replace(data, name, values.tobytes())
