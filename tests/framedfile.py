"""Take a framed file (a ``dfuse-corpus-v3`` corpus or a ``dfuse-checkpoint-v2``
checkpoint) apart and frame it again, for tests that corrupt one.

``blocks`` splits a well-formed file into its framed blocks, and
``assemble`` joins blocks with fresh CRC-32s, so a test can change what a
block holds and still get past its checksum to the check it means to reach.
The magic tag at the start of the file says which blocks it holds.
"""

import json
import struct
import zlib

import numpy as np

from dfuse import checkpointio, corpus

CORPUS_NAMES = ("header", *(f"{split} {kind} features" for split in corpus.SPLITS
                            for kind in corpus.KINDS))
CHECKPOINT_NAMES = ("header", "values")
FORMATS = {corpus.MAGIC: CORPUS_NAMES, checkpointio.MAGIC: CHECKPOINT_NAMES}


def _unit(name: str) -> int:
    """Bytes per unit of a block's count: values blocks count float64s."""
    return 8 if name.endswith(("features", "values")) else 1


def blocks(data: bytes) -> dict:
    """Block name -> ``[count, payload, start]``; ``start`` is the offset of
    the block's length field, in file order."""
    magic = bytes(data[:8])
    out, off = {}, len(magic)
    for name in FORMATS[magic]:
        (count,) = struct.unpack_from("<q", data, off)
        size = count * _unit(name)
        out[name] = [count, data[off + 8:off + 8 + size], off]
        off += 8 + size + 4
    assert off == len(data)
    return out


def assemble(parts: dict) -> bytes:
    (magic,) = [magic for magic, names in FORMATS.items() if tuple(parts) == names]
    chunks = [magic]
    for count, payload, *_ in parts.values():
        chunks += [struct.pack("<q", count), payload, struct.pack("<I", zlib.crc32(payload))]
    return b"".join(chunks)


def replace(data: bytes, name: str, payload: bytes, count=None) -> bytes:
    """``data`` with block ``name`` holding ``payload`` (and ``count``, by
    default the payload's length in the block's unit), framed again."""
    parts = blocks(data)
    parts[name][:2] = [len(payload) // _unit(name) if count is None else count, payload]
    return assemble(parts)


def edit_json(data: bytes, name: str, change) -> bytes:
    """``data`` with block ``name``'s JSON passed through ``change``, which
    edits it in place or returns a new value."""
    value = json.loads(blocks(data)[name][1])
    new = change(value)
    return replace(data, name, json.dumps(value if new is None else new).encode())


def edit_values(data: bytes, name: str, change) -> bytes:
    """``data`` with features or values block ``name``'s values, a flat float64
    array, passed through ``change``, which edits them in place."""
    values = np.frombuffer(blocks(data)[name][1], dtype="<f8").copy()
    change(values)
    return replace(data, name, values.tobytes())
