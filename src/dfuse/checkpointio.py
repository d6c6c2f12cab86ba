"""Binary checkpoint format with checksums, bit-exact round trips.

Text floats cannot guarantee the bit-exact weight round trips that fusion
endpoint comparisons rely on, so a checkpoint (``dfuse-checkpoint-v2``) is
binary, written and read through the ``fileio`` framing corpus files use:

    magic "DFCK0002" | header: ``fileio.json_block`` of {"format", "encoder",
    "loss", "step", "val_loss", "layout"} | values: ``fileio.framed`` float64s

A CRC-32 covers each payload, and a changed length misaligns the CRC read
after it or fails the value count check, so every byte is checked. A NaN
``val_loss`` (a fused checkpoint carries none of its own) is stored as ``null``;
an infinite one is refused, since strict JSON has no spelling for it.
``load_checkpoint`` requires each header value's JSON type (``32.0`` is no
integer), the layout the stored encoder configuration implies, and finite
weights. v1 checkpoints (``DFCK0001``, whose struct header no CRC covered)
are not read.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .encoder import EncoderConfig, ParamVector, param_layout
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointLayoutError,
    CheckpointMagicError,
    UsageError,
    ValidationError,
)
from .fileio import FrameReader, atomic_write_bytes, framed, json_block
from .losses import LossConfig

MAGIC = b"DFCK0002"
FORMAT_TAG = "dfuse-checkpoint-v2"

# Each key of a JSON object in the header, with the types its value may have.
_INT = ((int,), "an integer")
_HEADER = {"format": ((str,), "a string"), "encoder": ((dict,), "an object"),
           "loss": ((dict,), "an object"), "step": _INT,
           "val_loss": ((float, type(None)), "a float or null"), "layout": ((list,), "a list")}
_ENCODER = {f.name: _INT for f in fields(EncoderConfig)}
_LOSS = {f.name: ((float,), "a float") for f in fields(LossConfig)}


@dataclass(eq=False)
class Checkpoint:
    enc_cfg: EncoderConfig
    loss_cfg: LossConfig
    params: ParamVector
    step: int
    val_loss: float


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    if math.isinf(ckpt.val_loss):
        raise ValidationError(f"cannot store an infinite val_loss ({ckpt.val_loss})")
    # The configs accept numpy scalars and an int sigma; the header holds the
    # JSON types the loader requires.
    header = {"format": FORMAT_TAG,
              "encoder": {k: int(v) for k, v in asdict(ckpt.enc_cfg).items()},
              "loss": {k: float(v) for k, v in asdict(ckpt.loss_cfg).items()},
              "step": int(ckpt.step),
              "val_loss": None if math.isnan(ckpt.val_loss) else float(ckpt.val_loss),
              "layout": [[name, [int(d) for d in shape]] for name, shape in ckpt.params.layout]}
    values = np.ascontiguousarray(ckpt.params.values, dtype="<f8")
    return b"".join([MAGIC, *json_block(header), *framed(values.size, (memoryview(values),))])


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    atomic_write_bytes(path, checkpoint_bytes(ckpt))


def _check_object(r: FrameReader, value, name: str, spec: dict) -> dict:
    """``value`` if it is a JSON object with exactly the keys of ``spec``, each
    value of a type ``spec`` gives it; ``name`` names a nested object."""
    if type(value) is not dict or value.keys() != spec.keys():
        raise CheckpointFormatError(f"{r.source}: header: {name or 'the header'} must be "
                                    f"an object with the keys {', '.join(spec)}")
    for key, (types, kind) in spec.items():
        if type(value[key]) not in types:
            raise CheckpointFormatError(f"{r.source}: header: {name + '.' if name else ''}"
                                        f"{key} must be {kind}, got {value[key]!r}")
    return value


def load_checkpoint(path) -> Checkpoint:
    source = str(path)
    with open(path, "rb") as fh:
        r = FrameReader(fh, source, CheckpointFormatError, "checkpoint")
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointMagicError(f"{source}: bad magic tag, not a {FORMAT_TAG} file")
        header = r.read_json("header")
        if type(header) is not dict or header.get("format") != FORMAT_TAG:
            raise CheckpointFormatError(f"{source}: header: expected a {FORMAT_TAG} header")
        _check_object(r, header, "", _HEADER)
        if header["step"] < 0:
            raise CheckpointFormatError(f"{source}: header: step must be >= 0, "
                                        f"got {header['step']}")
        try:
            enc_cfg = EncoderConfig(**_check_object(r, header["encoder"], "encoder", _ENCODER))
            loss_cfg = LossConfig(**_check_object(r, header["loss"], "loss", _LOSS))
        except UsageError as exc:
            raise CheckpointFormatError(f"{source}: invalid stored configuration: {exc}") from exc
        layout = param_layout(enc_cfg)
        # Compared as JSON text, so 32.0 or true cannot stand in for a dimension.
        if json.dumps(header["layout"]) != json.dumps(layout):
            raise CheckpointLayoutError(f"{source}: stored tensor layout does not match "
                                        "the stored encoder configuration")
        n_params = sum(math.prod(shape) for _, shape in layout)
        r.section = "values"
        (count,) = r.unpack("<q")
        if count != n_params:
            raise CheckpointLayoutError(f"{source}: layout declares {n_params} values "
                                        f"but file stores {count}")
        values = np.empty(count, dtype="<f8")
        r.readinto(values)
        r.check_crc(zlib.crc32(values), CheckpointChecksumError)
        if not r.at_end():
            raise CheckpointFormatError(f"{source}: trailing bytes after checkpoint")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise CheckpointFormatError(f"{source}: weight {int(bad[0])} is not finite")
    val_loss = header["val_loss"]
    return Checkpoint(enc_cfg, loss_cfg, ParamVector(values, layout), header["step"],
                      math.nan if val_loss is None else val_loss)
