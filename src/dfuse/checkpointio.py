"""Binary checkpoint format with checksum, bit-exact round trips.

Text floats cannot guarantee the bit-exact weight round trips that fusion
endpoint comparisons rely on, so checkpoints are little-endian binary:

    magic "DFCK0001" | encoder config (6 x int64) | sigma, lambda (float64)
    | step (int64) | val_loss (float64) | tensor count (int64)
    | per tensor: name length (uint16), name utf-8, ndim (uint8), dims (int64 each)
    | value count (int64) | values (float64 each) | crc32 of the value bytes (uint32)

The last three parts are one ``fileio.framed`` block, the framing corpus
files use too; its CRC-32 covers the values only, not the header before them.

``load_checkpoint`` rejects a file whose weights are not all finite. The
validation loss may be NaN: a fused checkpoint carries none of its own.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, ParamVector, param_layout
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointLayoutError,
    CheckpointMagicError,
    UsageError,
)
from .fileio import FrameReader, atomic_write_bytes, framed
from .losses import LossConfig

MAGIC = b"DFCK0001"
_MAX_TENSORS = 1_000_000


@dataclass(eq=False)
class Checkpoint:
    enc_cfg: EncoderConfig
    loss_cfg: LossConfig
    params: ParamVector
    step: int
    val_loss: float


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    enc = ckpt.enc_cfg
    parts = [MAGIC]
    parts.append(struct.pack(
        "<6q", enc.input_dim_video, enc.input_dim_text, enc.hidden_dim,
        enc.embed_dim, enc.n_frames, enc.seed,
    ))
    parts.append(struct.pack("<2d", ckpt.loss_cfg.sigma, ckpt.loss_cfg.lambda_))
    parts.append(struct.pack("<q", ckpt.step))
    parts.append(struct.pack("<d", ckpt.val_loss))
    parts.append(struct.pack("<q", len(ckpt.params.layout)))
    for name, shape in ckpt.params.layout:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", len(shape)))
        parts.append(struct.pack(f"<{len(shape)}q", *shape))
    values = np.ascontiguousarray(ckpt.params.values, dtype="<f8").tobytes()
    parts.extend(framed(ckpt.params.n_params, (values,)))
    return b"".join(parts)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    atomic_write_bytes(path, checkpoint_bytes(ckpt))


def load_checkpoint(path) -> Checkpoint:
    source = str(path)
    r = FrameReader(io.BytesIO(Path(path).read_bytes()), source, CheckpointFormatError,
                    "checkpoint")
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointMagicError(f"{source}: bad magic tag")
    dv, dt, hidden, embed, n_frames, seed = r.unpack("<6q")
    sigma, lambda_ = r.unpack("<2d")
    (step,) = r.unpack("<q")
    (val_loss,) = r.unpack("<d")
    (n_tensors,) = r.unpack("<q")
    if not 0 < n_tensors <= _MAX_TENSORS:
        raise CheckpointFormatError(f"{source}: implausible tensor count {n_tensors}")
    layout = []
    declared = 0
    for _ in range(n_tensors):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{source}: tensor name is not valid UTF-8") from None
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}q") if ndim else ()
        if any(d < 1 for d in shape):
            raise CheckpointLayoutError(f"{source}: tensor {name!r} has non-positive dims")
        layout.append((name, tuple(int(d) for d in shape)))
        declared += int(np.prod(shape)) if shape else 1
    (n_values,) = r.unpack("<q")
    if n_values < 0:
        raise CheckpointFormatError(f"{source}: negative value count")
    if declared != n_values:
        raise CheckpointLayoutError(
            f"{source}: layout declares {declared} values but file stores {n_values}"
        )
    value_bytes = r.take(8 * n_values)
    (crc,) = r.unpack("<I")
    if not r.at_end():
        raise CheckpointFormatError(f"{source}: trailing bytes after checkpoint")
    if zlib.crc32(value_bytes) != crc:
        raise CheckpointChecksumError(f"{source}: value checksum mismatch")
    values = np.frombuffer(value_bytes, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise CheckpointFormatError(f"{source}: weight {int(bad[0])} is not finite")
    try:
        enc_cfg = EncoderConfig(
            input_dim_video=dv, input_dim_text=dt, hidden_dim=hidden,
            embed_dim=embed, n_frames=n_frames, seed=seed,
        )
        loss_cfg = LossConfig(sigma=sigma, lambda_=lambda_)
        params = ParamVector(values, tuple(layout))
    except UsageError as exc:
        raise CheckpointFormatError(f"{source}: invalid stored configuration: {exc}") from exc
    if params.layout != param_layout(enc_cfg):
        raise CheckpointLayoutError(
            f"{source}: stored tensor layout does not match the stored encoder configuration"
        )
    return Checkpoint(enc_cfg, loss_cfg, params, int(step), float(val_loss))
