"""Dual-encoder model: frame sampling, two small projection towers, pooling.

Each tower is affine -> tanh -> affine. Videos pass a fixed number of
uniformly sampled frames through the video tower, mean-pool the per-frame
outputs, and L2-normalize; texts are single feature vectors through the text
tower. Teacher and student share this architecture, so their flat parameter
vectors always have identical layouts (the prerequisite for weight fusion).

Raw frame stacks are validated and frame-sampled once, by ``sample_frames``,
into one dense ``(N, n_frames, d_v)`` array; training samples each split once
per run and gathers batch rows from it. ``video_forward`` only ever sees such
arrays. It and ``text_forward`` are the unchecked forward cores: they neither
check their inputs nor reject zero-norm embeddings. The checked entries are
``encode_sampled``, ``encode_video_batch`` (which takes raw stacks and
samples them on the way in) and ``encode_text_batch``; each checks its
inputs before the forward and the embedding norms after it. They run the
forward on fixed blocks of ``ENCODE_BLOCK_ROWS`` videos or texts and write
each block's embeddings into one output array, so a whole split (the teacher
encodes the unlabeled pool at once) costs one block's transient arrays, not
the split's. Rows pass through the towers independently, and the still-image
test below is made per block, so the bits are those of one unblocked
forward. The norms are checked once, over the whole batch, so an error names
a row by its index in the batch. The loss encodes several batches in one
call per tower and runs those checks itself, per batch.

Still images (T=1 records, sampled to ``n_frames`` copies) share one tower
pass: when every frame slot of every video in a batch has slot 0's bits,
``video_forward`` runs the tower once per video and repeats its output rows
``n_frames`` times. Rows pass through the tower independently, so pooling,
the ``TowerCache`` and the gradients see the same bits as a pass over every
frame row. The test compares bits, not values, so ``0.0``/``-0.0`` and
different NaN payloads never count as equal. A batch whose first video has
different bits in its first two slots is rejected at once; a short clip that
samples to repeated slots (T=2 gives ``[0, 0, 1, 1]``) is rejected only after
the compare over the whole batch.

A ``ParamVector`` may also hold a stack of K weight vectors, ``(K, n_params)``.
The forward pass then gives ``(K, B, embed_dim)`` embeddings for the same
inputs in one call; einsum's ``...`` axes run each slice through the inner
loops of the one-vector call, so every slice has that call's bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateEmbeddingError, UsageError
from .numerics import ZERO_NORM_THRESHOLD, row_norms

# Videos or texts per tower pass in a checked encode: bounds its transient
# arrays whatever the batch size. Rows pass through the towers independently,
# so any block size gives the same bits.
ENCODE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class EncoderConfig:
    input_dim_video: int
    input_dim_text: int
    hidden_dim: int = field(default=32, metadata={"help": "tower hidden width"})
    embed_dim: int = field(default=16, metadata={"help": "shared embedding dimension"})
    n_frames: int = field(default=4, metadata={"help": "uniform frame samples per video"})
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim_video", "input_dim_text", "hidden_dim", "embed_dim", "n_frames"):
            if int(getattr(self, name)) < 1:
                raise UsageError(f"EncoderConfig.{name} must be >= 1")
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    """Reject a seed a checkpoint cannot store: it is written as a signed 64-bit integer."""
    if not 0 <= seed < 2**63:
        raise UsageError(f"seed must be >= 0 and < 2**63, got {seed}")


@dataclass(eq=False)
class ParamVector:
    """All encoder weights as one flat float64 array plus a named layout.

    A 2-D ``values`` is a stack of K weight vectors, one per row, that the
    forward pass evaluates at once; any other shape is flattened. Treated as
    immutable by every consumer; call ``copy()`` before mutating. A layout's
    offsets are computed once per process.
    """

    values: np.ndarray
    layout: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            self.values = self.values.ravel()
        total, self._offsets = _layout_offsets(self.layout)
        if total != self.values.shape[-1]:
            raise UsageError(
                f"layout declares {total} values but {self.values.shape[-1]} were given"
            )

    def tensor(self, name: str) -> np.ndarray:
        """View of one named tensor, reshaped (``(K, *shape)`` for a stack); shares memory."""
        try:
            start, stop, shape = self._offsets[name]
        except KeyError:
            raise UsageError(f"no tensor named {name!r} in layout") from None
        return self.values[..., start:stop].reshape(self.values.shape[:-1] + shape)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def same_layout(self, other: "ParamVector") -> bool:
        return self.layout == other.layout

    @property
    def n_params(self) -> int:
        return int(self.values.shape[-1])


@functools.cache
def _layout_offsets(layout) -> tuple[int, dict[str, tuple[int, int, tuple[int, ...]]]]:
    """A layout's total size and each tensor's ``(start, stop, shape)``."""
    offsets = {}
    pos = 0
    for name, shape in layout:
        size = math.prod(shape)
        offsets[name] = (pos, pos + size, tuple(shape))
        pos += size
    return pos, offsets


def _tensor_specs(cfg: EncoderConfig):
    # (name, shape, fan_in); fan_in drives the init bound for weight and bias.
    return (
        ("video.w1", (cfg.hidden_dim, cfg.input_dim_video), cfg.input_dim_video),
        ("video.b1", (cfg.hidden_dim,), cfg.input_dim_video),
        ("video.w2", (cfg.embed_dim, cfg.hidden_dim), cfg.hidden_dim),
        ("video.b2", (cfg.embed_dim,), cfg.hidden_dim),
        ("text.w1", (cfg.hidden_dim, cfg.input_dim_text), cfg.input_dim_text),
        ("text.b1", (cfg.hidden_dim,), cfg.input_dim_text),
        ("text.w2", (cfg.embed_dim, cfg.hidden_dim), cfg.hidden_dim),
        ("text.b2", (cfg.embed_dim,), cfg.hidden_dim),
    )


def param_layout(cfg: EncoderConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    return tuple((name, shape) for name, shape, _ in _tensor_specs(cfg))


def init_params(cfg: EncoderConfig) -> ParamVector:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per tensor."""
    rng = np.random.default_rng(cfg.seed)
    chunks = []
    for _, shape, fan_in in _tensor_specs(cfg):
        bound = 1.0 / math.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=int(np.prod(shape))))
    return ParamVector(np.concatenate(chunks), param_layout(cfg))


def sample_frame_indices(t: int, n: int) -> np.ndarray:
    """Centers of n equal temporal segments: index_i = floor((i + 0.5) * t / n).

    Indices repeat when t < n, so short clips are still usable.
    """
    if t < 1 or n < 1:
        raise UsageError(f"frame sampling needs t >= 1 and n >= 1, got t={t}, n={n}")
    # Integer form of floor((i + 0.5) * t / n); exact, no float rounding.
    return np.array([((2 * i + 1) * t) // (2 * n) for i in range(n)], dtype=np.intp)


class TowerCache(NamedTuple):
    """Forward-pass intermediates needed by analytic backprop."""

    x: np.ndarray       # tower input rows
    h: np.ndarray       # tanh activations
    pooled: np.ndarray  # pre-normalization embeddings (pooled for video)
    norms: np.ndarray
    z: np.ndarray       # unit-norm embeddings


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x (..., rows, in), w (..., out, in), b (..., out): leading axes broadcast.
    return np.einsum("...ij,...kj->...ik", x, w, optimize=False) + b[..., None, :]


def _tower_apply(params: ParamVector, prefix: str, x: np.ndarray):
    h = np.tanh(_affine(x, params.tensor(prefix + ".w1"), params.tensor(prefix + ".b1")))
    u = _affine(h, params.tensor(prefix + ".w2"), params.tensor(prefix + ".b2"))
    return u, h


def reject_zero_norms(norms: np.ndarray) -> None:
    """Raise ``DegenerateEmbeddingError`` naming the first row of ``norms`` (last
    axis; a stack is searched slice by slice) below ``ZERO_NORM_THRESHOLD``."""
    bad = np.flatnonzero(norms < ZERO_NORM_THRESHOLD)
    if bad.size:
        raise DegenerateEmbeddingError(
            f"pooled embedding {int(bad[0]) % norms.shape[-1]} has norm {norms.flat[bad[0]]:.3e}"
        )


def _normalize_with_cache(x, h, pooled) -> TowerCache:
    norms = row_norms(pooled)
    # Callers reject zero-norm rows after the forward; the clamp keeps numpy
    # from warning on them and is the identity on every row that passes.
    z = pooled / np.maximum(norms, ZERO_NORM_THRESHOLD)[..., None]
    return TowerCache(x, h, pooled, norms, z)


def _check_stack(stack, dim: int, index: int) -> np.ndarray:
    arr = np.asarray(stack, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise UsageError(f"frame stack {index} must be (T, dim) with T >= 1")
    if arr.shape[1] != dim:
        raise UsageError(
            f"frame stack {index} has dim {arr.shape[1]}, encoder expects {dim}"
        )
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"frame stack {index} contains non-finite entries")
    return arr


def sample_frames(stacks: Sequence, cfg: EncoderConfig) -> np.ndarray:
    """Validate raw (T, d_v) frame stacks and sample ``cfg.n_frames`` frames of each.

    Returns a C-contiguous ``(N, n_frames, d_v)`` float64 array: the only input
    ``video_forward`` accepts. Call once per split and gather rows per batch.
    """
    if len(stacks) == 0:
        raise UsageError("empty video batch")
    frames = np.empty((len(stacks), cfg.n_frames, cfg.input_dim_video))
    indices = {}  # clip length T -> its frame indices
    for i, stack in enumerate(stacks):
        arr = _check_stack(stack, cfg.input_dim_video, i)
        t = arr.shape[0]
        if t not in indices:
            indices[t] = sample_frame_indices(t, cfg.n_frames)
        frames[i] = arr[indices[t]]
    return frames


def _is_still(videos: np.ndarray) -> bool:
    """Whether every frame slot of every video has slot 0's bits (C-contiguous float64)."""
    if videos.shape[1] == 1:
        return False  # one slot: nothing to share
    if videos[0, 0].tobytes() != videos[0, 1].tobytes():
        return False  # first two slots differ: rejected for two small byte strings
    bits = videos.view(np.uint64)
    return bool((bits == bits[:, :1]).all())


def check_video_batch(stacks, cfg: EncoderConfig) -> np.ndarray:
    """Reject anything but a non-empty sampled ``(B, n_frames, d_v)`` array; returns it."""
    shape = (cfg.n_frames, cfg.input_dim_video)
    if not isinstance(stacks, np.ndarray) or stacks.ndim != 3 or stacks.shape[1:] != shape:
        raise UsageError(f"video batch must be a sampled (B, {shape[0]}, {shape[1]}) array")
    if stacks.shape[0] == 0:
        raise UsageError("empty video batch")
    return stacks


def video_forward(params: ParamVector, stacks: np.ndarray, cfg: EncoderConfig) -> TowerCache:
    """Encode a batch of sampled frames; embeddings plus cache. Unchecked: the
    caller has passed ``stacks`` through ``check_video_batch`` and checks the
    norms (``reject_zero_norms``)."""
    b = stacks.shape[0]
    videos = np.ascontiguousarray(stacks, dtype=np.float64)
    frames = videos.reshape(b * cfg.n_frames, -1)
    if _is_still(videos):
        # One tower pass per video; repeating its rows gives the per-frame bits.
        u, h = _tower_apply(params, "video", videos[:, 0])
        u = np.repeat(u, cfg.n_frames, axis=-2)
        h = np.repeat(h, cfg.n_frames, axis=-2)
    else:
        u, h = _tower_apply(params, "video", frames)
    per_frame = u.reshape(u.shape[:-2] + (b, cfg.n_frames, cfg.embed_dim))
    pooled = np.einsum("...bne->...be", per_frame) / cfg.n_frames
    return _normalize_with_cache(frames, h, pooled)


def check_text_batch(features, cfg: EncoderConfig) -> np.ndarray:
    """Raw text features as a finite float64 ``(B, d_t)`` array, B >= 1; one vector is one row."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[0] < 1:
        raise UsageError("text batch must be (B, dim) with B >= 1")
    if x.shape[1] != cfg.input_dim_text:
        raise UsageError(
            f"text features have dim {x.shape[1]}, encoder expects {cfg.input_dim_text}"
        )
    if not np.isfinite(x).all():
        raise UsageError("text features contain non-finite entries")
    return x


def text_forward(params: ParamVector, features, cfg: EncoderConfig) -> TowerCache:
    """Encode a batch of text feature vectors; embeddings plus cache. Unchecked,
    as ``video_forward``, with ``check_text_batch``."""
    u, h = _tower_apply(params, "text", features)
    return _normalize_with_cache(features, h, u)


def _encode_in_blocks(params: ParamVector, forward, rows: np.ndarray,
                      cfg: EncoderConfig) -> np.ndarray:
    """Unit-norm embeddings of checked ``rows``, ``forward`` run on blocks of
    ``ENCODE_BLOCK_ROWS``; the norms of the whole batch are checked at the end."""
    n = rows.shape[0]
    lead = params.values.shape[:-1]
    z = np.empty(lead + (n, cfg.embed_dim))
    norms = np.empty(lead + (n,))
    for start in range(0, n, ENCODE_BLOCK_ROWS):
        block = slice(start, start + ENCODE_BLOCK_ROWS)
        cache = forward(params, rows[block], cfg)
        z[..., block, :] = cache.z
        norms[..., block] = cache.norms
    reject_zero_norms(norms)
    return z


def encode_video_batch(params: ParamVector, stacks: Sequence, cfg: EncoderConfig) -> np.ndarray:
    """Unit-norm embeddings of raw frame stacks, sampled on the way in."""
    return _encode_in_blocks(params, video_forward, sample_frames(stacks, cfg), cfg)


def encode_text_batch(params: ParamVector, features, cfg: EncoderConfig) -> np.ndarray:
    """Unit-norm embeddings of raw text features (one vector is one row)."""
    return _encode_in_blocks(params, text_forward, check_text_batch(features, cfg), cfg)


def encode_sampled(params: ParamVector, frames: np.ndarray, features, cfg: EncoderConfig):
    """``(z_v, z_t)``: unit-norm embeddings of sampled frames and of text features."""
    z_v = _encode_in_blocks(params, video_forward, check_video_batch(frames, cfg), cfg)
    return z_v, encode_text_batch(params, features, cfg)
