"""Synthetic corpora with planted video-text correspondence.

Every record derives from one of ``n_concepts`` unit latent concept vectors.
A paired video and text share a per-pair latent (the concept plus a small
jitter, renormalized), then pass through fixed random linear maps into the
video and text feature spaces with i.i.d. gaussian feature noise. The jitter
makes the true counterpart of a query identifiable among same-concept
records, which is what retrieval measures; the concept id is the class label
for zero-shot classification.

All randomness is keyed by (seed, stream, index), so two corpora generated
with the same seed share their concepts and feature maps regardless of split
sizes or frames per video. That is how a single-frame pretraining corpus and
a multi-frame video corpus end up in the same planted world.

Only the random draws are per record: record i draws its latent offset and
then its feature noise (a pair: video, then text) from its own stream,
that of ``np.random.default_rng([*key, i])``, into its row of a chunk of
whole records (about ``_CHUNK_VALUES`` values). No generator is built per
record: ``_record_states`` runs numpy's SeedSequence hash and PCG64
seeding for all of a chunk's records at once, on uint32 arrays, and each
record's state is set on one generator reused for the chunk. The
jittered latents, their norms, the feature maps and the noise scaling then
run once per chunk, over the noise draws in place, with the bits of
computing every record on its own. ``_feature_blocks`` yields each features
block in file order as such chunks; a paired split's texts are drawn with
its videos into one text block, which follows its video chunks. A
``Corpus`` holds each split and kind as ``Columns`` in file order: ids,
int64 ``concept_id``, class names and the whole features block, never split
into rows.

Every field of a record but its features follows from the ``SynthConfig``
and its row through one rule, ``_split_columns``, which ``build_corpus`` and
``load_corpus`` share: row i of a split is record ``vid-<split>-<i:05d>``
(``txt-`` for a text) of concept ``i % n_concepts``, pair i in a paired
split, and an eval video's class name is its concept's ``class_name_for``.

File format (``dfuse-corpus-v3``), little-endian binary: the magic tag
``DFCORP03``; a header block, the JSON object ``{"format": "dfuse-corpus-v3",
"synth": <SynthConfig>}``; then, per split in ``SPLITS`` order and per kind
(video, then text), a features block of the records' float64 values,
``(n, frames_per_video, d_v)`` or ``(n, d_t)``, whose ``n`` is the header's
split size. Each block is ``fileio.framed`` (the header through
``fileio.json_block``) and read through ``fileio.FrameReader``, as
checkpoints are: an int64 length (bytes, or values for features), the
payload and its CRC-32. A changed length misaligns the CRC read after it or
fails the check of the value count against the header, so every byte is
checked. A v2 file (``DFCORP02``, a JSON metadata block of ``[id,
concept_id, pair_index, class_name]`` rows before each features block) or a
v1 file fails at the magic tag.

``gen_corpus`` writes those chunks to the atomic temp-file writer as they
are drawn, each checked finite and framed with a running CRC, and returns
no ``Corpus``: no split is held whole but a paired split's text block.
``build_corpus`` joins the same chunks into a ``Corpus`` in memory.
``load_corpus(path, splits, n_frames)`` hashes the whole file
(``Corpus.sha256``) and checks every block's count, CRC and finiteness. A
features block of a split in ``splits`` is read into one array; any other
is read in chunks of whole records through the same checks and dropped, so
a file fails the same way whichever splits are kept. With ``n_frames``, a
kept video block is read through the same chunk buffer, and only each
record's ``sample_frame_indices(T, n_frames)`` frames are kept: the bits
of ``encoder.sample_frames`` of the whole block, without holding it. The
returned ``Corpus`` holds only the named splits and raises ``UsageError``
for any other.
"""

from __future__ import annotations

import math
import zlib
from collections import namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .encoder import sample_frame_indices
from .errors import CorpusFormatError, CorpusRecordError, UsageError
from .fileio import FrameReader, atomic_write_chunks, framed, json_block

SPLITS = ("labeled-train", "labeled-val", "unlabeled", "eval")
PAIRED_SPLITS = ("labeled-train", "labeled-val", "eval")
KINDS = ("video", "text")
MAGIC = b"DFCORP03"
FORMAT_TAG = "dfuse-corpus-v3"
# Features blocks are written, and read unless kept whole, in chunks of whole
# records of about this many values (256 KiB).
_CHUNK_VALUES = 1 << 15

_STREAM_CONCEPTS = 0
_STREAM_MAP_VIDEO = 1
_STREAM_MAP_TEXT = 2
_STREAM_PAIR = 3
_STREAM_UNLABELED_VIDEO = 4
_STREAM_UNLABELED_TEXT = 5
_STREAM_PROMPT = 6
_STREAM_MAP_VIDEO_SHIFT = 7

# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding constants.
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class SynthConfig:
    n_concepts: int = field(default=64, metadata={"help": "number of latent concepts"})
    latent_dim: int = field(default=16, metadata={"help": "latent concept dimension"})
    d_v: int = field(default=32, metadata={"help": "video feature dimension"})
    d_t: int = field(default=32, metadata={"help": "text feature dimension"})
    frames_per_video: int = field(default=8, metadata={"help": "frames per video record"})
    noise_sigma: float = field(default=0.05, metadata={"help": "feature noise scale"})
    concept_jitter: float = field(default=0.5, metadata={"help": "per-pair latent offset norm"})
    prompt_jitter: float = field(default=0.25, metadata={"help": "per-prompt latent offset norm"})
    video_domain_shift: float = field(
        default=0.4, metadata={"help": "video-map rotation away from the base domain"})
    n_labeled_train: int = field(default=512, metadata={"help": "labeled training pairs"})
    n_labeled_val: int = field(default=128, metadata={"help": "labeled validation pairs"})
    n_unlabeled: int = field(default=4096, metadata={"help": "unlabeled videos and texts"})
    n_eval: int = field(default=512, metadata={"help": "held-out evaluation pairs"})
    seed: int = field(default=0, metadata={"help": "generation seed"})
    identity_maps: bool = field(default=False, metadata={"help": "identity feature maps (debug)"})

    def __post_init__(self):
        # A corpus header is JSON: 64.0 would pass the range checks below and
        # fail later in an index, and true would pass as a 1.
        kinds = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                 "bool": ((bool,), "true or false")}
        for f in fields(self):
            types, kind = kinds[f.type]
            value = getattr(self, f.name)
            if type(value) not in types:
                raise UsageError(f"SynthConfig.{f.name} must be {kind}, got {value!r}")
        if self.n_concepts < 2:
            raise UsageError("n_concepts must be >= 2")
        for name in ("latent_dim", "d_v", "d_t", "frames_per_video"):
            if getattr(self, name) < 1:
                raise UsageError(f"SynthConfig.{name} must be >= 1")
        for name in ("noise_sigma", "concept_jitter", "prompt_jitter", "video_domain_shift"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer too large for a double
                raise UsageError(f"SynthConfig.{name} must be a finite number") from None
            if not finite or value < 0:
                raise UsageError(f"SynthConfig.{name} must be >= 0 and finite, got {value}")
        for name in ("n_labeled_train", "n_labeled_val", "n_unlabeled", "n_eval"):
            if getattr(self, name) < 0:
                raise UsageError(f"SynthConfig.{name} must be >= 0")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.identity_maps and not (self.d_v == self.d_t == self.latent_dim):
            raise UsageError("identity_maps requires d_v = d_t = latent_dim")
        if self.identity_maps and self.video_domain_shift != 0.0:
            raise UsageError("identity_maps is incompatible with a video domain shift")


@dataclass(frozen=True, eq=False)
class Columns:
    """One split's records of one kind in file order: ids, int64 ``concept_id``,
    class names and the features block. In a paired split, row i is pair i."""

    ids: list[str]
    concept_id: np.ndarray
    class_name: list[str | None]
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


Record = namedtuple("Record", "id kind split concept_id features class_name pair_index")


def class_name_for(concept_id: int, n_concepts: int) -> str:
    width = len(str(n_concepts - 1))
    return f"concept_{concept_id:0{width}d}"


def concept_vectors(cfg: SynthConfig) -> np.ndarray:
    """Unit-norm latent anchors, one per concept; depend only on the seed."""
    rng = np.random.default_rng([cfg.seed, _STREAM_CONCEPTS])
    raw = rng.standard_normal((cfg.n_concepts, cfg.latent_dim))
    norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    return raw / norms[:, None]


def video_feature_map(cfg: SynthConfig) -> np.ndarray:
    """Latent-to-video-feature map; seeded by (seed, stream) only.

    ``video_domain_shift`` blends in an independent map (variance preserved),
    moving the video domain away from the shared base while leaving concepts
    and the text map untouched. A model pretrained at shift 0 sees these
    videos as out-of-domain.
    """
    if cfg.identity_maps:
        return np.eye(cfg.d_v)
    rng = np.random.default_rng([cfg.seed, _STREAM_MAP_VIDEO])
    base = rng.standard_normal((cfg.d_v, cfg.latent_dim)) / math.sqrt(cfg.latent_dim)
    s = cfg.video_domain_shift
    if s == 0.0:
        return base
    shift_rng = np.random.default_rng([cfg.seed, _STREAM_MAP_VIDEO_SHIFT])
    other = shift_rng.standard_normal((cfg.d_v, cfg.latent_dim)) / math.sqrt(cfg.latent_dim)
    return (base + s * other) / math.sqrt(1.0 + s * s)


def text_feature_map(cfg: SynthConfig) -> np.ndarray:
    if cfg.identity_maps:
        return np.eye(cfg.d_t)
    rng = np.random.default_rng([cfg.seed, _STREAM_MAP_TEXT])
    return rng.standard_normal((cfg.d_t, cfg.latent_dim)) / math.sqrt(cfg.latent_dim)


def _jittered_latent(base: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    latent = base + rng.standard_normal(base.shape[0]) * (scale / math.sqrt(base.shape[0]))
    return latent / math.sqrt(float(np.einsum("i,i->", latent, latent)))


def _block_shape(cfg: SynthConfig, split: str, kind: str) -> tuple[int, ...]:
    """``(n, frames_per_video, d_v)`` or ``(n, d_t)``: the shape of a split's
    features block of ``kind``, ``n`` being the split's size (``n_eval`` ...)."""
    n = getattr(cfg, "n_" + split.replace("-", "_"))
    return (n, cfg.frames_per_video, cfg.d_v) if kind == "video" else (n, cfg.d_t)


def _id_format(split: str, kind: str) -> str:
    """Row i of a split's records of ``kind`` has the id ``_id_format(split, kind).format(i)``."""
    return ("vid" if kind == "video" else "txt") + f"-{split}-{{:05d}}"


def _split_columns(cfg: SynthConfig, split: str, kind: str, features: np.ndarray) -> Columns:
    """A split's records of ``kind`` around their features block: row i is the
    record ``vid-<split>-<i:05d>`` (``txt-`` for a text) of concept
    ``i % n_concepts`` (and pair i in a paired split); an eval video is named
    after its concept."""
    n = len(features)
    concept = np.arange(n, dtype=np.int64) % cfg.n_concepts
    names = ([class_name_for(c, cfg.n_concepts) for c in concept.tolist()]
             if (split, kind) == ("eval", "video") else [None] * n)
    ids = list(map(_id_format(split, kind).format, range(n)))
    return Columns(ids, concept, names, features)


def _hash_constants(value: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's running hash constant: for each hash, the constant it
    xors in and the next one, which it multiplies by."""
    while True:
        nxt = value * mult & _MASK32
        yield value, nxt
        value = nxt


def _hashmix(words: np.ndarray, constants: Iterator[tuple[int, int]]) -> np.ndarray:
    xor, mult = next(constants)
    words = words ^ xor
    words *= mult
    words ^= words >> 16
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> 16
    return out


def _record_states(key: tuple, start: int, m: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of records ``start`` to ``start + m``: record
    i's is ``np.random.default_rng([*key, i]).bit_generator.state["state"]``.

    SeedSequence's hash runs on uint32 arrays of one word per record (arrays
    wrap silently, where uint32 scalars warn on overflow). Each int of the
    key splits into its little-endian 32-bit words (0 is one word), the same
    for every record; i, below 2**32, is the last word. Words past the pool
    of 4 take SeedSequence's remaining-entropy loop. PCG64 then seeds from
    ``generate_state(4, uint64)`` words ``w0..w3``: ``inc = (w2 << 64 | w3)
    << 1 | 1`` and ``state = ((w0 << 64 | w1) + inc) * M + inc``, mod 2**128.
    """
    entropy = [np.full(m, k >> shift & _MASK32, dtype=np.uint32)
               for k in key for shift in range(0, max(k.bit_length(), 1), 32)]
    entropy.append(np.arange(start, start + m, dtype=np.uint32))
    entropy += [np.zeros(m, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(words, constants) for words in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for words in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(words, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % _POOL_SIZE], constants) for i in range(8)], axis=1)
    states = []
    for w0, w1, w2, w3 in state.astype("<u4").view("<u8").tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append(((((w0 << 64 | w1) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _draw_features(cfg: SynthConfig, concepts: np.ndarray, key: tuple, start: int,
                   maps) -> None:
    """Fill the ``(m, *shape)`` array of each ``(feature map, array)`` of ``maps``
    with the features of a split's records ``start`` to ``start + m``; record
    i draws from the stream of ``np.random.default_rng([*key, i])``, set by
    ``_record_states`` on one reused generator, and its concept is
    ``i % n_concepts``."""
    m = len(maps[0][1])
    offsets = np.empty((m, cfg.latent_dim))
    bits = np.random.PCG64(0)  # its state is replaced before each record's draws
    rng = np.random.Generator(bits)
    for row, (state, inc) in enumerate(_record_states(key, start, m)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=offsets[row])
        for _, out in maps:
            rng.standard_normal(out=out[row])
    offsets *= cfg.concept_jitter / math.sqrt(cfg.latent_dim)
    latents = concepts[np.arange(start, start + m) % cfg.n_concepts]
    latents += offsets
    latents /= np.sqrt(np.einsum("ni,ni->n", latents, latents))[:, None]
    for a, out in maps:
        base = np.einsum("ij,nj->ni", a, latents)
        out *= cfg.noise_sigma
        out += base[:, None, :] if out.ndim == 3 else base


def _record_chunks(cfg: SynthConfig, concepts: np.ndarray, key: tuple, shape: tuple,
                   a: np.ndarray, paired: tuple = ()) -> Iterator[np.ndarray]:
    """The ``shape`` features block of one split and kind, drawn by map ``a`` in
    chunks of whole records of about ``_CHUNK_VALUES`` values. ``paired`` is
    ``((a_t, texts),)`` for a paired split: each record also draws its text
    into its row of the whole ``texts`` block."""
    n, *row = shape
    step = max(1, _CHUNK_VALUES // math.prod(row))
    for start in range(0, n, step):
        out = np.empty((min(step, n - start), *row))
        _draw_features(cfg, concepts, key, start, [
            (a, out), *((b, block[start:start + len(out)]) for b, block in paired)])
        yield out


def _feature_blocks(cfg: SynthConfig) -> Iterator[tuple[str, str, Iterable[np.ndarray]]]:
    """``(split, kind, chunks)`` for each features block in file order; ``chunks``
    gives the block as C-contiguous float64 arrays of whole records and must
    be used up before the next block. A paired split's video chunks draw its
    texts into one text block, which then comes as one chunk."""
    concepts = concept_vectors(cfg)
    a_v, a_t = video_feature_map(cfg), text_feature_map(cfg)
    for split in SPLITS:
        v_shape, t_shape = (_block_shape(cfg, split, kind) for kind in KINDS)
        if split in PAIRED_SPLITS:
            key = (cfg.seed, _STREAM_PAIR, PAIRED_SPLITS.index(split))
            texts = np.empty(t_shape)
            yield split, "video", _record_chunks(cfg, concepts, key, v_shape, a_v,
                                                 ((a_t, texts),))
            yield split, "text", (texts,)
        else:
            yield split, "video", _record_chunks(
                cfg, concepts, (cfg.seed, _STREAM_UNLABELED_VIDEO), v_shape, a_v)
            yield split, "text", _record_chunks(
                cfg, concepts, (cfg.seed, _STREAM_UNLABELED_TEXT), t_shape, a_t)


def build_corpus(cfg: SynthConfig) -> "Corpus":
    """Generate all records in memory, deterministically from the seed."""
    columns = {split: {} for split in SPLITS}
    for split, kind, chunks in _feature_blocks(cfg):
        shape = _block_shape(cfg, split, kind)
        features = np.concatenate(list(chunks) or [np.empty(shape)])
        columns[split][kind] = _split_columns(cfg, split, kind, features)
    return Corpus(cfg, columns)


def _finite_chunks(split: str, kind: str, chunks: Iterable[np.ndarray]) -> Iterator[memoryview]:
    """Each chunk of a features block as little-endian float64 bytes, after
    checking it; the first non-finite value raises ``CorpusRecordError`` naming
    its record."""
    row = 0
    for chunk in chunks:
        finite = np.isfinite(chunk)
        if not finite.all():
            bad = row + int(np.argmin(finite.reshape(-1))) // chunk[0].size
            raise CorpusRecordError(f"record {_id_format(split, kind).format(bad)!r}: "
                                    "non-finite features")
        row += len(chunk)
        yield memoryview(np.ascontiguousarray(chunk, dtype="<f8"))


def gen_corpus(cfg: SynthConfig, path) -> None:
    """Generate a corpus and write its file, one chunk of records at a time.

    No split is ever held whole, but a paired split's text block. A record
    whose features are not all finite (noise large enough to overflow) ends
    in ``CorpusRecordError`` naming it and no file, instead of numpy
    overflow warnings.
    """
    def file_chunks():
        yield MAGIC
        yield from json_block({"format": FORMAT_TAG, "synth": asdict(cfg)})
        for split, kind, chunks in _feature_blocks(cfg):
            n, *row = _block_shape(cfg, split, kind)
            yield from framed(n * math.prod(row), _finite_chunks(split, kind, chunks))

    with np.errstate(over="ignore"):
        atomic_write_chunks(path, file_chunks())


class Corpus:
    """Generation config plus validated records, held per split and kind as ``Columns``.

    ``splits`` are the splits it holds, in ``SPLITS`` order; ``videos``,
    ``texts`` and ``paired`` raise ``UsageError`` for any other. ``sha256``
    is the hex SHA-256 of the whole file ``load_corpus`` read, or None for a
    corpus built in memory.
    """

    def __init__(self, synth: SynthConfig, columns: dict[str, dict[str, Columns]],
                 sha256: str | None = None):
        self.synth = synth
        self.sha256 = sha256
        self.splits = _known_splits(columns)
        self._columns = {split: columns[split] for split in self.splits}

    def videos(self, split: str) -> Columns:
        return self._split(split)["video"]

    def texts(self, split: str) -> Columns:
        return self._split(split)["text"]

    def paired(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """The (video, text) features blocks of a paired split; row i of both is pair i."""
        if split not in PAIRED_SPLITS:
            raise UsageError(f"split {split!r} holds no aligned pairs")
        return self.videos(split).features, self.texts(split).features

    @property
    def records(self) -> list[Record]:
        """Every record held as a ``Record`` in file order, built from the columns on each
        read; ``features`` is a row view, and ``pair_index`` the row in a paired split
        (None in ``unlabeled``). ``perfbench/checks.py`` reads this view."""
        return [Record(rec_id, kind, split, concept, features, name,
                       row if split in PAIRED_SPLITS else None)
                for split, kinds in self._columns.items() for kind, col in kinds.items()
                for row, (rec_id, concept, name, features) in enumerate(
                    zip(col.ids, col.concept_id.tolist(), col.class_name, col.features))]

    def _split(self, split: str) -> dict[str, Columns]:
        if split not in self._columns:
            _known_splits((split,))
            raise UsageError(f"split {split!r} was not loaded; this corpus holds {self.splits}")
        return self._columns[split]


def _known_splits(splits) -> tuple[str, ...]:
    """``splits`` in ``SPLITS`` order; ``UsageError`` naming any unknown one."""
    for split in splits:
        if split not in SPLITS:
            raise UsageError(f"unknown split {split!r}; expected one of {SPLITS}")
    return tuple(split for split in SPLITS if split in splits)


def _read_features(r: FrameReader, synth: SynthConfig, split: str, kind: str, keep: bool,
                   n_frames: int | None) -> Columns | None:
    """A split's features block of ``kind`` as its ``Columns`` if ``keep``, else None.

    The block is read in chunks of whole records of about ``_CHUNK_VALUES``
    values: straight into the kept array, or, for a dropped block or a kept
    video block sampled to ``n_frames`` frames, into one chunk buffer, of
    which a sampled block keeps each record's ``sample_frame_indices``
    frames. Every way, every value is hashed, CRC-checked and checked finite.
    """
    r.section = f"{split} {kind} features"
    n, *shape = _block_shape(synth, split, kind)
    row_len = math.prod(shape)
    (count,) = r.unpack("<q")
    if count != n * row_len:
        raise CorpusFormatError(f"{r.source}: {r.section}: {count} values, but the header "
                                f"gives {n} records of {row_len} values")
    r.need(8 * count)
    step = max(1, _CHUNK_VALUES // row_len)
    # T = n_frames samples a block to itself, so it is read straight in.
    sampled = keep and kind == "video" and n_frames not in (None, shape[0])
    if keep:
        out = np.empty((n, n_frames, shape[1]) if sampled else (n, *shape), dtype="<f8")
    if sampled:
        frames = sample_frame_indices(shape[0], n_frames)
    buffer = np.empty((min(n, step), *shape), dtype="<f8") if sampled or not keep else None
    crc, bad = 0, None
    for start in range(0, n, step):
        stop = min(n, start + step)
        chunk = out[start:stop] if buffer is None else buffer[:stop - start]
        r.readinto(chunk)
        crc = zlib.crc32(chunk, crc)
        if bad is None and not np.isfinite(chunk).all():
            bad = start + int(np.argmin(np.isfinite(chunk).reshape(-1))) // row_len
        if sampled:
            out[start:stop] = chunk[:, frames]
    r.check_crc(crc)
    if bad is not None:
        rec_id = _id_format(split, kind).format(bad)
        raise CorpusRecordError(f"record {rec_id!r}: non-finite features")
    return _split_columns(synth, split, kind, out) if keep else None


def load_corpus(path, splits=SPLITS, n_frames: int | None = None) -> Corpus:
    """Read and check a corpus file; keep the records of ``splits``.

    Every block is read and checked, so a file fails here exactly as it
    would with all splits kept. Framing errors name the file and the
    section; a non-finite value names its record. With ``n_frames``, each
    kept video block holds only the ``sample_frame_indices(T, n_frames)``
    frames of each record, ``(n, n_frames, d_v)``, the bits of
    ``sample_frames`` of the whole block, which then samples it again as
    the identity, without a copy.
    """
    path = Path(path)
    splits = _known_splits(splits)
    with open(path, "rb") as fh:
        r = FrameReader(fh, str(path), CorpusFormatError, "magic tag")
        if r.size < len(MAGIC) or r.take(len(MAGIC)) != MAGIC:
            raise CorpusFormatError(f"{path}: bad magic tag, not a {FORMAT_TAG} file")
        header = r.read_json("header")
        if type(header) is not dict or header.get("format") != FORMAT_TAG \
                or type(header.get("synth")) is not dict:
            raise CorpusFormatError(f"{path}: header: expected a {FORMAT_TAG} header")
        try:
            synth = SynthConfig(**header["synth"])
        except (TypeError, UsageError) as exc:
            raise CorpusFormatError(f"{path}: header: bad generation config: {exc}") from exc
        columns = {split: {kind: _read_features(r, synth, split, kind, split in splits, n_frames)
                           for kind in KINDS} for split in SPLITS}
        if not r.at_end():
            raise CorpusFormatError(f"{path}: trailing bytes after the corpus")
    return Corpus(synth, {split: columns[split] for split in splits}, r.digest.hexdigest())


def prompt_feature_fn(synth: SynthConfig):
    """Factory for the class-prompt feature generator.

    Desk-scale stand-in for a text pipeline: the latent of a formatted prompt
    is the class concept nudged by a jitter keyed on the prompt wording, then
    mapped into text-feature space. Deterministic in (seed, prompt text,
    class).
    """
    concepts = concept_vectors(synth)
    a_t = text_feature_map(synth)

    def feature(prompt_text: str, class_idx: int) -> np.ndarray:
        if not 0 <= class_idx < synth.n_concepts:
            raise UsageError(f"class index {class_idx} out of range")
        text_key = zlib.crc32(prompt_text.encode("utf-8"))
        rng = np.random.default_rng([synth.seed, _STREAM_PROMPT, text_key, class_idx])
        latent = _jittered_latent(concepts[class_idx], synth.prompt_jitter, rng)
        return np.einsum("ij,j->i", a_t, latent)

    return feature

