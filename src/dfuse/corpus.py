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

Only the random draws are per record: record i's own generator draws its
latent offset and then its feature noise (a pair: video, then text) into
row i of its split's arrays. The jittered latents, their norms, the feature
maps and the noise scaling then run once per split, over the noise draws in
place, with the bits of computing every record on its own. A ``Corpus`` holds
each split and kind as ``Columns`` in file order: ids, int64 ``concept_id``
and ``pair_index``, class names and the whole features block, never split
into rows.

File format (``dfuse-corpus-v2``), little-endian binary: the magic tag
``DFCORP02``; a header block, the JSON object ``{"format": "dfuse-corpus-v2",
"synth": <SynthConfig>}``; then, per split in ``SPLITS`` order and per kind
(video, then text), a metadata block, a JSON list with one ``[id,
concept_id, pair_index, class_name]`` row per record, and a features block of
the records' float64 values, ``(n, frames_per_video, d_v)`` or ``(n, d_t)``.
Each block is ``fileio.framed`` (JSON through ``fileio.json_block``) and read
through ``fileio.FrameReader``, as checkpoints are: an int64 length (bytes,
or values for features), the payload and its CRC-32. Kind, split and shape
come from the block's place, the header and the row count. A changed length
misaligns the CRC read after it or fails the check of the row count against
the block size, so every byte is checked.
A paired split stores its videos and its texts in one strictly increasing
pair order, so row i of both blocks is pair i; an unpaired split's pair
indices are not kept.

``gen_corpus`` streams each features block to the atomic temp-file writer as
one memoryview, with a running CRC. ``load_corpus(path, splits)`` hashes the
whole file (``Corpus.sha256``) and checks every CRC, metadata row and
pairing. A features block of a split in ``splits`` is read into one array; any
other is read in chunks of ``_CHUNK_VALUES`` through the same checks and
dropped, so a file fails the same way whichever splits are kept. The returned
``Corpus`` holds only the named splits and raises ``UsageError`` for any other.
"""

from __future__ import annotations

import math
import zlib
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError, CorpusRecordError, UsageError
from .fileio import FrameReader, atomic_write_chunks, framed, json_block

SPLITS = ("labeled-train", "labeled-val", "unlabeled", "eval")
PAIRED_SPLITS = ("labeled-train", "labeled-val", "eval")
KINDS = ("video", "text")
MAGIC = b"DFCORP02"
FORMAT_TAG = "dfuse-corpus-v2"
# A dropped features block is read and checked this many values (256 KiB) at a time.
_CHUNK_VALUES = 1 << 15

_STREAM_CONCEPTS = 0
_STREAM_MAP_VIDEO = 1
_STREAM_MAP_TEXT = 2
_STREAM_PAIR = 3
_STREAM_UNLABELED_VIDEO = 4
_STREAM_UNLABELED_TEXT = 5
_STREAM_PROMPT = 6
_STREAM_MAP_VIDEO_SHIFT = 7


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
    """One split's records of one kind in file order: ids, int64 ``concept_id`` and
    ``pair_index`` (None in an unpaired split), class names, the features block."""

    ids: list[str]
    concept_id: np.ndarray
    pair_index: np.ndarray | None
    class_name: list[str | None]
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self) -> list[tuple]:
        """``(id, concept_id, pair_index, class_name)`` of each record, as Python values."""
        pairs = [None] * len(self) if self.pair_index is None else self.pair_index.tolist()
        return list(zip(self.ids, self.concept_id.tolist(), pairs, self.class_name))


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


def _split_features(cfg: SynthConfig, concepts: np.ndarray, key: tuple, n: int, maps) -> list:
    """One ``(n, *shape)`` feature array per ``(feature map, noise shape)`` of
    ``maps`` for a split's ``n`` records; record i's generator is keyed
    ``(*key, i)``."""
    offsets = np.empty((n, cfg.latent_dim))
    features = [np.empty((n, *shape)) for _, shape in maps]
    for i in range(n):
        rng = np.random.default_rng([*key, i])
        rng.standard_normal(out=offsets[i])
        for out in features:
            rng.standard_normal(out=out[i])
    offsets *= cfg.concept_jitter / math.sqrt(cfg.latent_dim)
    latents = concepts[np.arange(n) % cfg.n_concepts]
    latents += offsets
    latents /= np.sqrt(np.einsum("ni,ni->n", latents, latents))[:, None]
    for (a, shape), out in zip(maps, features):
        base = np.einsum("ij,nj->ni", a, latents)
        out *= cfg.noise_sigma
        out += base[:, None, :] if len(shape) == 2 else base
    return features


def build_corpus(cfg: SynthConfig) -> "Corpus":
    """Generate all records in memory, deterministically from the seed."""
    concepts = concept_vectors(cfg)
    video = (video_feature_map(cfg), (cfg.frames_per_video, cfg.d_v))
    text = (text_feature_map(cfg), (cfg.d_t,))
    counts = {"labeled-train": cfg.n_labeled_train, "labeled-val": cfg.n_labeled_val,
              "unlabeled": cfg.n_unlabeled, "eval": cfg.n_eval}
    columns = {}
    for split in SPLITS:
        n, paired = counts[split], split in PAIRED_SPLITS
        if paired:
            key = (cfg.seed, _STREAM_PAIR, PAIRED_SPLITS.index(split))
            videos, texts = _split_features(cfg, concepts, key, n, (video, text))
        else:
            (videos,) = _split_features(cfg, concepts, (cfg.seed, _STREAM_UNLABELED_VIDEO), n,
                                        (video,))
            (texts,) = _split_features(cfg, concepts, (cfg.seed, _STREAM_UNLABELED_TEXT), n,
                                       (text,))
        concept = np.arange(n, dtype=np.int64) % cfg.n_concepts
        pair = np.arange(n, dtype=np.int64) if paired else None
        names = ([class_name_for(c, cfg.n_concepts) for c in concept.tolist()]
                 if split == "eval" else [None] * n)
        ids = [f"{split}-{i:05d}" for i in range(n)]
        columns[split] = {
            "video": Columns(["vid-" + i for i in ids], concept, pair, names, videos),
            "text": Columns(["txt-" + i for i in ids], concept, pair, [None] * n, texts)}
    return Corpus(cfg, columns)


def _file_chunks(corpus: "Corpus") -> Iterator:
    """The corpus file, block by block; each features block is one chunk."""
    yield MAGIC
    yield from json_block({"format": FORMAT_TAG, "synth": asdict(corpus.synth)})
    for split in SPLITS:
        for kind in KINDS:
            col = corpus._columns[split][kind]
            yield from json_block(col.rows())
            values = np.ascontiguousarray(col.features, dtype="<f8")
            finite = np.isfinite(values)
            if not finite.all():
                bad = int(np.argmin(finite.reshape(-1))) // values[0].size
                raise CorpusRecordError(f"record {col.ids[bad]!r}: non-finite features")
            yield from framed(values.size, (memoryview(values),))


def gen_corpus(cfg: SynthConfig, path) -> "Corpus":
    """Generate and write a corpus file; returns the in-memory corpus.

    A record whose features are not all finite (noise large enough to
    overflow) ends in ``CorpusRecordError`` naming it and no file, instead
    of numpy overflow warnings.
    """
    with np.errstate(over="ignore"):
        corpus = build_corpus(cfg)
    atomic_write_chunks(path, _file_chunks(corpus))
    return corpus


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
        read; ``features`` is a row view. ``perfbench/checks.py`` reads this view."""
        return [Record(rec_id, kind, split, concept, features, name, pair)
                for split, kinds in self._columns.items() for kind, col in kinds.items()
                for (rec_id, concept, pair, name), features in zip(col.rows(), col.features)]

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


def _is_int64(value) -> bool:
    # A JSON integer is a Python int of any size; a boolean is not one.
    return type(value) is int and -(1 << 63) <= value < (1 << 63)


def _check_pairing(split: str, videos: Columns, texts: Columns) -> None:
    """Videos and texts list each pair index once, in one increasing order, with one concept."""
    v, t = np.sort(videos.pair_index), np.sort(texts.pair_index)
    if (v[1:] == v[:-1]).any() or (t[1:] == t[:-1]).any():
        raise CorpusRecordError(f"split {split!r}: duplicate pair_index")
    if not np.array_equal(v, t):
        raise CorpusRecordError(f"split {split!r}: unmatched video/text pair indices")
    for col in (videos, texts):
        late = np.flatnonzero(col.pair_index[1:] < col.pair_index[:-1])
        if late.size:
            rec_id = col.ids[int(late[0]) + 1]
            raise CorpusRecordError(f"split {split!r}: record {rec_id!r} is out of pair order")
    bad = np.flatnonzero(videos.concept_id != texts.concept_id)
    if bad.size:
        i = int(bad[0])
        raise CorpusRecordError(f"pair {v[i]} in split {split!r}: concept mismatch "
                                f"({videos.ids[i]!r} vs {texts.ids[i]!r})")


def _read_metadata(r: FrameReader, section: str, paired: bool, seen_ids: set) -> tuple:
    """A block's checked rows as the ``ids``, ``concept_id``, ``pair_index``
    (None in an unpaired split) and ``class_name`` columns."""
    rows = r.read_json(section)
    if type(rows) is not list:
        raise CorpusFormatError(f"{r.source}: {section}: expected a JSON list")
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != 4:
            raise CorpusFormatError(f"{r.source}: {section}: row {i}: expected "
                                    "[id, concept_id, pair_index, class_name]")
        rec_id, concept_id, pair_index, class_name = row
        if not isinstance(rec_id, str):
            raise CorpusFormatError(f"{r.source}: {section}: row {i}: record id must be a string")
        if rec_id in seen_ids:
            raise CorpusRecordError(f"record {rec_id!r}: duplicate id")
        seen_ids.add(rec_id)
        if not _is_int64(concept_id):
            raise CorpusRecordError(f"record {rec_id!r}: concept_id must be a 64-bit integer")
        if concept_id < 0:
            raise CorpusRecordError(f"record {rec_id!r}: negative concept_id")
        if pair_index is not None and not _is_int64(pair_index):
            raise CorpusRecordError(f"record {rec_id!r}: pair_index must be a 64-bit integer")
        if class_name is not None and not isinstance(class_name, str):
            raise CorpusRecordError(f"record {rec_id!r}: class_name must be a string")
        if paired and pair_index is None:
            raise CorpusRecordError(f"record {rec_id!r}: paired split needs a pair_index")
    ids, concepts, pairs, names = zip(*rows) if rows else ((), (), (), ())
    return (list(ids), np.array(concepts, dtype=np.int64),
            np.array(pairs, dtype=np.int64) if paired else None, list(names))


def _read_features(r: FrameReader, section: str, ids: list, shape: tuple,
                   keep: bool) -> np.ndarray | None:
    """A features block as one ``(len(ids), *shape)`` array if ``keep``; else it is
    read in chunks and dropped (None). Both ways every value is hashed,
    CRC-checked and checked finite."""
    r.section = section
    row_len = math.prod(shape)
    (count,) = r.unpack("<q")
    if count != len(ids) * row_len:
        raise CorpusFormatError(f"{r.source}: {section}: {count} values, but {len(ids)} "
                                f"records of {row_len} values")
    r.need(8 * count)
    values = np.empty(count if keep else min(count, _CHUNK_VALUES), dtype="<f8")
    crc, bad = 0, None
    for start in range(0, count, _CHUNK_VALUES):
        chunk = values[start:start + _CHUNK_VALUES] if keep else values[:count - start]
        r.readinto(chunk)
        crc = zlib.crc32(chunk, crc)
        if bad is None and not np.isfinite(chunk).all():
            bad = start + int(np.argmin(np.isfinite(chunk)))
    r.check_crc(crc)
    if bad is not None:
        raise CorpusRecordError(f"record {ids[bad // row_len]!r}: non-finite features")
    return values.reshape(len(ids), *shape) if keep else None


def load_corpus(path, splits=SPLITS) -> Corpus:
    """Read and check a corpus file; keep the records of ``splits``.

    Every block is read and checked, and every paired split's pairing, so a
    file fails here exactly as it would with all splits kept. Framing errors
    name the file and the section; record errors name the record id.
    """
    path = Path(path)
    splits = _known_splits(splits)
    columns: dict[str, dict[str, Columns]] = {}
    seen_ids: set[str] = set()
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
        for split in SPLITS:
            columns[split] = {}
            for kind in KINDS:
                meta = _read_metadata(r, f"{split} {kind} metadata", split in PAIRED_SPLITS,
                                      seen_ids)
                shape = (synth.frames_per_video, synth.d_v) if kind == "video" else (synth.d_t,)
                # A dropped split keeps its metadata, for the pairing check only.
                columns[split][kind] = Columns(*meta, _read_features(
                    r, f"{split} {kind} features", meta[0], shape, split in splits))
        if not r.at_end():
            raise CorpusFormatError(f"{path}: trailing bytes after the corpus")
    for split in PAIRED_SPLITS:
        _check_pairing(split, columns[split]["video"], columns[split]["text"])
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

