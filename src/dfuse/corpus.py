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
maps and the noise scaling then run once per split, and the features are
written over the noise draws in place, so each record's features are a row
view of its split's array. This gives the bits of computing every record on
its own.

File format (``dfuse-corpus-v1``): JSON Lines. The first line is a header
carrying the full generation config; each further line is one record with
inline feature arrays. Floats round-trip exactly through ``repr``.

``gen_corpus`` streams the file one line at a time through the atomic
temp-file writer, so the whole text is never held in memory. Each line has
the bytes ``json.dumps`` gives the record; ``corpus_lines`` writes the
features through orjson, straight from a C-contiguous float64 array, where
that spells every value the same, and falls back to ``json.dumps`` for the
whole line where it might not.
``load_corpus`` reads the file line by line in binary mode and parses each
record line with orjson. A line orjson rejects is parsed again with ``json``,
so ``NaN``/``Infinity``, integers too large for a double and syntax errors
give the stdlib's values and messages; the header line always goes through
``json``. Both parsers give the same bits for every feature value. orjson
reads other integers past 64 bits as floats, so ``concept_id`` and
``pair_index`` must be 64-bit integers whichever parser read them. Feature
values must be JSON numbers; ``_numbers_only`` proves that, and finiteness,
for a typical orjson-parsed line from three byte scans, and every other line
gets the element-wise checks.

A caller that reads only some splits names them (``load_corpus(path,
splits)``). Every line is still read, hashed, parsed and checked, and the
pairing of every paired split is still checked, but a record outside
``splits`` is checked without its feature array or ``CorpusRecord`` ever
being built: when its line passed ``_numbers_only``, ``_listed_shape`` reads
the array's shape off the parsed lists, and only when that proof is unsure
does ``np.asarray`` build the array as for a kept record. Every error and its
message are the same either way. The returned ``Corpus`` holds only the
named splits, and asking it for another raises ``UsageError`` instead of
returning an empty split.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import zlib
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError, CorpusRecordError, UsageError
from .fileio import atomic_write_chunks

SPLITS = ("labeled-train", "labeled-val", "unlabeled", "eval")
PAIRED_SPLITS = ("labeled-train", "labeled-val", "eval")
FORMAT_TAG = "dfuse-corpus-v1"

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


@dataclass(eq=False, slots=True)
class CorpusRecord:
    id: str
    kind: str    # "video" | "text"
    split: str
    concept_id: int
    features: np.ndarray  # video: (T, d_v); text: (d_t,)
    class_name: str | None = None
    pair_index: int | None = None


def class_name_for(concept_id: int, n_concepts: int) -> str:
    width = len(str(n_concepts - 1))
    return f"concept_{concept_id:0{width}d}"


def _unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(float(np.einsum("i,i->", v, v)))


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
    offset = rng.standard_normal(base.shape[0]) * (scale / math.sqrt(base.shape[0]))
    return _unit(base + offset)


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
    """Generate all records in memory, deterministically from the seed.

    Each record's features are a row view of its split's feature array.
    """
    concepts = concept_vectors(cfg)
    video = (video_feature_map(cfg), (cfg.frames_per_video, cfg.d_v))
    text = (text_feature_map(cfg), (cfg.d_t,))
    records: list[CorpusRecord] = []

    paired_counts = {
        "labeled-train": cfg.n_labeled_train,
        "labeled-val": cfg.n_labeled_val,
        "eval": cfg.n_eval,
    }
    for split_idx, split in enumerate(PAIRED_SPLITS):
        n = paired_counts[split]
        videos, texts = _split_features(
            cfg, concepts, (cfg.seed, _STREAM_PAIR, split_idx), n, (video, text))
        for i in range(n):
            concept = i % cfg.n_concepts
            cls = class_name_for(concept, cfg.n_concepts) if split == "eval" else None
            records.append(CorpusRecord(
                id=f"vid-{split}-{i:05d}", kind="video", split=split,
                concept_id=concept, features=videos[i], class_name=cls, pair_index=i,
            ))
            records.append(CorpusRecord(
                id=f"txt-{split}-{i:05d}", kind="text", split=split,
                concept_id=concept, features=texts[i], pair_index=i,
            ))

    for kind, tag, stream, spec in (("video", "vid", _STREAM_UNLABELED_VIDEO, video),
                                    ("text", "txt", _STREAM_UNLABELED_TEXT, text)):
        (features,) = _split_features(cfg, concepts, (cfg.seed, stream), cfg.n_unlabeled, (spec,))
        for i in range(cfg.n_unlabeled):
            records.append(CorpusRecord(
                id=f"{tag}-unlabeled-{i:05d}", kind=kind, split="unlabeled",
                concept_id=i % cfg.n_concepts, features=features[i],
            ))
    return Corpus(cfg, records)


def corpus_lines(corpus: "Corpus") -> Iterator[bytes]:
    """The corpus file, one encoded line at a time.

    Every line is the bytes of ``json.dumps(payload)``. orjson writes each
    feature array as C-contiguous float64 (a copy only for an array that is
    not: float32 widens exactly), with the same shortest round-trip digits
    as ``repr``. It spells a float differently only in exponent form (``1e16``,
    ``9.2e-6``), below 1e-4 (``0.0000505``) and for a non-finite value
    (``null``). A record whose
    orjson features contain ``e``, ``n`` or ``0.0000`` is therefore written
    whole by ``json.dumps``; any other gets orjson's features spliced after
    ``json.dumps`` of its other fields. Every non-finite value takes the
    ``json.dumps`` branch (orjson spells it ``null``), so that branch alone
    checks finiteness and raises ``CorpusRecordError`` naming the record:
    ``load_corpus`` would reject the file.
    """
    # Imported here: commands that write no corpus skip orjson's import cost.
    import orjson

    header = {"record": "header", "format": FORMAT_TAG, "synth": asdict(corpus.synth)}
    yield (json.dumps(header) + "\n").encode()
    for rec in corpus.records:
        payload = {
            "record": "item",
            "id": rec.id,
            "kind": rec.kind,
            "split": rec.split,
            "concept_id": rec.concept_id,
            "pair_index": rec.pair_index,
            "class_name": rec.class_name,
        }
        values = np.ascontiguousarray(rec.features, dtype=np.float64)
        features = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")
        if b"e" in features or b"n" in features or b"0.0000" in features:
            if not np.isfinite(values).all():
                raise CorpusRecordError(f"record {rec.id!r}: non-finite features")
            payload["features"] = values.tolist()
            yield (json.dumps(payload) + "\n").encode()
        else:  # "features" is the last key, so it goes before the closing brace
            yield json.dumps(payload)[:-1].encode() + b', "features": ' + features + b"}\n"


def gen_corpus(cfg: SynthConfig, path) -> "Corpus":
    """Generate and write a corpus file; returns the in-memory corpus.

    Noise large enough to overflow ends in the writer's ``CorpusRecordError``
    and no file, instead of numpy overflow warnings.
    """
    with np.errstate(over="ignore"):
        corpus = build_corpus(cfg)
    atomic_write_chunks(path, corpus_lines(corpus))
    return corpus


class Corpus:
    """Loaded corpus: generation config plus validated records, indexed by split.

    ``splits`` are the splits it holds, in ``SPLITS`` order; ``videos``,
    ``texts``, ``paired`` and ``unpaired`` raise ``UsageError`` for any
    other. ``sha256`` is the hex SHA-256 of the whole file ``load_corpus``
    read, or None for a corpus built in memory.
    """

    def __init__(self, synth: SynthConfig, records: list[CorpusRecord], sha256: str | None = None,
                 splits=SPLITS):
        self.synth = synth
        self.records = records
        self.sha256 = sha256
        self.splits = _known_splits(splits)
        self._by_split: dict[str, dict[str, list[CorpusRecord]]] = {
            split: {"video": [], "text": []} for split in self.splits
        }
        for rec in records:
            self._check_split(rec.split)
            self._by_split[rec.split][rec.kind].append(rec)
        self._pairs: dict[str, tuple[list[np.ndarray], np.ndarray]] = {}

    def videos(self, split: str) -> list[CorpusRecord]:
        self._check_split(split)
        return self._by_split[split]["video"]

    def texts(self, split: str) -> list[CorpusRecord]:
        self._check_split(split)
        return self._by_split[split]["text"]

    def paired(self, split: str):
        """Aligned (video stacks, text feature matrix) ordered by pair index."""
        if split not in PAIRED_SPLITS:
            raise UsageError(f"split {split!r} holds no aligned pairs")
        if split not in self._pairs:
            vids = sorted(self.videos(split), key=lambda r: r.pair_index)
            txts = sorted(self.texts(split), key=lambda r: r.pair_index)
            stacks = [r.features for r in vids]
            texts = (
                np.stack([r.features for r in txts])
                if txts else np.zeros((0, self.synth.d_t))
            )
            self._pairs[split] = (stacks, texts)
        return self._pairs[split]

    def unpaired(self, split: str):
        """(video stacks, text feature matrix) with no alignment between them."""
        stacks = [r.features for r in self.videos(split)]
        txts = self.texts(split)
        texts = np.stack([r.features for r in txts]) if txts else np.zeros((0, self.synth.d_t))
        return stacks, texts

    def _check_split(self, split: str) -> None:
        if split not in self._by_split:
            _known_splits((split,))
            raise UsageError(f"split {split!r} was not loaded; this corpus holds {self.splits}")


def _known_splits(splits) -> tuple[str, ...]:
    """``splits`` in ``SPLITS`` order; ``UsageError`` naming any unknown one."""
    for split in splits:
        if split not in SPLITS:
            raise UsageError(f"unknown split {split!r}; expected one of {SPLITS}")
    return tuple(split for split in SPLITS if split in splits)


def _is_int64(value) -> bool:
    # orjson reads integers outside 64 bits as floats and ``json`` as ints;
    # rejecting both makes the result independent of which parser read the line.
    return type(value) is int and -(1 << 63) <= value < (1 << 63)


def _validate_pairing(keys: dict) -> None:
    """Check each paired split's video/text pairing.

    ``keys[split][kind]`` lists ``(pair_index, concept_id, id)`` for every
    record of that split and kind, in file order, whether or not its
    features were kept.
    """
    for split in PAIRED_SPLITS:
        listed_videos, listed_texts = keys[split]["video"], keys[split]["text"]
        videos = {index: (concept, rec_id) for index, concept, rec_id in listed_videos}
        texts = {index: (concept, rec_id) for index, concept, rec_id in listed_texts}
        if len(videos) != len(listed_videos) or len(texts) != len(listed_texts):
            raise CorpusRecordError(f"split {split!r}: duplicate pair_index")
        if videos.keys() != texts.keys():
            raise CorpusRecordError(f"split {split!r}: unmatched video/text pair indices")
        for idx, (concept, vid_id) in videos.items():
            if concept != texts[idx][0]:
                raise CorpusRecordError(
                    f"pair {idx} in split {split!r}: concept mismatch "
                    f"({vid_id!r} vs {texts[idx][1]!r})"
                )


_BLANK = object()


class _HashingReader(io.RawIOBase):
    """Raw reader that feeds every chunk it reads to a SHA-256 digest.

    Under a ``BufferedReader`` it sees the file in whole buffer-sized reads,
    so hashing costs one ``update`` per chunk, not one per line.
    """

    def __init__(self, raw):
        self._raw = raw
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        if n:
            self.digest.update(memoryview(buffer)[:n])
        return n


def _lines(fh) -> Iterator[bytes]:
    """Lines of a binary file, split at LF, CRLF or a lone CR as text mode does."""
    for line in fh:
        if b"\r" in line:
            yield from line.splitlines()
        else:
            yield line


def _numbers_only(line: bytes) -> bool:
    """Cheap screen of a line orjson parsed: True only if its features are finite numbers.

    The first ``"features"`` must be the top-level key: its quote not escaped,
    a colon right after it and one ``}`` past it, the line's own. Past it, a
    line as ``corpus_lines`` writes it holds only digits, ``-``, ``.``, ``e``,
    brackets, commas and spaces. A string needs a quote there, an object a
    second ``}``, and ``true``, ``false`` and ``null`` (which numpy reads as
    1.0, 0.0 and nan) a ``u`` or an ``l``; orjson rejects ``NaN``,
    ``Infinity`` and numbers too large for a double. A few byte scans, no
    allocation; a line that fails the screen gets the exact checks.
    """
    start = line.find(b'"features"')
    at = start + len(b'"features"')
    return (start > 0 and line[start - 1] != ord("\\") and line.startswith(b":", at)
            and line.find(b"}", at) == line.rfind(b"}") and line.find(b'"', at) < 0
            and line.find(b"u", at) < 0 and line.find(b"l", at) < 0)


def _listed_shape(line: bytes, values) -> tuple[int, ...] | None:
    """The shape ``np.asarray(values)`` would have, read off the parsed lists; None if unsure.

    For a line that passed ``_numbers_only``, where each ``[`` past the
    features key opens a list of ``values``: one is a flat list of numbers,
    and ``len(values) + 1`` with rows of one length is a matrix of numbers.
    """
    first = line.find(b"[", line.find(b'"features"'))
    if first < 0:
        return None
    if line.find(b"[", first + 1) < 0:
        return (len(values),)
    try:
        lengths = set(map(len, values))
    except TypeError:  # a number among the rows
        return None
    return ((len(values), *lengths)
            if line.count(b"[", first) == len(values) + 1 and len(lengths) == 1 else None)


def _holds_non_number(value) -> bool:
    """Whether a parsed feature value is, or holds at any depth, a string or a boolean."""
    if type(value) is list:
        return any(_holds_non_number(v) for v in value)
    return type(value) is str or type(value) is bool


def _loads_stdlib(line: bytes, path: Path, lineno: int):
    """Parse one line with ``json``; ``_BLANK`` for a whitespace-only line."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: line {lineno}: not valid UTF-8 ({exc.reason})") from None
    if not text.strip():
        return _BLANK
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise CorpusFormatError(
            f"{path}: line {lineno}: invalid JSON (nested too deeply)"
        ) from None


def load_corpus(path, splits=SPLITS) -> Corpus:
    """Parse and validate a corpus file; keep the records of ``splits``.

    Every line is parsed and checked, and every paired split's pairing, so a
    file fails here exactly as it would with all splits kept. Parse failures
    name the line; invariant violations name the record id. A record outside
    ``splits`` is checked from its parsed payload and dropped; of a paired
    split it keeps only its pair index, concept id and id for the pairing
    check. The whole file's bytes are hashed as they are read
    (``Corpus.sha256``).
    """
    # Imported here: commands that read no corpus skip orjson's import cost.
    import orjson

    path = Path(path)
    splits = _known_splits(splits)
    records: list[CorpusRecord] = []
    pairing_keys = {split: {"video": [], "text": []} for split in PAIRED_SPLITS}
    synth = None
    seen_ids = set()
    with open(path, "rb", buffering=0) as raw, \
            io.BufferedReader(_HashingReader(raw), 1 << 16) as fh:
        for lineno, line in enumerate(_lines(fh), start=1):
            by_orjson = False
            if synth is None:  # orjson would read header integers past 64 bits as floats
                payload = _loads_stdlib(line, path, lineno)
            else:
                try:
                    payload = orjson.loads(line)
                    by_orjson = True
                except orjson.JSONDecodeError:
                    payload = _loads_stdlib(line, path, lineno)
            if payload is _BLANK:
                continue
            if not isinstance(payload, dict):
                raise CorpusFormatError(f"{path}: line {lineno}: expected a JSON object")
            if synth is None:
                if payload.get("record") != "header" or payload.get("format") != FORMAT_TAG:
                    raise CorpusFormatError(f"{path}: line {lineno}: missing corpus header")
                try:
                    synth = SynthConfig(**payload["synth"])
                except (TypeError, KeyError, UsageError) as exc:
                    raise CorpusFormatError(
                        f"{path}: line {lineno}: bad generation config: {exc}"
                    ) from exc
                continue
            if payload.get("record") != "item":
                raise CorpusFormatError(f"{path}: line {lineno}: expected an item record")
            # numpy would read "1.5" as 1.5 and true as 1.0. The screen also
            # proves finiteness, so it replaces the per-record isfinite pass.
            numbers_only = by_orjson and _numbers_only(line)
            try:
                rec_id, kind, split = payload["id"], payload["kind"], payload["split"]
                concept_id, values = payload["concept_id"], payload["features"]
                features = shape = None
                if numbers_only and split not in splits:
                    shape = _listed_shape(line, values)
                if shape is None:
                    features = np.asarray(values, dtype=np.float64)
                    shape = features.shape
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: malformed record: {exc}") from exc
            if not isinstance(rec_id, str):
                raise CorpusFormatError(f"{path}: line {lineno}: record id must be a string")
            if rec_id in seen_ids:
                raise CorpusRecordError(f"record {rec_id!r}: duplicate id")
            seen_ids.add(rec_id)
            # numpy read these features, so their depth (<= 64) bounds the recursion.
            if not numbers_only and _holds_non_number(values):
                raise CorpusRecordError(f"record {rec_id!r}: features must be JSON numbers")
            if kind not in ("video", "text"):
                raise CorpusRecordError(f"record {rec_id!r}: unknown kind {kind!r}")
            if split not in SPLITS:
                raise CorpusRecordError(f"record {rec_id!r}: unknown split {split!r}")
            if not _is_int64(concept_id):
                raise CorpusRecordError(f"record {rec_id!r}: concept_id must be a 64-bit integer")
            if concept_id < 0:
                raise CorpusRecordError(f"record {rec_id!r}: negative concept_id")
            class_name, pair_index = payload.get("class_name"), payload.get("pair_index")
            if pair_index is not None and not _is_int64(pair_index):
                raise CorpusRecordError(f"record {rec_id!r}: pair_index must be a 64-bit integer")
            if class_name is not None and not isinstance(class_name, str):
                raise CorpusRecordError(f"record {rec_id!r}: class_name must be a string")
            if not numbers_only and not np.isfinite(features).all():
                raise CorpusRecordError(f"record {rec_id!r}: non-finite features")
            if kind == "video":
                if len(shape) != 2 or shape[0] < 1:
                    raise CorpusRecordError(
                        f"record {rec_id!r}: video features must be (T, d_v), T >= 1")
                if shape[1] != synth.d_v:
                    raise CorpusRecordError(
                        f"record {rec_id!r}: video feature dim {shape[1]} != d_v {synth.d_v}")
            elif len(shape) != 1 or shape[0] != synth.d_t:
                raise CorpusRecordError(
                    f"record {rec_id!r}: text features must be a d_t={synth.d_t} vector")
            if split in PAIRED_SPLITS:
                if pair_index is None:
                    raise CorpusRecordError(f"record {rec_id!r}: paired split needs a pair_index")
                pairing_keys[split][kind].append((pair_index, concept_id, rec_id))
            if split in splits:
                records.append(CorpusRecord(rec_id, kind, split, concept_id, features,
                                            class_name, pair_index))
        digest = fh.raw.digest.hexdigest()
    if synth is None:
        raise CorpusFormatError(f"{path}: line 1: empty file, missing corpus header")
    _validate_pairing(pairing_keys)
    return Corpus(synth, records, digest, splits)


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

