"""Seeded mutation fuzzing of the corpus loader.

Each case mutates one features block of a split that ``eval-retrieval``
drops and loads the file twice: keeping only ``eval`` and keeping every
split. The two loads must end in the same error class and message, or both
load and agree on every kept record, bit for bit. Byte mutations
(truncation, flipped bits, an overwritten length field) leave the CRCs as
they were. Value mutations (non-finite, changed, swapped, dropped or added
rows of features, or a resized split in the header) are framed again with
fresh CRCs, so that they reach the checks behind the checksum. A sample of
the failing files then goes through the CLI, which must end in one
``error:`` line and no output.

The framing tests flip every bit of a tiny corpus's magic tag, header and
block-length fields, one field to a case, and a seeded sample of the bits of
its features blocks.
"""

import json
import os
import struct

import numpy as np
import pytest

from framedfile import CORPUS_NAMES, blocks, edit_json, edit_values, replace
from dfuse.checkpointio import Checkpoint, save_checkpoint
from dfuse.cli import cli_dispatch
from dfuse.corpus import MAGIC, SPLITS, SynthConfig, gen_corpus, load_corpus
from dfuse.encoder import EncoderConfig, init_params
from dfuse.errors import CorpusFormatError, CorpusRecordError, DfuseError
from dfuse.losses import LossConfig

SEED = 20_221
CASES_PER_MUTATION = 24
KEPT = ("eval",)
DROPPED_BLOCKS = [name for name in CORPUS_NAMES if name.split()[0] in
                  ("labeled-train", "labeled-val", "unlabeled")]
# Eight-byte values an overwritten length field is set to, besides random bytes.
LENGTHS = (0, 1, -1, 7, 2**31, 2**62, -(2**63))


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


# --- byte mutations: (data, block name, rng) -> data; CRCs left as they were --------

def _truncate(data, name, rng):
    count, payload, start = blocks(data)[name]
    return data[:start + int(rng.integers(len(payload) + 12))]


def _flip_bits(data, name, rng):
    _, payload, start = blocks(data)[name]
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        out[start + int(rng.integers(len(payload) + 12))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _overwrite_length(data, name, rng):
    start = blocks(data)[name][2]
    value = struct.pack("<q", _pick(rng, LENGTHS)) if rng.integers(2) else rng.bytes(8)
    return data[:start] + value + data[start + 8:]


# --- value mutations: (data, block name, rng) -> data, framed again --------------

def _non_finite(data, name, rng):
    def change(values):
        values[int(rng.integers(len(values)))] = _pick(rng, [np.nan, np.inf, -np.inf])
    return edit_values(data, name, change)


def _new_values(data, name, rng):
    """Finite values only: the file still loads."""
    def change(values):
        values[:] = rng.standard_normal(len(values)) * 10.0 ** int(rng.integers(-300, 300))
    return edit_values(data, name, change)


def _row_len(data, name):
    """Values per record of features block ``name``, from the file's header."""
    synth = json.loads(blocks(data)["header"][1])["synth"]
    return synth["frames_per_video"] * synth["d_v"] if "video" in name else synth["d_t"]


def _drop_or_add_row(data, name, rng):
    """One record's values fewer or more: the count no longer fits the header."""
    payload, size = blocks(data)[name][1], _row_len(data, name)
    extra = rng.standard_normal(size).astype("<f8").tobytes()
    return replace(data, name, payload[:-8 * size] if rng.integers(2) else payload + extra)


def _swap_rows(data, name, rng):
    """Two records' values swapped: the file still loads."""
    def change(values):
        rows = values.reshape(-1, _row_len(data, name))
        i, j = rng.choice(len(rows), 2, replace=False)
        rows[[i, j]] = rows[[j, i]]
    return edit_values(data, name, change)


def _resize_split(data, name, rng):
    """The header's size of the block's split moved by one to three records."""
    size = "n_" + name.split()[0].replace("-", "_")
    delta = int(rng.integers(1, 4)) * (1 if rng.integers(2) else -1)
    return edit_json(data, "header", lambda h: h["synth"].update({size: h["synth"][size] + delta}))


def _unchanged(data, name, rng):
    return data


# mutation name -> mutate
MUTATIONS = {f.__name__[1:]: f for f in (_truncate, _flip_bits, _overwrite_length, _non_finite,
                                         _new_values, _drop_or_add_row, _swap_rows,
                                         _resize_split, _unchanged)}
# The mutations whose every case still loads.
LOADING = ("new_values", "swap_rows", "unchanged")


def _outcome(path, splits):
    """The error class and message of ``load_corpus(path, splits)``, or what it kept."""
    try:
        corpus = load_corpus(path, splits)
    except DfuseError as exc:
        return type(exc), str(exc)
    return corpus.synth, corpus.sha256, [
        (col.ids, col.concept_id.tolist(), col.class_name, col.features.dtype,
         col.features.shape, col.features.tobytes())
        for split in KEPT for col in (corpus.videos(split), corpus.texts(split))]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """``(directory, corpus bytes)``."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "corpus.jsonl"
    gen_corpus(SynthConfig(n_concepts=4, latent_dim=6, d_v=8, d_t=8, frames_per_video=3,
                           n_labeled_train=6, n_labeled_val=4, n_unlabeled=6, n_eval=4, seed=5),
               path)
    return root, path.read_bytes()


def _cases(base, name):
    """``(case, file bytes)`` of each seeded case of mutation ``name``."""
    for case in range(CASES_PER_MUTATION):
        rng = np.random.default_rng([SEED, list(MUTATIONS).index(name), case])
        yield case, MUTATIONS[name](base[1], _pick(rng, DROPPED_BLOCKS), rng)


@pytest.mark.parametrize("name", MUTATIONS)
def test_a_dropped_block_loads_or_fails_as_in_a_full_load(base, name):
    path = base[0] / f"{name}.jsonl"
    for case, data in _cases(base, name):
        path.write_bytes(data)
        full = _outcome(path, SPLITS)
        assert _outcome(path, KEPT) == full, (name, case)
        if name in LOADING:
            assert not isinstance(full[0], type), full


def test_the_mutations_reach_every_outcome(base):
    messages = set()
    path = base[0] / "reach.jsonl"
    for name in MUTATIONS:
        for _, data in _cases(base, name):
            path.write_bytes(data)
            full = _outcome(path, SPLITS)
            messages.add(full[1] if isinstance(full[0], type) else "loaded")
    for expected in ("loaded", "truncated", "checksum mismatch", "records of 24 values",
                     "records of 8 values", "non-finite features"):
        assert any(expected in message for message in messages), expected


@pytest.fixture(scope="module")
def teacher(tmp_path_factory):
    enc = EncoderConfig(input_dim_video=8, input_dim_text=8, hidden_dim=5, embed_dim=3,
                        n_frames=2, seed=1)
    path = tmp_path_factory.mktemp("teacher") / "teacher.ckpt"
    save_checkpoint(path, Checkpoint(enc, LossConfig(), init_params(enc), 0, float("nan")))
    return path


def _fails_on_the_command_line(data, message, teacher, tmp_path, capsys):
    """``eval-retrieval`` on corpus ``data`` must exit 2 with ``error: message`` alone."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    capsys.readouterr()
    code = cli_dispatch(["eval-retrieval", "--ckpt", str(teacher), "--corpus", str(corpus),
                         "--out", str(tmp_path / "rep")])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_failing_cases_are_one_error_line_on_the_command_line(base, teacher, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    ran = 0
    for name in MUTATIONS:  # the first failing case of each mutation
        for case, data in _cases(base, name):
            path.write_bytes(data)
            full = _outcome(path, SPLITS)
            if isinstance(full[0], type):
                _fails_on_the_command_line(data, full[1], teacher, tmp_path, capsys)
                ran += 1
                break
    assert ran == len(MUTATIONS) - len(LOADING)


@pytest.fixture(scope="module")
def flip_base(tmp_path_factory):
    """The bytes of a tiny corpus, every block a few dozen bytes."""
    path = tmp_path_factory.mktemp("flip") / "corpus.jsonl"
    gen_corpus(SynthConfig(n_concepts=2, latent_dim=2, d_v=8, d_t=8, frames_per_video=2,
                           n_labeled_train=1, n_labeled_val=1, n_unlabeled=1, n_eval=2, seed=3),
               path)
    return path.read_bytes()


# The framing fields: the magic tag, the header block (its length and CRC
# fields too) and each features block's length field.
FRAMING_FIELDS = ("magic tag", "header", *(f"{name} length" for name in CORPUS_NAMES[1:]))


def _spans(data):
    """``(framing field -> byte offsets, offsets of the features blocks' values and CRCs)``."""
    parts = blocks(data)
    header = parts.pop("header")
    fields = {"magic tag": range(len(MAGIC)),
              "header": range(header[2], header[2] + len(header[1]) + 12),
              **{f"{name} length": range(start, start + 8)
                 for name, (_, _, start) in parts.items()}}
    values = [at for _, payload, start in parts.values()
              for at in range(start + 8, start + len(payload) + 12)]
    return fields, values


def test_the_framing_fields_and_the_values_cover_the_file(flip_base):
    fields, values = _spans(flip_base)
    assert tuple(fields) == FRAMING_FIELDS
    assert sorted([*values, *(at for span in fields.values() for at in span)]) \
        == [*range(len(flip_base))]


def _flipped_load(fh, path, data, at, bit):
    """The one-line message of loading ``path`` with bit ``bit`` of byte ``at``
    flipped in place; the byte is restored after."""
    os.pwrite(fh.fileno(), bytes([data[at] ^ 1 << bit]), at)
    with pytest.raises((CorpusFormatError, CorpusRecordError)) as info:
        load_corpus(path, KEPT)
    os.pwrite(fh.fileno(), data[at:at + 1], at)
    assert "\n" not in str(info.value), (at, bit)
    return str(info.value)


@pytest.mark.parametrize("field", FRAMING_FIELDS)
def test_every_framing_bit_flip_is_one_error(flip_base, teacher, tmp_path, capsys, field):
    """Each single-bit flip of ``field`` fails the load that ``eval-retrieval``
    makes, with one line naming the file.

    The command line turns that error into exit 2 and one ``error:`` line
    (the mutation cases above show that the load fails the same way whatever
    splits it keeps); the first flip and a seeded sample of the others go
    through it.
    """
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(flip_base)
    failures = []
    with open(path, "r+b", buffering=0) as fh:  # flip one byte in place, then restore it
        for at in _spans(flip_base)[0][field]:
            for bit in range(8):
                message = _flipped_load(fh, path, flip_base, at, bit)
                assert message.startswith(f"{path}: "), (at, bit, message)
                failures.append((at, bit, message))
    rng = np.random.default_rng([SEED, FRAMING_FIELDS.index(field)])
    for index in {0, *(int(i) for i in rng.integers(len(failures), size=3))}:
        at, bit, message = failures[index]
        flipped = bytearray(flip_base)
        flipped[at] ^= 1 << bit
        _fails_on_the_command_line(bytes(flipped), message, teacher, tmp_path, capsys)


def test_a_sample_of_value_flips_is_one_error(flip_base, tmp_path):
    """A seeded sample of flips of the features blocks' values and CRCs fails too."""
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(flip_base)
    values = _spans(flip_base)[1]
    rng = np.random.default_rng(SEED)
    with open(path, "r+b", buffering=0) as fh:
        for at, bit in zip(rng.choice(values, 256), rng.integers(8, size=256)):
            _flipped_load(fh, path, flip_base, int(at), int(bit))
