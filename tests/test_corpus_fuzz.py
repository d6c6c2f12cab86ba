"""Seeded mutation fuzzing of the corpus loader.

Each case mutates one block of a split that ``eval-retrieval`` drops and
loads the file twice: keeping only ``eval`` and keeping every split. The two
loads must end in the same error class and message, or both load and agree
on every kept record, bit for bit. Byte mutations (truncation, flipped bits,
an overwritten length field) leave the CRCs as they were. Value mutations
(metadata values retyped, nulled, copied, renumbered or dropped, rows dropped,
added or swapped, non-finite or changed features, bad JSON) are framed again with
fresh CRCs, so that they reach the checks behind the checksum. A sample of
the failing files then goes through the CLI, which must end in one
``error:`` line and no output.

A second test flips every bit of a tiny corpus's magic tag, header and
metadata blocks, and a seeded sample of the bits of its features blocks.
"""

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
# Values a metadata field is retyped to.
OTHER_VALUES = (None, True, False, 0, 1, -1, 1.5, 2**63, 2**64, "", "x", "vid-labeled-val-00000",
                [], {}, [1.0], {"a": 1}, [[0.5]])
# Eight-byte values an overwritten length field is set to, besides random bytes.
LENGTHS = (0, 1, -1, 7, 2**31, 2**62, -(2**63))


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _block(rng, part):
    return _pick(rng, [name for name in DROPPED_BLOCKS if name.endswith(part)])


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

def _retype_value(data, name, rng):
    def change(rows):
        rows[int(rng.integers(len(rows)))][int(rng.integers(4))] = _pick(rng, OTHER_VALUES)
    return edit_json(data, name, change)


def _null_value(data, name, rng):
    def change(rows):
        rows[int(rng.integers(len(rows)))][int(rng.integers(4))] = None
    return edit_json(data, name, change)


def _copy_value(data, name, rng):
    """One row's field set to another row's: a duplicate id or pair index."""
    def change(rows):
        column = int(rng.integers(4))
        rows[int(rng.integers(len(rows)))][column] = _pick(rng, rows)[column]
    return edit_json(data, name, change)


def _renumber_value(data, name, rng):
    """A concept id or pair index set to a small integer: a pairing fault, often."""
    def change(rows):
        rows[int(rng.integers(len(rows)))][int(rng.integers(1, 3))] = int(rng.integers(-1, 12))
    return edit_json(data, name, change)


def _drop_value(data, name, rng):
    def change(rows):
        rows[int(rng.integers(len(rows)))].pop(int(rng.integers(4)))
    return edit_json(data, name, change)


def _drop_or_add_row(data, name, rng):
    def change(rows):
        at = int(rng.integers(len(rows)))
        if rng.integers(2):
            rows.pop(at)
        else:
            rows.insert(at, list(_pick(rng, rows)))
    return edit_json(data, name, change)


def _swap_rows(data, name, rng):
    """Two rows swapped: a paired split out of pair order."""
    def change(rows):
        i, j = rng.choice(len(rows), size=2, replace=False)
        rows[i], rows[j] = rows[j], rows[i]
    return edit_json(data, name, change)


def _nest(data, name, rng):
    def change(rows):
        if rng.integers(4) == 0:
            return [rows]
        at = int(rng.integers(len(rows)))
        rows[at] = [rows[at]]
    return edit_json(data, name, change)


def _bad_json(data, name, rng):
    text = blocks(data)[name][1]
    return replace(data, name, _pick(rng, [text[: int(rng.integers(len(text)))],
                                           text.replace(b'"', b"\xff", 1), b"[" * 100_000,
                                           b"null", b'{"rows": []}']))


def _non_finite(data, name, rng):
    def change(values):
        values[int(rng.integers(len(values)))] = _pick(rng, [np.nan, np.inf, -np.inf])
    return edit_values(data, name, change)


def _new_values(data, name, rng):
    """Finite values only: the file still loads."""
    def change(values):
        values[:] = rng.standard_normal(len(values)) * 10.0 ** int(rng.integers(-300, 300))
    return edit_values(data, name, change)


def _unchanged(data, name, rng):
    return data


# mutation name -> (mutate, the part of a block it mutates)
MUTATIONS = {f.__name__[1:]: (f, part) for f, part in (
    (_truncate, ""), (_flip_bits, ""), (_overwrite_length, ""),
    (_retype_value, "metadata"), (_null_value, "metadata"), (_copy_value, "metadata"),
    (_renumber_value, "metadata"), (_drop_value, "metadata"), (_drop_or_add_row, "metadata"),
    (_nest, "metadata"), (_bad_json, "metadata"), (_non_finite, "features"),
    (_new_values, "features"), (_unchanged, ""), (_swap_rows, "metadata"))}


def _outcome(path, splits):
    """The error class and message of ``load_corpus(path, splits)``, or what it kept."""
    try:
        corpus = load_corpus(path, splits)
    except DfuseError as exc:
        return type(exc), str(exc)
    return corpus.synth, corpus.sha256, [
        (col.rows(), col.features.dtype, col.features.shape, col.features.tobytes())
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
    mutate, part = MUTATIONS[name]
    for case in range(CASES_PER_MUTATION):
        rng = np.random.default_rng([SEED, list(MUTATIONS).index(name), case])
        yield case, mutate(base[1], _block(rng, part), rng)


@pytest.mark.parametrize("name", MUTATIONS)
def test_a_dropped_block_loads_or_fails_as_in_a_full_load(base, name):
    path = base[0] / f"{name}.jsonl"
    for case, data in _cases(base, name):
        path.write_bytes(data)
        full = _outcome(path, SPLITS)
        assert _outcome(path, KEPT) == full, (name, case)
        if name in ("unchanged", "new_values"):
            assert not isinstance(full[0], type), full


def test_the_mutations_reach_every_outcome(base):
    messages = set()
    path = base[0] / "reach.jsonl"
    for name in MUTATIONS:
        for _, data in _cases(base, name):
            path.write_bytes(data)
            full = _outcome(path, SPLITS)
            messages.add(full[1] if isinstance(full[0], type) else "loaded")
    for expected in (
        "loaded", "truncated", "checksum mismatch", "length -", "records of 24 values",
        "invalid JSON", "expected a JSON list", "expected [id, concept_id, pair_index, class_name]",
        "record id must be a string", "duplicate id", "concept_id must be a 64-bit integer",
        "pair_index must be a 64-bit integer", "class_name must be a string",
        "paired split needs a pair_index", "non-finite features", "concept mismatch",
        "duplicate pair_index", "unmatched video/text pair indices", "out of pair order",
    ):
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
    assert ran == len(MUTATIONS) - 2  # all but "unchanged" and "new_values"


def test_every_framing_bit_flip_is_one_error(teacher, tmp_path, capsys):
    """Each single-bit flip of the magic tag, the header, the metadata blocks
    (length and CRC fields too) and a sample of the features blocks fails
    the load that ``eval-retrieval`` makes, with a one-line error.

    The command line turns that error into exit 2 and one ``error:`` line
    (the mutation cases above show that the load fails the same way whatever
    splits it keeps); a seeded sample of the flips, at least one per block,
    goes through it.
    """
    path = tmp_path / "corpus.jsonl"
    gen_corpus(SynthConfig(n_concepts=2, latent_dim=2, d_v=8, d_t=8, frames_per_video=2,
                           n_labeled_train=1, n_labeled_val=1, n_unlabeled=1, n_eval=2, seed=3),
               path)
    data = path.read_bytes()
    spans = {name: range(start, start + len(payload) + 12)
             for name, (_, payload, start) in blocks(data).items()}
    framing = [*range(len(MAGIC)), *(at for name in CORPUS_NAMES
                                     if not name.endswith("features") for at in spans[name])]
    values = [at for name in CORPUS_NAMES if name.endswith("features") for at in spans[name]]
    rng = np.random.default_rng(SEED)
    bits = [(at, bit) for at in framing for bit in range(8)]
    bits += [(int(at), int(bit)) for at, bit in zip(rng.choice(values, 256),
                                                    rng.integers(8, size=256))]
    failures = {}
    with open(path, "r+b", buffering=0) as fh:  # flip one byte in place, then restore it
        for at, bit in bits:
            os.pwrite(fh.fileno(), bytes([data[at] ^ 1 << bit]), at)
            with pytest.raises((CorpusFormatError, CorpusRecordError)) as info:
                load_corpus(path, KEPT)
            os.pwrite(fh.fileno(), data[at:at + 1], at)
            assert "\n" not in str(info.value), (at, bit)
            section = next((name for name in CORPUS_NAMES if at in spans[name]), "magic tag")
            failures.setdefault(section, []).append((at, bit, str(info.value)))
    assert set(failures) == {"magic tag", *CORPUS_NAMES}
    for section, cases in failures.items():
        for index in {0, *(int(i) for i in rng.integers(len(cases), size=3))}:
            at, bit, message = cases[index]
            flipped = bytearray(data)
            flipped[at] ^= 1 << bit
            _fails_on_the_command_line(bytes(flipped), message, teacher, tmp_path, capsys)
