import hashlib
import io
import os
import stat
import struct
import zlib

import numpy as np
import pytest

from dfuse.checkpointio import Checkpoint, save_checkpoint
from dfuse.corpus import gen_corpus
from dfuse.encoder import init_params
from dfuse.fileio import FrameReader, atomic_write_chunks, framed, json_block, tsv
from dfuse.losses import LossConfig


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_outputs_follow_umask(tmp_path, umask_022, tiny_synth, enc_cfg):
    corpus = tmp_path / "corpus.jsonl"
    gen_corpus(tiny_synth, corpus)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Checkpoint(enc_cfg, LossConfig(), init_params(enc_cfg), 0, 1.0))
    assert _mode(corpus) == 0o644
    assert _mode(ckpt) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "model.ckpt"]



def _failing_stream():
    yield b"first line\n"
    raise RuntimeError("generator failed mid-write")


def test_stream_failing_mid_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError, match="mid-write"):
        atomic_write_chunks(tmp_path / "corpus.jsonl", _failing_stream())
    assert list(tmp_path.iterdir()) == []


def test_stream_failing_mid_write_keeps_the_old_target(tmp_path):
    target = tmp_path / "corpus.jsonl"
    target.write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        atomic_write_chunks(target, _failing_stream())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_missing_directory_error_names_the_target(tmp_path):
    target = tmp_path / "missing" / "corpus.jsonl"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_chunks(target, [b"line\n"])
    assert info.value.filename == str(target)
    assert list(tmp_path.iterdir()) == []


def test_directory_as_target_error_names_it_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        atomic_write_chunks(target, [b"line\n"])
    assert info.value.filename == str(target)
    assert str(info.value) == f"[Errno 21] Is a directory: '{target}'"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_tsv_writes_header_then_rows_with_str():
    # str is repr for Python floats and ints, and prints numpy scalars plainly.
    rows = [("a", 0.1, 3), (np.int64(2), np.float64(0.25), 1e-05)]
    assert tsv(("name", "x", "y"), rows) == "name\tx\ty\na\t0.1\t3\n2\t0.25\t1e-05\n"
    assert tsv(("position", "rank_a", "rank_b"), []) == "position\trank_a\trank_b\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_json_block_refuses_non_finite_floats(value):
    # Python's json module would write NaN or Infinity, which strict JSON lacks.
    with pytest.raises(ValueError):
        json_block({"val_loss": value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_json_block_refuses_a_nested_non_finite_float(value):
    with pytest.raises(ValueError):
        json_block({"synth": {"noise_sigma": [0.5, value]}})


def _reader(data: bytes) -> FrameReader:
    return FrameReader(io.BytesIO(data), "f.bin", ValueError, "start")


def test_a_json_block_reads_back_with_its_digest():
    payload = {"format": "x", "synth": {"seed": 2**63 - 1, "noise_sigma": 5e-324, "a": [None]}}
    data = b"".join(json_block(payload))
    assert data[:8] == struct.pack("<q", len(data) - 12)
    assert data[-4:] == struct.pack("<I", zlib.crc32(data[8:-4]))
    r = _reader(data)
    assert r.read_json("header") == payload
    assert r.at_end() and r.digest.digest() == hashlib.sha256(data).digest()


@pytest.mark.parametrize("where", ["bare", "in a list", "as an object value"])
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_a_non_standard_constant(constant, where):
    text = {"bare": "{c}", "in a list": "[1, {c}]", "as an object value": '{{"x": {c}}}'}[where]
    data = text.format(c=constant).encode()
    with pytest.raises(ValueError) as info:
        _reader(b"".join(framed(len(data), (data,)))).read_json("header")
    assert str(info.value) == "f.bin: header: invalid JSON"
