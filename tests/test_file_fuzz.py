"""Seeded mutation fuzzing of checkpoint and report files on the command line.

Each case mutates one copy of a good file and runs ``fuse`` (checkpoints) or
``report-class-delta`` (reports) with it in one input slot and a good file in
the other. Checkpoints are truncated, get one to three flipped bits, or get
eight header bytes overwritten; reports are truncated, get flipped bits, or
get one record's key retyped or dropped. The command must either succeed,
writing its output and manifest, or end in exit 1 or 2 with one ``error:``
line and no output. Either way no temp file is left behind.
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from dfuse.checkpointio import Checkpoint, save_checkpoint
from dfuse.cli import cli_dispatch
from dfuse.corpus import SynthConfig, gen_corpus
from dfuse.encoder import EncoderConfig, init_params
from dfuse.losses import LossConfig

SEED = 20_231
CASES_PER_MUTATION = 60
ENC = EncoderConfig(input_dim_video=8, input_dim_text=8, hidden_dim=5, embed_dim=3,
                    n_frames=2, seed=1)
# Eight-byte values an overwritten header field is set to, besides random bytes.
HEADER_VALUES = [struct.pack("<q", v) for v in (0, 1, -1, 2**31, 2**63 - 1, -(2**63))] + [
    struct.pack("<d", v) for v in (0.0, -0.5, 1e308, float("inf"), float("nan"))]
# Values a report key is retyped to.
OTHER_VALUES = (None, True, False, 0, -1, 1.5, 2**63, 2**64, "", "x", "0.5", [], {}, [1.0],
                {"a": 1}, [[0.5]], [1, 2.5], [-1], [10**6])


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _truncate(data, rng):
    return data[: int(rng.integers(len(data)))]


def _flip_bits(data, rng, hot=None):
    """One to three flipped bits; half the time inside the first ``hot`` bytes."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        span = hot if hot and rng.integers(2) else len(out)
        at = int(rng.integers(span))
        out[at] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _header_length(data):
    """Bytes before the weight values: everything but values and the CRC-32."""
    return len(data) - 8 * init_params(ENC).n_params - 4


def _overwrite_header(data, rng):
    at = int(rng.integers(_header_length(data) - 7))
    value = _pick(rng, HEADER_VALUES) if rng.integers(2) else rng.bytes(8)
    return data[:at] + value + data[at + 8:]


def _edit_record(data, rng, edit):
    lines = data.split(b"\n")
    index = _pick(rng, [i for i, line in enumerate(lines) if line.strip()])
    payload = json.loads(lines[index])
    edit(payload, _pick(rng, sorted(payload)), rng)
    lines[index] = json.dumps(payload).encode()
    return b"\n".join(lines)


def _retype_key(data, rng):
    def retype(payload, key, rng):
        payload[key] = _pick(rng, OTHER_VALUES)
    return _edit_record(data, rng, retype)


def _drop_key(data, rng):
    return _edit_record(data, rng, lambda payload, key, rng: payload.pop(key))


CHECKPOINT_MUTATIONS = {
    "truncate": _truncate,
    "flip_bits": lambda data, rng: _flip_bits(data, rng, hot=_header_length(data)),
    "overwrite_header": _overwrite_header,
}
REPORT_MUTATIONS = {
    "truncate": _truncate,
    "flip_bits": _flip_bits,
    "retype_key": _retype_key,
    "drop_key": _drop_key,
}


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """The bytes of a good checkpoint and of a good eval report."""
    root = tmp_path_factory.mktemp("good")
    ckpt = root / "teacher.ckpt"
    save_checkpoint(ckpt, Checkpoint(ENC, LossConfig(), init_params(ENC), 7, 0.25))
    corpus = root / "corpus.jsonl"
    gen_corpus(SynthConfig(n_concepts=4, latent_dim=6, d_v=8, d_t=8, frames_per_video=3,
                           n_labeled_train=4, n_labeled_val=4, n_unlabeled=0, n_eval=12,
                           seed=5), corpus)
    assert cli_dispatch(["eval-retrieval", "--ckpt", str(ckpt), "--corpus", str(corpus),
                         "--out", str(root / "rep")]) == 0
    student = Checkpoint(replace(ENC, seed=2), LossConfig(), init_params(replace(ENC, seed=2)),
                         3, 0.5)
    save_checkpoint(root / "student.ckpt", student)
    return {"checkpoint": (root / "student.ckpt").read_bytes(),
            "report": (root / "rep.jsonl").read_bytes()}


def _run_case(workdir, command, inputs, out, capsys):
    """Run one command on ``inputs`` (name -> bytes) and check how it ended;
    returns ``(exit code, error message or None)`` and empties ``workdir``."""
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    slots = {"fuse": ("--teacher", "--student"),
             "report-class-delta": ("--report-a", "--report-b")}[command]
    argv = [command, "--out", str(workdir / out)]
    for flag, name in zip(slots, inputs):
        argv += [flag, str(workdir / name)]
    if command == "fuse":
        argv += ["--alpha", "0.5"]
    capsys.readouterr()
    code = cli_dispatch(argv)
    stdout, stderr = capsys.readouterr()
    left = sorted(p.name for p in workdir.iterdir())
    if code == 0:
        assert stderr == ""
        assert left == sorted([*inputs, out, out + ".manifest.json"])
        message = None
    else:
        assert code in (1, 2) and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 \
            and stderr.endswith("\n"), stderr
        assert left == sorted(inputs)
        message = stderr[len("error: "):-1]
    for name in left:
        (workdir / name).unlink()
    return code, message


def _fuzz(good, kind, mutations, command, out, tmp_path, capsys):
    """Every seeded case of every mutation of ``good[kind]``; the set of messages."""
    messages = set()
    for m, (name, mutate) in enumerate(mutations.items()):
        for case in range(CASES_PER_MUTATION):
            rng = np.random.default_rng([SEED, len(kind), m, case])
            mutated = mutate(good[kind], rng)
            inputs = {"good": good[kind], "mutated": mutated}
            if rng.integers(2):
                inputs = {"mutated": mutated, "good": good[kind]}
            code, message = _run_case(tmp_path, command, inputs, out, capsys)
            if name == "truncate":
                assert code != 0, (name, case)
            messages.add(message.replace(str(tmp_path / "mutated"), "<mutated>")
                         if message else "ok")
    return messages


def test_mutated_checkpoints_fuse_or_fail_cleanly(good, tmp_path, capsys):
    messages = _fuzz(good, "checkpoint", CHECKPOINT_MUTATIONS, "fuse", "fused.ckpt",
                     tmp_path, capsys)
    for expected in ("ok", "truncated checkpoint", "bad magic tag", "value checksum mismatch",
                     "invalid stored configuration", "implausible tensor count",
                     "cannot fuse"):
        assert any(expected in message for message in messages), expected


def test_mutated_reports_compare_or_fail_cleanly(good, tmp_path, capsys):
    messages = _fuzz(good, "report", REPORT_MUTATIONS, "report-class-delta", "delta.tsv",
                     tmp_path, capsys)
    for expected in ("ok", "invalid JSON", "not UTF-8 text", "is missing",
                     "malformed", "missing its summary or ranks record"):
        assert any(expected in message for message in messages), expected
