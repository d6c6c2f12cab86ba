"""Seeded mutation fuzzing of checkpoint, report and config files on the command line.

Each case mutates one copy of a good file and runs ``fuse`` (checkpoints) or
``report-class-delta`` (reports) with it in one input slot and a good file in
the other. Checkpoints are truncated, get one to three flipped bits, or get
eight bytes before the values overwritten; reports are truncated, get flipped
bits, or get one record's key retyped or dropped. The command must either
succeed, writing its output and manifest, or end in exit 1 or 2 with one
``error:`` line and no output. Either way no temp file is left behind. A
CRC-32 covers every part of a checkpoint but its magic tag and two lengths,
so no mutated checkpoint may load. A second checkpoint test flips each bit
before the values, one at a time.

Config files set every option of a command but its paths, and each mutation
makes one of them malformed: cut inside a ``key =``, a byte of a key
replaced, a non-UTF-8 byte, a repeated or unknown key, or a value its
option cannot read. Each case must end in exit 1 with one ``error:`` line
naming the file and the line, before any input is read and with no output.
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from framedfile import blocks
from dfuse.checkpointio import Checkpoint, load_checkpoint, save_checkpoint
from dfuse.cli import cli_dispatch
from dfuse.corpus import SynthConfig, gen_corpus
from dfuse.encoder import EncoderConfig, init_params
from dfuse.errors import CheckpointFormatError
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
    """Bytes before the weight values: the magic tag, the header block and the value count."""
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
    assert "ok" not in messages
    for expected in ("truncated header", "truncated values", "bad magic tag",
                     "header: checksum mismatch", "values: checksum mismatch"):
        assert any(expected in message for message in messages), expected


def test_every_flipped_bit_before_the_values_fails(good, tmp_path, capsys):
    """Each bit of the magic tag, the header block and the value count, flipped
    on its own, fails the load with one line naming the file; a sample of the
    flips also fails ``fuse`` with that line."""
    data = good["checkpoint"]
    n_bits = 8 * (blocks(data)["values"][2] + 8)
    path, workdir = tmp_path / "flipped.ckpt", tmp_path / "cli"
    workdir.mkdir()
    sampled = set(np.random.default_rng(SEED).choice(n_bits, 48, replace=False).tolist())
    kinds = set()
    for bit in range(n_bits):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        path.write_bytes(flipped)
        with pytest.raises(CheckpointFormatError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message, (bit, message)
        kinds.add(type(info.value).__name__)
        if bit in sampled:
            code, cli_message = _run_case(workdir, "fuse", {"good": data, "mutated": flipped},
                                          "fused.ckpt", capsys)
            assert code == 2 and cli_message == message.replace(str(path),
                                                                 str(workdir / "mutated"))
    assert kinds == {"CheckpointMagicError", "CheckpointFormatError", "CheckpointLayoutError"}


def test_mutated_reports_compare_or_fail_cleanly(good, tmp_path, capsys):
    messages = _fuzz(good, "report", REPORT_MUTATIONS, "report-class-delta", "delta.tsv",
                     tmp_path, capsys)
    for expected in ("ok", "invalid JSON", "not UTF-8 text", "is missing",
                     "malformed", "missing its summary or ranks record"):
        assert any(expected in message for message in messages), expected


# --- config files ---------------------------------------------------------------

# Commands whose config file sets every option but the paths, which the
# command line gives; none of the paths exists, since no input may be read.
CONFIG_COMMANDS = {
    "gen-corpus": ["--out", "c.jsonl"],
    "train-student": ["--teacher", "t.ckpt", "--corpus", "c.jsonl", "--out", "s.ckpt"],
    "sweep-alpha": ["--teacher", "t.ckpt", "--student", "s.ckpt", "--corpus", "c.jsonl",
                    "--out", "sweep"],
    "report-class-delta": ["--report-a", "a.jsonl", "--report-b", "b.jsonl", "--out", "d.tsv"],
}
# Values each kind of option cannot read.
BAD_VALUES = {"int": ("1.5", "x", "", "1e3", "0x10", "--1"),
              "float": ("x", "", "1,5", "1.0.0", "one"),
              "bool": ("maybe", "2", "", "yes please")}
CASES_PER_CONFIG_MUTATION = 12


def _config_lines(command):
    """``(option, line)`` for each option ``command`` takes from a config file."""
    from dfuse.cli import _COMMANDS

    return [(o, f"{o.key} = {o.default}") for o in _COMMANDS[command][2] if not o.required]


# Each mutation: (lines, options, rng) -> (file bytes, the line its error names or None).
# ``lines`` starts with a comment line; ``options[i]`` is line i's option.

def _cut_key(lines, options, rng):
    """The file ends inside a line's ``key =``, before any value."""
    i = int(rng.integers(1, len(lines)))
    key_end = len(options[i].key) + (2 if options[i].kind != "str" else 1)
    lines = lines[:i] + [lines[i][: int(rng.integers(1, key_end + 1))]]
    return "\n".join(lines).encode(), i + 1


def _flip_key_byte(lines, options, rng):
    """One byte of a line's ``key =`` replaced by another printable one."""
    i = int(rng.integers(1, len(lines)))
    at = int(rng.integers(len(options[i].key) + 2))
    byte = _pick(rng, [c for c in "abcdefghijklmnopqrstuvwxyz_0123456789 =-.!"
                       if c != lines[i][at]])
    lines = [*lines[:i], lines[i][:at] + byte + lines[i][at + 1:], *lines[i + 1:]]
    return "\n".join(lines).encode(), None  # a duplicate key names the later line


def _non_utf8(lines, options, rng):
    i = int(rng.integers(len(lines)))
    at = int(rng.integers(len(lines[i]) + 1))
    data = [line.encode() for line in lines]
    data[i] = data[i][:at] + bytes([int(rng.integers(0x80, 0x100))]) + data[i][at:]
    return b"\n".join(data), i + 1


def _repeat_key(lines, options, rng):
    i = int(rng.integers(1, len(lines)))
    j = int(rng.integers(i + 1, len(lines) + 1))
    return "\n".join([*lines[:j], lines[i], *lines[j:]]).encode(), j + 1


def _unknown_key(lines, options, rng):
    i = int(rng.integers(1, len(lines) + 1))
    extra = _pick(rng, ["mystery_knob = 3", f"{options[i - 1].key}x = 1", "seeds = 5"]
                  if i > 1 else ["mystery_knob = 3"])
    return "\n".join([*lines[:i], extra, *lines[i:]]).encode(), i + 1


def _bad_value(lines, options, rng):
    i = _pick(rng, [i for i, o in enumerate(options) if o is not None and o.kind != "str"])
    lines = [*lines[:i], f"{options[i].key} = {_pick(rng, BAD_VALUES[options[i].kind])}",
             *lines[i + 1:]]
    return "\n".join(lines).encode(), i + 1


CONFIG_MUTATIONS = {f.__name__[1:]: f for f in (
    _cut_key, _flip_key_byte, _non_utf8, _repeat_key, _unknown_key, _bad_value)}


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_mutated_config_files_are_one_error_line_naming_the_line(command, tmp_path,
                                                                monkeypatch, capsys):
    import re

    import dfuse.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("an input was read before the config file was checked")

    for name in ("gen_corpus", "load_corpus", "load_checkpoint", "_read_report"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    options, lines = zip(*[(None, f"# {command} settings"), *_config_lines(command)])
    cfg = tmp_path / "run.cfg"
    messages = set()
    for m, (name, mutate) in enumerate(CONFIG_MUTATIONS.items()):
        for case in range(CASES_PER_CONFIG_MUTATION):
            rng = np.random.default_rng([SEED, len(command), m, case])
            data, line = mutate(list(lines), list(options), rng)
            cfg.write_bytes(data)
            capsys.readouterr()
            code = cli_dispatch([command, "--config", str(cfg), *CONFIG_COMMANDS[command]])
            out, err = capsys.readouterr()
            found = re.fullmatch(rf"error: {re.escape(str(cfg))}: line (\d+): (.+)\n", err)
            assert (code, out) == (1, "") and found, (name, case, err)
            if line is not None:
                assert int(found.group(1)) == line, (name, case, err)
            assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
            messages.add(found.group(2))
    for expected in ("expected 'key = value'", "unknown config key", "is already set on line",
                     "bad value for", "not UTF-8 text"):
        assert any(expected in message for message in messages), expected
