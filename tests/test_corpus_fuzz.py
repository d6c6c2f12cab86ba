"""Seeded mutation fuzzing of the corpus loader.

Each case mutates one record line of a split that ``eval-retrieval`` drops
and loads the file twice: keeping only ``eval`` and keeping every split. The
two loads must end in the same error class and message, or both load and
agree on every kept record, bit for bit. A sample of the failing files then
goes through the CLI, which must end in one ``error:`` line and no output.
"""

import json
import re

import numpy as np
import pytest

from dfuse.checkpointio import Checkpoint, save_checkpoint
from dfuse.cli import cli_dispatch
from dfuse.corpus import SPLITS, SynthConfig, gen_corpus, load_corpus
from dfuse.encoder import EncoderConfig, init_params
from dfuse.errors import DfuseError
from dfuse.losses import LossConfig

SEED = 20_221
CASES_PER_MUTATION = 24
KEPT = ("eval",)
DROPPED = ("labeled-train", "labeled-val", "unlabeled")
KEYS = ("record", "id", "kind", "split", "concept_id", "pair_index", "class_name", "features")
# Values a key is retyped to; none of them is a split the loads keep.
OTHER_VALUES = (None, True, False, 0, -1, 1.5, 2**63, 2**64, "", "x", "0.5", [], {}, [1.0],
                {"a": 1}, [[0.5]])
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


# --- byte-level mutations: (line, rng) -> line ------------------------------

def _truncate(line, rng):
    return line[: int(rng.integers(len(line)))]


def _flip_byte(line, rng):
    at = int(rng.integers(len(line)))
    return line[:at] + bytes([int(rng.integers(256))]) + line[at + 1:]


def _extra_spaces(line, rng):
    """Spaces next to a structural byte: legal JSON unless it lands in a string."""
    spots = [m.start() + int(rng.integers(2)) for m in re.finditer(rb"[,\[\]:]", line)]
    for at in sorted((_pick(rng, spots) for _ in range(int(rng.integers(1, 4)))), reverse=True):
        line = line[:at] + b" " * int(rng.integers(1, 3)) + line[at:]
    return line


def _respell_number(line, rng):
    """One feature value in exponent form, as -0.0, or too large for a double."""
    at = line.find(b'"features"')
    numbers = list(NUMBER.finditer(line, at))
    if at < 0 or not numbers:
        return line
    m = _pick(rng, numbers)
    x = float(m.group())
    spelling = _pick(rng, [f"{x:.17e}", f"{x:.17E}", f"{x * 10:.17g}e-1", "-0.0", "-0", "0e0",
                           "1e400", "-1E+400"])
    return line[: m.start()] + spelling.encode() + line[m.end():]


def _decoy_features_key(line, rng):
    """Spell the real key with an escape and end the line with a look-alike.

    The real features get a value numpy rejects; the look-alike holds
    numbers in their shape, so only the loader's key checks tell them apart.
    """
    payload = json.loads(line)
    shaped = json.dumps(payload["features"])
    row = _rows(payload)
    row[int(rng.integers(len(row)))] = _pick(rng, ["x", {}, [0.5, 0.5]])
    decoy = _pick(rng, ['"decoy": "features"', f'"d\\"features": {shaped}',
                        f'"decoy": {{"features": {shaped}}}', f'"decoy": ["features", {shaped}]'])
    text = json.dumps(payload)[:-1].replace('"features"', '"feat\\u0075res"')
    return f"{text}, {decoy}}}".encode()


# --- payload mutations: (payload, rng) -> None, editing in place -------------

def _retype_key(payload, rng):
    payload[_pick(rng, KEYS)] = _pick(rng, OTHER_VALUES)


def _drop_key(payload, rng):
    payload.pop(_pick(rng, KEYS), None)


def _nest_deeper(payload, rng):
    key = _pick(rng, KEYS)
    if key in payload:
        payload[key] = [payload[key]]


def _rows(payload):
    """The feature list a reshape edits: a video's rows, or a text's one vector."""
    feats = payload["features"]
    return feats if payload["kind"] == "text" else feats[0]


def _ragged(payload, rng):
    feats = payload["features"]
    if payload["kind"] == "text":
        feats[int(rng.integers(len(feats)))] = [0.5, 0.5]
    else:
        feats[int(rng.integers(len(feats)))].pop()


def _narrow_rows(payload, rng):
    for row in payload["features"] if payload["kind"] == "video" else [payload["features"]]:
        row.pop()


def _empty_row(payload, rng):
    feats = payload["features"]
    feats[int(rng.integers(len(feats)))] = []


def _empty_features(payload, rng):
    payload["features"] = []


def _bare_number(payload, rng):
    payload["features"] = _pick(rng, [0.5, 0, -1.25])


def _third_level(payload, rng):
    if rng.integers(2):
        payload["features"] = [payload["features"]]
    else:
        row = _rows(payload)
        row[int(rng.integers(len(row)))] = [row[int(rng.integers(len(row)))]]


def _non_number_among_numbers(payload, rng):
    row = _rows(payload)
    row[int(rng.integers(len(row)))] = _pick(rng, [{}, "0.5", True, None])


def _extra_row(payload, rng):
    feats = payload["features"]
    feats.append(_pick(rng, [list(feats[0]) if payload["kind"] == "video" else 0.5, [0.5]]))


def _drop_row(payload, rng):
    payload["features"].pop(int(rng.integers(len(payload["features"]))))


def _unchanged(payload, rng):
    pass


BYTE_MUTATIONS = {f.__name__[1:]: f for f in (
    _truncate, _flip_byte, _extra_spaces, _respell_number, _decoy_features_key)}
PAYLOAD_MUTATIONS = {f.__name__[1:]: f for f in (
    _retype_key, _drop_key, _nest_deeper, _ragged, _narrow_rows, _empty_row, _empty_features,
    _bare_number, _third_level, _non_number_among_numbers, _extra_row, _drop_row, _unchanged)}
MUTATIONS = [*PAYLOAD_MUTATIONS, *BYTE_MUTATIONS]


def _mutate(line: bytes, name: str, rng) -> bytes:
    """``line`` after mutation ``name`` and, one time in three, a random second one."""
    names = [name] + ([_pick(rng, MUTATIONS)] if name != "unchanged" and rng.integers(3) == 0
                      else [])
    for step in names:
        if step in BYTE_MUTATIONS:
            if step == "decoy_features_key" and not _parses(line):
                continue
            line = BYTE_MUTATIONS[step](line, rng)
        elif _parses(line):
            payload = json.loads(line)
            PAYLOAD_MUTATIONS[step](payload, rng)
            line = json.dumps(payload).encode()
    return line


def _parses(line: bytes) -> bool:
    try:
        payload = json.loads(line)
    except ValueError:
        return False
    return (isinstance(payload, dict) and payload.get("kind") in ("video", "text")
            and isinstance(payload.get("features"), list) and len(payload["features"]) > 0
            and (payload["kind"] == "text" or all(isinstance(r, list) and r
                                                  for r in payload["features"])))


def _outcome(path, splits):
    """The error class and message of ``load_corpus(path, splits)``, or what it kept."""
    try:
        corpus = load_corpus(path, splits)
    except DfuseError as exc:
        return type(exc), str(exc)
    return corpus.synth, corpus.sha256, [
        (r.id, r.kind, r.split, r.concept_id, r.pair_index, r.class_name,
         r.features.dtype, r.features.shape, r.features.tobytes())
        for r in corpus.records if r.split in KEPT]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """``(directory, corpus lines, indices of the lines of dropped splits)``."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "corpus.jsonl"
    gen_corpus(SynthConfig(n_concepts=4, latent_dim=6, d_v=8, d_t=8, frames_per_video=3,
                           n_labeled_train=6, n_labeled_val=4, n_unlabeled=6, n_eval=4, seed=5),
               path)
    lines = path.read_bytes().splitlines()
    dropped = [i for i, line in enumerate(lines[1:], start=1)
               if json.loads(line)["split"] in DROPPED]
    return root, lines, dropped


def _cases(base, name):
    """``(case, file bytes)`` of each seeded case of mutation ``name``."""
    _, lines, dropped = base
    for case in range(CASES_PER_MUTATION):
        rng = np.random.default_rng([SEED, MUTATIONS.index(name), case])
        index = _pick(rng, dropped)
        mutated = list(lines)
        mutated[index] = _mutate(lines[index], name, rng)
        yield case, b"\n".join(mutated) + b"\n"


@pytest.mark.parametrize("name", MUTATIONS)
def test_a_dropped_record_loads_or_fails_as_in_a_full_load(base, name):
    path = base[0] / f"{name}.jsonl"
    for case, data in _cases(base, name):
        path.write_bytes(data)
        full = _outcome(path, SPLITS)
        assert _outcome(path, KEPT) == full, (name, case)
        if name == "unchanged":
            assert not isinstance(full[0], type), full


def test_the_mutations_reach_every_outcome(base):
    messages = set()
    path = base[0] / "reach.jsonl"
    for name in MUTATIONS:
        for _, data in _cases(base, name):
            path.write_bytes(data)
            full = _outcome(path, SPLITS)
            messages.add(full[1] if isinstance(full[0], type) else "loaded")
    # Loads, parse failures and shape, type and value failures of a record.
    for expected in (
        "loaded", "invalid JSON", "not valid UTF-8", "malformed record: 'features'",
        "malformed record: setting an array element", "features must be JSON numbers",
        "non-finite features", "video features must be (T, d_v), T >= 1",
        "text features must be a d_t=8 vector", "video feature dim", "unknown kind",
        "concept_id must be a 64-bit integer",
    ):
        assert any(expected in message for message in messages), expected


def test_failing_cases_are_one_error_line_on_the_command_line(base, tmp_path, capsys):
    enc = EncoderConfig(input_dim_video=8, input_dim_text=8, hidden_dim=5, embed_dim=3,
                        n_frames=2, seed=1)
    ckpt = tmp_path / "teacher.ckpt"
    save_checkpoint(ckpt, Checkpoint(enc, LossConfig(), init_params(enc), 0, float("nan")))
    corpus = tmp_path / "corpus.jsonl"
    ran = 0
    for name in MUTATIONS:  # the first failing case of each mutation
        for case, data in _cases(base, name):
            corpus.write_bytes(data)
            full = _outcome(corpus, SPLITS)
            if isinstance(full[0], type):
                break
        else:
            continue
        capsys.readouterr()
        code = cli_dispatch(["eval-retrieval", "--ckpt", str(ckpt), "--corpus", str(corpus),
                             "--out", str(tmp_path / "rep")])
        assert (code, capsys.readouterr().err) == (2, f"error: {full[1]}\n"), (name, case)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "teacher.ckpt"]
        ran += 1
    assert ran >= len(MUTATIONS) - 1
