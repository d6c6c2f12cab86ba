import dataclasses
import json
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest

from dfuse.corpus import (
    SPLITS,
    Corpus,
    CorpusRecord,
    SynthConfig,
    build_corpus,
    concept_vectors,
    corpus_lines,
    gen_corpus,
    load_corpus,
    prompt_feature_fn,
    text_feature_map,
    video_feature_map,
)
from dfuse.errors import CorpusFormatError, CorpusRecordError, UsageError
from dfuse.fileio import sha256_file
from naive import naive_build_corpus


def _written(cfg, path):
    gen_corpus(cfg, path)
    return path.read_bytes()


class TestGeneration:
    def test_same_seed_byte_identical(self, tmp_path, tiny_synth):
        assert _written(tiny_synth, tmp_path / "a.jsonl") == _written(tiny_synth, tmp_path / "b.jsonl")

    def test_different_seed_differs(self, tmp_path, tiny_synth):
        other = dataclasses.replace(tiny_synth, seed=tiny_synth.seed + 1)
        assert _written(tiny_synth, tmp_path / "a.jsonl") != _written(other, tmp_path / "b.jsonl")

    def test_split_counts(self, tiny_corpus, tiny_synth):
        assert len(tiny_corpus.videos("labeled-train")) == tiny_synth.n_labeled_train
        assert len(tiny_corpus.texts("labeled-train")) == tiny_synth.n_labeled_train
        assert len(tiny_corpus.videos("labeled-val")) == tiny_synth.n_labeled_val
        assert len(tiny_corpus.videos("unlabeled")) == tiny_synth.n_unlabeled
        assert len(tiny_corpus.texts("unlabeled")) == tiny_synth.n_unlabeled
        assert len(tiny_corpus.videos("eval")) == tiny_synth.n_eval

    def test_paired_records_share_concepts(self, tiny_corpus):
        for split in ("labeled-train", "labeled-val", "eval"):
            videos = sorted(tiny_corpus.videos(split), key=lambda r: r.pair_index)
            texts = sorted(tiny_corpus.texts(split), key=lambda r: r.pair_index)
            for v, t in zip(videos, texts):
                assert v.concept_id == t.concept_id

    def test_unlabeled_has_no_pairing(self, tiny_corpus):
        assert all(r.pair_index is None for r in tiny_corpus.videos("unlabeled"))
        with pytest.raises(UsageError):
            tiny_corpus.paired("unlabeled")

    def test_video_shapes(self, tiny_corpus, tiny_synth):
        for rec in tiny_corpus.videos("labeled-train"):
            assert rec.features.shape == (tiny_synth.frames_per_video, tiny_synth.d_v)
        for rec in tiny_corpus.texts("labeled-train"):
            assert rec.features.shape == (tiny_synth.d_t,)

    def test_eval_videos_carry_class_names(self, tiny_corpus, tiny_synth):
        names = {r.class_name for r in tiny_corpus.videos("eval")}
        assert len(names) == tiny_synth.n_concepts
        assert all(n is not None for n in names)

    def test_identity_maps_forced_alignment(self):
        # with zero noise and identity maps, a video's mean frame equals the
        # paired text's feature vector (frame count is a power of two)
        cfg = SynthConfig(
            n_concepts=4, latent_dim=8, d_v=8, d_t=8, frames_per_video=8,
            noise_sigma=0.0, video_domain_shift=0.0, identity_maps=True,
            n_labeled_train=8, n_labeled_val=4, n_unlabeled=0, n_eval=4, seed=1,
        )
        corpus = build_corpus(cfg)
        videos, texts = corpus.paired("labeled-train")
        for stack, text in zip(videos, texts):
            # every frame equals the paired text exactly, so the mean frame
            # does too (up to summation rounding on identical addends)
            for row in stack:
                np.testing.assert_array_equal(row, text)
            np.testing.assert_allclose(stack.mean(axis=0), text, atol=1e-15)


_ORACLE_CONFIGS = {
    "default": SynthConfig(),
    "acceptance images": SynthConfig(frames_per_video=1, video_domain_shift=0.0,
                                     n_labeled_train=2048, n_labeled_val=256, n_unlabeled=0,
                                     n_eval=512, seed=7),
    "empty splits": SynthConfig(n_labeled_train=0, n_labeled_val=0, n_unlabeled=0, n_eval=0),
    "identity maps": SynthConfig(latent_dim=8, d_v=8, d_t=8, video_domain_shift=0.0,
                                 identity_maps=True, n_labeled_train=40, n_labeled_val=8,
                                 n_unlabeled=24, n_eval=16, seed=3),
    "seed past 32 bits": SynthConfig(n_labeled_train=16, n_labeled_val=4, n_unlabeled=12,
                                     n_eval=8, seed=2**32 + 11),
}


class TestGeneratorOracle:
    """Per-split generation gives the per-record generator's records, bit for bit."""

    @pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
    def test_records_equal_the_per_record_generator(self, name):
        cfg = _ORACLE_CONFIGS[name]
        got, want = build_corpus(cfg).records, naive_build_corpus(cfg).records
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.id, a.kind, a.split, a.concept_id, a.class_name, a.pair_index) \
                == (b.id, b.kind, b.split, b.concept_id, b.class_name, b.pair_index)
            assert (a.features.dtype, a.features.shape) == (b.features.dtype, b.features.shape)
            assert a.features.tobytes() == b.features.tobytes(), a.id


class TestPlantedSharing:
    def test_concepts_and_text_map_shared_across_shapes(self, tiny_synth):
        video_variant = dataclasses.replace(
            tiny_synth, frames_per_video=1, n_labeled_train=64, n_unlabeled=0
        )
        np.testing.assert_array_equal(
            concept_vectors(tiny_synth), concept_vectors(video_variant)
        )
        np.testing.assert_array_equal(
            text_feature_map(tiny_synth), text_feature_map(video_variant)
        )
        np.testing.assert_array_equal(
            video_feature_map(tiny_synth), video_feature_map(video_variant)
        )

    def test_domain_shift_rotates_video_map_only(self, tiny_synth):
        shifted = dataclasses.replace(tiny_synth, video_domain_shift=0.5)
        assert not np.array_equal(video_feature_map(tiny_synth), video_feature_map(shifted))
        np.testing.assert_array_equal(text_feature_map(tiny_synth), text_feature_map(shifted))
        np.testing.assert_array_equal(concept_vectors(tiny_synth), concept_vectors(shifted))

    def test_domain_shift_preserves_scale(self, tiny_synth):
        shifted = dataclasses.replace(tiny_synth, video_domain_shift=0.7)
        base_norm = np.linalg.norm(video_feature_map(tiny_synth))
        shifted_norm = np.linalg.norm(video_feature_map(shifted))
        assert shifted_norm == pytest.approx(base_norm, rel=0.2)


class TestRoundTrip:
    def test_gen_load_bit_exact(self, tmp_path, tiny_synth):
        path = tmp_path / "corpus.jsonl"
        generated = gen_corpus(tiny_synth, path)
        loaded = load_corpus(path)
        assert loaded.synth == tiny_synth
        assert len(loaded.records) == len(generated.records)
        for a, b in zip(generated.records, loaded.records):
            assert a.id == b.id and a.kind == b.kind and a.split == b.split
            assert a.concept_id == b.concept_id and a.pair_index == b.pair_index
            np.testing.assert_array_equal(a.features, b.features)

    def test_reserialization_is_byte_identical(self, tmp_path, tiny_synth):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        original = path.read_bytes()
        assert b"".join(corpus_lines(load_corpus(path))) == original


class TestLoadErrors:
    def _write_corpus(self, tmp_path, tiny_synth):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        return path

    def test_truncated_line_names_line_number(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines(keepends=True)
        truncated = "".join(lines[:4]) + lines[4][: len(lines[4]) // 2]
        path.write_text(truncated)
        with pytest.raises(CorpusFormatError, match="line 5"):
            load_corpus(path)

    def test_non_finite_feature_names_record_id(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["features"][0][0] = float("inf")
        record_id = payload["id"]
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError, match=record_id):
            load_corpus(path)

    @staticmethod
    def _first(lines, kind):
        return next(i for i, line in enumerate(lines) if f'"kind": "{kind}"' in line)

    @pytest.mark.parametrize("case", [
        "numeric-string", "true-among-floats", "false-in-text", "features-not-last",
        "escaped-features-key",
    ])
    def test_non_numeric_feature_names_record_id(self, tmp_path, tiny_synth, case):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        index = self._first(lines, "text" if case == "false-in-text" else "video")
        payload = json.loads(lines[index])
        feats = payload["features"]
        if case == "numeric-string":  # numpy would read it as the number
            feats[0][0] = repr(feats[0][0])
        elif case == "true-among-floats":  # numpy would read it as 1.0
            feats[1][2] = True
        elif case == "false-in-text":
            feats[-1] = False
        elif case == "features-not-last":
            feats[2][0] = "0.5"
            payload = {"features": payload.pop("features"), **payload}
        else:
            feats[0][1] = True
        lines[index] = json.dumps(payload)
        if case == "escaped-features-key":
            lines[index] = lines[index].replace('"features"', '"feat\\u0075res"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError,
                           match=f"^record '{payload['id']}': features must be JSON numbers$"):
            load_corpus(path)

    @pytest.mark.parametrize("value,message", [
        (None, "non-finite features"), (True, "features must be JSON numbers"),
        ("1.5", "features must be JSON numbers"),
    ])
    @pytest.mark.parametrize("decoy", [
        '"decoy": "features"', '"d\\"features": [1.0]', '"decoy": {"features": [1.0]}',
        '"decoy": ["features", [1.0]]',
    ])
    def test_a_later_features_string_does_not_pass_the_screen(self, tmp_path, tiny_synth,
                                                              value, message, decoy):
        # The real key is spelled with an escape, so the first literal
        # "features" is the decoy's, past which the line holds only numbers.
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["features"][0][0] = value
        text = json.dumps(payload)[:-1].replace('"features"', '"feat\\u0075res"')
        lines[1] = f"{text}, {decoy}}}"
        orjson.loads(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError, match=f"^record '{payload['id']}': {message}$"):
            load_corpus(path)

    def test_numbers_after_a_later_key_still_load(self, tmp_path, tiny_synth):
        # A "t" after the features (here in class_name) sends the record to the
        # exact type check, which passes it.
        path = self._write_corpus(tmp_path, tiny_synth)
        original = path.read_bytes()
        lines = original.decode().splitlines()
        index = self._first(lines, "video")
        payload = json.loads(lines[index])
        lines[index] = json.dumps({"features": payload.pop("features"), **payload})
        path.write_text("\n".join(lines) + "\n")
        assert b"".join(corpus_lines(load_corpus(path))) == original

    @pytest.mark.parametrize("where", ["in-a-row", "whole-value"])
    def test_null_feature_is_non_finite(self, tmp_path, tiny_synth, where):
        # orjson parses these lines, and numpy reads null as nan.
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        if where == "in-a-row":
            payload["features"][1][3] = None
        else:
            payload["features"] = None
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError,
                           match=f"^record '{payload['id']}': non-finite features$"):
            load_corpus(path)

    def test_json_list_line_names_file_and_line(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        lines[1] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=f"{path.name}: line 2: expected a JSON object"):
            load_corpus(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"record": "item", "id": "x"}\n')
        with pytest.raises(CorpusFormatError, match="header"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError, match="duplicate"):
            load_corpus(path)

    def test_pair_concept_mismatch(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        assert payload["kind"] == "video" and payload["split"] == "labeled-train"
        payload["concept_id"] = payload["concept_id"] + 1
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError, match="concept mismatch"):
            load_corpus(path)

    def test_unknown_split_named(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["split"] = "mystery"
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError, match=payload["id"]):
            load_corpus(path)

    def _edit_record(self, path, index, **changes):
        lines = path.read_text().splitlines()
        payload = json.loads(lines[index])
        payload.update(changes)
        lines[index] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        return payload

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"id": "', b'"id": "\xff', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusFormatError, match=f"{path.name}: line 3: not valid UTF-8"):
            load_corpus(path)

    def test_integer_feature_too_large_for_a_float(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["features"][0][0] = 10**400
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=f"{path.name}: line 2: malformed record"):
            load_corpus(path)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_line_only_stdlib_json_accepts_keeps_its_error(self, tmp_path, tiny_synth, value):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["features"][0][0] = value
        lines[1] = json.dumps(payload)
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusRecordError, match=f"{payload['id']}.*non-finite features"):
            load_corpus(path)

    def test_id_must_be_a_string(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        self._edit_record(path, 1, id=["vid", 0])
        with pytest.raises(CorpusFormatError,
                           match=f"{path.name}: line 2: record id must be a string"):
            load_corpus(path)

    @pytest.mark.parametrize("value", [0.5, True, "0", 2**63, 2**64])
    def test_concept_id_must_be_a_64_bit_integer(self, tmp_path, tiny_synth, value):
        path = self._write_corpus(tmp_path, tiny_synth)
        payload = self._edit_record(path, 1, concept_id=value)
        with pytest.raises(CorpusRecordError,
                           match=f"{payload['id']}.*concept_id must be a 64-bit integer"):
            load_corpus(path)

    @pytest.mark.parametrize("value", ["x", 0.0, False, -(2**64)])
    def test_pair_index_must_be_a_64_bit_integer(self, tmp_path, tiny_synth, value):
        path = self._write_corpus(tmp_path, tiny_synth)
        payload = self._edit_record(path, 1, pair_index=value)
        self._edit_record(path, 2, pair_index=value)
        with pytest.raises(CorpusRecordError,
                           match=f"{payload['id']}.*pair_index must be a 64-bit integer"):
            load_corpus(path)

    @pytest.mark.parametrize("value", [["concept_0"], 3])
    def test_class_name_must_be_a_string(self, tmp_path, tiny_synth, value):
        path = self._write_corpus(tmp_path, tiny_synth)
        payload = self._edit_record(path, 1, class_name=value)
        with pytest.raises(CorpusRecordError,
                           match=f"{payload['id']}.*class_name must be a string"):
            load_corpus(path)

    def test_null_line_is_not_blank(self, tmp_path, tiny_synth):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        lines[1] = "null"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2: expected a JSON object"):
            load_corpus(path)

    @pytest.mark.parametrize("index", [0, 1])
    def test_line_nested_too_deeply_names_file_and_line(self, tmp_path, tiny_synth, index):
        path = self._write_corpus(tmp_path, tiny_synth)
        lines = path.read_text().splitlines()
        lines[index] = "[" * 100_000
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError,
                           match=f"{path.name}: line {index + 1}: invalid JSON "
                                 r"\(nested too deeply\)"):
            load_corpus(path)


def _records(corpus):
    return [(r.id, r.kind, r.split, r.concept_id, r.pair_index, r.class_name,
             r.features.tobytes()) for r in corpus.records]


class TestLineHandling:
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_newlines_split_lines_as_text_mode_does(self, tmp_path, tiny_synth, newline):
        path = tmp_path / "corpus.jsonl"
        expected = _records(gen_corpus(tiny_synth, path))
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert _records(load_corpus(path)) == expected

    @pytest.mark.parametrize("blank", [b"", b" \t ", "\u3000".encode(), b"\x1c"])
    def test_whitespace_only_lines_are_skipped(self, tmp_path, tiny_synth, blank):
        path = tmp_path / "corpus.jsonl"
        expected = _records(gen_corpus(tiny_synth, path))
        lines = path.read_bytes().split(b"\n")
        lines[0:0] = [blank]
        lines[3:3] = [blank]
        path.write_bytes(b"\n".join(lines))
        assert _records(load_corpus(path)) == expected


def _split_first(path, split):
    """Rewrite the corpus with ``split``'s records right after the header."""
    header, *items = path.read_bytes().splitlines(keepends=True)
    key = f'"split": "{split}"'.encode()
    path.write_bytes(b"".join([header, *(line for line in items if key in line),
                               *(line for line in items if key not in line)]))
    return path


def _edit_payload(change):
    def edit(line):
        payload = json.loads(line)
        change(payload)
        return json.dumps(payload).encode()
    return edit


# Faults of a video record line, each caught by a different check of the loader.
_RECORD_FAULTS = {
    "invalid-json": (CorpusFormatError, lambda line: line[: len(line) // 2]),
    "missing-id": (CorpusFormatError, _edit_payload(lambda p: p.pop("id"))),
    "ragged-features": (CorpusFormatError,
                        _edit_payload(lambda p: p["features"].__setitem__(0, [0.5]))),
    "non-finite": (CorpusRecordError,
                   _edit_payload(lambda p: p["features"][0].__setitem__(0, float("nan")))),
    "boolean-feature": (CorpusRecordError,
                        _edit_payload(lambda p: p["features"][0].__setitem__(0, True))),
    "wrong-dim": (CorpusRecordError,
                  _edit_payload(lambda p: p.update(features=[r[:-1] for r in p["features"]]))),
    "unknown-kind": (CorpusRecordError, _edit_payload(lambda p: p.update(kind="audio"))),
    "negative-concept": (CorpusRecordError, _edit_payload(lambda p: p.update(concept_id=-1))),
}


class TestSplitRetention:
    """``load_corpus(path, splits)`` checks every line but keeps only ``splits``."""

    @pytest.mark.parametrize("splits", [
        (), ("eval",), ("labeled-train", "labeled-val"),
        ("labeled-train", "labeled-val", "unlabeled"), ("eval", "unlabeled"), SPLITS,
    ])
    def test_kept_records_equal_a_full_load(self, tmp_path, tiny_synth, splits):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        full = load_corpus(path)
        kept = load_corpus(path, splits)
        assert kept.splits == tuple(s for s in SPLITS if s in splits)
        assert _records(kept) == [r for r in _records(full) if r[2] in splits]
        for split in kept.splits:
            assert kept.videos(split) == [r for r in kept.records
                                          if r.split == split and r.kind == "video"]
        assert kept.sha256 == full.sha256 == sha256_file(path)

    @pytest.mark.parametrize("accessor", ["videos", "texts", "paired", "unpaired"])
    @pytest.mark.parametrize("split", ["labeled-train", "labeled-val", "unlabeled"])
    def test_unloaded_split_is_a_usage_error_naming_it(self, tmp_path, tiny_synth, accessor,
                                                       split):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        corpus = load_corpus(path, ("eval",))
        with pytest.raises(UsageError, match=f"split '{split}'"):
            getattr(corpus, accessor)(split)
        getattr(corpus, accessor)("eval")  # the loaded split is served

    def test_unknown_split_is_a_usage_error(self, tmp_path, tiny_synth):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        with pytest.raises(UsageError, match="unknown split 'test'"):
            load_corpus(path, ("eval", "test"))
        with pytest.raises(UsageError, match="unknown split 'test'"):
            load_corpus(path, ("eval",)).videos("test")

    @pytest.mark.parametrize("fault", _RECORD_FAULTS)
    @pytest.mark.parametrize("split", ["labeled-train", "unlabeled", "eval"])
    def test_a_dropped_record_is_checked_as_a_kept_one(self, tmp_path, tiny_synth, split,
                                                       fault):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        lines = _split_first(path, split).read_bytes().splitlines(keepends=True)
        error, edit = _RECORD_FAULTS[fault]
        lines[1] = edit(lines[1].rstrip(b"\n")) + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(error) as full:
            load_corpus(path)
        for splits in [("eval",), ("labeled-train", "labeled-val"), ()]:
            with pytest.raises(error) as kept:
                load_corpus(path, splits)
            assert str(kept.value) == str(full.value)

    @pytest.mark.parametrize("fault,message", [
        ("concept", "pair 0 in split 'labeled-val': concept mismatch "
                    "('vid-labeled-val-00000' vs 'txt-labeled-val-00000')"),
        ("duplicate", "split 'labeled-val': duplicate pair_index"),
        ("unmatched", "split 'labeled-val': unmatched video/text pair indices"),
    ])
    def test_pairing_of_a_dropped_split_is_checked(self, tmp_path, tiny_synth, fault, message):
        path = tmp_path / "corpus.jsonl"
        gen_corpus(tiny_synth, path)
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if '"vid-labeled-val-00000"' in line)
        payload = json.loads(lines[index])
        if fault == "concept":
            payload["concept_id"] += 1
        else:
            payload["pair_index"] = 1 if fault == "duplicate" else 10**6
        lines[index] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        for splits in [SPLITS, ("eval",), ("labeled-train", "unlabeled")]:
            with pytest.raises(CorpusRecordError) as info:
                load_corpus(path, splits)
            assert str(info.value) == message


def _exact_halfway(x: float) -> str:
    """The decimal exactly halfway between ``x`` and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 1200
        return str((Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2)


def _feature_tokens(rng) -> list[str]:
    bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    doubles = bits.view(np.float64)
    subnormal_bits = rng.integers(1, 2**52, size=400, dtype=np.uint64)
    subnormal_bits[::2] |= np.uint64(1 << 63)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                        2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1])
    values = np.concatenate([doubles[np.isfinite(doubles)], subnormal_bits.view(np.float64),
                             special])
    tokens = [fmt(float(v)) for v in values for fmt in (
        repr, "%.17g".__mod__, "%.20e".__mod__, "%.25g".__mod__, "%.16g".__mod__,
        "%.3e".__mod__,
    )]
    moderate = values[(np.abs(values) > 1e-40) & (np.abs(values) < 1e40)][:600]
    tokens += [_exact_halfway(float(v)) for v in moderate]
    tokens += [_exact_halfway(float(v)) for v in subnormal_bits[:40].view(np.float64)]
    tokens += [str(int(v)) for v in rng.integers(-(2**62), 2**62, size=200)]
    tokens += [str(int(v) << int(s)) for v, s in zip(rng.integers(1, 2**62, size=200),
                                                      rng.integers(2, 960, size=200))]
    tokens += [str(2**64 - 1), str(2**64), str(2**64 + 1), str(-(2**63) - 1), str(2**63)]
    # short spellings of the largest doubles round up to infinity, which no corpus holds
    return [t for t in tokens if np.isfinite(float(t))]


def _writer_values(rng) -> np.ndarray:
    """Doubles whose spelling by orjson and by ``repr`` differ, or nearly do."""
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64, endpoint=False)
    subnormal_bits = rng.integers(1, 2**52, size=400, dtype=np.uint64)
    subnormal_bits[::2] |= np.uint64(1 << 63)
    # repr switches notation at 1e-4 and 1e16, orjson at 1e-5 (below it writes 9.2e-6)
    neighbours = []
    for edge in (1e-5, 1e-4, 1e16):
        for direction in (0.0, np.inf):
            steps = [float(np.nextafter(edge, direction))]
            for _ in range(5):
                steps.append(float(np.nextafter(steps[-1], direction)))
            neighbours += steps + [-x for x in steps]
    exponents = np.arange(-1074, 1024)
    return np.concatenate([
        np.ldexp(1.0, exponents),
        np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents),
        -np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents),
        bits.view(np.float64),
        subnormal_bits.view(np.float64),
        neighbours,
        rng.standard_normal(1200) * 10.0 ** rng.integers(-4, 16, 1200),
    ])


# Each written alone, so that no other value on the line decides its branch.
_LONE_VALUES = [1e-5, 1e-4, 1e16, 0.0, -0.0, 260.00007701747694,
                -5309780.000098817, 0.1, 1.0]


class TestFeatureBits:
    def test_load_matches_stdlib_json_bit_for_bit(self, tmp_path):
        tokens = _feature_tokens(np.random.default_rng(4242))
        d_v, rows_per_record = 64, 32
        tokens += ["0"] * (-len(tokens) % d_v)
        rows = ["[" + ", ".join(tokens[i:i + d_v]) + "]" for i in range(0, len(tokens), d_v)]
        chunks = [rows[i:i + rows_per_record] for i in range(0, len(rows), rows_per_record)]
        synth = SynthConfig(d_v=d_v, d_t=d_v, n_labeled_train=0, n_labeled_val=0,
                            n_unlabeled=len(chunks), n_eval=0)
        header = {"record": "header", "format": "dfuse-corpus-v1",
                  "synth": dataclasses.asdict(synth)}
        lines = [json.dumps(header)]
        for i, chunk in enumerate(chunks):
            lines.append(
                f'{{"record": "item", "id": "vid-unlabeled-{i:05d}", "kind": "video", '
                f'"split": "unlabeled", "concept_id": 0, "pair_index": null, '
                f'"class_name": null, "features": [{", ".join(chunk)}]}}'
            )
        path = tmp_path / "bits.jsonl"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_corpus(path)
        assert len(loaded.records) == len(chunks)
        for rec, line in zip(loaded.records, lines[1:]):
            orjson.loads(line)  # every line takes the orjson path
            expected = np.asarray(json.loads(line)["features"], dtype=np.float64)
            assert rec.features.shape == expected.shape
            assert np.array_equal(rec.features.view(np.uint64), expected.view(np.uint64))

    def test_writer_matches_json_dumps_line_for_line(self, monkeypatch):
        values = _writer_values(np.random.default_rng(1312))
        values = values[np.isfinite(values)]  # the writer rejects the rest (next test)
        values = np.concatenate([values, np.zeros(-len(values) % 6)])
        synth = SynthConfig(d_v=2, d_t=2, frames_per_video=2)
        records = []
        for i, start in enumerate(range(0, len(values), 6)):
            video, text = values[start:start + 4].reshape(2, 2), values[start + 4:start + 6]
            records.append(CorpusRecord(f"vid-{i}", "video", "eval", i, video, f"c{i}", i))
            records.append(CorpusRecord(f"txt-{i}", "text", "unlabeled", i, text))
        for i, x in enumerate(_LONE_VALUES):
            records.append(CorpusRecord(f"lone-{i}", "text", "unlabeled", 0, np.array([x, 0.5])))
        splices = []  # per json.dumps call: did the writer leave "features" out of it?
        dumps = json.dumps

        def spy(obj):
            splices.append("features" not in obj)
            return dumps(obj)

        monkeypatch.setattr(json, "dumps", spy)
        written = list(corpus_lines(Corpus(synth, records)))
        monkeypatch.undo()
        header = {"record": "header", "format": "dfuse-corpus-v1",
                  "synth": dataclasses.asdict(synth)}
        expected = [json.dumps(header)]
        for rec in records:
            expected.append(json.dumps({
                "record": "item", "id": rec.id, "kind": rec.kind, "split": rec.split,
                "concept_id": rec.concept_id, "pair_index": rec.pair_index,
                "class_name": rec.class_name, "features": rec.features.tolist(),
            }))
        assert written == [(line + "\n").encode() for line in expected]
        record_splices = splices[1:]
        assert len(record_splices) == len(records)
        assert 0 < sum(record_splices) < len(records)  # both branches of the writer ran


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_rejects_non_finite_features_naming_the_record(self, bad):
        synth = SynthConfig(d_v=2, d_t=2, frames_per_video=2)
        records = [CorpusRecord("txt-0", "text", "unlabeled", 0, np.array([0.5, 0.25])),
                   CorpusRecord("txt-1", "text", "unlabeled", 0, np.array([0.5, bad]))]
        lines = corpus_lines(Corpus(synth, records))
        assert len([next(lines), next(lines)]) == 2  # header and the finite record
        with pytest.raises(CorpusRecordError, match=r"^record 'txt-1': non-finite features$"):
            next(lines)


    @pytest.mark.parametrize("x", [1e16, 5.05e-05, -0.0])
    @pytest.mark.parametrize("layout", ["row view", "strided", "float32"])
    def test_writer_spells_hard_values_as_json_dumps(self, x, layout):
        # orjson spells the first two differently (exponent, below 1e-4), so the
        # writer must hand those lines to json.dumps; -0.0 both spell alike.
        synth = SynthConfig(d_v=2, d_t=2, frames_per_video=2)
        split = np.array([[[0.5, 0.25], [x, 1.5]], [[2.0, x], [0.75, -3.0]]])
        features = {"row view": split[1], "strided": split[:, 1].T,
                    "float32": split[1].astype(np.float32)}[layout]
        rec = CorpusRecord("vid-0", "video", "unlabeled", 0, features)
        _, line = corpus_lines(Corpus(synth, [rec]))
        assert line == (json.dumps({
            "record": "item", "id": "vid-0", "kind": "video", "split": "unlabeled",
            "concept_id": 0, "pair_index": None, "class_name": None,
            "features": features.tolist(),
        }) + "\n").encode()


def prompt_feature(synth, prompt_text, class_idx):
    return prompt_feature_fn(synth)(prompt_text, class_idx)


class TestPromptFeature:
    def test_deterministic_per_text_and_class(self, tiny_synth):
        a = prompt_feature(tiny_synth, "a video of a person concept_0", 0)
        b = prompt_feature(tiny_synth, "a video of a person concept_0", 0)
        np.testing.assert_array_equal(a, b)

    def test_varies_with_wording_and_class(self, tiny_synth):
        base = prompt_feature(tiny_synth, "a video of a person concept_0", 0)
        other_text = prompt_feature(tiny_synth, "a clip of concept_0", 0)
        other_class = prompt_feature(tiny_synth, "a video of a person concept_0", 1)
        assert not np.array_equal(base, other_text)
        assert not np.array_equal(base, other_class)

    def test_class_range(self, tiny_synth):
        with pytest.raises(UsageError):
            prompt_feature(tiny_synth, "x {c}", tiny_synth.n_concepts)


class TestSynthConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(UsageError):
            SynthConfig(n_concepts=1)
        with pytest.raises(UsageError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(UsageError):
            SynthConfig(n_eval=-1)
        with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
            SynthConfig(seed=-1)
        with pytest.raises(UsageError):
            SynthConfig(identity_maps=True, d_v=32, d_t=32, latent_dim=16)
        with pytest.raises(UsageError):
            SynthConfig(identity_maps=True, d_v=16, d_t=16, latent_dim=16,
                        video_domain_shift=0.4)

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["noise_sigma", "concept_jitter", "prompt_jitter",
                                       "video_domain_shift"])
    def test_rejects_negative_and_non_finite_scales(self, field, value):
        with pytest.raises(UsageError) as info:
            SynthConfig(**{field: value})
        assert str(info.value) == f"SynthConfig.{field} must be >= 0 and finite, got {value}"

    @pytest.mark.parametrize("field,value,reason", [
        ("n_concepts", 64.0, "an integer"), ("seed", 7.5, "an integer"),
        ("frames_per_video", True, "an integer"), ("n_eval", np.int64(8), "an integer"),
        ("concept_jitter", True, "a number"), ("prompt_jitter", None, "a number"),
        ("identity_maps", 1, "true or false"),
    ])
    def test_rejects_values_of_the_wrong_type(self, field, value, reason):
        with pytest.raises(UsageError) as info:
            SynthConfig(**{field: value})
        assert str(info.value) == f"SynthConfig.{field} must be {reason}, got {value!r}"

    @pytest.mark.parametrize("field", ["noise_sigma", "concept_jitter", "prompt_jitter",
                                       "video_domain_shift"])
    def test_rejects_an_integer_too_large_for_a_double(self, field):
        with pytest.raises(UsageError) as info:
            SynthConfig(**{field: 10**400})
        assert str(info.value) == f"SynthConfig.{field} must be a finite number"

    def test_an_int_is_a_number(self):
        assert SynthConfig(noise_sigma=0, video_domain_shift=1).noise_sigma == 0

    def test_desk_scale_defaults(self):
        cfg = SynthConfig()
        assert (cfg.n_concepts, cfg.latent_dim, cfg.d_v, cfg.d_t) == (64, 16, 32, 32)
        assert cfg.frames_per_video == 8
        assert (cfg.n_labeled_train, cfg.n_labeled_val) == (512, 128)
        assert (cfg.n_unlabeled, cfg.n_eval) == (4096, 512)
