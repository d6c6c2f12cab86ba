import dataclasses
import json

import numpy as np
import pytest

from dfuse.corpus import (
    SynthConfig,
    build_corpus,
    concept_vectors,
    corpus_to_jsonl,
    gen_corpus,
    load_corpus,
    prompt_feature,
    text_feature_map,
    video_feature_map,
)
from dfuse.errors import CorpusFormatError, CorpusRecordError, UsageError


class TestGeneration:
    def test_same_seed_byte_identical(self, tiny_synth):
        assert corpus_to_jsonl(build_corpus(tiny_synth)) == corpus_to_jsonl(build_corpus(tiny_synth))

    def test_different_seed_differs(self, tiny_synth):
        other = dataclasses.replace(tiny_synth, seed=tiny_synth.seed + 1)
        assert corpus_to_jsonl(build_corpus(tiny_synth)) != corpus_to_jsonl(build_corpus(other))

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
        assert corpus_to_jsonl(load_corpus(path)).encode() == original


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
        with pytest.raises(UsageError):
            SynthConfig(identity_maps=True, d_v=32, d_t=32, latent_dim=16)
        with pytest.raises(UsageError):
            SynthConfig(identity_maps=True, d_v=16, d_t=16, latent_dim=16,
                        video_domain_shift=0.4)

    def test_desk_scale_defaults(self):
        cfg = SynthConfig()
        assert (cfg.n_concepts, cfg.latent_dim, cfg.d_v, cfg.d_t) == (64, 16, 32, 32)
        assert cfg.frames_per_video == 8
        assert (cfg.n_labeled_train, cfg.n_labeled_val) == (512, 128)
        assert (cfg.n_unlabeled, cfg.n_eval) == (4096, 512)
