import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

import dfuse.corpus as corpus_module
from framedfile import CORPUS_NAMES, assemble, blocks, edit_json, edit_values, replace
from dfuse.corpus import (
    FORMAT_TAG,
    MAGIC,
    PAIRED_SPLITS,
    SPLITS,
    Columns,
    Corpus,
    SynthConfig,
    build_corpus,
    concept_vectors,
    gen_corpus,
    load_corpus,
    prompt_feature_fn,
    text_feature_map,
    video_feature_map,
)
from dfuse.errors import CorpusFormatError, CorpusRecordError, UsageError
from dfuse.fileio import json_block, sha256_file
from naive import naive_build_corpus, same_bits


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
            videos, texts = tiny_corpus.videos(split), tiny_corpus.texts(split)
            assert [i[4:] for i in videos.ids] == [i[4:] for i in texts.ids]
            assert videos.concept_id.tolist() == texts.concept_id.tolist()
            pairs = [r.pair_index for r in tiny_corpus.records if r.split == split]
            assert pairs == [*range(len(videos)), *range(len(texts))]

    def test_unlabeled_has_no_pairing(self, tiny_corpus):
        assert {r.pair_index for r in tiny_corpus.records if r.split == "unlabeled"} == {None}
        with pytest.raises(UsageError):
            tiny_corpus.paired("unlabeled")

    def test_column_types_and_block_shapes(self, tiny_corpus, tiny_synth):
        videos, texts = tiny_corpus.videos("labeled-train"), tiny_corpus.texts("labeled-train")
        n = tiny_synth.n_labeled_train
        assert videos.features.shape == (n, tiny_synth.frames_per_video, tiny_synth.d_v)
        assert texts.features.shape == (n, tiny_synth.d_t)
        for col in (videos, texts):
            assert len(col) == len(col.ids) == len(col.class_name) == n
            assert col.concept_id.dtype == np.int64
            assert col.features.dtype == np.float64 and col.features.flags["C_CONTIGUOUS"]

    def test_eval_videos_carry_class_names(self, tiny_corpus, tiny_synth):
        names = set(tiny_corpus.videos("eval").class_name)
        assert len(names) == tiny_synth.n_concepts
        assert all(n is not None for n in names)
        assert set(tiny_corpus.texts("eval").class_name) == {None}

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
        got, want = build_corpus(cfg).records, naive_build_corpus(cfg)
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


def _records(corpus):
    return [(r.id, r.kind, r.split, r.concept_id, r.pair_index, r.class_name,
             r.features.dtype, r.features.shape, r.features.tobytes()) for r in corpus.records]


def _unlabeled_only(synth, videos, texts):
    """A corpus whose unlabeled split holds the ``videos`` and ``texts`` blocks
    (ids ``vid-i`` and ``txt-i``, concept 0) and whose other splits are empty."""
    def columns(tag, features):
        n = len(features)
        return Columns([f"{tag}-{i}" for i in range(n)], np.zeros(n, dtype=np.int64),
                       [None] * n, features)

    empty = build_corpus(dataclasses.replace(synth, n_labeled_train=0, n_labeled_val=0,
                                             n_unlabeled=0, n_eval=0))
    splits = {split: {"video": empty.videos(split), "text": empty.texts(split)}
              for split in SPLITS}
    splits["unlabeled"] = {"video": columns("vid", videos), "text": columns("txt", texts)}
    return Corpus(synth, splits)


class TestRecordsView:
    """``Corpus.records`` builds one record per row of the columns, in file order."""

    @pytest.mark.parametrize("source", ["built", "loaded", "loaded eval"])
    def test_records_are_the_columns_in_file_order(self, corpus_file, tiny_synth, source):
        corpus = {"built": lambda: build_corpus(tiny_synth),
                  "loaded": lambda: load_corpus(corpus_file),
                  "loaded eval": lambda: load_corpus(corpus_file, ("eval",))}[source]()
        want = []
        for split in corpus.splits:
            for kind, col in (("video", corpus.videos(split)), ("text", corpus.texts(split))):
                for i in range(len(col)):
                    pair = i if split in PAIRED_SPLITS else None
                    want.append((col.ids[i], kind, split, int(col.concept_id[i]),
                                 col.class_name[i], pair, col.features[i]))
        records = corpus.records
        assert len(records) == len(want) == sum(
            len(corpus.videos(s)) + len(corpus.texts(s)) for s in corpus.splits)
        for r, (rec_id, kind, split, concept, name, pair, features) in zip(records, want):
            assert (r.id, r.kind, r.split, r.concept_id, r.class_name, r.pair_index) \
                == (rec_id, kind, split, concept, name, pair)
            assert type(r.concept_id) is int and type(r.pair_index) in (int, type(None))
            assert r.features.shape == features.shape
            assert np.shares_memory(r.features, features) and same_bits(r.features, features)
        with pytest.raises(AttributeError):
            corpus.records = []


class TestDerivedColumns:
    """Every field of a record but its features follows from the config and its
    row, the same way for a built corpus and a loaded one."""

    @pytest.mark.parametrize("source", ["built", "loaded"])
    @pytest.mark.parametrize("kind", ["video", "text"])
    @pytest.mark.parametrize("split", SPLITS)
    def test_a_split_s_records_follow_from_the_config(self, corpus_file, tiny_synth, split,
                                                       kind, source):
        corpus = build_corpus(tiny_synth) if source == "built" else load_corpus(corpus_file)
        col = corpus.videos(split) if kind == "video" else corpus.texts(split)
        n = getattr(tiny_synth, "n_" + split.replace("-", "_"))
        tag = "vid" if kind == "video" else "txt"
        assert col.ids == [f"{tag}-{split}-{i:05d}" for i in range(n)]
        assert col.concept_id.dtype == np.int64
        assert col.concept_id.tolist() == [i % tiny_synth.n_concepts for i in range(n)]
        if (split, kind) == ("eval", "video"):
            assert col.class_name == [f"concept_{i % tiny_synth.n_concepts}" for i in range(n)]
        else:
            assert col.class_name == [None] * n
        assert len(col) == len(col.features) == n

    @pytest.mark.parametrize("split", PAIRED_SPLITS)
    def test_row_i_of_a_paired_split_is_pair_i(self, corpus_file, split):
        corpus = load_corpus(corpus_file, (split,))
        videos, texts = corpus.videos(split), corpus.texts(split)
        assert [i.split("-", 1)[1] for i in videos.ids] == [i.split("-", 1)[1] for i in texts.ids]
        assert videos.concept_id.tolist() == texts.concept_id.tolist()
        pairs = {(r.kind, r.id): r.pair_index for r in corpus.records}
        assert [pairs["video", i] for i in videos.ids] == [*range(len(videos))]
        assert [pairs["text", i] for i in texts.ids] == [*range(len(texts))]

    @pytest.mark.parametrize("n_concepts,width", [(2, 1), (10, 1), (11, 2), (100, 2),
                                                  (101, 3)])
    def test_class_names_are_padded_to_the_widest_concept(self, n_concepts, width):
        cfg = SynthConfig(n_concepts=n_concepts, latent_dim=2, d_v=2, d_t=2, frames_per_video=1,
                          n_labeled_train=0, n_labeled_val=0, n_unlabeled=0, n_eval=n_concepts)
        names = build_corpus(cfg).videos("eval").class_name
        assert names == [f"concept_{c:0{width}d}" for c in range(n_concepts)]
        assert names == sorted(names) and len(set(names)) == n_concepts

    @pytest.mark.parametrize("n_eval", [0, 3, 4, 5, 9])
    def test_concepts_cycle_through_a_split_of_any_size(self, tmp_path, tiny_synth, n_eval):
        cfg = dataclasses.replace(tiny_synth, n_eval=n_eval)
        path = tmp_path / "corpus.dfc"
        gen_corpus(cfg, path)
        videos = load_corpus(path, ("eval",)).videos("eval")
        assert videos.concept_id.tolist() == [i % 4 for i in range(n_eval)]
        assert videos.features.shape == (n_eval, cfg.frames_per_video, cfg.d_v)
        assert videos.ids == [f"vid-eval-{i:05d}" for i in range(n_eval)]

    def test_ids_are_unique_across_the_corpus(self, corpus_file):
        ids = [(r.kind, r.id) for r in load_corpus(corpus_file).records]
        assert len({rec_id for _, rec_id in ids}) == len(ids)


@pytest.fixture
def corpus_file(tmp_path, tiny_synth):
    path = tmp_path / "corpus.jsonl"
    gen_corpus(tiny_synth, path)
    return path


def _fails(path, data, error, message, splits=SPLITS):
    """Write ``data`` to ``path``; loading it must raise ``error`` with ``message``."""
    path.write_bytes(data)
    with pytest.raises(error) as info:
        load_corpus(path, splits)
    assert str(info.value) == message


def _set_raw(data, name, index, value):
    """``data`` with value ``index`` of features block ``name`` overwritten
    in place, its CRC left as it was."""
    start = blocks(data)[name][2] + 8 + 8 * index
    return data[:start] + struct.pack("<d", value) + data[start + 8:]


class TestRoundTrip:
    def test_gen_load_bit_exact(self, corpus_file, tiny_synth):
        loaded = load_corpus(corpus_file)
        assert loaded.synth == tiny_synth
        assert _records(loaded) == _records(build_corpus(tiny_synth))

    def test_blocks_hold_the_records_in_file_order(self, corpus_file, tiny_synth):
        data = corpus_file.read_bytes()
        parts = blocks(data)
        assert data.startswith(MAGIC)
        assert assemble(parts) == data  # each CRC-32 is its payload's
        assert json.loads(parts["header"][1]) == {
            "format": FORMAT_TAG, "synth": dataclasses.asdict(tiny_synth)}
        assert tuple(parts) == CORPUS_NAMES  # the header, then one block per split and kind
        built = build_corpus(tiny_synth)
        for split in SPLITS:
            for kind in ("video", "text"):
                records = [r for r in built.records if (r.split, r.kind) == (split, kind)]
                count, payload, _ = parts[f"{split} {kind} features"]
                assert payload == b"".join(r.features.astype("<f8").tobytes() for r in records)
                assert count == len(payload) // 8 == len(records) * records[0].features.size

    @pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
    def test_every_config_round_trips(self, tmp_path, name):
        cfg = _ORACLE_CONFIGS[name]
        path = tmp_path / "corpus.dfc"
        built = gen_corpus(cfg, path)
        loaded = load_corpus(path)
        assert loaded.synth == cfg and loaded.sha256 == sha256_file(path)
        assert _records(loaded) == _records(built)

    def test_a_kept_features_block_is_one_writable_array(self, corpus_file, tiny_synth):
        videos = load_corpus(corpus_file, ("eval",)).videos("eval")
        assert videos.features.shape == (tiny_synth.n_eval, tiny_synth.frames_per_video,
                                         tiny_synth.d_v)
        assert videos.features.flags.writeable and videos.features.flags["C_CONTIGUOUS"]

    def test_any_finite_double_round_trips(self, corpus_file):
        name = "unlabeled video features"
        count = blocks(corpus_file.read_bytes())[name][0]
        doubles = np.random.default_rng(4242).integers(
            0, 2**64, size=2 * count, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e16, 5.05e-05]
        values = np.concatenate([special, doubles[np.isfinite(doubles)]])[:count]
        corpus_file.write_bytes(edit_values(corpus_file.read_bytes(), name,
                                            lambda v: v.__setitem__(slice(None), values)))
        got = load_corpus(corpus_file).videos("unlabeled").features.ravel()
        assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()

    @pytest.mark.parametrize("layout", ["view", "strided", "float32"])
    def test_the_writer_writes_any_layout_as_float64(self, tmp_path, monkeypatch, layout):
        synth = SynthConfig(d_v=2, d_t=2, frames_per_video=2, n_labeled_train=0,
                            n_labeled_val=0, n_unlabeled=1, n_eval=0)
        split = np.array([[[0.5, 0.25], [1e16, 1.5]], [[2.0, 5.05e-05], [0.75, -0.0]]])
        features = {"view": split[1:], "strided": split[:, 1].T[None],
                    "float32": split[1:].astype(np.float32)}[layout]
        corpus = _unlabeled_only(synth, features, np.array([[0.5, 0.25]]))
        monkeypatch.setattr(corpus_module, "build_corpus", lambda cfg: corpus)
        path = tmp_path / "corpus.jsonl"
        gen_corpus(synth, path)
        expected = np.asarray(features, dtype=np.float64)
        assert blocks(path.read_bytes())["unlabeled video features"][1] == expected.tobytes()
        assert load_corpus(path).videos("unlabeled").features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("at", [1, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_the_writer_rejects_non_finite_features_naming_the_record(self, tmp_path,
                                                                     monkeypatch, bad, at):
        synth = SynthConfig(d_v=2, d_t=2, frames_per_video=2)
        texts = np.full((3, 2), 0.5)
        texts.flat[at] = bad
        corpus = _unlabeled_only(synth, np.zeros((0, 2, 2)), texts)
        monkeypatch.setattr(corpus_module, "build_corpus", lambda cfg: corpus)
        with pytest.raises(CorpusRecordError, match=rf"^record 'txt-{at // 2}': non-finite "
                                                    "features$"):
            gen_corpus(synth, tmp_path / "corpus.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_the_writer_stacks_no_block(self, tmp_path):
        # Each features block is written as one view of its split's array, so
        # writing costs far less than the largest block (2 MiB here).
        cfg = SynthConfig(n_labeled_train=8, n_labeled_val=8, n_unlabeled=1024, n_eval=8)
        tracemalloc.start()
        try:
            corpus = gen_corpus(cfg, tmp_path / "corpus.jsonl")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = corpus.videos("unlabeled").features.nbytes
        assert block == 2 << 20
        assert peak - retained < block // 2


class TestFraming:
    @pytest.mark.parametrize("data", [
        b'{"record": "header", "format": "dfuse-corpus-v1", "synth": {}}\n',
        # A v2 file's start: its tag and header; a JSON metadata block of
        # [id, concept_id, pair_index, class_name] rows came before each features block.
        b"".join([b"DFCORP02", *json_block({"format": "dfuse-corpus-v2", "synth": {}}),
                  *json_block([["vid-labeled-train-00000", 0, 0, None]])]),
        b"", MAGIC[:5]],
        ids=["v1-file", "v2-file", "empty", "short"])
    def test_anything_but_a_v3_file_is_bad_magic(self, corpus_file, data):
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: bad magic tag, not a dfuse-corpus-v3 file")

    @pytest.mark.parametrize("where", ["length", "payload", "crc"])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_truncation_names_the_section(self, corpus_file, name, where):
        data = corpus_file.read_bytes()
        _, payload, start = blocks(data)[name]
        cut = {"length": start + 3, "payload": start + 8 + len(payload) // 2,
               "crc": start + 10 + len(payload)}[where]
        _fails(corpus_file, data[:cut], CorpusFormatError, f"{corpus_file}: truncated {name}")

    @pytest.mark.parametrize("where", ["payload", "crc"])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_a_flipped_bit_is_a_checksum_mismatch(self, corpus_file, name, where):
        data = bytearray(corpus_file.read_bytes())
        _, payload, start = blocks(bytes(data))[name]
        data[start + 8 + (len(payload) // 2 if where == "payload" else len(payload) + 1)] ^= 0x10
        _fails(corpus_file, bytes(data), CorpusFormatError,
               f"{corpus_file}: {name}: checksum mismatch")

    def test_the_checksum_is_checked_before_finiteness(self, corpus_file):
        data = _set_raw(corpus_file.read_bytes(), "eval video features", 3, float("nan"))
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: eval video features: checksum mismatch")

    def test_trailing_bytes(self, corpus_file):
        _fails(corpus_file, corpus_file.read_bytes() + b"\0", CorpusFormatError,
               f"{corpus_file}: trailing bytes after the corpus")

    def test_a_negative_length_is_named(self, corpus_file):
        data = corpus_file.read_bytes()
        data = MAGIC + struct.pack("<q", -1) + data[len(MAGIC) + 8:]
        _fails(corpus_file, data, CorpusFormatError, f"{corpus_file}: bad header length -1")

    @pytest.mark.parametrize("split,kind,n,row_len", [
        ("labeled-train", "video", 24, 24), ("unlabeled", "text", 16, 8)])
    def test_the_row_count_must_match_the_block_size(self, corpus_file, split, kind, n,
                                                     row_len):
        # The header says one record fewer than the block holds.
        good, size = corpus_file.read_bytes(), "n_" + split.replace("-", "_")
        data = edit_json(good, "header", lambda h: h["synth"].update({size: n - 1}))
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: {split} video features: {n * 24} values, but the header "
               f"gives {n - 1} records of 24 values")
        # A block's count says one value fewer than the header's records hold.
        name = f"{split} {kind} features"
        data = replace(good, name, blocks(good)[name][1][:-8])
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: {name}: {n * row_len - 1} values, but the header gives {n} "
               f"records of {row_len} values")

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("split", SPLITS)
    def test_a_header_split_size_must_match_its_blocks(self, corpus_file, tiny_synth, split,
                                                       delta):
        size = "n_" + split.replace("-", "_")
        n = getattr(tiny_synth, size)
        data = edit_json(corpus_file.read_bytes(), "header",
                         lambda h: h["synth"].update({size: n + delta}))
        row_len = tiny_synth.frames_per_video * tiny_synth.d_v
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: {split} video features: {n * row_len} values, but the header "
               f"gives {n + delta} records of {row_len} values")

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("name", CORPUS_NAMES[1:])
    def test_every_block_s_count_must_match_the_header(self, corpus_file, tiny_synth, name,
                                                       delta):
        # The payload is framed again, so only the count check can catch it.
        split, kind, _ = name.split()
        n = getattr(tiny_synth, "n_" + split.replace("-", "_"))
        row_len = (tiny_synth.frames_per_video * tiny_synth.d_v if kind == "video"
                   else tiny_synth.d_t)
        good = corpus_file.read_bytes()
        payload = blocks(good)[name][1]
        payload = payload[:-8] if delta < 0 else payload + struct.pack("<d", 0.5)
        _fails(corpus_file, replace(good, name, payload), CorpusFormatError,
               f"{corpus_file}: {name}: {n * row_len + delta} values, but the header gives "
               f"{n} records of {row_len} values")

    @pytest.mark.parametrize("header", [
        [], {"format": "dfuse-corpus-v2", "synth": {}}, {"synth": {}}, {"format": FORMAT_TAG},
        {"format": FORMAT_TAG, "synth": [1]}])
    def test_the_header_must_be_a_v3_object(self, corpus_file, header):
        data = edit_json(corpus_file.read_bytes(), "header", lambda _: header)
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: header: expected a dfuse-corpus-v3 header")

    def test_an_unknown_config_key_is_a_bad_generation_config(self, corpus_file):
        data = edit_json(corpus_file.read_bytes(), "header",
                         lambda h: h["synth"].update(mystery=1))
        corpus_file.write_bytes(data)
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(corpus_file)
        assert str(info.value).startswith(f"{corpus_file}: header: bad generation config: ")
        assert "mystery" in str(info.value)

    @pytest.mark.parametrize("payload", [b'{"format": ', b'["\xff"]', b"[" * 100_000, b""],
                             ids=["cut", "not-utf8", "nested-too-deeply", "empty"])
    @pytest.mark.parametrize("name", ["header"])
    def test_invalid_json_names_the_section(self, corpus_file, name, payload):
        _fails(corpus_file, replace(corpus_file.read_bytes(), name, payload), CorpusFormatError,
               f"{corpus_file}: {name}: invalid JSON")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_standard_json_constant_is_invalid_json(self, corpus_file, constant):
        # Python's json module would read these as floats; strict JSON has no such values.
        text = json.dumps(json.loads(blocks(corpus_file.read_bytes())["header"][1]))
        text = text.replace('"noise_sigma": 0.05', f'"noise_sigma": {constant}')
        assert constant in text
        _fails(corpus_file, replace(corpus_file.read_bytes(), "header", text.encode()),
               CorpusFormatError, f"{corpus_file}: header: invalid JSON")


class TestRecords:
    """A record's features are its only stored field; a non-finite value names it."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["labeled-train", "unlabeled", "eval"])
    def test_non_finite_features_name_the_record(self, corpus_file, split, value):
        data = edit_values(corpus_file.read_bytes(), f"{split} video features",
                           lambda v: v.__setitem__(5 * 24 + 7, value))
        for splits in (SPLITS, ("eval",), ()):
            _fails(corpus_file, data, CorpusRecordError,
                   f"record 'vid-{split}-00005': non-finite features", splits)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", SPLITS)
    def test_non_finite_text_features_name_the_record(self, corpus_file, split, value):
        # A text row is 8 values: value 8 * 6 + 7 is the last of record 6.
        data = edit_values(corpus_file.read_bytes(), f"{split} text features",
                           lambda v: v.__setitem__(8 * 6 + 7, value))
        for splits in (SPLITS, (split,), ()):
            _fails(corpus_file, data, CorpusRecordError,
                   f"record 'txt-{split}-00006': non-finite features", splits)

    @pytest.mark.parametrize("splits", [SPLITS, ("eval",)], ids=["kept", "dropped"])
    def test_the_first_non_finite_value_of_a_block_is_named(self, tmp_path, splits):
        # Two bad records in different chunks of a dropped block's read.
        cfg = SynthConfig(d_v=2, d_t=2, frames_per_video=2, n_labeled_train=0, n_labeled_val=0,
                          n_unlabeled=10_000, n_eval=1)
        path = tmp_path / "corpus.dfc"
        gen_corpus(cfg, path)

        def change(v):
            v[4 * 9000] = np.inf
            v[4 * 20] = np.nan
        data = edit_values(path.read_bytes(), "unlabeled video features", change)
        _fails(path, data, CorpusRecordError,
               "record 'vid-unlabeled-00020': non-finite features", splits)


def _flip(data, name):
    """``data`` with one bit of block ``name``'s payload flipped."""
    _, payload, start = blocks(data)[name]
    at = start + 8 + len(payload) // 3
    return data[:at] + bytes([data[at] ^ 0x04]) + data[at + 1:]


def _features_count(data, name, delta):
    count, payload, _ = blocks(data)[name]
    return replace(data, name, payload, count=count + delta)


# Faults of one split's video blocks, each caught by a different check of the loader.
_BLOCK_FAULTS = {
    "truncated": lambda data, s: data[:blocks(data)[f"{s} video features"][2] + 20],
    "flipped-bit": lambda data, s: _flip(data, f"{s} video features"),
    "count": lambda data, s: _features_count(data, f"{s} video features", -1),
    "non-finite": lambda data, s: edit_values(data, f"{s} video features",
                                              lambda v: v.__setitem__(-1, np.inf)),
}


class TestSplitRetention:
    """``load_corpus(path, splits)`` checks every block but keeps only ``splits``;
    a dropped split keeps nothing."""

    @pytest.mark.parametrize("splits", [
        (), ("eval",), ("labeled-train", "labeled-val"),
        ("labeled-train", "labeled-val", "unlabeled"), ("eval", "unlabeled"), SPLITS,
    ])
    def test_kept_records_equal_a_full_load(self, corpus_file, splits):
        full = load_corpus(corpus_file)
        kept = load_corpus(corpus_file, splits)
        assert kept.splits == tuple(s for s in SPLITS if s in splits)
        assert _records(kept) == [r for r in _records(full) if r[2] in splits]
        for split in kept.splits:
            assert kept.videos(split).ids == [r.id for r in kept.records
                                              if r.split == split and r.kind == "video"]
        assert kept.sha256 == full.sha256 == sha256_file(corpus_file)

    @pytest.mark.parametrize("accessor", ["videos", "texts", "paired"])
    @pytest.mark.parametrize("split", ["labeled-train", "labeled-val", "unlabeled"])
    def test_unloaded_split_is_a_usage_error_naming_it(self, corpus_file, accessor, split):
        corpus = load_corpus(corpus_file, ("eval",))
        with pytest.raises(UsageError, match=f"split '{split}'"):
            getattr(corpus, accessor)(split)
        getattr(corpus, accessor)("eval")  # the loaded split is served

    def test_unknown_split_is_a_usage_error(self, corpus_file):
        with pytest.raises(UsageError, match="unknown split 'test'"):
            load_corpus(corpus_file, ("eval", "test"))
        with pytest.raises(UsageError, match="unknown split 'test'"):
            load_corpus(corpus_file, ("eval",)).videos("test")

    @pytest.mark.parametrize("fault", _BLOCK_FAULTS)
    @pytest.mark.parametrize("split", ["labeled-train", "unlabeled", "eval", "labeled-val"])
    def test_a_dropped_block_is_checked_as_a_kept_one(self, corpus_file, split, fault):
        corpus_file.write_bytes(_BLOCK_FAULTS[fault](corpus_file.read_bytes(), split))
        with pytest.raises((CorpusFormatError, CorpusRecordError)) as full:
            load_corpus(corpus_file)
        for splits in [("eval",), ("labeled-train", "labeled-val"), ()]:
            with pytest.raises(full.type) as kept:
                load_corpus(corpus_file, splits)
            assert str(kept.value) == str(full.value)

    def test_a_dropped_block_is_read_in_bounded_chunks(self, tmp_path):
        cfg = SynthConfig(n_labeled_train=8, n_labeled_val=8, n_unlabeled=1024, n_eval=8)
        path = tmp_path / "corpus.jsonl"
        gen_corpus(cfg, path)
        tracemalloc.start()
        try:
            load_corpus(path, ("eval",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the unlabeled video block alone is 2 MiB
        # The last value lies in the last chunk; both ways name its record.
        data = edit_values(path.read_bytes(), "unlabeled video features",
                           lambda v: v.__setitem__(-1, np.nan))
        for splits in (SPLITS, ("eval",)):
            _fails(path, data, CorpusRecordError,
                   "record 'vid-unlabeled-01023': non-finite features", splits)


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
