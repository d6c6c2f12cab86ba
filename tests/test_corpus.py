import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

import dfuse.corpus as corpus_module
from framedfile import (CORPUS_NAMES, assemble, blocks, edit_json, edit_row, edit_values,
                        replace)
from dfuse.corpus import (
    FORMAT_TAG,
    MAGIC,
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
from dfuse.fileio import sha256_file
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
            assert videos.pair_index.tolist() == texts.pair_index.tolist() \
                == list(range(len(videos)))
            assert videos.concept_id.tolist() == texts.concept_id.tolist()

    def test_unlabeled_has_no_pairing(self, tiny_corpus):
        assert tiny_corpus.videos("unlabeled").pair_index is None
        assert tiny_corpus.texts("unlabeled").pair_index is None
        with pytest.raises(UsageError):
            tiny_corpus.paired("unlabeled")

    def test_column_types_and_block_shapes(self, tiny_corpus, tiny_synth):
        videos, texts = tiny_corpus.videos("labeled-train"), tiny_corpus.texts("labeled-train")
        n = tiny_synth.n_labeled_train
        assert videos.features.shape == (n, tiny_synth.frames_per_video, tiny_synth.d_v)
        assert texts.features.shape == (n, tiny_synth.d_t)
        for col in (videos, texts):
            assert len(col) == len(col.ids) == len(col.class_name) == n
            assert col.concept_id.dtype == col.pair_index.dtype == np.int64
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
        return Columns([f"{tag}-{i}" for i in range(n)], np.zeros(n, dtype=np.int64), None,
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
                    pair = None if col.pair_index is None else int(col.pair_index[i])
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
        built = build_corpus(tiny_synth)
        for split in SPLITS:
            for kind in ("video", "text"):
                records = [r for r in built.records if (r.split, r.kind) == (split, kind)]
                rows = json.loads(parts[f"{split} {kind} metadata"][1])
                assert rows == [[r.id, r.concept_id, r.pair_index, r.class_name]
                                for r in records]
                count, payload, _ = parts[f"{split} {kind} features"]
                assert payload == b"".join(r.features.astype("<f8").tobytes() for r in records)
                assert count == len(payload) // 8 == len(records) * records[0].features.size

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
        b'{"record": "header", "format": "dfuse-corpus-v1", "synth": {}}\n', b"", MAGIC[:5]],
        ids=["v1-file", "empty", "short"])
    def test_anything_but_a_v2_file_is_bad_magic(self, corpus_file, data):
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: bad magic tag, not a dfuse-corpus-v2 file")

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
        data = edit_json(corpus_file.read_bytes(), f"{split} {kind} metadata",
                         lambda rows: rows[:-1])
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: {split} {kind} features: {n * row_len} values, but {n - 1} "
               f"records of {row_len} values")

    @pytest.mark.parametrize("header", [
        [], {"format": "dfuse-corpus-v1", "synth": {}}, {"synth": {}}, {"format": FORMAT_TAG},
        {"format": FORMAT_TAG, "synth": [1]}])
    def test_the_header_must_be_a_v2_object(self, corpus_file, header):
        data = edit_json(corpus_file.read_bytes(), "header", lambda _: header)
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: header: expected a dfuse-corpus-v2 header")

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
    @pytest.mark.parametrize("name", ["header", "eval video metadata"])
    def test_invalid_json_names_the_section(self, corpus_file, name, payload):
        _fails(corpus_file, replace(corpus_file.read_bytes(), name, payload), CorpusFormatError,
               f"{corpus_file}: {name}: invalid JSON")


class TestRecords:
    """Each metadata row is checked, in the order of the checks below."""

    def test_metadata_must_be_a_list(self, corpus_file):
        data = edit_json(corpus_file.read_bytes(), "eval text metadata", lambda r: {"rows": r})
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: eval text metadata: expected a JSON list")

    @pytest.mark.parametrize("row", [None, "vid", ["vid-x", 0, 0], ["vid-x", 0, 0, None, 1],
                                     {"id": "vid-x"}])
    def test_a_row_must_be_a_list_of_four(self, corpus_file, row):
        data = edit_json(corpus_file.read_bytes(), "labeled-val video metadata",
                         lambda rows: rows.__setitem__(2, row))
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: labeled-val video metadata: row 2: expected "
               "[id, concept_id, pair_index, class_name]")

    @pytest.mark.parametrize("value", [["vid", 0], 7, None])
    def test_id_must_be_a_string(self, corpus_file, value):
        data = edit_row(corpus_file.read_bytes(), "labeled-train video metadata", 1, id=value)
        _fails(corpus_file, data, CorpusFormatError,
               f"{corpus_file}: labeled-train video metadata: row 1: record id must be a string")

    @pytest.mark.parametrize("name,index", [("eval text metadata", 3),
                                            ("labeled-train video metadata", 2)])
    def test_duplicate_id(self, corpus_file, name, index):
        data = edit_row(corpus_file.read_bytes(), name, index, id="vid-labeled-train-00000")
        _fails(corpus_file, data, CorpusRecordError,
               "record 'vid-labeled-train-00000': duplicate id")

    @pytest.mark.parametrize("value", [0.5, True, "0", None, 2**63, 2**64])
    def test_concept_id_must_be_a_64_bit_integer(self, corpus_file, value):
        data = edit_row(corpus_file.read_bytes(), "unlabeled video metadata", 1,
                        concept_id=value)
        _fails(corpus_file, data, CorpusRecordError,
               "record 'vid-unlabeled-00001': concept_id must be a 64-bit integer")

    def test_negative_concept_id(self, corpus_file):
        data = edit_row(corpus_file.read_bytes(), "unlabeled text metadata", 4, concept_id=-1)
        _fails(corpus_file, data, CorpusRecordError,
               "record 'txt-unlabeled-00004': negative concept_id")

    @pytest.mark.parametrize("value", ["x", 0.0, False, -(2**64), [1]])
    def test_pair_index_must_be_a_64_bit_integer(self, corpus_file, value):
        data = edit_row(corpus_file.read_bytes(), "labeled-train video metadata", 1,
                        pair_index=value)
        _fails(corpus_file, data, CorpusRecordError,
               "record 'vid-labeled-train-00001': pair_index must be a 64-bit integer")

    @pytest.mark.parametrize("value", [["concept_0"], 3, True])
    def test_class_name_must_be_a_string(self, corpus_file, value):
        data = edit_row(corpus_file.read_bytes(), "eval video metadata", 0, class_name=value)
        _fails(corpus_file, data, CorpusRecordError,
               "record 'vid-eval-00000': class_name must be a string")

    def test_a_paired_record_needs_a_pair_index(self, corpus_file):
        data = edit_row(corpus_file.read_bytes(), "labeled-val text metadata", 2,
                        pair_index=None)
        _fails(corpus_file, data, CorpusRecordError,
               "record 'txt-labeled-val-00002': paired split needs a pair_index")

    def test_the_checks_of_a_row_keep_their_order(self, corpus_file):
        # Mend the row's faults one at a time; each reveals the next check.
        name, rid = "eval video metadata", "vid-eval-00001"
        faults = [("id", 9, CorpusFormatError,
                   f"{corpus_file}: {name}: row 1: record id must be a string"),
                  ("id", "vid-eval-00000", CorpusRecordError,
                   "record 'vid-eval-00000': duplicate id"),
                  ("concept_id", 0.5, CorpusRecordError,
                   f"record '{rid}': concept_id must be a 64-bit integer"),
                  ("concept_id", -1, CorpusRecordError, f"record '{rid}': negative concept_id"),
                  ("pair_index", "1", CorpusRecordError,
                   f"record '{rid}': pair_index must be a 64-bit integer"),
                  ("class_name", 1, CorpusRecordError,
                   f"record '{rid}': class_name must be a string"),
                  ("pair_index", None, CorpusRecordError,
                   f"record '{rid}': paired split needs a pair_index")]
        fields = {"id": rid, "concept_id": 1, "pair_index": 1, "class_name": "concept_1"}
        for step in range(len(faults)):
            bad = {**fields}
            for key, value, _, _ in faults[step:]:
                if bad[key] == fields[key]:
                    bad[key] = value
            error, message = faults[step][2:]
            _fails(corpus_file, edit_row(corpus_file.read_bytes(), name, 1, **bad), error,
                   message)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["labeled-train", "unlabeled", "eval"])
    def test_non_finite_features_name_the_record(self, corpus_file, split, value):
        data = edit_values(corpus_file.read_bytes(), f"{split} video features",
                           lambda v: v.__setitem__(5 * 24 + 7, value))
        for splits in (SPLITS, ("eval",), ()):
            _fails(corpus_file, data, CorpusRecordError,
                   f"record 'vid-{split}-00005': non-finite features", splits)

    def test_metadata_is_checked_before_its_features(self, corpus_file):
        data = edit_values(corpus_file.read_bytes(), "eval text features",
                           lambda v: v.__setitem__(0, np.nan))
        data = edit_row(data, "eval text metadata", 9, concept_id=-3)
        _fails(corpus_file, data, CorpusRecordError, "record 'txt-eval-00009': negative concept_id")


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
    "invalid-json": lambda data, s: replace(data, f"{s} video metadata", b"[["),
    "list-id": lambda data, s: edit_row(data, f"{s} video metadata", 0, id=["vid", 0]),
    "duplicate-id": lambda data, s: edit_row(data, f"{s} video metadata", 1,
                                             id=f"vid-{s}-00000"),
    "negative-concept": lambda data, s: edit_row(data, f"{s} video metadata", 0,
                                                 concept_id=-1),
    "non-finite": lambda data, s: edit_values(data, f"{s} video features",
                                              lambda v: v.__setitem__(-1, np.inf)),
}


class TestSplitRetention:
    """``load_corpus(path, splits)`` checks every block but keeps only ``splits``."""

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
    @pytest.mark.parametrize("split", ["labeled-train", "unlabeled", "eval"])
    def test_a_dropped_block_is_checked_as_a_kept_one(self, corpus_file, split, fault):
        corpus_file.write_bytes(_BLOCK_FAULTS[fault](corpus_file.read_bytes(), split))
        with pytest.raises((CorpusFormatError, CorpusRecordError)) as full:
            load_corpus(corpus_file)
        for splits in [("eval",), ("labeled-train", "labeled-val"), ()]:
            with pytest.raises(full.type) as kept:
                load_corpus(corpus_file, splits)
            assert str(kept.value) == str(full.value)

    @pytest.mark.parametrize("fault,message", [
        ("concept", "pair 0 in split 'labeled-val': concept mismatch "
                    "('vid-labeled-val-00000' vs 'txt-labeled-val-00000')"),
        ("duplicate", "split 'labeled-val': duplicate pair_index"),
        ("unmatched", "split 'labeled-val': unmatched video/text pair indices"),
        ("order", "split 'labeled-val': record 'vid-labeled-val-00000' is out of pair order"),
    ])
    def test_pairing_of_a_dropped_split_is_checked(self, corpus_file, fault, message):
        name = "labeled-val video metadata"
        if fault == "order":  # rows 0 and 1 swapped
            data = edit_json(corpus_file.read_bytes(), name, lambda rows: [rows[1], rows[0],
                                                                            *rows[2:]])
        else:
            change = ({"concept_id": 1} if fault == "concept" else
                      {"pair_index": 1 if fault == "duplicate" else 10**6})
            data = edit_row(corpus_file.read_bytes(), name, 0, **change)
        for splits in [SPLITS, ("eval",), ("labeled-train", "unlabeled")]:
            _fails(corpus_file, data, CorpusRecordError, message, splits)

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
