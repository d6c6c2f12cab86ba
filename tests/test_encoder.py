import tracemalloc

import numpy as np
import pytest

from dfuse import encoder
from dfuse.encoder import (
    EncoderConfig,
    ParamVector,
    encode_sampled,
    encode_text_batch,
    encode_video_batch,
    init_params,
    param_layout,
    sample_frame_indices,
    sample_frames,
    text_forward,
    video_forward,
)
from dfuse.errors import DegenerateEmbeddingError, UsageError
from naive import naive_sample_frames, naive_video_forward, same_bits


class TestSampleFrameIndices:
    def test_identity_coverage(self):
        np.testing.assert_array_equal(sample_frame_indices(4, 4), [0, 1, 2, 3])

    def test_segment_centers(self):
        np.testing.assert_array_equal(sample_frame_indices(8, 4), [1, 3, 5, 7])

    def test_short_clip_repeats(self):
        np.testing.assert_array_equal(sample_frame_indices(2, 4), [0, 0, 1, 1])

    def test_non_decreasing_within_bounds(self):
        for t in range(1, 13):
            for n in range(1, 13):
                idx = sample_frame_indices(t, n)
                assert len(idx) == n
                assert np.all(np.diff(idx) >= 0)
                assert idx.min() >= 0 and idx.max() < t
                # exact segment-center formula
                for i, j in enumerate(idx):
                    assert j == ((2 * i + 1) * t) // (2 * n)
                    assert j * n < (i + 1) * t  # never spills into a later segment
                if t >= n:
                    assert len(set(idx.tolist())) == n  # one frame per segment

    def test_rejects_bad_counts(self):
        with pytest.raises(UsageError):
            sample_frame_indices(0, 4)
        with pytest.raises(UsageError):
            sample_frame_indices(4, 0)


class TestInitParams:
    def test_deterministic(self, enc_cfg):
        a, b = init_params(enc_cfg), init_params(enc_cfg)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.layout == b.layout

    def test_seeds_differ(self, enc_cfg):
        import dataclasses
        other = dataclasses.replace(enc_cfg, seed=enc_cfg.seed + 1)
        assert not np.array_equal(init_params(enc_cfg).values, init_params(other).values)

    def test_layout_sizes(self, enc_cfg):
        pv = init_params(enc_cfg)
        total = sum(int(np.prod(shape)) for _, shape in pv.layout)
        assert total == pv.n_params
        assert pv.layout == param_layout(enc_cfg)

    def test_fan_in_bounds(self, enc_cfg):
        pv = init_params(enc_cfg)
        assert np.max(np.abs(pv.tensor("video.w1"))) <= 1 / np.sqrt(enc_cfg.input_dim_video)
        assert np.max(np.abs(pv.tensor("video.w2"))) <= 1 / np.sqrt(enc_cfg.hidden_dim)
        assert np.max(np.abs(pv.tensor("text.b1"))) <= 1 / np.sqrt(enc_cfg.input_dim_text)

    def test_teacher_student_layouts_match(self, enc_cfg):
        import dataclasses
        student_cfg = dataclasses.replace(enc_cfg, seed=999)
        assert init_params(enc_cfg).same_layout(init_params(student_cfg))


class TestParamVector:
    def test_tensor_views_share_memory(self, params):
        view = params.tensor("video.w1")
        view[0, 0] = 123.0
        assert params.values[0] == 123.0

    def test_unknown_tensor(self, params):
        with pytest.raises(UsageError):
            params.tensor("video.w9")

    def test_length_mismatch(self, params):
        with pytest.raises(UsageError):
            ParamVector(params.values[:-1], params.layout)

    def test_copy_is_independent(self, params):
        dup = params.copy()
        dup.values[0] += 1.0
        assert params.values[0] != dup.values[0]


class TestStackedParams:
    """A (K, n_params) ParamVector runs K weight vectors through one forward."""

    def _stack(self, params, k=3):
        rng = np.random.default_rng(40)
        values = params.values + 1e-3 * rng.standard_normal((k, params.n_params))
        return ParamVector(values, params.layout)

    def test_tensor_views_gain_a_leading_axis(self, params):
        stack = self._stack(params)
        assert stack.n_params == params.n_params
        w1 = stack.tensor("video.w1")
        assert w1.shape == (3,) + params.tensor("video.w1").shape
        assert np.shares_memory(w1, stack.values)
        assert ParamVector(stack.values[1], params.layout).tensor("video.w1").tobytes() \
            == w1[1].tobytes()

    def test_every_slice_has_the_one_vector_bits(self, params, enc_cfg):
        rng = np.random.default_rng(41)
        stacks = [rng.standard_normal((t, enc_cfg.input_dim_video)) for t in (1, 2, 5, 9)]
        frames = naive_sample_frames(stacks, enc_cfg.n_frames)
        texts = rng.standard_normal((4, enc_cfg.input_dim_text))
        stack = self._stack(params)
        cache_v = video_forward(stack, frames, enc_cfg)
        cache_t = text_forward(stack, texts, enc_cfg)
        assert cache_v.z.shape == (3, 4, enc_cfg.embed_dim)
        for k in range(3):
            one = ParamVector(stack.values[k].copy(), params.layout)
            want = video_forward(one, frames, enc_cfg)
            assert cache_v.x.tobytes() == want.x.tobytes()  # input rows are shared
            for name in ("h", "pooled", "norms", "z"):
                assert getattr(cache_v, name)[k].tobytes() == getattr(want, name).tobytes()
            assert cache_t.z[k].tobytes() == text_forward(one, texts, enc_cfg).z.tobytes()


def encode_video(params, frames, cfg):
    """Unit-norm embedding of one (T, input_dim_video) clip."""
    return encode_video_batch(params, frames[None], cfg)[0]


def encode_text(params, feature, cfg):
    """Unit-norm embedding of one raw text feature vector."""
    return encode_text_batch(params, feature, cfg)[0]


class TestEncodeVideo:
    def test_unit_norm(self, params, enc_cfg):
        rng = np.random.default_rng(0)
        z = encode_video(params, rng.standard_normal((5, enc_cfg.input_dim_video)), enc_cfg)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_identical_frames_match_single_frame(self, params, enc_cfg):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(enc_cfg.input_dim_video)
        stacked = np.tile(frame, (4, 1))
        z_multi = encode_video(params, stacked, enc_cfg)
        z_single = encode_video(params, frame[None, :], enc_cfg)
        np.testing.assert_array_equal(z_multi, z_single)

    def test_permuting_identical_frames(self, params, enc_cfg):
        rng = np.random.default_rng(2)
        frame = rng.standard_normal(enc_cfg.input_dim_video)
        stack = np.tile(frame, (6, 1))
        np.testing.assert_array_equal(
            encode_video(params, stack, enc_cfg),
            encode_video(params, stack[::-1].copy(), enc_cfg),
        )

    @pytest.mark.parametrize("t", [1, 3, 7])
    def test_batch_matches_singles(self, params, enc_cfg, t):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((3, t, enc_cfg.input_dim_video))
        batch = encode_video_batch(params, block, enc_cfg)
        for i, clip in enumerate(block):
            np.testing.assert_allclose(batch[i], encode_video(params, clip, enc_cfg), atol=1e-12)

    def test_dimension_mismatch(self, params, enc_cfg):
        with pytest.raises(UsageError):
            encode_video(params, np.zeros((3, enc_cfg.input_dim_video + 1)), enc_cfg)

    def test_empty_batch(self, params, enc_cfg):
        with pytest.raises(UsageError):
            encode_video_batch(params, np.zeros((0, 2, enc_cfg.input_dim_video)), enc_cfg)


class TestSampleFrames:
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("t,n_frames", [(1, 4), (3, 4), (8, 4), (8, 8)])
    def test_equals_the_loop_oracle(self, t, n_frames, layout):
        cfg = EncoderConfig(6, 5, 7, 4, n_frames=n_frames, seed=1)
        rng = np.random.default_rng([6, t, n_frames])
        block = rng.standard_normal((5, t, 12 if layout == "strided" else 6))
        if layout == "strided":
            block = block[:, :, ::2]
        frames = sample_frames(block, cfg)
        assert frames.shape == (5, n_frames, 6) and frames.dtype == np.float64
        assert frames.flags["C_CONTIGUOUS"]
        assert same_bits(frames, naive_sample_frames(block, n_frames))

    def test_indices_computed_once_per_block(self, enc_cfg, monkeypatch):
        calls = []
        real = encoder.sample_frame_indices

        def counting(t, n):
            calls.append(t)
            return real(t, n)

        monkeypatch.setattr(encoder, "sample_frame_indices", counting)
        sample_frames(np.zeros((9, 5, enc_cfg.input_dim_video)), enc_cfg)
        assert calls == [5]

    def test_rejects_non_finite_clip(self, enc_cfg):
        block = np.zeros((3, 2, enc_cfg.input_dim_video))
        block[1, 1, 2] = np.nan
        with pytest.raises(UsageError, match="^clip 1 of the video block contains non-finite"):
            sample_frames(block, enc_cfg)

    @pytest.mark.parametrize("block,got", [
        (np.zeros((2, 3, 7)), "(2, 3, 7)"), (np.zeros((2, 6)), "(2, 6)"),
        (np.zeros((0, 3, 6)), "(0, 3, 6)"), (np.zeros((2, 0, 6)), "(2, 0, 6)"),
        ([np.zeros((3, 6))], "list")], ids=["dim", "2-d", "no-clips", "no-frames", "list"])
    def test_rejects_anything_but_a_non_empty_block(self, enc_cfg, block, got):
        with pytest.raises(UsageError) as info:
            sample_frames(block, enc_cfg)
        assert str(info.value) == ("video block must be an (n, T, 6) array with n, T >= 1, "
                                   f"got {got}")

    def test_encode_sampled_takes_only_sampled_arrays(self, params, enc_cfg):
        stack = np.zeros((enc_cfg.n_frames, enc_cfg.input_dim_video))
        texts = np.zeros((1, enc_cfg.input_dim_text))
        with pytest.raises(UsageError):
            encode_sampled(params, [stack], texts, enc_cfg)  # a raw list of stacks
        with pytest.raises(UsageError):
            encode_sampled(params, stack[None, :-1], texts, enc_cfg)  # wrong frame count
        with pytest.raises(UsageError):
            encode_sampled(params, stack[None][:0], texts, enc_cfg)  # empty batch


def _per_stack_video_embeddings(params, stacks, cfg):
    """The per-batch, per-stack frame gather that video_forward ran on raw stacks."""
    selected = [np.asarray(s)[sample_frame_indices(len(s), cfg.n_frames)] for s in stacks]
    frames = np.concatenate(selected, axis=0)
    h = np.tanh(np.einsum("ij,kj->ik", frames, params.tensor("video.w1"), optimize=False)
                + params.tensor("video.b1"))
    u = np.einsum("ij,kj->ik", h, params.tensor("video.w2"), optimize=False) \
        + params.tensor("video.b2")
    pooled = np.einsum("bne->be", u.reshape(len(stacks), cfg.n_frames, cfg.embed_dim)) / cfg.n_frames
    return frames, pooled / np.sqrt(np.einsum("ij,ij->i", pooled, pooled))[:, None]


# (n_frames, clip lengths to draw from, batch size); the first has T < n_frames.
DENSE_SHAPES = [(4, (2,), 3), (3, (1, 3, 8), 5), (8, (8,), 7), (2, (5, 6), 2)]


class TestDensePath:
    @pytest.mark.parametrize("n_frames,lengths,batch", DENSE_SHAPES)
    def test_sampled_forward_equals_per_stack_gather(self, n_frames, lengths, batch):
        rng = np.random.default_rng([7, n_frames, batch])
        cfg = EncoderConfig(6, 5, 9, 4, n_frames=n_frames, seed=n_frames)
        params = init_params(cfg)
        stacks = [rng.standard_normal((int(rng.choice(lengths)), 6)) for _ in range(batch)]
        want_frames, want_z = _per_stack_video_embeddings(params, stacks, cfg)
        cache = video_forward(params, naive_sample_frames(stacks, n_frames), cfg)
        assert cache.x.tobytes() == want_frames.tobytes()
        assert cache.z.tobytes() == want_z.tobytes()

    @pytest.mark.parametrize("n_frames,lengths,batch", DENSE_SHAPES)
    def test_pool_rows_equal_per_batch_encoding(self, n_frames, lengths, batch):
        rng = np.random.default_rng([8, n_frames, batch])
        cfg = EncoderConfig(7, 3, 5, 6, n_frames=n_frames, seed=batch)
        params = init_params(cfg)
        n = 3 * batch + 1
        stacks = [rng.standard_normal((int(rng.choice(lengths)), 7)) for _ in range(n)]
        texts = rng.standard_normal((n, 3))
        pool = naive_sample_frames(stacks, n_frames)
        z_v = video_forward(params, pool, cfg).z
        z_t = text_forward(params, texts, cfg).z
        for _ in range(4):
            idx = rng.permutation(n)[:batch]
            per_batch_v = encode_video_batch(
                params, naive_sample_frames([stacks[i] for i in idx], n_frames), cfg)
            assert per_batch_v.tobytes() == z_v[idx].tobytes()
            assert encode_text_batch(params, texts[idx], cfg).tobytes() == z_t[idx].tobytes()


STILL_CFG = EncoderConfig(6, 5, 9, 4, n_frames=4, seed=19)


def still_batch(kind: str, rng) -> np.ndarray:
    """Sampled ``(5, 4, 6)`` frames: still images, mixed clip lengths, or near misses."""
    d = STILL_CFG.input_dim_video
    lengths = {"still": (1, 1, 1, 1, 1), "still-first-then-clips": (1, 8, 8, 8, 8),
               "clips-then-one-still": (8, 8, 1, 8, 8)}.get(kind, (1, 1, 1, 1, 1))
    stacks = [rng.standard_normal((t, d)) for t in lengths]
    if kind == "signed-zero":
        # Two frames that differ only in the sign of one zero: slots [0, 0, 1, 1].
        pair = np.repeat(stacks[3], 2, axis=0)
        pair[0, 2], pair[1, 2] = 0.0, -0.0
        stacks[3] = pair
    frames = naive_sample_frames(stacks, STILL_CFG.n_frames)
    if kind == "nan-payload":
        # Not a valid input, but the bit test must not call two NaNs equal.
        bits = frames.view(np.uint64)
        bits[2, :, 1] = np.float64(np.nan).view(np.uint64)
        bits[2, 3, 1] += 1
    return frames


STILL_KINDS = {"still": True, "still-first-then-clips": False,
               "clips-then-one-still": False, "signed-zero": False, "nan-payload": False}


class TestStillBatches:
    """A batch of still images runs the tower once per video, with the per-frame bits."""

    @pytest.fixture
    def tower_rows(self, monkeypatch):
        rows = []
        real = encoder._tower_apply

        def recording(params, prefix, x):
            rows.append(x.shape[-2])
            return real(params, prefix, x)

        monkeypatch.setattr(encoder, "_tower_apply", recording)
        return rows

    @pytest.mark.parametrize("kind", sorted(STILL_KINDS))
    def test_cache_equals_every_row_forward(self, kind, tower_rows):
        params = init_params(STILL_CFG)
        frames = still_batch(kind, np.random.default_rng([31, len(kind)]))
        with np.errstate(invalid="ignore"):
            cache = video_forward(params, frames, STILL_CFG)
            want = naive_video_forward(params, frames, STILL_CFG)
        b, n = frames.shape[:2]
        assert tower_rows == [b if STILL_KINDS[kind] else b * n]
        for field in cache._fields:
            assert same_bits(getattr(cache, field), getattr(want, field)), field

    @pytest.mark.parametrize("kind", ["still", "clips-then-one-still", "signed-zero"])
    def test_stacked_params_equal_every_row_forward(self, kind, tower_rows):
        params = init_params(STILL_CFG)
        rng = np.random.default_rng(32)
        stack = ParamVector(params.values + 1e-3 * rng.standard_normal((3, params.n_params)),
                            params.layout)
        frames = still_batch(kind, rng)
        cache = video_forward(stack, frames, STILL_CFG)
        assert cache.z.shape == (3, frames.shape[0], STILL_CFG.embed_dim)
        want = naive_video_forward(stack, frames, STILL_CFG)
        for field in cache._fields:
            assert same_bits(getattr(cache, field), getattr(want, field)), field
        for k in range(3):
            one = video_forward(ParamVector(stack.values[k].copy(), params.layout), frames,
                                STILL_CFG)
            for field in ("h", "pooled", "norms", "z"):
                assert same_bits(getattr(cache, field)[k], getattr(one, field)), field

    def test_one_frame_slot_never_takes_the_shared_pass(self, tower_rows):
        cfg = EncoderConfig(6, 5, 9, 4, n_frames=1, seed=3)
        frames = sample_frames(np.ones((3, 1, 6)), cfg)
        video_forward(init_params(cfg), frames, cfg)
        assert tower_rows == [3]


BLOCK_CFG = EncoderConfig(6, 5, 9, 4, n_frames=4, seed=29)
BLOCKS = sorted({1, 3, encoder.ENCODE_BLOCK_ROWS})


def _sizes(block):
    """Batch sizes around the block boundaries."""
    return sorted({1, block - 1, block, block + 1, 2 * block + 1} - {0})


def _block_stacks(kind, n, block, rng):
    """Raw frame stacks (a list) of ``n`` videos: clips, stills, or stills through the
    first block and half the second, then clips (a mixed block when n allows)."""
    d = BLOCK_CFG.input_dim_video
    stills = {"clips": 0, "stills": n, "mix": block + block // 2 + 1}[kind]
    return [rng.standard_normal((1 if i < stills else 8, d)) for i in range(n)]


def _zero_bias(params):
    """``params`` with every bias zero: a zero input row then has a zero-norm embedding."""
    out = params.copy()
    for name, _ in params.layout:
        if name.endswith((".b1", ".b2")):
            out.tensor(name)[...] = 0.0
    return out


class TestBlockedEncode:
    """The checked entries run the towers on blocks of rows, with the bits,
    the errors and the check order of one unblocked call."""

    @pytest.fixture
    def forward_rows(self, monkeypatch):
        rows = []
        for tower in ("video", "text"):
            real = getattr(encoder, f"{tower}_forward")

            def recording(params, x, cfg, _real=real, _tower=tower):
                rows.append((_tower, x.shape[0]))
                return _real(params, x, cfg)

            monkeypatch.setattr(encoder, f"{tower}_forward", recording)
        return rows

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("kind", ["clips", "stills", "mix"])
    def test_every_entry_has_the_bits_of_one_forward(self, kind, block, monkeypatch,
                                                     forward_rows):
        monkeypatch.setattr(encoder, "ENCODE_BLOCK_ROWS", block)
        params = init_params(BLOCK_CFG)
        for n in _sizes(block):
            rng = np.random.default_rng([43, block, n, len(kind)])
            frames = naive_sample_frames(_block_stacks(kind, n, block, rng), BLOCK_CFG.n_frames)
            texts = rng.standard_normal((n, BLOCK_CFG.input_dim_text))
            want_v = video_forward(params, frames, BLOCK_CFG).z.tobytes()
            want_t = text_forward(params, texts, BLOCK_CFG).z.tobytes()
            forward_rows.clear()
            z_v, z_t = encode_sampled(params, frames, texts, BLOCK_CFG)
            assert (z_v.tobytes(), z_t.tobytes()) == (want_v, want_t), (kind, n)
            assert encode_video_batch(params, frames, BLOCK_CFG).tobytes() == want_v
            assert encode_text_batch(params, texts, BLOCK_CFG).tobytes() == want_t
            blocks = [min(block, n - start) for start in range(0, n, block)]
            video, text = [("video", b) for b in blocks], [("text", b) for b in blocks]
            assert forward_rows == video + text + video + text

    @pytest.mark.parametrize("block", [1, 3])
    def test_a_stack_keeps_its_leading_axis(self, block, monkeypatch):
        monkeypatch.setattr(encoder, "ENCODE_BLOCK_ROWS", block)
        params = init_params(BLOCK_CFG)
        rng = np.random.default_rng(44)
        stack = ParamVector(params.values + 1e-3 * rng.standard_normal((2, params.n_params)),
                            params.layout)
        n = 2 * block + 1
        frames = naive_sample_frames(_block_stacks("mix", n, block, rng), BLOCK_CFG.n_frames)
        texts = rng.standard_normal((n, BLOCK_CFG.input_dim_text))
        z_v, z_t = encode_sampled(stack, frames, texts, BLOCK_CFG)
        assert z_v.shape == z_t.shape == (2, n, BLOCK_CFG.embed_dim)
        assert z_v.tobytes() == video_forward(stack, frames, BLOCK_CFG).z.tobytes()
        assert z_t.tobytes() == text_forward(stack, texts, BLOCK_CFG).z.tobytes()

    @pytest.mark.parametrize("block", BLOCKS)
    def test_a_zero_norm_row_in_a_later_block_is_named_by_its_batch_index(self, block,
                                                                          monkeypatch):
        params = _zero_bias(init_params(BLOCK_CFG))
        rng = np.random.default_rng(45)
        n = 2 * block + 1
        bad = block + block // 2  # mid-way through the second block
        frames = sample_frames(np.stack(_block_stacks("clips", n, block, rng)), BLOCK_CFG)
        texts = rng.standard_normal((n, BLOCK_CFG.input_dim_text))
        frames[bad] = 0.0
        texts[bad] = 0.0
        want = {}
        for tower, forward, x in (("video", video_forward, frames),
                                  ("text", text_forward, texts)):
            with pytest.raises(DegenerateEmbeddingError) as unblocked:
                encoder.reject_zero_norms(forward(params, x, BLOCK_CFG).norms)
            want[tower] = str(unblocked.value)
            assert want[tower].startswith(f"pooled embedding {bad} has norm")
        monkeypatch.setattr(encoder, "ENCODE_BLOCK_ROWS", block)
        with pytest.raises(DegenerateEmbeddingError) as got:
            encode_sampled(params, frames, texts, BLOCK_CFG)
        assert str(got.value) == want["video"]
        with pytest.raises(DegenerateEmbeddingError) as got:
            encode_text_batch(params, texts, BLOCK_CFG)
        assert str(got.value) == want["text"]

    def test_the_video_error_comes_before_a_malformed_text_batch(self, monkeypatch):
        monkeypatch.setattr(encoder, "ENCODE_BLOCK_ROWS", 3)
        params = _zero_bias(init_params(BLOCK_CFG))
        frames = sample_frames(np.stack(_block_stacks("clips", 7, 3, np.random.default_rng(46))),
                               BLOCK_CFG)
        frames[5] = 0.0
        malformed = np.zeros((7, BLOCK_CFG.input_dim_text + 1))
        with pytest.raises(DegenerateEmbeddingError, match="pooled embedding 5 has norm"):
            encode_sampled(params, frames, malformed, BLOCK_CFG)
        with pytest.raises(UsageError, match="text features have dim"):
            encode_sampled(params, frames[:5], malformed, BLOCK_CFG)

    def test_a_whole_pool_costs_its_outputs_and_one_block(self):
        cfg = EncoderConfig(32, 32, 32, 16, n_frames=4, seed=47)
        params = init_params(cfg)
        rng = np.random.default_rng(47)
        frames = rng.standard_normal((4096, 4, 32))
        texts = rng.standard_normal((4096, 32))
        tracemalloc.start()
        try:
            z_v, z_t = encode_sampled(params, frames, texts, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z_v.nbytes + z_t.nbytes + 2**20, peak


class TestEncodeText:
    def test_unit_norm(self, params, enc_cfg):
        rng = np.random.default_rng(4)
        z = encode_text(params, rng.standard_normal(enc_cfg.input_dim_text), enc_cfg)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_deterministic(self, params, enc_cfg):
        rng = np.random.default_rng(5)
        feat = rng.standard_normal(enc_cfg.input_dim_text)
        assert encode_text(params, feat, enc_cfg).tobytes() == \
            encode_text(params, feat, enc_cfg).tobytes()

    def test_zero_input_zero_params_degenerate(self, enc_cfg):
        zeros = ParamVector(np.zeros(init_params(enc_cfg).n_params), param_layout(enc_cfg))
        with pytest.raises(DegenerateEmbeddingError):
            encode_text(zeros, np.zeros(enc_cfg.input_dim_text), enc_cfg)

    def test_dimension_mismatch(self, params, enc_cfg):
        with pytest.raises(UsageError):
            encode_text_batch(params, np.zeros((2, enc_cfg.input_dim_text + 2)), enc_cfg)


class TestEncoderConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(UsageError):
            EncoderConfig(0, 4, 4, 4)
        with pytest.raises(UsageError):
            EncoderConfig(4, 4, 4, 4, n_frames=0)

    def test_rejects_seeds_a_checkpoint_cannot_store(self):
        for seed in (-1, 2**63):
            with pytest.raises(UsageError, match=r"seed must be >= 0 and < 2\*\*63"):
                EncoderConfig(4, 4, 4, 4, seed=seed)
        assert EncoderConfig(4, 4, 4, 4, seed=2**63 - 1).seed == 2**63 - 1
