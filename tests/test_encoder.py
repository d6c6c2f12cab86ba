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
from naive import naive_video_forward, same_bits


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
        frames = sample_frames(stacks, enc_cfg)
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
    """Unit-norm embedding of one (T, input_dim_video) frame stack."""
    return encode_video_batch(params, [frames], cfg)[0]


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

    def test_batch_matches_singles(self, params, enc_cfg):
        rng = np.random.default_rng(3)
        stacks = [rng.standard_normal((t, enc_cfg.input_dim_video)) for t in (1, 3, 7)]
        batch = encode_video_batch(params, stacks, enc_cfg)
        for i, stack in enumerate(stacks):
            np.testing.assert_allclose(batch[i], encode_video(params, stack, enc_cfg), atol=1e-12)

    def test_dimension_mismatch(self, params, enc_cfg):
        with pytest.raises(UsageError):
            encode_video(params, np.zeros((3, enc_cfg.input_dim_video + 1)), enc_cfg)

    def test_empty_batch(self, params, enc_cfg):
        with pytest.raises(UsageError):
            encode_video_batch(params, [], enc_cfg)


class TestSampleFrames:
    def test_shape_and_rows(self, enc_cfg):
        rng = np.random.default_rng(6)
        stacks = [rng.standard_normal((t, enc_cfg.input_dim_video)) for t in (1, 5)]
        frames = sample_frames(stacks, enc_cfg)
        assert frames.shape == (2, enc_cfg.n_frames, enc_cfg.input_dim_video)
        assert frames.flags["C_CONTIGUOUS"]
        for stack, sampled in zip(stacks, frames):
            idx = sample_frame_indices(len(stack), enc_cfg.n_frames)
            np.testing.assert_array_equal(sampled, stack[idx])

    def test_indices_computed_once_per_clip_length(self, enc_cfg, monkeypatch):
        calls = []
        real = encoder.sample_frame_indices

        def counting(t, n):
            calls.append(t)
            return real(t, n)

        monkeypatch.setattr(encoder, "sample_frame_indices", counting)
        rng = np.random.default_rng(9)
        lengths = (1, 5, 1, 2, 5, 5, 1, 9)
        stacks = [rng.standard_normal((t, enc_cfg.input_dim_video)) for t in lengths]
        frames = sample_frames(stacks, enc_cfg)
        assert sorted(calls) == [1, 2, 5, 9]
        for stack, sampled in zip(stacks, frames):
            assert sampled.tobytes() == stack[real(len(stack), enc_cfg.n_frames)].tobytes()

    def test_rejects_non_finite_stack(self, enc_cfg):
        bad = np.zeros((3, enc_cfg.input_dim_video))
        bad[1, 2] = np.nan
        with pytest.raises(UsageError, match="frame stack 1 contains non-finite"):
            sample_frames([np.zeros((2, enc_cfg.input_dim_video)), bad], enc_cfg)

    def test_rejects_wrong_dim(self, enc_cfg):
        with pytest.raises(UsageError, match="frame stack 0 has dim"):
            sample_frames([np.zeros((2, enc_cfg.input_dim_video + 1))], enc_cfg)

    def test_rejects_empty_stack_and_batch(self, enc_cfg):
        with pytest.raises(UsageError, match="T >= 1"):
            sample_frames([np.zeros((0, enc_cfg.input_dim_video))], enc_cfg)
        with pytest.raises(UsageError, match="empty video batch"):
            sample_frames([], enc_cfg)

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
        cache = video_forward(params, sample_frames(stacks, cfg), cfg)
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
        pool = sample_frames(stacks, cfg)
        z_v = video_forward(params, pool, cfg).z
        z_t = text_forward(params, texts, cfg).z
        for _ in range(4):
            idx = rng.permutation(n)[:batch]
            per_batch_v = encode_video_batch(params, [stacks[i] for i in idx], cfg)
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
    frames = sample_frames(stacks, STILL_CFG)
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
        frames = sample_frames([np.ones((1, 6))] * 3, cfg)
        video_forward(init_params(cfg), frames, cfg)
        assert tower_rows == [3]


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
