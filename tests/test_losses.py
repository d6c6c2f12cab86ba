import math
import warnings

import numpy as np
import pytest

from dfuse import losses
from dfuse.encoder import (
    EmbeddingBatch,
    EncoderConfig,
    ParamVector,
    encode_text_batch,
    encode_video_batch,
    init_params,
    sample_frames,
)
from dfuse.errors import DegenerateEmbeddingError, UsageError
from dfuse.gradcheck import relative_errors
from dfuse.losses import (
    LossConfig,
    PseudoLabelBatch,
    contrastive_grad_logits,
    contrastive_loss,
    distillation_grad_logits,
    distillation_loss,
    loss_forward,
    total_loss,
    total_loss_grad,
)
from dfuse.numerics import matmul
from naive import (
    naive_contrastive,
    naive_distillation,
    naive_finite_difference_grad,
    naive_total,
    naive_tower_backward,
    naive_video_forward,
    per_batch_loss_grad,
    same_bits,
    unit_rows,
)


def batch_of(z_v, z_t):
    return EmbeddingBatch(np.asarray(z_v, float), np.asarray(z_t, float))


def loop_fd_grad(loss_fn, params):
    """The per-coordinate finite-difference oracle, as a ParamVector."""
    def loss_of(values):
        return loss_fn(ParamVector(values, params.layout))
    return ParamVector(naive_finite_difference_grad(loss_of, params.values), params.layout)


class TestContrastiveLoss:
    def test_two_orthonormal_closed_form(self):
        eye = np.eye(2)
        total, (v2t, t2v) = contrastive_loss(batch_of(eye, eye), LossConfig(sigma=1.0))
        expected = math.log(1.0 + math.exp(-1.0))
        assert v2t == pytest.approx(expected, abs=1e-12)
        assert t2v == pytest.approx(expected, abs=1e-12)
        assert total == pytest.approx(2 * expected, abs=1e-12)

    def test_identical_embeddings_give_log_b(self):
        b = 5
        row = np.zeros(4)
        row[0] = 1.0
        z = np.tile(row, (b, 1))
        total, (v2t, t2v) = contrastive_loss(batch_of(z, z), LossConfig(sigma=0.05))
        assert v2t == pytest.approx(math.log(b), abs=1e-12)
        assert t2v == pytest.approx(math.log(b), abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            b, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            z_v, z_t = unit_rows(rng, b, d), unit_rows(rng, b, d)
            sigma = float(rng.uniform(1 / 25, 1.0))
            got, (gv, gt) = contrastive_loss(batch_of(z_v, z_t), LossConfig(sigma=sigma))
            want, (wv, wt) = naive_contrastive(z_v, z_t, sigma)
            assert got == pytest.approx(want, abs=1e-10)
            assert gv == pytest.approx(wv, abs=1e-10)
            assert gt == pytest.approx(wt, abs=1e-10)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z_v, z_t = unit_rows(rng, 6, 5), unit_rows(rng, 6, 5)
            total, (v2t, t2v) = contrastive_loss(batch_of(z_v, z_t), LossConfig())
            assert v2t >= 0 and t2v >= 0 and total >= 0

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(12)
        z_v, z_t = unit_rows(rng, 7, 4), unit_rows(rng, 7, 4)
        perm = rng.permutation(7)
        base, _ = contrastive_loss(batch_of(z_v, z_t), LossConfig())
        permuted, _ = contrastive_loss(batch_of(z_v[perm], z_t[perm]), LossConfig())
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_rejects_singleton_batch(self):
        with pytest.raises(UsageError):
            contrastive_loss(batch_of(np.eye(2)[:1], np.eye(2)[:1]), LossConfig())


class TestDistillationLoss:
    def test_matching_logits_hit_entropy_floor(self):
        rng = np.random.default_rng(13)
        z_v, z_t = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        cfg = LossConfig(sigma=0.5)
        student = batch_of(z_v, z_t)
        from dfuse.numerics import similarity_matrix, softmax_rows

        logits = similarity_matrix(z_v, z_t, cfg.sigma)
        total, (v2t, t2v) = distillation_loss(student, PseudoLabelBatch(logits), cfg)
        p_rows = softmax_rows(logits)
        h_rows = float(np.mean(-np.sum(p_rows * np.log(p_rows), axis=1)))
        p_cols = softmax_rows(logits.T)
        h_cols = float(np.mean(-np.sum(p_cols * np.log(p_cols), axis=1)))
        assert v2t == pytest.approx(h_rows, abs=1e-10)
        assert t2v == pytest.approx(h_cols, abs=1e-10)
        # softmax-difference identity: gradient vanishes exactly at the match
        assert np.max(np.abs(distillation_grad_logits(logits, logits))) == 0.0

    def test_uniform_teacher_rows_lower_bound(self):
        rng = np.random.default_rng(14)
        b = 6
        logits = np.zeros((b, b))  # uniform targets
        for _ in range(10):
            student = batch_of(unit_rows(rng, b, 4), unit_rows(rng, b, 4))
            _, (v2t, t2v) = distillation_loss(student, PseudoLabelBatch(logits), LossConfig())
            assert v2t >= math.log(b) - 1e-12
            assert t2v >= math.log(b) - 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            b, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            z_v, z_t = unit_rows(rng, b, d), unit_rows(rng, b, d)
            x = rng.uniform(-30, 30, size=(b, b))
            sigma = float(rng.uniform(1 / 25, 1.0))
            got, (gv, gt) = distillation_loss(
                batch_of(z_v, z_t), PseudoLabelBatch(x), LossConfig(sigma=sigma)
            )
            want, (wv, wt) = naive_distillation(z_v, z_t, x, sigma)
            assert got == pytest.approx(want, abs=1e-10)
            assert gv == pytest.approx(wv, abs=1e-10)
            assert gt == pytest.approx(wt, abs=1e-10)

    def test_gibbs_inequality(self):
        # CE(P, Q) >= CE(P, P), i.e. the loss never drops below the teacher entropy.
        from dfuse.numerics import softmax_rows

        rng = np.random.default_rng(16)
        for _ in range(20):
            b = int(rng.integers(2, 7))
            x = rng.uniform(-8, 8, size=(b, b))
            student = batch_of(unit_rows(rng, b, 5), unit_rows(rng, b, 5))
            ce, _ = distillation_loss(student, PseudoLabelBatch(x), LossConfig(sigma=0.4))
            p_rows = softmax_rows(x)
            h_rows = float(np.mean(-np.sum(p_rows * np.log(p_rows), axis=1)))
            p_cols = softmax_rows(x.T)
            h_cols = float(np.mean(-np.sum(p_cols * np.log(p_cols), axis=1)))
            assert ce >= h_rows + h_cols - 1e-10

    def test_rejects_size_mismatch(self):
        rng = np.random.default_rng(17)
        student = batch_of(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4))
        with pytest.raises(UsageError):
            distillation_loss(student, PseudoLabelBatch(np.zeros((4, 4))), LossConfig())


class TestTotalLoss:
    def test_lambda_zero_equals_contrastive(self):
        rng = np.random.default_rng(18)
        labeled = batch_of(unit_rows(rng, 4, 5), unit_rows(rng, 4, 5))
        student = batch_of(unit_rows(rng, 4, 5), unit_rows(rng, 4, 5))
        pseudo = PseudoLabelBatch(rng.uniform(-3, 3, size=(4, 4)))
        cfg = LossConfig(sigma=0.2, lambda_=0.0)
        assert total_loss(labeled, student, pseudo, cfg) == contrastive_loss(labeled, cfg)[0]
        assert total_loss(labeled, None, None, cfg) == contrastive_loss(labeled, cfg)[0]

    def test_default_weighting_matches_parts_exactly(self):
        rng = np.random.default_rng(19)
        cfg = LossConfig()  # sigma 0.05, lambda 0.999 working defaults
        labeled = batch_of(unit_rows(rng, 5, 6), unit_rows(rng, 5, 6))
        student = batch_of(unit_rows(rng, 5, 6), unit_rows(rng, 5, 6))
        pseudo = PseudoLabelBatch(rng.uniform(-10, 10, size=(5, 5)))
        c, _ = contrastive_loss(labeled, cfg)
        d, _ = distillation_loss(student, pseudo, cfg)
        assert total_loss(labeled, student, pseudo, cfg) == c + cfg.lambda_ * d

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            b, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            z_v_l, z_t_l = unit_rows(rng, b, d), unit_rows(rng, b, d)
            z_v_u, z_t_u = unit_rows(rng, b, d), unit_rows(rng, b, d)
            x = rng.uniform(-30, 30, size=(b, b))
            sigma = float(rng.uniform(1 / 25, 1.0))
            lam = float(rng.uniform(0.0, 2.0))
            got = total_loss(
                batch_of(z_v_l, z_t_l), batch_of(z_v_u, z_t_u),
                PseudoLabelBatch(x), LossConfig(sigma=sigma, lambda_=lam),
            )
            want = naive_total(z_v_l, z_t_l, z_v_u, z_t_u, x, sigma, lam)
            assert got == pytest.approx(want, abs=1e-10)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(21)
        labeled = batch_of(unit_rows(rng, 4, 5), unit_rows(rng, 4, 5))
        student = batch_of(unit_rows(rng, 4, 5), unit_rows(rng, 4, 5))
        pseudo = PseudoLabelBatch(rng.uniform(-5, 5, size=(4, 4)))
        values = [
            total_loss(labeled, student, pseudo, LossConfig(sigma=0.3, lambda_=lam))
            for lam in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_partial_distillation_inputs(self):
        rng = np.random.default_rng(22)
        labeled = batch_of(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4))
        with pytest.raises(UsageError):
            total_loss(labeled, labeled, None, LossConfig())


class TestContrastiveGradLogits:
    def test_matches_finite_difference_on_logits(self):
        rng = np.random.default_rng(23)
        b = 4
        s = rng.uniform(-3, 3, size=(b, b))
        grad = contrastive_grad_logits(s)
        h = 1e-6

        def loss_of(m):
            rows = -np.mean(np.diag(m - _lse_rows(m)))
            cols = -np.mean(np.diag(m.T - _lse_rows(m.T)))
            return rows + cols

        for i in range(b):
            for j in range(b):
                sp, sm = s.copy(), s.copy()
                sp[i, j] += h
                sm[i, j] -= h
                fd = (loss_of(sp) - loss_of(sm)) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-8)


def _lse_rows(m):
    shifted = m - m.max(axis=1, keepdims=True)
    return (m.max(axis=1) + np.log(np.exp(shifted).sum(axis=1)))[:, None]


class TestTotalLossGrad:
    def _instance(self, rng, enc_cfg):
        b = 4
        lv = [rng.standard_normal((int(rng.integers(1, 5)), enc_cfg.input_dim_video))
              for _ in range(b)]
        lt = rng.standard_normal((b, enc_cfg.input_dim_text))
        uv = [rng.standard_normal((int(rng.integers(1, 5)), enc_cfg.input_dim_video))
              for _ in range(b)]
        ut = rng.standard_normal((b, enc_cfg.input_dim_text))
        x = rng.uniform(-8, 8, size=(b, b))
        return lv, lt, uv, ut, PseudoLabelBatch(x)

    def test_loss_matches_total_loss_bit_exactly(self, enc_cfg, params):
        rng = np.random.default_rng(24)
        lv, lt, uv, ut, pseudo = self._instance(rng, enc_cfg)
        cfg = LossConfig(sigma=0.2, lambda_=0.7)
        loss, grad = total_loss_grad(
            params, sample_frames(lv, enc_cfg), lt, sample_frames(uv, enc_cfg), ut,
            pseudo, cfg, enc_cfg,
        )
        labeled = EmbeddingBatch(
            encode_video_batch(params, lv, enc_cfg), encode_text_batch(params, lt, enc_cfg)
        )
        student = EmbeddingBatch(
            encode_video_batch(params, uv, enc_cfg), encode_text_batch(params, ut, enc_cfg)
        )
        assert loss == total_loss(labeled, student, pseudo, cfg)
        assert grad.layout == params.layout
        assert grad.n_params == params.n_params

    def test_gradient_against_finite_differences(self, enc_cfg, params):
        rng = np.random.default_rng(25)
        lv, lt, uv, ut, pseudo = self._instance(rng, enc_cfg)
        cfg = LossConfig(sigma=0.3, lambda_=0.999)

        def loss_fn(pv):
            labeled = EmbeddingBatch(
                encode_video_batch(pv, lv, enc_cfg), encode_text_batch(pv, lt, enc_cfg)
            )
            student = EmbeddingBatch(
                encode_video_batch(pv, uv, enc_cfg), encode_text_batch(pv, ut, enc_cfg)
            )
            return total_loss(labeled, student, pseudo, cfg)

        _, analytic = total_loss_grad(
            params, sample_frames(lv, enc_cfg), lt, sample_frames(uv, enc_cfg), ut,
            pseudo, cfg, enc_cfg,
        )
        numeric = loop_fd_grad(loss_fn, params)
        assert float(relative_errors(analytic, numeric).max()) < 1e-4

    def test_labeled_distillation_flag_gradient(self, enc_cfg, params):
        rng = np.random.default_rng(26)
        lv, lt, uv, ut, pseudo = self._instance(rng, enc_cfg)
        labeled_pseudo = PseudoLabelBatch(rng.uniform(-5, 5, size=(4, 4)))
        cfg = LossConfig(sigma=0.4, lambda_=0.8)

        def loss_fn(pv):
            labeled = EmbeddingBatch(
                encode_video_batch(pv, lv, enc_cfg), encode_text_batch(pv, lt, enc_cfg)
            )
            student = EmbeddingBatch(
                encode_video_batch(pv, uv, enc_cfg), encode_text_batch(pv, ut, enc_cfg)
            )
            base = total_loss(labeled, student, pseudo, cfg)
            extra, _ = distillation_loss(labeled, labeled_pseudo, cfg)
            return base + cfg.lambda_ * extra

        loss, analytic = total_loss_grad(
            params, sample_frames(lv, enc_cfg), lt, sample_frames(uv, enc_cfg), ut,
            pseudo, cfg, enc_cfg, labeled_pseudo=labeled_pseudo,
        )
        assert loss == pytest.approx(loss_fn(params), abs=0)
        numeric = loop_fd_grad(loss_fn, params)
        assert float(relative_errors(analytic, numeric).max()) < 1e-4

    def test_contrastive_only_instance(self, enc_cfg, params):
        rng = np.random.default_rng(27)
        lv, lt, _, _, _ = self._instance(rng, enc_cfg)
        cfg = LossConfig(sigma=0.5, lambda_=0.0)

        def loss_fn(pv):
            labeled = EmbeddingBatch(
                encode_video_batch(pv, lv, enc_cfg), encode_text_batch(pv, lt, enc_cfg)
            )
            return total_loss(labeled, None, None, cfg)

        _, analytic = total_loss_grad(
            params, sample_frames(lv, enc_cfg), lt, None, None, None, cfg, enc_cfg
        )
        numeric = loop_fd_grad(loss_fn, params)
        assert float(relative_errors(analytic, numeric).max()) < 1e-4


def every_row_total_loss_grad(params, lv, lt, uv, ut, pseudo, cfg, enc_cfg, labeled_pseudo=None):
    """``total_loss_grad`` without any row sharing: every frame row through the
    video tower, the pooled gradient repeated to every frame row before any
    product, and per-tensor zero arrays concatenated at the end."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "video_forward", naive_video_forward)
        loss, labeled, unlabeled = loss_forward(
            params, lv, lt, uv, ut, pseudo, cfg, enc_cfg, labeled_pseudo
        )
    g_l = losses._contrastive_grad(labeled.scores, labeled.b)
    if labeled.target is not None:
        g_l = g_l + cfg.lambda_ * losses._distillation_grad(
            labeled.scores, labeled.target, labeled.b
        )
    terms = [(labeled, g_l)]
    if unlabeled is not None and cfg.lambda_ != 0.0:
        terms.append((unlabeled, cfg.lambda_ * losses._distillation_grad(
            unlabeled.scores, unlabeled.target, unlabeled.b)))
    grads = {name: np.zeros(shape) for name, shape in params.layout}
    for pair, g in terms:
        dz_v = np.einsum("ij,jk->ik", g, pair.cache_t.z, optimize=False) / cfg.sigma
        dz_t = np.einsum("ij,jk->ik", g.T, pair.cache_v.z, optimize=False) / cfg.sigma
        naive_tower_backward(grads, params, "video", pair.cache_v, dz_v, enc_cfg.n_frames)
        naive_tower_backward(grads, params, "text", pair.cache_t, dz_t, 1)
    return loss, np.concatenate([grads[name].ravel() for name, _ in params.layout])


SHARED_CFG = EncoderConfig(6, 5, 9, 4, n_frames=4, seed=23)


def _videos(kind, rng, b=5):
    """Sampled frames for one batch: still images, one still among clips, or a signed zero."""
    d = SHARED_CFG.input_dim_video
    lengths = {"still": [1] * b, "mixed": [8, 8, 1] + [8] * (b - 3)}.get(kind, [1] * b)
    stacks = [rng.standard_normal((t, d)) for t in lengths]
    if kind == "signed-zero":
        pair = np.repeat(stacks[1], 2, axis=0)
        pair[0, 4], pair[1, 4] = 0.0, -0.0
        stacks[1] = pair
    return sample_frames(stacks, SHARED_CFG)


class TestSharedRows:
    """Still-image forward and pooled-row backward keep the every-row bits."""

    @pytest.mark.parametrize("kind", ["still", "mixed", "signed-zero"])
    @pytest.mark.parametrize("with_labeled_pseudo", [False, True])
    def test_loss_and_gradient_equal_every_row_path(self, kind, with_labeled_pseudo):
        rng = np.random.default_rng([43, len(kind), with_labeled_pseudo])
        params = init_params(SHARED_CFG)
        b, d_t = 5, SHARED_CFG.input_dim_text
        lv, uv = _videos(kind, rng, b), _videos(kind, rng, b)
        lt, ut = rng.standard_normal((b, d_t)), rng.standard_normal((b, d_t))
        pseudo = PseudoLabelBatch(rng.uniform(-6, 6, size=(b, b)))
        labeled_pseudo = PseudoLabelBatch(rng.uniform(-6, 6, size=(b, b))) \
            if with_labeled_pseudo else None
        cfg = LossConfig(sigma=0.1, lambda_=0.7)
        loss, grad = total_loss_grad(params, lv, lt, uv, ut, pseudo, cfg, SHARED_CFG,
                                     labeled_pseudo=labeled_pseudo)
        want_loss, want_grad = every_row_total_loss_grad(
            params, lv, lt, uv, ut, pseudo, cfg, SHARED_CFG, labeled_pseudo
        )
        assert same_bits(np.float64(loss), want_loss)
        assert grad.layout == params.layout
        assert same_bits(grad.values, want_grad)
        for name, shape in params.layout:
            assert grad.tensor(name).shape == shape

    def test_contrastive_only_still_batch(self):
        rng = np.random.default_rng(44)
        params = init_params(SHARED_CFG)
        lv = _videos("still", rng, 6)
        lt = rng.standard_normal((6, SHARED_CFG.input_dim_text))
        cfg = LossConfig(sigma=0.05, lambda_=0.0)
        loss, grad = total_loss_grad(params, lv, lt, None, None, None, cfg, SHARED_CFG)
        want_loss, want_grad = every_row_total_loss_grad(
            params, lv, lt, None, None, None, cfg, SHARED_CFG
        )
        assert same_bits(np.float64(loss), want_loss)
        assert same_bits(grad.values, want_grad)

    @pytest.mark.parametrize("kind", ["still", "mixed", "signed-zero"])
    def test_stacked_losses_equal_every_row_losses(self, kind):
        # The (K, P) stack gradcheck evaluates its perturbations with.
        rng = np.random.default_rng([45, len(kind)])
        params = init_params(SHARED_CFG)
        b, d_t = 4, SHARED_CFG.input_dim_text
        lv, uv = _videos(kind, rng, b), _videos(kind, rng, b)
        lt, ut = rng.standard_normal((b, d_t)), rng.standard_normal((b, d_t))
        pseudo = PseudoLabelBatch(rng.uniform(-6, 6, size=(b, b)))
        cfg = LossConfig(sigma=0.2, lambda_=0.999)
        stack = ParamVector(params.values + 1e-5 * rng.standard_normal((7, params.n_params)),
                            params.layout)
        stacked = loss_forward(stack, lv, lt, uv, ut, pseudo, cfg, SHARED_CFG)[0]
        assert stacked.shape == (7,)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(losses, "video_forward", naive_video_forward)
            every_row = loss_forward(stack, lv, lt, uv, ut, pseudo, cfg, SHARED_CFG)[0]
        assert same_bits(stacked, every_row)
        for k in range(7):
            one = ParamVector(stack.values[k].copy(), params.layout)
            single = loss_forward(one, lv, lt, uv, ut, pseudo, cfg, SHARED_CFG)[0]
            assert same_bits(stacked[k], single)

    @pytest.mark.parametrize("b,n,e,hidden", [(1, 2, 3, 4), (5, 4, 4, 9), (64, 4, 32, 32),
                                              (7, 8, 5, 3), (3, 3, 16, 16)])
    def test_pooled_row_dh_equals_repeated_row_matmul(self, b, n, e, hidden):
        rng = np.random.default_rng([46, b, n])
        dpooled = rng.standard_normal((b, e)) * np.exp(rng.uniform(-20, 20, size=(b, 1)))
        w2 = rng.standard_normal((e, hidden))
        rows = dpooled / n
        pooled_rows = np.repeat(matmul(rows, w2), n, axis=0)
        repeated_rows = matmul(np.repeat(rows, n, axis=0), w2)
        assert same_bits(pooled_rows, repeated_rows)


def _clips(rng, b, cfg=SHARED_CFG):
    """Sampled frames of b clips of 1 to 8 frames (short ones repeat frames)."""
    stacks = [rng.standard_normal((int(rng.integers(1, 9)), cfg.input_dim_video))
              for _ in range(b)]
    return sample_frames(stacks, cfg)


def _one_pass_instance(seed, labeled="clip", b_l=5, b_u=5):
    rng = np.random.default_rng(seed)
    d_t = SHARED_CFG.input_dim_text
    lv = _videos("still", rng, b_l) if labeled == "still" else _clips(rng, b_l)
    return dict(
        lv=lv, lt=rng.standard_normal((b_l, d_t)), uv=_clips(rng, b_u),
        ut=rng.standard_normal((b_u, d_t)),
        pseudo=PseudoLabelBatch(rng.uniform(-6, 6, size=(b_u, b_u))),
        labeled_pseudo=PseudoLabelBatch(rng.uniform(-6, 6, size=(b_l, b_l))),
    )


def _count_tower_calls(mp):
    counts = {"video": 0, "text": 0}
    for tower, real in (("video", losses.video_forward), ("text", losses.text_forward)):
        def counted(*args, _tower=tower, _real=real, **kwargs):
            counts[_tower] += 1
            return _real(*args, **kwargs)
        mp.setattr(losses, f"{tower}_forward", counted)
    return counts


class TestOneTowerPass:
    """Both batches go through one video and one text tower call, with the
    bits of encoding each batch on its own."""

    @pytest.mark.parametrize("case", ["clip/clip", "still/clip", "5 labeled/3 unlabeled",
                                      "labeled_pseudo", "lambda 0"])
    def test_loss_and_every_gradient_tensor_equal_per_batch_oracle(self, case):
        inst = _one_pass_instance(
            [47, len(case)], labeled="still" if case == "still/clip" else "clip",
            b_u=3 if case.startswith("5") else 5,
        )
        cfg = LossConfig(sigma=0.1, lambda_=0.0 if case == "lambda 0" else 0.7)
        labeled_pseudo = inst["labeled_pseudo"] if case == "labeled_pseudo" else None
        args = (inst["lv"], inst["lt"], inst["uv"], inst["ut"], inst["pseudo"], cfg, SHARED_CFG)
        params = init_params(SHARED_CFG)
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_tower_calls(mp)
            loss, grad = total_loss_grad(params, *args, labeled_pseudo=labeled_pseudo)
        assert counts == {"video": 1, "text": 1}
        want_loss, want_grads = per_batch_loss_grad(params, *args, labeled_pseudo)
        assert same_bits(np.float64(loss), want_loss)
        for name, shape in params.layout:
            assert same_bits(grad.tensor(name), want_grads[name]), name

    def test_stacked_losses_equal_per_batch_oracle(self):
        inst = _one_pass_instance(48, b_u=3)
        params = init_params(SHARED_CFG)
        rng = np.random.default_rng(49)
        stack = ParamVector(params.values + 1e-5 * rng.standard_normal((6, params.n_params)),
                            params.layout)
        cfg = LossConfig(sigma=0.2, lambda_=0.999)
        args = (inst["lv"], inst["lt"], inst["uv"], inst["ut"], inst["pseudo"], cfg, SHARED_CFG)
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_tower_calls(mp)
            got = loss_forward(stack, *args, inst["labeled_pseudo"])[0]
        assert counts == {"video": 1, "text": 1}
        want, _ = per_batch_loss_grad(stack, *args, inst["labeled_pseudo"])
        assert got.shape == (6,)
        assert same_bits(got, want)

    def test_pseudo_label_softmax_follows_the_teacher_logits(self, monkeypatch):
        # The teacher's softmax is taken once per call, never kept on the batch:
        # logits changed between calls are what the second call sees.
        inst = _one_pass_instance(50)
        params = init_params(SHARED_CFG)
        seen = []
        real = losses._scores

        def recording(s):
            seen.append(s)
            return real(s)

        monkeypatch.setattr(losses, "_scores", recording)
        cfg = LossConfig(sigma=0.1, lambda_=0.5)
        pseudo = inst["pseudo"]
        args = (params, inst["lv"], inst["lt"], inst["uv"], inst["ut"], pseudo, cfg, SHARED_CFG)
        first = loss_forward(*args)[0]
        assert sum(s is pseudo.teacher_logits for s in seen) == 1
        assert len(seen) == 3  # two batches' student logits, then the teacher's
        pseudo.teacher_logits[...] = pseudo.teacher_logits.T
        second = loss_forward(*args)[0]
        want, _ = per_batch_loss_grad(*args)
        assert len(seen) == 6
        assert not same_bits(first, second)
        assert same_bits(second, want)


def _zero_bias_params():
    """Weights whose all-zero input rows encode to zero-norm embeddings."""
    params = init_params(SHARED_CFG)
    for name in ("video.b1", "video.b2", "text.b1", "text.b2"):
        params.tensor(name)[...] = 0.0
    return params


def _with_column(m):
    return np.hstack([m, np.ones((m.shape[0], 1))])


# Each edit breaks one thing; applied in this order, any two of them compose.
_FAULTS = {
    "labeled zero-norm video": ("lv", lambda a: _set_row(a, 3)),
    "labeled zero-norm text": ("lt", lambda a: _set_row(a, 0)),
    "unlabeled zero-norm video": ("uv", lambda a: _set_row(a, 1)),
    "unlabeled zero-norm text": ("ut", lambda a: _set_row(a, 0)),
    "labeled text dim": ("lt", _with_column),
    "unlabeled video shape": ("uv", lambda a: a[:, :, :-1]),
    "unlabeled text dim": ("ut", _with_column),
    "labeled size mismatch": ("lt", lambda a: a[:-1]),
    "unlabeled size mismatch": ("ut", lambda a: a[:-1]),
    "pseudo size": ("pseudo", lambda p: PseudoLabelBatch(np.zeros((4, 4)))),
    "labeled pseudo size": ("labeled_pseudo", lambda p: PseudoLabelBatch(np.zeros((6, 6)))),
}

_FAULT_MESSAGES = {
    "labeled zero-norm video": (DegenerateEmbeddingError, "pooled embedding 3 has norm 0.000e+00"),
    "labeled zero-norm text": (DegenerateEmbeddingError, "pooled embedding 0 has norm 0.000e+00"),
    "unlabeled zero-norm video": (DegenerateEmbeddingError,
                                  "pooled embedding 1 has norm 0.000e+00"),
    "unlabeled zero-norm text": (DegenerateEmbeddingError,
                                 "pooled embedding 0 has norm 0.000e+00"),
    "labeled text dim": (UsageError, "text features have dim 6, encoder expects 5"),
    "unlabeled video shape": (UsageError, "video batch must be a sampled (B, 4, 6) array"),
    "unlabeled text dim": (UsageError, "text features have dim 6, encoder expects 5"),
    "labeled size mismatch": (UsageError, "batch size mismatch: 5 videos vs 4 texts"),
    "unlabeled size mismatch": (UsageError, "batch size mismatch: 3 videos vs 2 texts"),
    "pseudo size": (UsageError, "student batch size 3 does not match teacher logits 4"),
    "labeled pseudo size": (UsageError, "student batch size 5 does not match teacher logits 6"),
}


def _set_row(a, i):
    a = a.copy()
    a[i] = 0.0
    return a


def _raised(fn, *args):
    with warnings.catch_warnings(), pytest.raises((UsageError, DegenerateEmbeddingError)) as info:
        warnings.simplefilter("error")  # a zero-norm row divides without a numpy warning
        fn(*args)
    return type(info.value), str(info.value)


def _faulty(*faults):
    inst = _one_pass_instance(51, b_u=3)
    for name, (key, edit) in _FAULTS.items():
        if name in faults:
            inst[key] = edit(inst[key])
    cfg = LossConfig(sigma=0.1, lambda_=0.7)
    return (_zero_bias_params(), inst["lv"], inst["lt"], inst["uv"], inst["ut"],
            inst["pseudo"], cfg, SHARED_CFG, inst["labeled_pseudo"])


class TestErrorsBeforeTheJoin:
    """Malformed batches raise what encoding batch after batch raised, first fault first."""

    def test_instance_is_valid_and_zero_rows_are_what_break_it(self):
        args = _faulty()
        assert np.isfinite(loss_forward(*args)[0])
        assert same_bits(np.float64(loss_forward(*args)[0]), per_batch_loss_grad(*args)[0])

    @pytest.mark.parametrize("fault", list(_FAULTS))
    def test_one_fault_raises_its_message(self, fault):
        args = _faulty(fault)
        assert _raised(loss_forward, *args) == _FAULT_MESSAGES[fault]
        assert _raised(per_batch_loss_grad, *args) == _FAULT_MESSAGES[fault]
        assert _raised(total_loss_grad, *args) == _FAULT_MESSAGES[fault]

    @pytest.mark.parametrize("first,second", [
        (a, b) for i, a in enumerate(_FAULTS) for b in list(_FAULTS)[i + 1:]
    ])
    def test_two_faults_raise_in_per_batch_order(self, first, second):
        args = _faulty(first, second)
        assert _raised(loss_forward, *args) == _raised(per_batch_loss_grad, *args)

    def test_stacked_zero_norm_names_the_row_in_its_batch(self):
        params, *rest = _faulty("unlabeled zero-norm text")
        stack = ParamVector(np.tile(params.values, (3, 1)), params.layout)
        assert _raised(loss_forward, stack, *rest) == _FAULT_MESSAGES["unlabeled zero-norm text"]
