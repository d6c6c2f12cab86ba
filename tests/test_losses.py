import math
import warnings

import numpy as np
import pytest

from dfuse import encoder, losses
from dfuse.encoder import (
    EncoderConfig,
    ParamVector,
    encode_sampled,
    init_params,
)
from dfuse.errors import DegenerateEmbeddingError, UsageError
from dfuse.gradcheck import relative_errors
from dfuse.losses import (
    LossConfig,
    cross_entropy,
    cross_entropy_grad,
    loss_forward,
    total_loss_grad,
)
from dfuse.numerics import matmul, scaled_dots, softmax_pair
from naive import (
    naive_contrastive,
    naive_distillation,
    naive_finite_difference_grad,
    naive_sample_frames,
    naive_total,
    naive_video_forward,
    per_batch_loss_grad,
    same_bits,
    unit_rows,
)


def ce(z_v, z_t, sigma, teacher=None):
    """The cross-entropy term on the logits of two embedding batches (None: the diagonal)."""
    logits = scaled_dots(np.asarray(z_v, float), np.asarray(z_t, float), sigma)
    if teacher is None:
        return cross_entropy(losses._scores([logits])[0], None)
    return cross_entropy(*losses._scores([logits, teacher]))


def entropies(x):
    """Mean entropy of the row softmaxes and of the column softmaxes of logits ``x``."""
    out = []
    for m in (x, x.T):
        p = softmax_pair(m)[0]
        out.append(float(np.mean(-np.sum(p * np.log(p), axis=1))))
    return out


def loop_fd_grad(loss_fn, params):
    """The per-coordinate finite-difference oracle, as a ParamVector."""
    def loss_of(values):
        return loss_fn(ParamVector(values, params.layout))
    return ParamVector(naive_finite_difference_grad(loss_of, params.values), params.layout)


class TestDiagonalTarget:
    """A target of None: CLIP's symmetric InfoNCE."""

    def test_two_orthonormal_closed_form(self):
        eye = np.eye(2)
        expected = math.log(1.0 + math.exp(-1.0))
        assert ce(eye, eye, 1.0) == pytest.approx(2 * expected, abs=1e-12)

    def test_identical_embeddings_give_log_b(self):
        b = 5
        row = np.zeros(4)
        row[0] = 1.0
        z = np.tile(row, (b, 1))
        assert ce(z, z, 0.05) == pytest.approx(2 * math.log(b), abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            b, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            z_v, z_t = unit_rows(rng, b, d), unit_rows(rng, b, d)
            sigma = float(rng.uniform(1 / 25, 1.0))
            want, _ = naive_contrastive(z_v, z_t, sigma)
            assert ce(z_v, z_t, sigma) == pytest.approx(want, abs=1e-10)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert ce(unit_rows(rng, 6, 5), unit_rows(rng, 6, 5), 0.05) >= 0

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(12)
        z_v, z_t = unit_rows(rng, 7, 4), unit_rows(rng, 7, 4)
        perm = rng.permutation(7)
        assert ce(z_v[perm], z_t[perm], 0.05) == pytest.approx(ce(z_v, z_t, 0.05), abs=1e-12)

    def test_rejects_singleton_batch(self):
        rng = np.random.default_rng(13)
        batch = (_clips(rng, 1), rng.standard_normal((1, SHARED_CFG.input_dim_text)))
        with pytest.raises(UsageError, match="contrastive loss needs batch size >= 2"):
            loss_forward(init_params(SHARED_CFG), [batch], [(0, None, 1.0)], 0.05, SHARED_CFG)


class TestTeacherTarget:
    """Teacher logits as the target: soft-target distillation."""

    def test_matching_logits_hit_entropy_floor(self):
        rng = np.random.default_rng(13)
        z_v, z_t = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        logits = scaled_dots(z_v, z_t, 0.5)
        assert ce(z_v, z_t, 0.5, logits) == pytest.approx(sum(entropies(logits)), abs=1e-10)
        # softmax-difference identity: gradient vanishes exactly at the match
        sc, target = losses._scores([logits, logits.copy()])
        assert np.max(np.abs(cross_entropy_grad(sc, target))) == 0.0

    def test_uniform_teacher_rows_lower_bound(self):
        rng = np.random.default_rng(14)
        b = 6
        logits = np.zeros((b, b))  # uniform targets
        for _ in range(10):
            assert ce(unit_rows(rng, b, 4), unit_rows(rng, b, 4), 0.05, logits) \
                >= 2 * math.log(b) - 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            b, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            z_v, z_t = unit_rows(rng, b, d), unit_rows(rng, b, d)
            x = rng.uniform(-30, 30, size=(b, b))
            sigma = float(rng.uniform(1 / 25, 1.0))
            want, _ = naive_distillation(z_v, z_t, x, sigma)
            assert ce(z_v, z_t, sigma, x) == pytest.approx(want, abs=1e-10)

    def test_gibbs_inequality(self):
        # CE(P, Q) >= CE(P, P), i.e. the loss never drops below the teacher entropy.
        rng = np.random.default_rng(16)
        for _ in range(20):
            b = int(rng.integers(2, 7))
            x = rng.uniform(-8, 8, size=(b, b))
            value = ce(unit_rows(rng, b, 5), unit_rows(rng, b, 5), 0.4, x)
            assert value >= sum(entropies(x)) - 1e-10

    def test_rejects_size_mismatch(self):
        rng = np.random.default_rng(17)
        batch = (_clips(rng, 3), rng.standard_normal((3, SHARED_CFG.input_dim_text)))
        with pytest.raises(UsageError, match="student batch size 3 does not match teacher logits 4"):
            loss_forward(init_params(SHARED_CFG), [batch], [(0, np.zeros((4, 4)), 1.0)], 0.05,
                         SHARED_CFG)


def _encoded_pair(rng, params, enc_cfg, b):
    """One batch of clips of 1 to 4 frames, sampled, with its texts and its embeddings."""
    stacks = [rng.standard_normal((int(rng.integers(1, 5)), enc_cfg.input_dim_video))
              for _ in range(b)]
    texts = rng.standard_normal((b, enc_cfg.input_dim_text))
    frames = naive_sample_frames(stacks, enc_cfg.n_frames)
    return (frames, texts), encode_sampled(params, frames, texts, enc_cfg)


class TestTermList:
    def test_objective_terms_in_order(self):
        pseudo, labeled_pseudo = np.zeros((3, 3)), np.ones((4, 4))
        cfg = LossConfig(lambda_=0.25)
        assert cfg.terms() == [(0, None, 1.0)]
        terms = cfg.terms(pseudo, labeled_pseudo)
        assert [(i, w) for i, _, w in terms] == [(0, 1.0), (1, 0.25), (0, 0.25)]
        assert terms[1][1] is pseudo and terms[2][1] is labeled_pseudo

    def test_lambda_zero_equals_contrastive(self, enc_cfg, params):
        rng = np.random.default_rng(18)
        batches = [_encoded_pair(rng, params, enc_cfg, 4)[0] for _ in range(2)]
        pseudo = rng.uniform(-3, 3, size=(4, 4))
        cfg = LossConfig(sigma=0.2, lambda_=0.0)
        contrastive = loss_forward(params, batches[:1], cfg.terms(), cfg.sigma, enc_cfg)
        assert loss_forward(params, batches, cfg.terms(pseudo), cfg.sigma, enc_cfg) \
            == contrastive

    def test_default_weighting_matches_parts_exactly(self, enc_cfg, params):
        rng = np.random.default_rng(19)
        cfg = LossConfig()  # sigma 0.05, lambda 0.999 working defaults
        (labeled, z_l), (unlabeled, z_u) = (_encoded_pair(rng, params, enc_cfg, 5)
                                            for _ in range(2))
        pseudo = rng.uniform(-10, 10, size=(5, 5))
        want = ce(*z_l, cfg.sigma) + cfg.lambda_ * ce(*z_u, cfg.sigma, pseudo)
        loss, _ = total_loss_grad(params, [labeled, unlabeled], cfg.terms(pseudo), cfg.sigma,
                                  enc_cfg)
        assert same_bits(np.float64(loss), want)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            b, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            z_v_l, z_t_l = unit_rows(rng, b, d), unit_rows(rng, b, d)
            z_v_u, z_t_u = unit_rows(rng, b, d), unit_rows(rng, b, d)
            x = rng.uniform(-30, 30, size=(b, b))
            sigma = float(rng.uniform(1 / 25, 1.0))
            lam = float(rng.uniform(0.0, 2.0))
            got = ce(z_v_l, z_t_l, sigma) + lam * ce(z_v_u, z_t_u, sigma, x)
            want = naive_total(z_v_l, z_t_l, z_v_u, z_t_u, x, sigma, lam)
            assert got == pytest.approx(want, abs=1e-10)

    def test_monotone_in_lambda(self, enc_cfg, params):
        rng = np.random.default_rng(21)
        batches = [_encoded_pair(rng, params, enc_cfg, 4)[0] for _ in range(2)]
        pseudo = rng.uniform(-5, 5, size=(4, 4))
        values = [
            loss_forward(params, batches, LossConfig(sigma=0.3, lambda_=lam).terms(pseudo), 0.3,
                         enc_cfg)
            for lam in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestCrossEntropyGrad:
    @pytest.mark.parametrize("teacher", [False, True])
    def test_matches_finite_difference_on_logits(self, teacher):
        rng = np.random.default_rng(23)
        b = 4
        s = rng.uniform(-3, 3, size=(b, b))
        x = rng.uniform(-3, 3, size=(b, b)) if teacher else None
        target = None if x is None else losses._scores([x])[0]
        grad = cross_entropy_grad(losses._scores([s])[0], target)
        h = 1e-6

        def loss_of(m):
            if x is None:
                return -np.mean(np.diag(m - _lse_rows(m))) - np.mean(np.diag(m.T - _lse_rows(m.T)))
            q_rows, q_cols = softmax_pair(x)[0], softmax_pair(x.T)[0]
            return (-np.mean(np.sum(q_rows * (m - _lse_rows(m)), axis=1))
                    - np.mean(np.sum(q_cols * (m.T - _lse_rows(m.T)), axis=1)))

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
        lv, uv = (naive_sample_frames(v, enc_cfg.n_frames) for v in (lv, uv))
        return [(lv, lt), (uv, ut)], (lv, lt, uv, ut), x

    def test_loss_equals_the_term_sum_on_encoded_batches(self, enc_cfg, params):
        rng = np.random.default_rng(24)
        batches, (lv, lt, uv, ut), pseudo = self._instance(rng, enc_cfg)
        cfg = LossConfig(sigma=0.2, lambda_=0.7)
        loss, grad = total_loss_grad(params, batches, cfg.terms(pseudo), cfg.sigma, enc_cfg)
        labeled = encode_sampled(params, lv, lt, enc_cfg)
        student = encode_sampled(params, uv, ut, enc_cfg)
        assert loss == ce(*labeled, cfg.sigma) + cfg.lambda_ * ce(*student, cfg.sigma, pseudo)
        assert grad.layout == params.layout
        assert grad.n_params == params.n_params

    @pytest.mark.parametrize("seed,sigma,lambda_,which", [
        (25, 0.3, 0.999, "unlabeled"),
        (26, 0.4, 0.8, "labeled distillation"),
        (27, 0.5, 0.0, "contrastive only"),
    ])
    def test_gradient_against_finite_differences(self, enc_cfg, params, seed, sigma, lambda_,
                                                 which):
        rng = np.random.default_rng(seed)
        batches, _, pseudo = self._instance(rng, enc_cfg)
        cfg = LossConfig(sigma=sigma, lambda_=lambda_)
        terms = {"unlabeled": cfg.terms(pseudo),
                 "labeled distillation": cfg.terms(pseudo, rng.uniform(-5, 5, size=(4, 4))),
                 "contrastive only": cfg.terms()}[which]
        batches = batches[:1] if which == "contrastive only" else batches

        def loss_fn(pv):
            return loss_forward(pv, batches, terms, sigma, enc_cfg)

        loss, analytic = total_loss_grad(params, batches, terms, sigma, enc_cfg)
        assert loss == loss_fn(params)
        numeric = loop_fd_grad(loss_fn, params)
        assert float(relative_errors(analytic, numeric).max()) < 1e-4


def every_row_total_loss_grad(params, batches, terms, sigma, enc_cfg):
    """``total_loss_grad`` without any row sharing: every frame row through the
    video tower, the pooled gradient repeated to every frame row before any
    product, and per-tensor zero arrays concatenated at the end."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "video_forward", naive_video_forward)
        loss, grads = per_batch_loss_grad(params, batches, terms, sigma, enc_cfg)
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
    return naive_sample_frames(stacks, SHARED_CFG.n_frames)


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
        pseudo = rng.uniform(-6, 6, size=(b, b))
        labeled_pseudo = rng.uniform(-6, 6, size=(b, b)) if with_labeled_pseudo else None
        cfg = LossConfig(sigma=0.1, lambda_=0.7)
        args = ([(lv, lt), (uv, ut)], cfg.terms(pseudo, labeled_pseudo), cfg.sigma, SHARED_CFG)
        loss, grad = total_loss_grad(params, *args)
        want_loss, want_grad = every_row_total_loss_grad(params, *args)
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
        args = ([(lv, lt)], [(0, None, 1.0)], 0.05, SHARED_CFG)
        loss, grad = total_loss_grad(params, *args)
        want_loss, want_grad = every_row_total_loss_grad(params, *args)
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
        pseudo = rng.uniform(-6, 6, size=(b, b))
        cfg = LossConfig(sigma=0.2, lambda_=0.999)
        args = ([(lv, lt), (uv, ut)], cfg.terms(pseudo), cfg.sigma, SHARED_CFG)
        stack = ParamVector(params.values + 1e-5 * rng.standard_normal((7, params.n_params)),
                            params.layout)
        stacked = loss_forward(stack, *args)
        assert stacked.shape == (7,)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(losses, "video_forward", naive_video_forward)
            every_row = loss_forward(stack, *args)
        assert same_bits(stacked, every_row)
        for k in range(7):
            one = ParamVector(stack.values[k].copy(), params.layout)
            assert same_bits(stacked[k], loss_forward(one, *args))

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
    return naive_sample_frames(stacks, cfg.n_frames)


def _one_pass_instance(seed, labeled="clip", b_l=5, b_u=5):
    rng = np.random.default_rng(seed)
    d_t = SHARED_CFG.input_dim_text
    lv = _videos("still", rng, b_l) if labeled == "still" else _clips(rng, b_l)
    return dict(
        lv=lv, lt=rng.standard_normal((b_l, d_t)), uv=_clips(rng, b_u),
        ut=rng.standard_normal((b_u, d_t)),
        pseudo=rng.uniform(-6, 6, size=(b_u, b_u)),
        labeled_pseudo=rng.uniform(-6, 6, size=(b_l, b_l)),
    )


def _term_args(inst, cfg, labeled_pseudo=None):
    """``(batches, terms, sigma, enc_cfg)`` of an instance: the objective's term list."""
    return ([(inst["lv"], inst["lt"]), (inst["uv"], inst["ut"])],
            cfg.terms(inst["pseudo"], labeled_pseudo), cfg.sigma, SHARED_CFG)


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

    @pytest.mark.parametrize("case", [
        "clip/clip", "still/clip", "5 labeled/3 unlabeled", "labeled_pseudo", "lambda 0",
        "5 labeled/3 unlabeled, labeled_pseudo", "labeled batch weighs 0",
        "three batches, the middle weighs 0", "1-row unlabeled batch",
    ])
    def test_loss_and_every_gradient_tensor_equal_per_batch_oracle(self, case):
        inst = _one_pass_instance(
            [47, len(case)], labeled="still" if case == "still/clip" else "clip",
            b_u={"5": 3, "1": 1}.get(case[0], 5),
        )
        cfg = LossConfig(sigma=0.1, lambda_=0.0 if case == "lambda 0" else 0.7)
        labeled_pseudo = inst["labeled_pseudo"] if "labeled_pseudo" in case else None
        batches, terms, sigma, enc_cfg = _term_args(inst, cfg, labeled_pseudo)
        if case == "labeled batch weighs 0":
            terms = [(0, None, 0.0), (1, inst["pseudo"], 0.7)]
        elif case.startswith("three"):
            batches = batches + [(inst["lv"][::-1], inst["lt"][::-1])]
            terms = [(0, None, 1.0), (1, inst["pseudo"], 0.0), (2, None, 0.5),
                     (2, inst["labeled_pseudo"], 0.25)]
        args = (batches, terms, sigma, enc_cfg)
        params = init_params(SHARED_CFG)
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_tower_calls(mp)
            loss, grad = total_loss_grad(params, *args)
        assert counts == {"video": 1, "text": 1}
        want_loss, want_grads = per_batch_loss_grad(params, *args)
        assert same_bits(np.float64(loss), want_loss)
        for name, shape in params.layout:
            assert same_bits(grad.tensor(name), want_grads[name]), name

    @pytest.mark.parametrize("layout", ["transposed view", "Fortran order"])
    def test_a_teacher_reads_as_its_c_ordered_copy(self, layout):
        # The softmaxes stack every teacher, which copies it in C order; the
        # per-batch oracle, which takes a teacher as given, sees that copy.
        inst = _one_pass_instance(51, b_u=9)
        view = {"transposed view": lambda m: np.ascontiguousarray(m.T).T,
                "Fortran order": np.asfortranarray}[layout]
        cfg = LossConfig(sigma=0.1, lambda_=0.7)
        copies = _term_args(inst, cfg, inst["labeled_pseudo"])
        inst["pseudo"], inst["labeled_pseudo"] = view(inst["pseudo"]), view(inst["labeled_pseudo"])
        views = _term_args(inst, cfg, inst["labeled_pseudo"])
        assert not any(t.flags.c_contiguous for _, t, _ in views[1] if t is not None)
        params = init_params(SHARED_CFG)
        loss, grad = total_loss_grad(params, *views)
        want_loss, want_grads = per_batch_loss_grad(params, *copies)
        assert same_bits(np.float64(loss), want_loss)
        assert same_bits(loss_forward(params, *views), want_loss)
        for name, shape in params.layout:
            assert same_bits(grad.tensor(name), want_grads[name]), name

    @pytest.mark.parametrize("b_u", [5, 3])
    def test_stacked_losses_equal_per_batch_oracle(self, b_u):
        # b_u = 5: both batches' logits in one shape group, both targets in
        # another; b_u = 3: four groups.
        inst = _one_pass_instance([48, b_u], b_u=b_u)
        params = init_params(SHARED_CFG)
        rng = np.random.default_rng(49)
        stack = ParamVector(params.values + 1e-5 * rng.standard_normal((6, params.n_params)),
                            params.layout)
        args = _term_args(inst, LossConfig(sigma=0.2, lambda_=0.999), inst["labeled_pseudo"])
        with pytest.MonkeyPatch.context() as mp:
            counts = _count_tower_calls(mp)
            got = loss_forward(stack, *args)
        assert counts == {"video": 1, "text": 1}
        want, _ = per_batch_loss_grad(stack, *args)
        assert got.shape == (6,)
        assert same_bits(got, want)

    def test_pseudo_label_softmax_follows_the_teacher_logits(self, monkeypatch):
        # The teacher's softmax is taken once per call, never kept between calls:
        # logits changed between calls are what the second call sees.
        inst = _one_pass_instance(50)
        params = init_params(SHARED_CFG)
        seen = []
        real = losses.softmax_pair

        def recording(arr):
            seen.append(arr.copy())
            return real(arr)

        def taken(m):
            """How many recorded softmax inputs hold ``m`` as one of their slices."""
            return sum(any(same_bits(s, m) for s in arr) for arr in seen)

        monkeypatch.setattr(losses, "softmax_pair", recording)
        args = (params, *_term_args(inst, LossConfig(sigma=0.1, lambda_=0.5)))
        pseudo = inst["pseudo"]
        first = loss_forward(*args)
        # One stack of both batches' logits and the teacher's: its rows, then its columns.
        assert [arr.shape for arr in seen] == [(3, 5, 5)] * 2
        assert (taken(pseudo), taken(pseudo.T)) == (1, 1)
        pseudo[...] = pseudo.T
        seen.clear()
        second = loss_forward(*args)
        want, _ = per_batch_loss_grad(*args)
        assert len(seen) == 2
        assert (taken(pseudo), taken(pseudo.T)) == (1, 1)
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
    "pseudo size": ("pseudo", lambda p: np.zeros((4, 4))),
    "labeled pseudo size": ("labeled_pseudo", lambda p: np.zeros((6, 6))),
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

# The order faults are reported in: every input fault in batch order (within a
# batch: videos, texts, the size match, then its terms in list order, and the
# labeled-distillation term is on the labeled batch), then every zero-norm row
# in batch order (videos before texts).
_REPORT_ORDER = [
    "labeled text dim", "labeled size mismatch", "labeled pseudo size",
    "unlabeled video shape", "unlabeled text dim", "unlabeled size mismatch", "pseudo size",
    "labeled zero-norm video", "labeled zero-norm text",
    "unlabeled zero-norm video", "unlabeled zero-norm text",
]


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
    return (_zero_bias_params(), *_term_args(inst, cfg, inst["labeled_pseudo"]))


class TestErrorsBeforeTheJoin:
    """Malformed batches raise the first input fault in batch order, else the
    first zero-norm row in batch order, with the message of that fault alone."""

    def test_instance_is_valid_and_zero_rows_are_what_break_it(self):
        args = _faulty()
        assert np.isfinite(loss_forward(*args))
        assert same_bits(np.float64(loss_forward(*args)), per_batch_loss_grad(*args)[0])

    def test_report_order_covers_every_fault(self):
        assert sorted(_REPORT_ORDER) == sorted(_FAULTS)

    @pytest.mark.parametrize("fault", list(_FAULTS))
    def test_one_fault_raises_its_message(self, fault):
        args = _faulty(fault)
        assert _raised(loss_forward, *args) == _FAULT_MESSAGES[fault]
        assert _raised(per_batch_loss_grad, *args) == _FAULT_MESSAGES[fault]
        assert _raised(total_loss_grad, *args) == _FAULT_MESSAGES[fault]

    @pytest.mark.parametrize("first,second", [
        (a, b) for i, a in enumerate(_FAULTS) for b in list(_FAULTS)[i + 1:]
    ])
    def test_two_faults_raise_the_first_in_report_order(self, first, second):
        args = _faulty(first, second)
        want = _FAULT_MESSAGES[min(first, second, key=_REPORT_ORDER.index)]
        assert _raised(loss_forward, *args) == want
        assert _raised(total_loss_grad, *args) == want

    def test_stacked_zero_norm_names_the_row_in_its_batch(self):
        params, *rest = _faulty("unlabeled zero-norm text")
        stack = ParamVector(np.tile(params.values, (3, 1)), params.layout)
        assert _raised(loss_forward, stack, *rest) == _FAULT_MESSAGES["unlabeled zero-norm text"]
