import dataclasses
import hashlib
import math

import numpy as np
import pytest

import dfuse.training as training
from dfuse.checkpointio import Checkpoint, checkpoint_bytes
from dfuse.corpus import SPLITS, build_corpus, gen_corpus, load_corpus
from dfuse.encoder import (
    ParamVector,
    encode_text_batch,
    encode_video_batch,
    init_params,
    sample_frames,
)
from dfuse.errors import TrainingDivergedError, UsageError
from dfuse.evaluation import DEFAULT_TEMPLATE, build_prompt_set, evaluate_model, prepare_eval
from dfuse.losses import LossConfig
from dfuse.numerics import similarity_matrix
from dfuse.training import (
    TrainConfig,
    _IndexBatcher,
    adamw_step,
    init_optimizer_state,
    make_pseudo_labels,
    pretrain_teacher,
    train_student,
    validation_loss,
)


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self, params):
        cfg = TrainConfig(lr=0.1, weight_decay=0.0)
        state = init_optimizer_state(params)
        new_params, new_state = adamw_step(
            params, ParamVector(np.zeros_like(params.values), params.layout), state, cfg
        )
        np.testing.assert_array_equal(new_params.values, params.values)
        assert new_state.step == 1

    def test_single_scalar_step_hand_computed(self, params):
        # One-parameter instance worked through the update rule by hand.
        layout = (("w", (1,)),)
        p = ParamVector(np.array([1.0]), layout)
        g = ParamVector(np.array([0.5]), layout)
        cfg = TrainConfig(lr=0.1, weight_decay=0.0)
        new_p, state = adamw_step(p, g, init_optimizer_state(p), cfg)
        b1, b2 = cfg.betas
        m = (1 - b1) * 0.5
        v = (1 - b2) * 0.25
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        expected = 1.0 - 0.1 * (m_hat / (math.sqrt(v_hat) + cfg.eps))
        assert new_p.values[0] == pytest.approx(expected, abs=0)
        assert state.step == 1

    def test_decay_only_shrinks_multiplicatively(self, params):
        cfg = TrainConfig(lr=0.05, weight_decay=0.2)
        zero_grad = ParamVector(np.zeros_like(params.values), params.layout)
        new_params, _ = adamw_step(params, zero_grad, init_optimizer_state(params), cfg)
        np.testing.assert_array_equal(
            new_params.values, params.values * (1 - cfg.lr * cfg.weight_decay)
        )

    def test_layout_mismatch(self, params, enc_cfg):
        other = dataclasses.replace(enc_cfg, hidden_dim=enc_cfg.hidden_dim + 1)
        grad = init_params(other)
        with pytest.raises(UsageError):
            adamw_step(params, grad, init_optimizer_state(params), TrainConfig())

    def test_deterministic(self, params):
        rng = np.random.default_rng(1)
        grad = ParamVector(rng.standard_normal(params.n_params), params.layout)
        cfg = TrainConfig(lr=1e-3)
        a, _ = adamw_step(params, grad, init_optimizer_state(params), cfg)
        b, _ = adamw_step(params, grad, init_optimizer_state(params), cfg)
        assert a.values.tobytes() == b.values.tobytes()


class TestIndexBatcher:
    def test_epoch_covers_population(self):
        batcher = _IndexBatcher(12, 4, np.random.default_rng(0))
        seen = np.concatenate([batcher.next_batch() for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(12))

    def test_constant_batch_size_with_remainder(self):
        batcher = _IndexBatcher(10, 4, np.random.default_rng(0))
        for _ in range(10):
            assert len(batcher.next_batch()) == 4

    def test_deterministic_given_seed(self):
        a = _IndexBatcher(20, 5, np.random.default_rng([3, 7]))
        b = _IndexBatcher(20, 5, np.random.default_rng([3, 7]))
        for _ in range(8):
            np.testing.assert_array_equal(a.next_batch(), b.next_batch())

    def test_batch_larger_than_population(self):
        with pytest.raises(UsageError):
            _IndexBatcher(3, 4, np.random.default_rng(0))


def _unlabeled(corpus):
    return corpus.videos("unlabeled").features, corpus.texts("unlabeled").features


class TestMakePseudoLabels:
    def test_matches_student_logits_bit_exactly(self, tiny_corpus, tiny_enc):
        params = init_params(tiny_enc)
        videos, texts = _unlabeled(tiny_corpus)
        videos, texts = videos[:5], texts[:5]
        pseudo = make_pseudo_labels(
            encode_video_batch(params, videos, tiny_enc),
            encode_text_batch(params, texts, tiny_enc), 0.05,
        )
        student_logits = similarity_matrix(
            encode_video_batch(params, videos, tiny_enc),
            encode_text_batch(params, texts, tiny_enc),
            0.05,
        )
        assert pseudo.tobytes() == student_logits.tobytes()

    def test_rejects_singleton(self, tiny_corpus, tiny_enc):
        params = init_params(tiny_enc)
        videos, texts = _unlabeled(tiny_corpus)
        with pytest.raises(UsageError):
            make_pseudo_labels(
                encode_video_batch(params, videos[:1], tiny_enc),
                encode_text_batch(params, texts[:1], tiny_enc), 0.05,
            )

    def test_rejects_count_mismatch(self, tiny_corpus, tiny_enc):
        params = init_params(tiny_enc)
        videos, texts = _unlabeled(tiny_corpus)
        with pytest.raises(UsageError):
            make_pseudo_labels(
                encode_video_batch(params, videos[:3], tiny_enc),
                encode_text_batch(params, texts[:4], tiny_enc), 0.05,
            )

    def test_symmetric_when_towers_and_inputs_coincide(self, tiny_enc):
        # Copy the video tower into the text tower and feed identical content:
        # both sides embed to the same rows, so the logits form a symmetric Gram.
        params = init_params(tiny_enc)
        for name in ("w1", "b1", "w2", "b2"):
            params.tensor(f"text.{name}")[...] = params.tensor(f"video.{name}")
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((4, tiny_enc.input_dim_video))
        videos = feats[:, None, :]  # four one-frame clips
        pseudo = make_pseudo_labels(
            encode_video_batch(params, videos, tiny_enc),
            encode_text_batch(params, feats, tiny_enc), 0.05,
        )
        np.testing.assert_array_equal(pseudo, pseudo.T)


def _small_train_cfg(**overrides):
    base = dict(lr=1e-2, batch_size_labeled=4, batch_size_unlabeled=4,
                max_steps=12, eval_every=4, seed=9)
    base.update(overrides)
    return TrainConfig(**base)


class TestPretrainTeacher:
    def test_runs_and_is_deterministic(self, tiny_corpus, tiny_enc):
        cfg = _small_train_cfg()
        a = pretrain_teacher(tiny_corpus, tiny_enc, cfg)
        b = pretrain_teacher(tiny_corpus, tiny_enc, cfg)
        assert a.params.values.tobytes() == b.params.values.tobytes()

    def test_unlabeled_data_is_ignored(self, tiny_synth, tiny_enc):
        with_unlabeled = build_corpus(tiny_synth)
        without = build_corpus(dataclasses.replace(tiny_synth, n_unlabeled=0))
        cfg = _small_train_cfg()
        a = pretrain_teacher(with_unlabeled, tiny_enc, cfg)
        b = pretrain_teacher(without, tiny_enc, cfg)
        assert a.params.values.tobytes() == b.params.values.tobytes()

    def test_empty_corpus_rejected(self, tiny_synth, tiny_enc):
        empty = build_corpus(dataclasses.replace(tiny_synth, n_labeled_train=0))
        with pytest.raises(UsageError):
            pretrain_teacher(empty, tiny_enc, _small_train_cfg())

    def test_progress_log_lines(self, tiny_corpus, tiny_enc):
        lines = []
        pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg(), log=lines.append)
        assert lines[0].startswith("0\tnan\t")
        steps = [int(line.split("\t")[0]) for line in lines]
        assert steps == [0, 4, 8, 12]
        for line in lines:
            assert len(line.split("\t")) == 3

    def test_checkpoint_holds_the_last_evaluation(self, tiny_corpus, tiny_enc):
        lines = []
        ckpt = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg(max_steps=10),
                                sigma=0.07, log=lines.append)
        assert isinstance(ckpt, Checkpoint)
        assert (ckpt.enc_cfg, ckpt.loss_cfg) == (tiny_enc, LossConfig(sigma=0.07, lambda_=0.0))
        assert ckpt.step == 10 and lines[-1].startswith("10\t")
        val_videos, val_texts = tiny_corpus.paired("labeled-val")
        assert ckpt.val_loss == validation_loss(
            ckpt.params, sample_frames(val_videos, tiny_enc), val_texts, tiny_enc, 0.07
        )


class TestSampledCorpus:
    """A corpus loaded sampled to the encoder's frames trains and evaluates to
    the bits of a raw load, and no run writes into its blocks, which
    ``sample_frames`` hands on uncopied."""

    def test_training_and_evaluation_leave_the_blocks_unchanged(self, tmp_path, tiny_synth,
                                                               tiny_enc):
        path = tmp_path / "corpus.dfc"
        gen_corpus(tiny_synth, path)
        raw = load_corpus(path)
        sampled = load_corpus(path, n_frames=tiny_enc.n_frames)
        blocks = {(split, kind): getattr(sampled, kind + "s")(split).features
                  for split in SPLITS for kind in ("video", "text")}
        before = {key: block.tobytes() for key, block in blocks.items()}
        assert sample_frames(blocks[("eval", "video")], tiny_enc) is blocks[("eval", "video")]

        def run(corpus):
            teacher = pretrain_teacher(corpus, tiny_enc, _small_train_cfg())
            student = train_student(teacher.params, corpus, tiny_enc,
                                    LossConfig(sigma=0.05, lambda_=0.9),
                                    _small_train_cfg(lr=3e-4, distill_on_labeled=True))
            inputs = prepare_eval(corpus, tiny_enc, build_prompt_set(corpus.synth,
                                                                     [DEFAULT_TEMPLATE]))
            report = evaluate_model(student.params, inputs, tiny_enc)
            return checkpoint_bytes(teacher), checkpoint_bytes(student), report.summary

        assert run(sampled) == run(raw)
        assert {key: block.tobytes() for key, block in blocks.items()} == before


class TestTrainStudent:
    def test_teacher_untouched_and_checkpoint_valid(self, tiny_corpus, tiny_enc):
        teacher = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg()).params
        before = teacher.values.tobytes()
        record = train_student(
            teacher, tiny_corpus, tiny_enc, LossConfig(sigma=0.05, lambda_=0.999),
            _small_train_cfg(lr=3e-4),
        )
        assert teacher.values.tobytes() == before
        assert np.isfinite(record.val_loss)
        assert record.params.same_layout(teacher)

    def test_best_checkpoint_is_min_over_evals(self, tiny_corpus, tiny_enc):
        teacher = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg()).params
        lines = []
        record = train_student(
            teacher, tiny_corpus, tiny_enc, LossConfig(sigma=0.05, lambda_=0.999),
            _small_train_cfg(lr=3e-4), log=lines.append,
        )
        vals = {int(l.split("\t")[0]): float(l.split("\t")[2]) for l in lines}
        # log lines carry 6 decimals; the record keeps full precision
        assert record.step in vals
        assert record.val_loss == pytest.approx(min(vals.values()), abs=1e-6)
        assert f"{record.val_loss:.6f}" == f"{vals[record.step]:.6f}"
        assert record.val_loss <= vals[0] + 1e-6

    def test_validation_matches_recomputation(self, tiny_corpus, tiny_enc):
        teacher = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg()).params
        record = train_student(
            teacher, tiny_corpus, tiny_enc, LossConfig(sigma=0.05, lambda_=0.999),
            _small_train_cfg(lr=3e-4),
        )
        val_videos, val_texts = tiny_corpus.paired("labeled-val")
        recomputed = validation_loss(
            record.params, sample_frames(val_videos, tiny_enc), val_texts, tiny_enc, 0.05
        )
        assert record.val_loss == recomputed

    def test_pure_finetune_without_unlabeled(self, tiny_synth, tiny_enc):
        corpus = build_corpus(dataclasses.replace(tiny_synth, n_unlabeled=0))
        teacher = pretrain_teacher(corpus, tiny_enc, _small_train_cfg()).params
        record = train_student(
            teacher, corpus, tiny_enc, LossConfig(sigma=0.05, lambda_=0.0),
            _small_train_cfg(lr=3e-4),
        )
        assert np.isfinite(record.val_loss)

    def test_unlabeled_split_is_not_read_without_distillation(self, tiny_corpus, tiny_enc,
                                                              monkeypatch):
        for accessor in ("videos", "texts"):
            def guarded(split, _real=getattr(tiny_corpus, accessor)):
                if split == "unlabeled":
                    raise AssertionError(f"read the {split} split")
                return _real(split)

            monkeypatch.setattr(tiny_corpus, accessor, guarded)
        teacher = init_params(tiny_enc)
        ckpt = train_student(teacher, tiny_corpus, tiny_enc, LossConfig(lambda_=0.0),
                             _small_train_cfg(lr=3e-4))
        assert ckpt.loss_cfg.lambda_ == 0.0
        pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg())

    def test_deterministic(self, tiny_corpus, tiny_enc):
        teacher = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg()).params
        cfg = _small_train_cfg(lr=3e-4)
        loss_cfg = LossConfig(sigma=0.05, lambda_=0.999)
        a = train_student(teacher, tiny_corpus, tiny_enc, loss_cfg, cfg)
        b = train_student(teacher, tiny_corpus, tiny_enc, loss_cfg, cfg)
        assert a.params.values.tobytes() == b.params.values.tobytes()
        assert a.step == b.step and a.val_loss == b.val_loss

    def test_distill_on_labeled_changes_training(self, tiny_corpus, tiny_enc):
        teacher = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg()).params
        loss_cfg = LossConfig(sigma=0.05, lambda_=0.999)
        plain = train_student(teacher, tiny_corpus, tiny_enc, loss_cfg,
                              _small_train_cfg(lr=3e-4))
        flagged = train_student(teacher, tiny_corpus, tiny_enc, loss_cfg,
                                _small_train_cfg(lr=3e-4, distill_on_labeled=True))
        assert not np.array_equal(plain.params.values, flagged.params.values)

    def test_distill_on_labeled_checkpoint_matches_golden(self, tiny_corpus, tiny_enc,
                                                          golden_digests):
        # The acceptance pipeline never distills on labeled batches, so pin this path here.
        teacher = pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg()).params
        loss_cfg = LossConfig(sigma=0.05, lambda_=0.999)
        record = train_student(teacher, tiny_corpus, tiny_enc, loss_cfg,
                               _small_train_cfg(lr=3e-4, distill_on_labeled=True))
        data = checkpoint_bytes(record)
        assert hashlib.sha256(data).hexdigest() == golden_digests["distill_on_labeled_student"]

    def test_undersized_labeled_split_rejected(self, tiny_corpus, tiny_enc):
        teacher = init_params(tiny_enc)
        with pytest.raises(UsageError):
            train_student(
                teacher, tiny_corpus, tiny_enc, LossConfig(),
                _small_train_cfg(batch_size_labeled=16),  # 24 < 2 * 16
            )

    def test_nan_loss_aborts(self, tiny_corpus, tiny_enc, monkeypatch):
        teacher = init_params(tiny_enc)

        def poisoned(*args, **kwargs):
            return float("nan"), ParamVector(np.zeros(teacher.n_params), teacher.layout)

        monkeypatch.setattr(training, "total_loss_grad", poisoned)
        with pytest.raises(TrainingDivergedError):
            train_student(teacher, tiny_corpus, tiny_enc, LossConfig(), _small_train_cfg())


def _poison_gradient_at(monkeypatch, step: int, value: float) -> None:
    """Patch ``total_loss_grad`` so that call ``step`` returns a finite loss and
    a gradient with one ``value`` entry."""
    real = training.total_loss_grad
    calls = []

    def poisoned(*args, **kwargs):
        loss, grad = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == step:
            values = grad.values.copy()
            values[1] = value
            grad = ParamVector(values, grad.layout)
        return loss, grad

    monkeypatch.setattr(training, "total_loss_grad", poisoned)


class TestNonFiniteGradient:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("trainer", ["pretrain_teacher", "train_student"])
    def test_aborts_naming_the_step(self, tiny_corpus, tiny_enc, monkeypatch, trainer, value):
        _poison_gradient_at(monkeypatch, 3, value)
        with pytest.raises(TrainingDivergedError, match="^non-finite gradient at step 3$"):
            if trainer == "pretrain_teacher":
                pretrain_teacher(tiny_corpus, tiny_enc, _small_train_cfg())
            else:
                train_student(init_params(tiny_enc), tiny_corpus, tiny_enc, LossConfig(),
                              _small_train_cfg())


class TestTrainConfig:
    def test_working_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 3e-5
        assert cfg.betas == (0.9, 0.999)
        assert cfg.eps == 1e-8
        assert cfg.weight_decay == 0.01

    def test_validation(self):
        with pytest.raises(UsageError):
            TrainConfig(lr=0.0)
        with pytest.raises(UsageError):
            TrainConfig(batch_size_labeled=1)
        with pytest.raises(UsageError):
            TrainConfig(max_steps=0)
        with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=2**70).seed == 2**70  # not stored in a checkpoint

    @pytest.mark.parametrize("field,value,message", [
        ("weight_decay", -0.5, "weight_decay must be >= 0 and finite, got -0.5"),
        ("weight_decay", math.nan, "weight_decay must be >= 0 and finite, got nan"),
        ("weight_decay", math.inf, "weight_decay must be >= 0 and finite, got inf"),
        ("eps", 0.0, "eps must be positive and finite, got 0.0"),
        ("eps", math.nan, "eps must be positive and finite, got nan"),
        ("eps", math.inf, "eps must be positive and finite, got inf"),
    ])
    def test_rejects_values_naming_the_field(self, field, value, message):
        with pytest.raises(UsageError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == message
