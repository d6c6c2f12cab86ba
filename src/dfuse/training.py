"""Deterministic training: AdamW and one training loop for teacher and student.

Teacher pretraining and student training run the same loop. Teacher
pretraining starts from a seeded init with the distillation weight at 0,
which leaves the contrastive loss on single-frame pairs, and keeps the final
weights. Student training starts from the teacher weights, combines the
contrastive loss on labeled batches with teacher-distillation on unlabeled
batches, and keeps the weights with the lowest labeled validation loss. Both
return a ``checkpointio.Checkpoint``. Everything is seeded; identical inputs
give bit-identical outputs.

Each run frame-samples every split's features block once (``sample_frames``)
and gathers batch rows from the dense arrays; the frozen teacher encodes the
unlabeled pool (and the labeled-train split, when distilling on it) once per
run, and each step's pseudo-labels are the logits of the gathered rows.
Row-wise encoding makes this bit-identical to encoding every batch afresh.

Every loss is a term list over ``[labeled, unlabeled]`` batches, built by
``LossConfig.terms`` and evaluated by ``losses.total_loss_grad``: InfoNCE on
the labeled batch, lambda times distillation on the unlabeled batch, and,
with ``distill_on_labeled``, lambda times distillation on the labeled batch.
Teacher pretraining uses the first term alone, and ``validation_loss`` is
that term over the whole held-out split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpointio import Checkpoint
from .encoder import EncoderConfig, ParamVector, encode_sampled, init_params, sample_frames
from .errors import TrainingDivergedError, UsageError
from .losses import LossConfig, loss_forward, total_loss_grad
from .numerics import similarity_matrix

_LABELED_STREAM = 101
_UNLABELED_VIDEO_STREAM = 102
_UNLABELED_TEXT_STREAM = 103


@dataclass(frozen=True)
class TrainConfig:
    lr: float = field(default=3e-5, metadata={"help": "AdamW learning rate"})
    batch_size_labeled: int = field(default=32, metadata={"help": "labeled batch size"})
    batch_size_unlabeled: int = field(default=32, metadata={"help": "unlabeled batch size"})
    max_steps: int = field(default=2000, metadata={"help": "optimization steps"})
    eval_every: int = field(default=100, metadata={"help": "validation cadence in steps"})
    seed: int = field(default=0, metadata={"help": "shuffling seed (a teacher's init seed too)"})
    weight_decay: float = field(default=0.01, metadata={"help": "AdamW decoupled weight decay"})
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    distill_on_labeled: bool = field(
        default=False, metadata={"help": "also distill on labeled batches"})

    def __post_init__(self):
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise UsageError(f"lr must be positive, got {self.lr}")
        if self.batch_size_labeled < 2 or self.batch_size_unlabeled < 2:
            raise UsageError("batch sizes must be >= 2")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")
        if self.eval_every < 1:
            raise UsageError("eval_every must be >= 1")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise UsageError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        b1, b2 = self.betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise UsageError("betas must lie in [0, 1)")
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise UsageError(f"eps must be positive and finite, got {self.eps}")


@dataclass(eq=False)
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optimizer_state(params: ParamVector) -> OptimizerState:
    return OptimizerState(np.zeros_like(params.values), np.zeros_like(params.values), 0)


def adamw_step(
    params: ParamVector, grad: ParamVector, state: OptimizerState, cfg: TrainConfig
):
    """One AdamW update with bias correction and decoupled weight decay.

    Pure: returns new ``(params, state)`` without touching the inputs.
    """
    if not params.same_layout(grad):
        raise UsageError("gradient layout does not match parameter layout")
    if state.m.shape != params.values.shape:
        raise UsageError("optimizer state shape does not match parameters")
    b1, b2 = cfg.betas
    t = state.step + 1
    g = grad.values
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and the update
    # lr (m_hat / (sqrt(v_hat) + eps)), in that operation order, into reused temporaries.
    m = b1 * state.m
    term = (1.0 - b1) * g
    m += term
    v = b2 * state.v
    np.multiply(1.0 - b2, g, out=term)
    term *= g
    v += term
    denom = np.divide(v, 1.0 - b2**t, out=term)
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    update = m / (1.0 - b1**t)
    update /= denom
    update *= cfg.lr
    new_values = params.values * (1.0 - cfg.lr * cfg.weight_decay)
    new_values -= update
    return ParamVector(new_values, params.layout), OptimizerState(m, v, t)


class _IndexBatcher:
    """Constant-size minibatches from reshuffled permutations (drops remainders)."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if batch_size > n:
            raise UsageError(f"batch size {batch_size} exceeds population {n}")
        self._n = n
        self._batch = batch_size
        self._rng = rng
        self._perm = rng.permutation(n)
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self._pos + self._batch > self._n:
            self._perm = self._rng.permutation(self._n)
            self._pos = 0
        out = self._perm[self._pos:self._pos + self._batch]
        self._pos += self._batch
        return out


def make_pseudo_labels(teacher_v: np.ndarray, teacher_t: np.ndarray, sigma: float) -> np.ndarray:
    """Teacher similarity logits over one batch of teacher video/text embeddings:
    the distillation target of a loss term, already temperature-scaled."""
    if len(teacher_v) != len(teacher_t):
        raise UsageError(f"batch has {len(teacher_v)} videos but {len(teacher_t)} texts")
    if len(teacher_v) < 2:
        raise UsageError("pseudo labels need batch size >= 2 (no negatives otherwise)")
    return similarity_matrix(teacher_v, teacher_t, sigma)


def validation_loss(params, frames, texts, enc_cfg, sigma: float) -> float:
    """Contrastive-only loss over a full held-out split (sampled frames), in corpus order."""
    terms = LossConfig(sigma=sigma, lambda_=0.0).terms()
    return float(loss_forward(params, [(frames, texts)], terms, sigma, enc_cfg))


def _check_step(loss: float, grad: ParamVector, step: int) -> None:
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss} at step {step}")
    if not np.isfinite(grad.values).all():
        raise TrainingDivergedError(f"non-finite gradient at step {step}")


def _log_line(log, step: int, train_loss: float, val_loss: float) -> None:
    if log is not None:
        log(f"{step}\t{train_loss:.6f}\t{val_loss:.6f}")


def _evaluations(init: ParamVector, corpus, enc_cfg: EncoderConfig, loss_cfg: LossConfig,
                 train_cfg: TrainConfig, log):
    """Train from ``init``; yield ``(step, params, val_loss)`` at step 0 and every eval step.

    Each step draws one labeled batch and, when distilling, one unlabeled
    batch (seeded shuffling), takes the soft targets of the frozen teacher
    ``init`` for the unlabeled batch from its once-per-run encoding of the
    pool, and takes one combined gradient step. Every ``eval_every`` steps,
    and at the last step, it evaluates the contrastive loss on the labeled
    validation split. The unlabeled split is read only when lambda is not 0.
    """
    train_videos, train_texts = corpus.paired("labeled-train")
    val_videos, val_texts = corpus.paired("labeled-val")
    if len(train_videos) == 0 or len(val_videos) == 0:
        raise UsageError("training needs non-empty labeled-train and labeled-val splits")
    if len(train_videos) < 2 * train_cfg.batch_size_labeled:
        raise UsageError(
            f"labeled-train split has {len(train_videos)} pairs; "
            f"needs >= {2 * train_cfg.batch_size_labeled}"
        )
    use_distill = False
    if loss_cfg.lambda_ != 0.0:
        unlabeled_videos = corpus.videos("unlabeled").features
        unlabeled_texts = corpus.texts("unlabeled").features
        use_distill = len(unlabeled_videos) > 0
    train_frames = sample_frames(train_videos, enc_cfg)
    val_frames = sample_frames(val_videos, enc_cfg)

    params = init.copy()
    state = init_optimizer_state(params)
    labeled_batcher = _IndexBatcher(
        len(train_videos), train_cfg.batch_size_labeled,
        np.random.default_rng([train_cfg.seed, _LABELED_STREAM]),
    )
    if use_distill:
        video_batcher = _IndexBatcher(
            len(unlabeled_videos), train_cfg.batch_size_unlabeled,
            np.random.default_rng([train_cfg.seed, _UNLABELED_VIDEO_STREAM]),
        )
        text_batcher = _IndexBatcher(
            len(unlabeled_texts), train_cfg.batch_size_unlabeled,
            np.random.default_rng([train_cfg.seed, _UNLABELED_TEXT_STREAM]),
        )
        unlabeled_frames = sample_frames(unlabeled_videos, enc_cfg)
        teacher_uv, teacher_ut = encode_sampled(init, unlabeled_frames, unlabeled_texts, enc_cfg)
        if train_cfg.distill_on_labeled:
            teacher_lv, teacher_lt = encode_sampled(init, train_frames, train_texts, enc_cfg)

    val = validation_loss(params, val_frames, val_texts, enc_cfg, loss_cfg.sigma)
    _log_line(log, 0, float("nan"), val)
    yield 0, params, val

    for step in range(1, train_cfg.max_steps + 1):
        idx = labeled_batcher.next_batch()
        unlabeled, pseudo, labeled_pseudo = [], None, None
        if use_distill:
            vidx = video_batcher.next_batch()
            tidx = text_batcher.next_batch()
            unlabeled = [(unlabeled_frames[vidx], unlabeled_texts[tidx])]
            pseudo = make_pseudo_labels(teacher_uv[vidx], teacher_ut[tidx], loss_cfg.sigma)
            if train_cfg.distill_on_labeled:
                labeled_pseudo = make_pseudo_labels(
                    teacher_lv[idx], teacher_lt[idx], loss_cfg.sigma
                )
        loss, grad = total_loss_grad(
            params, [(train_frames[idx], train_texts[idx])] + unlabeled,
            loss_cfg.terms(pseudo, labeled_pseudo), loss_cfg.sigma, enc_cfg,
        )
        _check_step(loss, grad, step)
        params, state = adamw_step(params, grad, state, train_cfg)
        if step % train_cfg.eval_every == 0 or step == train_cfg.max_steps:
            val = validation_loss(params, val_frames, val_texts, enc_cfg, loss_cfg.sigma)
            _log_line(log, step, loss, val)
            yield step, params, val


def pretrain_teacher(corpus, enc_cfg: EncoderConfig, train_cfg: TrainConfig,
                     sigma: float = 0.05, log=None) -> Checkpoint:
    """Contrastive-only pretraining from a seeded init; returns the final weights.

    Stands in for a large pretrained image-text model: the corpus is expected
    to hold T=1 video records paired with texts. The distillation weight is
    zero, so the unlabeled split is never read.
    """
    loss_cfg = LossConfig(sigma=sigma, lambda_=0.0)
    for step, params, val in _evaluations(
            init_params(enc_cfg), corpus, enc_cfg, loss_cfg, train_cfg, log):
        pass
    return Checkpoint(enc_cfg, loss_cfg, params, step, val)


def train_student(
    teacher: ParamVector,
    corpus,
    enc_cfg: EncoderConfig,
    loss_cfg: LossConfig,
    train_cfg: TrainConfig,
    log=None,
) -> Checkpoint:
    """Train a student from teacher init; select by labeled validation loss.

    The frozen teacher gives the distillation targets. The returned
    checkpoint holds the parameters with the minimum validation loss over all
    evaluations, including the step-0 one; of equal losses, the first.
    """
    best = None
    for step, params, val in _evaluations(teacher, corpus, enc_cfg, loss_cfg, train_cfg, log):
        if best is None or val < best.val_loss:
            best = Checkpoint(enc_cfg, loss_cfg, params, step, val)
    return best
