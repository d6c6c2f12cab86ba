"""Training objective: bidirectional contrastive and distillation losses.

The contrastive part is a symmetric InfoNCE over a labeled batch (diagonal
entries of the similarity matrix are the positives). The distillation part is
the cross-entropy of the student's row/column softmax scores against the
teacher's, computed on unlabeled batches. The total is
``contrastive + lambda * distillation`` and has a hand-derived analytic
gradient; gradient correctness is pinned by finite differences elsewhere.

Every term is a function of one logits matrix through its row and column
softmaxes. ``total_loss_grad`` builds each matrix and its softmaxes once per
step and takes the loss and the gradient from them; the public per-term
functions run the same arithmetic, so both routes give the same bits.
``loss_forward`` is the forward half of ``total_loss_grad``; given a stack of
K weight vectors it returns the K losses in one pass, each with the bits of
the one-vector call.

One evaluation encodes all its batches, labeled rows first, in one
``video_forward`` and one ``text_forward`` call; each term reads its batch's
rows as views of that cache. Rows pass through the towers independently, so
this gives the bits of encoding each batch alone. Each batch is checked
before the rows are joined, and errors come in the order and with the
messages that encoding batch after batch gives. The backward pass stays per
batch: a weight gradient summed over the joined rows would sum in another
order and change the bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoder import (
    EmbeddingBatch,
    EncoderConfig,
    ParamVector,
    TowerCache,
    check_text_batch,
    check_video_batch,
    reject_zero_norms,
    text_forward,
    video_forward,
)
from .errors import UsageError
from .numerics import as_matrix, matmul, scaled_dots, similarity_matrix, softmax_pair


@dataclass(frozen=True)
class LossConfig:
    sigma: float = 0.05     # softmax temperature
    lambda_: float = 0.999  # weight on the distillation term

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise UsageError(f"sigma must be positive and finite, got {self.sigma}")
        if not np.isfinite(self.lambda_) or self.lambda_ < 0:
            raise UsageError(f"lambda must be >= 0 and finite, got {self.lambda_}")


@dataclass(eq=False)
class PseudoLabelBatch:
    """Teacher similarity logits over one unlabeled batch, already temperature-scaled."""

    teacher_logits: np.ndarray

    def __post_init__(self):
        self.teacher_logits = as_matrix(self.teacher_logits, "teacher logits")
        if self.teacher_logits.shape[0] != self.teacher_logits.shape[1]:
            raise UsageError(
                f"teacher logits must be square, got {self.teacher_logits.shape}"
            )

    @property
    def batch_size(self) -> int:
        return int(self.teacher_logits.shape[0])


class _Scores(NamedTuple):
    """Softmax and log-softmax of a logits matrix along rows (video-to-text) and columns."""

    p_rows: np.ndarray
    logp_rows: np.ndarray
    p_cols: np.ndarray
    logp_cols: np.ndarray


def _scores(s: np.ndarray) -> _Scores:
    return _Scores(*softmax_pair(s), *softmax_pair(s.swapaxes(-1, -2)))


# The term reductions keep any leading stack axes: a numpy scalar for one
# logits matrix, a (K,) array for a stack. Public entry points return floats.
def _contrastive(sc: _Scores, b: int):
    l_v2t = -np.einsum("...ii->...", sc.logp_rows) / b
    l_t2v = -np.einsum("...ii->...", sc.logp_cols) / b
    return l_v2t + l_t2v, (l_v2t, l_t2v)


def _as_floats(term):
    total, (v2t, t2v) = term
    return float(total), (float(v2t), float(t2v))


def _contrastive_grad(sc: _Scores, b: int) -> np.ndarray:
    eye = np.eye(b)
    return (sc.p_rows - eye) / b + ((sc.p_cols - eye) / b).T


def _distillation(sc: _Scores, teacher: _Scores, b: int):
    l_v2t = -np.einsum("...ij,...ij->...", teacher.p_rows, sc.logp_rows) / b
    l_t2v = -np.einsum("...ij,...ij->...", teacher.p_cols, sc.logp_cols) / b
    return l_v2t + l_t2v, (l_v2t, l_t2v)


def _distillation_grad(sc: _Scores, teacher: _Scores, b: int) -> np.ndarray:
    return (sc.p_rows - teacher.p_rows) / b + ((sc.p_cols - teacher.p_cols) / b).T


def _check_contrastive_size(b: int) -> None:
    if b < 2:
        raise UsageError("contrastive loss needs batch size >= 2 (at least one negative)")


def _check_pseudo_size(b: int, pseudo: PseudoLabelBatch) -> None:
    if b != pseudo.batch_size:
        raise UsageError(
            f"student batch size {b} does not match teacher logits {pseudo.batch_size}"
        )


def contrastive_loss(batch: EmbeddingBatch, cfg: LossConfig):
    """Symmetric InfoNCE on a labeled batch.

    Returns ``(total, (video_to_text, text_to_video))``, each term the mean
    negative log-softmax of the diagonal, so both are >= 0.
    """
    _check_contrastive_size(batch.batch_size)
    s = similarity_matrix(batch.z_v, batch.z_t, cfg.sigma)
    return _as_floats(_contrastive(_scores(s), batch.batch_size))


def distillation_loss(student: EmbeddingBatch, pseudo: PseudoLabelBatch, cfg: LossConfig):
    """Cross-entropy of student scores against teacher soft targets, both directions.

    Row softmaxes give the video-to-text direction, column softmaxes the
    text-to-video direction; each term is bounded below by the matching
    teacher entropy (Gibbs inequality).
    """
    _check_pseudo_size(student.batch_size, pseudo)
    s = similarity_matrix(student.z_v, student.z_t, cfg.sigma)
    return _as_floats(
        _distillation(_scores(s), _scores(pseudo.teacher_logits), student.batch_size)
    )


def total_loss(
    labeled: EmbeddingBatch,
    student_unlabeled: EmbeddingBatch | None,
    pseudo: PseudoLabelBatch | None,
    cfg: LossConfig,
) -> float:
    """Contrastive loss plus lambda times the distillation loss.

    ``student_unlabeled`` and ``pseudo`` may both be None (no distillation
    data), in which case the distillation term is zero.
    """
    value, _ = contrastive_loss(labeled, cfg)
    if (student_unlabeled is None) != (pseudo is None):
        raise UsageError("student_unlabeled and pseudo must be given together")
    if student_unlabeled is not None:
        distill, _ = distillation_loss(student_unlabeled, pseudo, cfg)
        value = value + cfg.lambda_ * distill
    return value


def contrastive_grad_logits(s: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean contrastive loss w.r.t. the logits matrix."""
    s = as_matrix(s, "logits")
    return _contrastive_grad(_scores(s), s.shape[0])


def distillation_grad_logits(student_logits: np.ndarray, teacher_logits: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean distillation loss w.r.t. the student logits.

    Softmax-difference identity: (Q - P) / B summed over both directions, so
    the gradient vanishes exactly when the student matches the teacher.
    """
    s = as_matrix(student_logits, "student logits")
    x = as_matrix(teacher_logits, "teacher logits")
    if s.shape != x.shape or s.shape[0] != s.shape[1]:
        raise UsageError(f"logit shapes must be equal and square, got {s.shape} vs {x.shape}")
    return _distillation_grad(_scores(s), _scores(x), s.shape[0])


def _embedding_grad_backward(
    grads: dict, params: ParamVector, prefix: str, cache: TowerCache, dz: np.ndarray, n_pool: int
) -> None:
    """Backprop dz (w.r.t. unit embeddings) through normalize, pooling, tower."""
    # L2 normalization: du = (g - (g . z) z) / ||u||
    dots = np.einsum("ij,ij->i", dz, cache.z)
    dpooled = (dz - dots[:, None] * cache.z) / cache.norms[:, None]
    w2 = params.tensor(prefix + ".w2")
    if n_pool > 1:
        # A video's frame rows share one gradient row: take dh on the pooled
        # rows and repeat it (row batching keeps the bits).
        dpooled = dpooled / n_pool
        du = np.repeat(dpooled, n_pool, axis=0)
        dh = np.repeat(matmul(dpooled, w2), n_pool, axis=0)
    else:
        du = dpooled
        dh = matmul(du, w2)
    # The weight gradients sum over all frame rows: their summation order is the bits.
    grads[prefix + ".b2"] += np.einsum("ij->j", du)
    grads[prefix + ".w2"] += np.einsum("ij,ik->jk", du, cache.h)
    da = dh * (1.0 - cache.h * cache.h)
    grads[prefix + ".b1"] += np.einsum("ij->j", da)
    grads[prefix + ".w1"] += np.einsum("ij,ik->jk", da, cache.x)


class _Pair(NamedTuple):
    """One batch's forward state: tower caches, logits scores, size, teacher targets."""

    cache_v: TowerCache
    cache_t: TowerCache
    scores: _Scores
    b: int
    target: _Scores | None


def _pair(cache_v: TowerCache, cache_t: TowerCache, cfg: LossConfig,
          target: _Scores | None = None) -> _Pair:
    return _Pair(cache_v, cache_t, _scores(scaled_dots(cache_v.z, cache_t.z, cfg.sigma)),
                 cache_v.z.shape[-2], target)


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _rows(cache: TowerCache, start: int, stop: int, n_pool: int) -> TowerCache:
    """Views of rows ``start:stop`` (pooled rows; ``n_pool`` tower rows each) of a cache."""
    a, z = start * n_pool, stop * n_pool
    return TowerCache(cache.x[a:z], cache.h[..., a:z, :], cache.pooled[..., start:stop, :],
                      cache.norms[..., start:stop], cache.z[..., start:stop, :])


def _encode_batches(params: ParamVector, batches, enc_cfg: EncoderConfig):
    """``(cache_v, cache_t)`` of each ``(videos, texts, size_check)`` batch, as row
    views of one ``video_forward`` and one ``text_forward`` over all their rows.

    Rows pass through the towers independently, so each batch gets the bits of
    encoding it alone. Each batch's input checks and ``size_check(b)`` run
    before the rows are joined, and errors come in the order encoding batch
    after batch raises them: a batch's zero-norm embedding comes before any
    check after its forward. So when a check fails, the batches checked before
    it are still encoded and their norms checked first.
    """
    videos, texts, error = [], [], None
    try:
        for v, t, size_check in batches:
            videos.append(check_video_batch(v, enc_cfg))
            texts.append(check_text_batch(t, enc_cfg))
            b = videos[-1].shape[0]
            if b != texts[-1].shape[0]:
                raise UsageError(f"batch size mismatch: {b} videos vs {texts[-1].shape[0]} texts")
            size_check(b)
    except UsageError as exc:
        error = exc
    if videos:
        joined_v = video_forward(params, _join(videos), enc_cfg, joined=True)
    if texts:
        joined_t = text_forward(params, _join(texts), enc_cfg, joined=True)
    caches, start_v, start_t = [], 0, 0
    for i, v in enumerate(videos):
        cache_v = _rows(joined_v, start_v, start_v + v.shape[0], enc_cfg.n_frames)
        reject_zero_norms(cache_v.norms)
        if i == len(texts):
            break  # this batch's texts failed their check
        cache_t = _rows(joined_t, start_t, start_t + texts[i].shape[0], 1)
        reject_zero_norms(cache_t.norms)
        caches.append((cache_v, cache_t))
        start_v, start_t = start_v + v.shape[0], start_t + texts[i].shape[0]
    if error is not None:
        raise error
    return caches


def _pair_backward(grads, params, cache_v, cache_t, g, cfg: LossConfig, enc_cfg: EncoderConfig):
    """Backprop a logits gradient ``g`` through the similarity into both towers."""
    _embedding_grad_backward(
        grads, params, "video", cache_v, matmul(g, cache_t.z) / cfg.sigma, enc_cfg.n_frames
    )
    _embedding_grad_backward(grads, params, "text", cache_t, matmul(g.T, cache_v.z) / cfg.sigma, 1)


def loss_forward(
    params: ParamVector,
    labeled_videos: np.ndarray,
    labeled_texts,
    unlabeled_videos: np.ndarray | None,
    unlabeled_texts,
    pseudo: PseudoLabelBatch | None,
    cfg: LossConfig,
    enc_cfg: EncoderConfig,
    labeled_pseudo: PseudoLabelBatch | None = None,
):
    """Forward half of ``total_loss_grad``: ``(loss, labeled, unlabeled)``.

    ``labeled``/``unlabeled`` (None without unlabeled inputs) hold the state
    the backward pass needs. When ``params`` stacks K weight vectors, the loss
    is a ``(K,)`` array whose entry k has the bits of the one-vector call on
    row k; otherwise it is a numpy scalar.
    """
    if (unlabeled_videos is None) != (pseudo is None):
        raise UsageError("unlabeled inputs and pseudo labels must be given together")
    batches = [(labeled_videos, labeled_texts, _check_contrastive_size)]
    if pseudo is not None:
        batches.append((unlabeled_videos, unlabeled_texts,
                        lambda b: _check_pseudo_size(b, pseudo)))
    caches = _encode_batches(params, batches, enc_cfg)
    labeled = _pair(*caches[0], cfg)
    unlabeled = None
    if pseudo is not None:
        unlabeled = _pair(*caches[1], cfg, _scores(pseudo.teacher_logits))

    loss, _ = _contrastive(labeled.scores, labeled.b)
    if unlabeled is not None:
        distill, _ = _distillation(unlabeled.scores, unlabeled.target, unlabeled.b)
        loss = loss + cfg.lambda_ * distill
    if labeled_pseudo is not None:
        _check_pseudo_size(labeled.b, labeled_pseudo)
        labeled = labeled._replace(target=_scores(labeled_pseudo.teacher_logits))
        extra, _ = _distillation(labeled.scores, labeled.target, labeled.b)
        loss = loss + cfg.lambda_ * extra
    return loss, labeled, unlabeled


def total_loss_grad(
    params: ParamVector,
    labeled_videos: np.ndarray,
    labeled_texts,
    unlabeled_videos: np.ndarray | None,
    unlabeled_texts,
    pseudo: PseudoLabelBatch | None,
    cfg: LossConfig,
    enc_cfg: EncoderConfig,
    labeled_pseudo: PseudoLabelBatch | None = None,
):
    """Loss and analytic gradient of the combined objective w.r.t. ``params``.

    Videos are sampled frame arrays (``encoder.sample_frames``). Encodes the
    inputs with ``params``, builds each batch's logits matrix and softmaxes
    once, and takes from them both the loss (bit-identical to ``total_loss``
    on the same embeddings) and the gradient, backpropagated through the
    softmax blocks, similarity, normalization, pooling, and both towers.
    ``labeled_pseudo`` optionally adds a distillation term on the labeled
    batch as well.

    Returns ``(loss, grad)`` with ``grad.layout == params.layout``.
    """
    loss, labeled, unlabeled = loss_forward(
        params, labeled_videos, labeled_texts, unlabeled_videos, unlabeled_texts,
        pseudo, cfg, enc_cfg, labeled_pseudo,
    )
    g_l = _contrastive_grad(labeled.scores, labeled.b)
    if labeled.target is not None:
        g_l = g_l + cfg.lambda_ * _distillation_grad(labeled.scores, labeled.target, labeled.b)

    grad = ParamVector(np.zeros(params.n_params), params.layout)
    grads = {name: grad.tensor(name) for name, _ in params.layout}  # views into grad
    _pair_backward(grads, params, labeled.cache_v, labeled.cache_t, g_l, cfg, enc_cfg)
    if unlabeled is not None and cfg.lambda_ != 0.0:
        g_u = cfg.lambda_ * _distillation_grad(unlabeled.scores, unlabeled.target, unlabeled.b)
        _pair_backward(grads, params, unlabeled.cache_v, unlabeled.cache_t, g_u, cfg, enc_cfg)
    return float(loss), grad
