"""Training objective: one symmetric cross-entropy, summed over a term list.

Every loss term scores one batch's similarity logits against a target: the
row softmax (video-to-text) and the column softmax (text-to-video) of the
logits each take the cross-entropy against the matching softmax of the
target, averaged over the batch, and the two directions add.
``cross_entropy`` is that term and ``cross_entropy_grad`` its logits
gradient ``(P - Q)/b + ((P_c - Q_c)/b).T``. A target of None is the
diagonal, which makes the term CLIP's symmetric InfoNCE on labeled pairs;
the frozen teacher's logits make it soft-target distillation.

``loss_forward`` and ``total_loss_grad`` take a list of ``(videos, texts)``
batches and a list of ``(batch index, teacher logits or None, weight)``
terms (``LossConfig.terms`` builds the objective's list) and sum the
weighted terms in list order; each batch's logits gradient sums its own
terms in list order. ``loss_forward`` is the forward half of
``total_loss_grad``; given a stack of K weight vectors it returns the K
losses in one pass, each with the bits of the one-vector call.

One evaluation encodes all its batches in one ``video_forward`` and one
``text_forward`` call; each term reads its batch's rows as views of that
cache. Rows pass through the towers independently, so this gives the bits
of encoding each batch alone. Every batch's input and size checks run
before that forward, and its zero-norm checks after it, both in batch order.
The backward pass stays per batch: a weight gradient summed over the joined
rows would sum in another order and change the bits. A batch whose terms
all weigh 0 adds to the loss but skips its backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .encoder import (
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
from .numerics import matmul, scaled_dots, softmax_pair


@dataclass(frozen=True)
class LossConfig:
    sigma: float = field(default=0.05, metadata={"help": "softmax temperature"})
    lambda_: float = field(default=0.999, metadata={"help": "distillation weight"})

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise UsageError(f"sigma must be positive and finite, got {self.sigma}")
        if not np.isfinite(self.lambda_) or self.lambda_ < 0:
            raise UsageError(f"lambda must be >= 0 and finite, got {self.lambda_}")

    def terms(self, pseudo: np.ndarray | None = None,
              labeled_pseudo: np.ndarray | None = None) -> list:
        """The objective's terms over batches ``[labeled, unlabeled]``: InfoNCE on
        the labeled batch, then lambda times distillation against ``pseudo`` on
        the unlabeled batch and against ``labeled_pseudo`` on the labeled one."""
        terms = [(0, None, 1.0)]
        if pseudo is not None:
            terms.append((1, pseudo, self.lambda_))
        if labeled_pseudo is not None:
            terms.append((0, labeled_pseudo, self.lambda_))
        return terms


class _Scores(NamedTuple):
    """Softmax and log-softmax of a logits matrix along rows (video-to-text) and columns."""

    p_rows: np.ndarray
    logp_rows: np.ndarray
    p_cols: np.ndarray
    logp_cols: np.ndarray


def _scores(s: np.ndarray) -> _Scores:
    return _Scores(*softmax_pair(s), *softmax_pair(s.swapaxes(-1, -2)))


def cross_entropy(sc: _Scores, target: _Scores | None):
    """Batch-mean cross-entropy of both softmaxes of ``sc`` against ``target``'s
    (None: the diagonal), directions summed. Keeps any leading stack axes: a
    numpy scalar for one logits matrix, a ``(K,)`` array for a stack."""
    b = sc.p_rows.shape[-1]
    if target is None:
        return (-np.einsum("...ii->...", sc.logp_rows) / b
                + -np.einsum("...ii->...", sc.logp_cols) / b)
    return (-np.einsum("...ij,...ij->...", target.p_rows, sc.logp_rows) / b
            + -np.einsum("...ij,...ij->...", target.p_cols, sc.logp_cols) / b)


def cross_entropy_grad(sc: _Scores, target: _Scores | None) -> np.ndarray:
    """Gradient of ``cross_entropy`` w.r.t. one logits matrix: ``(P - Q)/b + ((P_c - Q_c)/b).T``.

    It vanishes exactly when the student's softmaxes equal the target's.
    """
    b = sc.p_rows.shape[-1]
    q_rows, q_cols = (np.eye(b),) * 2 if target is None else (target.p_rows, target.p_cols)
    return (sc.p_rows - q_rows) / b + ((sc.p_cols - q_cols) / b).T


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


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _rows(cache: TowerCache, start: int, stop: int, n_pool: int) -> TowerCache:
    """Views of rows ``start:stop`` (pooled rows; ``n_pool`` tower rows each) of a cache."""
    a, z = start * n_pool, stop * n_pool
    return TowerCache(cache.x[a:z], cache.h[..., a:z, :], cache.pooled[..., start:stop, :],
                      cache.norms[..., start:stop], cache.z[..., start:stop, :])


def _check_target(b: int, target) -> None:
    if target is None:
        if b < 2:
            raise UsageError("contrastive loss needs batch size >= 2 (at least one negative)")
    elif target.shape != (b, b):
        raise UsageError(f"student batch size {b} does not match teacher logits {target.shape[0]}")


def _encode_batches(params: ParamVector, batches, terms, enc_cfg: EncoderConfig):
    """``(cache_v, cache_t)`` of each ``(videos, texts)`` batch, as row views of one
    ``video_forward`` and one ``text_forward`` over all their rows.

    Each batch's input checks and its terms' size checks run, batch by batch,
    before the forward; each batch's zero-norm checks run, batch by batch,
    after it. A zero-norm row is named by its index within its batch.
    """
    videos, texts = [], []
    for i, (v, t) in enumerate(batches):
        videos.append(check_video_batch(v, enc_cfg))
        texts.append(check_text_batch(t, enc_cfg))
        b = videos[-1].shape[0]
        if b != texts[-1].shape[0]:
            raise UsageError(f"batch size mismatch: {b} videos vs {texts[-1].shape[0]} texts")
        for j, target, _ in terms:
            if j == i:
                _check_target(b, target)
    joined_v = video_forward(params, _join(videos), enc_cfg)
    joined_t = text_forward(params, _join(texts), enc_cfg)
    caches, start = [], 0
    for v in videos:
        stop = start + v.shape[0]
        cache_v = _rows(joined_v, start, stop, enc_cfg.n_frames)
        cache_t = _rows(joined_t, start, stop, 1)
        reject_zero_norms(cache_v.norms)
        reject_zero_norms(cache_t.norms)
        caches.append((cache_v, cache_t))
        start = stop
    return caches


def _pair_backward(grads, params, cache_v, cache_t, g, sigma: float, enc_cfg: EncoderConfig):
    """Backprop a logits gradient ``g`` through the similarity into both towers."""
    _embedding_grad_backward(
        grads, params, "video", cache_v, matmul(g, cache_t.z) / sigma, enc_cfg.n_frames
    )
    _embedding_grad_backward(grads, params, "text", cache_t, matmul(g.T, cache_v.z) / sigma, 1)


def _term_sum(embeddings, terms, sigma: float):
    """``(loss, scores, targets)`` from each batch's ``(z_v, z_t)``: the weighted
    terms summed in list order, each batch's logits softmaxes and each term's
    target softmaxes."""
    scores = [_scores(scaled_dots(z_v, z_t, sigma)) for z_v, z_t in embeddings]
    targets = [None if teacher is None else _scores(teacher) for _, teacher, _ in terms]
    loss = None
    for (i, _, weight), target in zip(terms, targets):
        value = weight * cross_entropy(scores[i], target)
        loss = value if loss is None else loss + value
    return loss, scores, targets


def loss_forward(params: ParamVector, batches, terms, sigma: float, enc_cfg: EncoderConfig):
    """Forward half of ``total_loss_grad``: the loss alone.

    The tower caches are freed before the softmaxes are taken; only the
    embeddings are kept. When ``params`` stacks K weight vectors, the loss is
    a ``(K,)`` array whose entry k has the bits of the one-vector call on row
    k; otherwise it is a numpy scalar.
    """
    embeddings = [(cv.z, ct.z) for cv, ct in _encode_batches(params, batches, terms, enc_cfg)]
    return _term_sum(embeddings, terms, sigma)[0]


def total_loss_grad(params: ParamVector, batches, terms, sigma: float, enc_cfg: EncoderConfig):
    """Loss and analytic gradient of the weighted term sum w.r.t. ``params``.

    Videos are sampled frame arrays (``encoder.sample_frames``). Takes the
    loss and each batch's logits gradient from one set of softmaxes, and
    backpropagates the latter through the similarity, normalization, pooling
    and both towers, batch by batch.

    Returns ``(loss, grad)`` with ``grad.layout == params.layout``.
    """
    caches = _encode_batches(params, batches, terms, enc_cfg)
    loss, scores, targets = _term_sum([(cv.z, ct.z) for cv, ct in caches], terms, sigma)
    grad = ParamVector(np.zeros(params.n_params), params.layout)
    grads = {name: grad.tensor(name) for name, _ in params.layout}  # views into grad
    for i, (cache_v, cache_t) in enumerate(caches):
        own = [(weight, target) for (j, _, weight), target in zip(terms, targets) if j == i]
        if all(weight == 0.0 for weight, _ in own):
            continue
        g = None
        for weight, target in own:
            value = weight * cross_entropy_grad(scores[i], target)
            g = value if g is None else g + value
        _pair_backward(grads, params, cache_v, cache_t, g, sigma, enc_cfg)
    return float(loss), grad
