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
``text_forward`` call; each batch's rows are a span of that joined cache.
Rows pass through the towers independently, so this gives the bits of
encoding each batch alone. Every batch's input and size checks run before
that forward, in batch order; after it, one test per tower finds any
zero-norm row, and only then does a batch-order pass name the first.

The softmaxes of all same-shape logits and target matrices come from one
stacked ``softmax_pair`` over the rows and one over that stack's
``swapaxes`` view for the columns; every slice has the bits of its own
2-D call on a C-ordered matrix. The stack is a C-ordered copy, so a
teacher's logits read as their C-ordered copy whatever their memory layout:
a transposed view or a Fortran-ordered array gives the bits of
``np.ascontiguousarray`` of it. The backward pass runs once over the joined rows: each batch's
logits gradient writes its embedding gradients into a span of one array
per tower, and normalization, pooling, ``dh`` and ``da`` run over all rows
at once. Each weight and bias gradient stays a 2-D einsum over one batch's
span, added in batch order: a sum over the joined rows would sum in another
order and change the bits. A batch whose terms all weigh 0 adds to the loss
but to no gradient.
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
from .numerics import ZERO_NORM_THRESHOLD, matmul, scaled_dots, softmax_pair


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


def _scores(mats: list) -> list[_Scores]:
    """``_Scores`` of each matrix, from one stacked ``softmax_pair`` per shape over the
    rows and one over that stack's ``swapaxes`` view for the columns. Each matrix
    is read as its C-ordered copy."""
    groups: dict[tuple, list[int]] = {}
    for k, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(k)
    out = [None] * len(mats)
    for ks in groups.values():
        stack = np.stack([mats[k] for k in ks])
        p_rows, logp_rows = softmax_pair(stack)
        p_cols, logp_cols = softmax_pair(stack.swapaxes(-1, -2))
        for n, k in enumerate(ks):
            out[k] = _Scores(p_rows[n], logp_rows[n], p_cols[n], logp_cols[n])
    return out


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
    if target is None:  # Q is the identity: subtracting its zeros changes no bit
        rows, cols = sc.p_rows.copy(), sc.p_cols.copy()
        rows.reshape(-1)[::b + 1] -= 1.0
        cols.reshape(-1)[::b + 1] -= 1.0
    else:
        rows, cols = sc.p_rows - target.p_rows, sc.p_cols - target.p_cols
    rows /= b
    cols /= b
    rows += cols.T
    return rows


def _tower_backward(grad: ParamVector, params: ParamVector, prefix: str, cache: TowerCache,
                    dz: np.ndarray, n_pool: int, spans) -> None:
    """Backprop ``dz`` (w.r.t. unit embeddings; overwritten) through normalize,
    pooling and one tower over all of ``cache``'s rows, then add each weight
    gradient over the pooled rows ``start:stop`` of each span, in span order."""
    # L2 normalization: du = (g - (g . z) z) / ||u||
    dots = np.einsum("ij,ij->i", dz, cache.z)
    dz -= dots[:, None] * cache.z
    dz /= cache.norms[:, None]
    w2 = params.tensor(prefix + ".w2")
    if n_pool > 1:
        # A video's frame rows share one gradient row: take dh on the pooled
        # rows and repeat it (row batching keeps the bits).
        dz /= n_pool
        du = np.repeat(dz, n_pool, axis=0)
        dh = np.repeat(matmul(dz, w2), n_pool, axis=0)
    else:
        du = dz
        dh = matmul(du, w2)
    da = cache.h * cache.h
    np.subtract(1.0, da, out=da)
    da *= dh
    # The weight gradients sum over one batch's frame rows at a time, batches
    # in order: their summation order is the bits.
    g_b2, g_w2, g_b1, g_w1 = (grad.tensor(f"{prefix}.{n}") for n in ("b2", "w2", "b1", "w1"))
    for start, stop in spans:
        a, z = start * n_pool, stop * n_pool
        g_b2 += np.einsum("ij->j", du[a:z])
        g_w2 += np.einsum("ij,ik->jk", du[a:z], cache.h[a:z])
        g_b1 += np.einsum("ij->j", da[a:z])
        g_w1 += np.einsum("ij,ik->jk", da[a:z], cache.x[a:z])


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _check_target(b: int, target) -> None:
    if target is None:
        if b < 2:
            raise UsageError("contrastive loss needs batch size >= 2 (at least one negative)")
    elif target.shape != (b, b):
        raise UsageError(f"student batch size {b} does not match teacher logits {target.shape[0]}")


def _encode_batches(params: ParamVector, batches, terms, enc_cfg: EncoderConfig):
    """``(cache_v, cache_t, spans)``: one ``video_forward`` and one ``text_forward``
    over the rows of all ``(videos, texts)`` batches, and each batch's
    ``(start, stop)`` pooled rows in them.

    Each batch's input checks and its terms' size checks run, batch by batch,
    before the forward. After it, each tower's norms are tested at once; only
    when one is below the threshold does a batch-by-batch pass name the first
    zero-norm row, by its index within its batch.
    """
    videos, texts, spans = [], [], []
    for i, (v, t) in enumerate(batches):
        videos.append(check_video_batch(v, enc_cfg))
        texts.append(check_text_batch(t, enc_cfg))
        b = videos[-1].shape[0]
        if b != texts[-1].shape[0]:
            raise UsageError(f"batch size mismatch: {b} videos vs {texts[-1].shape[0]} texts")
        for j, target, _ in terms:
            if j == i:
                _check_target(b, target)
        start = spans[-1][1] if spans else 0
        spans.append((start, start + b))
    cache_v = video_forward(params, _join(videos), enc_cfg)
    cache_t = text_forward(params, _join(texts), enc_cfg)
    # Written so that a NaN norm, which hides any zero norm from min(), takes the pass too.
    if not (cache_v.norms.min() >= ZERO_NORM_THRESHOLD
            and cache_t.norms.min() >= ZERO_NORM_THRESHOLD):
        for start, stop in spans:
            reject_zero_norms(cache_v.norms[..., start:stop])
            reject_zero_norms(cache_t.norms[..., start:stop])
    return cache_v, cache_t, spans


def _term_sum(z_v, z_t, spans, terms, sigma: float):
    """``(loss, scores, targets)`` from the joined embeddings: the weighted terms
    summed in list order, each batch's logits softmaxes and each term's target
    softmaxes."""
    logits = [scaled_dots(z_v[..., a:z, :], z_t[..., a:z, :], sigma) for a, z in spans]
    teachers = [teacher for _, teacher, _ in terms if teacher is not None]
    every = _scores(logits + teachers)
    scores, teacher_scores = every[:len(logits)], iter(every[len(logits):])
    targets = [None if teacher is None else next(teacher_scores) for _, teacher, _ in terms]
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
    cache_v, cache_t, spans = _encode_batches(params, batches, terms, enc_cfg)
    z_v, z_t = cache_v.z, cache_t.z
    del cache_v, cache_t
    return _term_sum(z_v, z_t, spans, terms, sigma)[0]


def total_loss_grad(params: ParamVector, batches, terms, sigma: float, enc_cfg: EncoderConfig):
    """Loss and analytic gradient of the weighted term sum w.r.t. ``params``.

    Videos are sampled frame arrays (``encoder.sample_frames``). Takes the
    loss and each batch's logits gradient from one set of softmaxes, writes
    each batch's embedding gradients into the rows of one joined array per
    tower, and backpropagates those through normalization, pooling and both
    towers in one pass.

    Returns ``(loss, grad)`` with ``grad.layout == params.layout``.
    """
    cache_v, cache_t, spans = _encode_batches(params, batches, terms, enc_cfg)
    loss, scores, targets = _term_sum(cache_v.z, cache_t.z, spans, terms, sigma)
    dz_v, dz_t = np.zeros_like(cache_v.z), np.zeros_like(cache_t.z)
    active = []
    for i, (a, z) in enumerate(spans):
        own = [(weight, target) for (j, _, weight), target in zip(terms, targets) if j == i]
        if all(weight == 0.0 for weight, _ in own):
            continue  # its rows keep a zero gradient and add to no weight gradient
        g = None
        for weight, target in own:
            value = weight * cross_entropy_grad(scores[i], target)
            g = value if g is None else g + value
        matmul(g, cache_t.z[a:z], out=dz_v[a:z])
        matmul(g.T, cache_v.z[a:z], out=dz_t[a:z])
        active.append((a, z))
    dz_v /= sigma
    dz_t /= sigma
    grad = ParamVector(np.zeros(params.n_params), params.layout)
    _tower_backward(grad, params, "video", cache_v, dz_v, enc_cfg.n_frames, active)
    _tower_backward(grad, params, "text", cache_t, dz_t, 1, active)
    return float(loss), grad
