"""Straight-line float64 reference implementations used as test oracles.

No vectorization, no stability tricks: plain exp/log/sum loops written
directly from the definitions (batch-mean reductions included). The
production path must agree with these within tight absolute tolerances on
random instances; the oracles never share code with it.
"""

import math
from collections import namedtuple

import numpy as np


def naive_softmax_row(row):
    es = [math.exp(float(x)) for x in row]
    total = sum(es)
    return [e / total for e in es]


def naive_similarity(a, b, sigma):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b)):
            acc = 0.0
            for k in range(len(a[i])):
                acc += float(a[i][k]) * float(b[j][k])
            row.append(acc / sigma)
        out.append(row)
    return out


def naive_contrastive(z_v, z_t, sigma):
    b = len(z_v)
    s = naive_similarity(z_v, z_t, sigma)
    l_v2t = 0.0
    for i in range(b):
        denom = sum(math.exp(s[i][j]) for j in range(b))
        l_v2t += -math.log(math.exp(s[i][i]) / denom)
    l_v2t /= b
    l_t2v = 0.0
    for j in range(b):
        denom = sum(math.exp(s[i][j]) for i in range(b))
        l_t2v += -math.log(math.exp(s[j][j]) / denom)
    l_t2v /= b
    return l_v2t + l_t2v, (l_v2t, l_t2v)


def naive_distillation(z_v, z_t, teacher_logits, sigma):
    b = len(z_v)
    s = naive_similarity(z_v, z_t, sigma)
    x = teacher_logits
    l_v2t = 0.0
    for i in range(b):
        p_denom = sum(math.exp(float(x[i][j])) for j in range(b))
        q_denom = sum(math.exp(s[i][j]) for j in range(b))
        for j in range(b):
            p = math.exp(float(x[i][j])) / p_denom
            q = math.exp(s[i][j]) / q_denom
            l_v2t += -p * math.log(q)
    l_v2t /= b
    l_t2v = 0.0
    for j in range(b):
        p_denom = sum(math.exp(float(x[i][j])) for i in range(b))
        q_denom = sum(math.exp(s[i][j]) for i in range(b))
        for i in range(b):
            p = math.exp(float(x[i][j])) / p_denom
            q = math.exp(s[i][j]) / q_denom
            l_t2v += -p * math.log(q)
    l_t2v /= b
    return l_v2t + l_t2v, (l_v2t, l_t2v)


def naive_total(z_v_l, z_t_l, z_v_u, z_t_u, teacher_logits, sigma, lam):
    contrastive, _ = naive_contrastive(z_v_l, z_t_l, sigma)
    distill, _ = naive_distillation(z_v_u, z_t_u, teacher_logits, sigma)
    return contrastive + lam * distill


def naive_finite_difference_grad(loss_of, values, h=1e-5):
    """Central differences, one coordinate at a time: ``loss_of`` maps a flat
    float64 weight array to a float. Perturbs a fresh copy per evaluation."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        plus = values.copy()
        plus[i] += h
        minus = values.copy()
        minus[i] -= h
        grad[i] = (loss_of(plus) - loss_of(minus)) / (2.0 * h)
    return grad


def naive_video_forward(params, frames, cfg):
    """The video tower on every frame row of a sampled ``(B, n_frames, d_v)``
    array (no shared still-image pass), then mean pooling and L2 normalization.
    Returns ``TowerCache`` fields ``(x, h, pooled, norms, z)``; a stacked
    ``(K, P)`` ``params`` gives a leading K axis. Like ``video_forward``, it
    checks neither the input nor the norms."""
    from dfuse.encoder import TowerCache

    b, n, d = frames.shape
    x = np.ascontiguousarray(frames, dtype=np.float64).reshape(b * n, d)

    def affine(rows, name):
        w = params.tensor(f"video.{name[0]}")
        bias = params.tensor(f"video.{name[1]}")
        return np.einsum("...ij,...kj->...ik", rows, w, optimize=False) + bias[..., None, :]

    h = np.tanh(affine(x, ("w1", "b1")))
    u = affine(h, ("w2", "b2"))
    pooled = np.einsum("...bne->...be", u.reshape(u.shape[:-2] + (b, n, -1))) / n
    norms = np.sqrt(np.einsum("...ij,...ij->...i", pooled, pooled))
    return TowerCache(x, h, pooled, norms, pooled / norms[..., None])


def naive_tower_backward(grads, params, prefix, cache, dz, n_pool):
    """Backprop ``dz`` through normalization, pooling and one tower with the
    pooled gradient repeated to every frame row before any product; adds into
    ``grads[name]`` in place."""
    dots = np.einsum("ij,ij->i", dz, cache.z)
    dpooled = (dz - dots[:, None] * cache.z) / cache.norms[:, None]
    du = np.repeat(dpooled / n_pool, n_pool, axis=0) if n_pool > 1 else dpooled
    grads[prefix + ".b2"] += np.einsum("ij->j", du)
    grads[prefix + ".w2"] += np.einsum("ij,ik->jk", du, cache.h)
    dh = np.einsum("ij,jk->ik", du, params.tensor(prefix + ".w2"), optimize=False)
    da = dh * (1.0 - cache.h * cache.h)
    grads[prefix + ".b1"] += np.einsum("ij->j", da)
    grads[prefix + ".w1"] += np.einsum("ij,ik->jk", da, cache.x)


def per_batch_loss_grad(params, batches, terms, sigma, enc_cfg):
    """The objective with each ``(videos, texts)`` batch through its own
    checked ``video_forward`` and ``text_forward`` call (input check, forward,
    norm check), each term's size check when the term is reached, and the
    cross-entropy and logits-gradient formulas written out in the order the
    production code evaluates them (which fixes their bits). Raises what that
    order raises. Returns ``(loss, grads)``: for a stacked ``(K, P)``
    ``params`` a ``(K,)`` loss and ``grads`` None, else a numpy scalar and
    per-tensor gradients."""
    from dfuse.encoder import (
        check_text_batch,
        check_video_batch,
        reject_zero_norms,
        text_forward,
        video_forward,
    )
    from dfuse.errors import UsageError

    def checked(forward, check, x):
        cache = forward(params, check(x, enc_cfg), enc_cfg)
        reject_zero_norms(cache.norms)
        return cache

    def softmaxes(s):  # p_rows, logp_rows, p_cols, logp_cols
        out = []
        for m in (s, s.swapaxes(-1, -2)):
            shifted = m - m.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            total = np.einsum("...ij->...i", e)
            out += [e / total[..., None], shifted - np.log(total)[..., None]]
        return out

    encoded = []
    for videos, texts in batches:
        cv = checked(video_forward, check_video_batch, videos)
        ct = checked(text_forward, check_text_batch, texts)
        b = cv.z.shape[-2]
        if b != ct.z.shape[-2]:
            raise UsageError(f"batch size mismatch: {b} videos vs {ct.z.shape[-2]} texts")
        encoded.append((cv, ct, b, softmaxes(np.einsum("...ik,...jk->...ij", cv.z, ct.z) / sigma)))

    stacked = params.values.ndim == 2
    loss, logit_grads = None, [[] for _ in batches]
    for i, teacher, weight in terms:
        _, _, b, sc = encoded[i]
        if teacher is None:
            if b < 2:
                raise UsageError("contrastive loss needs batch size >= 2 (at least one negative)")
            value = -np.einsum("...ii->...", sc[1]) / b + -np.einsum("...ii->...", sc[3]) / b
            q_rows = q_cols = np.eye(b)
        else:
            if teacher.shape != (b, b):
                raise UsageError(
                    f"student batch size {b} does not match teacher logits {teacher.shape[0]}"
                )
            q_rows, _, q_cols, _ = softmaxes(teacher)
            value = (-np.einsum("...ij,...ij->...", q_rows, sc[1]) / b
                     + -np.einsum("...ij,...ij->...", q_cols, sc[3]) / b)
        loss = weight * value if loss is None else loss + weight * value
        if not stacked:
            g = (sc[0] - q_rows) / b + ((sc[2] - q_cols) / b).T
            logit_grads[i].append((weight, g))
    if stacked:
        return loss, None
    grads = {name: np.zeros(shape) for name, shape in params.layout}
    for (cache_v, cache_t, _, _), own in zip(encoded, logit_grads):
        if all(weight == 0.0 for weight, _ in own):
            continue  # every term of this batch weighs 0: no backward
        g = own[0][0] * own[0][1]
        for weight, term_grad in own[1:]:
            g = g + weight * term_grad
        dz_v = np.einsum("ij,jk->ik", g, cache_t.z, optimize=False) / sigma
        dz_t = np.einsum("ij,jk->ik", g.T, cache_v.z, optimize=False) / sigma
        naive_tower_backward(grads, params, "video", cache_v, dz_v, enc_cfg.n_frames)
        naive_tower_backward(grads, params, "text", cache_t, dz_t, 1)
    return loss, grads


# The corpus generator as it was before per-split generation: every record
# draws and computes its own features, one record at a time, from its own
# np.random.default_rng([*key, i]), the stream corpus._record_states seeds.

def _unit(v):
    return v / math.sqrt(float(np.einsum("i,i->", v, v)))


def _jittered_latent(base, scale, rng):
    offset = rng.standard_normal(base.shape[0]) * (scale / math.sqrt(base.shape[0]))
    return _unit(base + offset)


def _video_features(latent, a_v, cfg, rng):
    base = np.einsum("ij,j->i", a_v, latent)
    noise = rng.standard_normal((cfg.frames_per_video, cfg.d_v)) * cfg.noise_sigma
    return base[None, :] + noise


def _text_features(latent, a_t, cfg, rng):
    base = np.einsum("ij,j->i", a_t, latent)
    return base + rng.standard_normal(cfg.d_t) * cfg.noise_sigma


Record = namedtuple("Record", "id kind split concept_id features class_name pair_index",
                    defaults=(None, None))


def naive_build_corpus(cfg):
    """Per-record reference for ``corpus.build_corpus``: the same records in the
    same (file) order, each with its own feature array computed from its own
    generator."""
    from dfuse.corpus import (
        _STREAM_PAIR,
        _STREAM_UNLABELED_TEXT,
        _STREAM_UNLABELED_VIDEO,
        PAIRED_SPLITS,
        SPLITS,
        class_name_for,
        concept_vectors,
        text_feature_map,
        video_feature_map,
    )

    concepts = concept_vectors(cfg)
    a_v = video_feature_map(cfg)
    a_t = text_feature_map(cfg)
    records = []

    paired_counts = {
        "labeled-train": cfg.n_labeled_train,
        "labeled-val": cfg.n_labeled_val,
        "eval": cfg.n_eval,
    }
    for split_idx, split in enumerate(PAIRED_SPLITS):
        for i in range(paired_counts[split]):
            concept = i % cfg.n_concepts
            rng = np.random.default_rng([cfg.seed, _STREAM_PAIR, split_idx, i])
            latent = _jittered_latent(concepts[concept], cfg.concept_jitter, rng)
            video = _video_features(latent, a_v, cfg, rng)
            text = _text_features(latent, a_t, cfg, rng)
            cls = class_name_for(concept, cfg.n_concepts) if split == "eval" else None
            records.append(Record(
                id=f"vid-{split}-{i:05d}", kind="video", split=split,
                concept_id=concept, features=video, class_name=cls, pair_index=i,
            ))
            records.append(Record(
                id=f"txt-{split}-{i:05d}", kind="text", split=split,
                concept_id=concept, features=text, pair_index=i,
            ))

    for i in range(cfg.n_unlabeled):
        concept = i % cfg.n_concepts
        rng = np.random.default_rng([cfg.seed, _STREAM_UNLABELED_VIDEO, i])
        latent = _jittered_latent(concepts[concept], cfg.concept_jitter, rng)
        records.append(Record(
            id=f"vid-unlabeled-{i:05d}", kind="video", split="unlabeled",
            concept_id=concept, features=_video_features(latent, a_v, cfg, rng),
        ))
    for i in range(cfg.n_unlabeled):
        concept = i % cfg.n_concepts
        rng = np.random.default_rng([cfg.seed, _STREAM_UNLABELED_TEXT, i])
        latent = _jittered_latent(concepts[concept], cfg.concept_jitter, rng)
        records.append(Record(
            id=f"txt-unlabeled-{i:05d}", kind="text", split="unlabeled",
            concept_id=concept, features=_text_features(latent, a_t, cfg, rng),
        ))
    # File order: per split, its videos, then its texts (a stable sort).
    records.sort(key=lambda r: (SPLITS.index(r.split), r.kind != "video"))
    return records


def naive_sample_frames(clips, n_frames):
    """Loop reference for ``encoder.sample_frames``, clip by clip and frame by
    frame: frame i of a clip of T frames is frame floor((i + 0.5) * T / n_frames).
    The clips may differ in length; returns ``(len(clips), n_frames, d)``."""
    out = np.empty((len(clips), n_frames, len(clips[0][0])))
    for c, clip in enumerate(clips):
        t = len(clip)
        for i in range(n_frames):
            out[c, i] = clip[math.floor((i + 0.5) * t / n_frames)]
    return out


def naive_ranks(sims, true_index):
    """Sort-based rank oracle with the pessimistic tie policy."""
    ranks = []
    for q in range(len(sims)):
        s_true = float(sims[q][true_index[q]])
        ordered = sorted((float(s) for s in sims[q]), reverse=True)
        greater = sum(1 for s in ordered if s > s_true)
        tied = sum(1 for s in ordered if s == s_true)
        ranks.append(1 + greater + (tied - 1))
    return ranks


def naive_recall(ranks, k):
    return sum(1 for r in ranks if r <= k) / len(ranks)


def naive_median(ranks):
    ordered = sorted(ranks)
    return ordered[(len(ordered) - 1) // 2]


def naive_topk(predictions, labels, k):
    hits = 0
    for ranked, label in zip(predictions, labels):
        if label in list(ranked)[:k]:
            hits += 1
    return hits / len(labels)


def loop_class_embeddings(encode, normalize, features):
    """Per-class prompt embeddings: one ``encode`` call per class over its
    ``(templates, d_t)`` rows, the template mean, then ``normalize`` of the
    stacked class rows."""
    n_templates = features.shape[1]
    rows = []
    for c in range(features.shape[0]):
        z = encode(features[c])
        rows.append(np.einsum("te->e", z) / n_templates)
    return normalize(np.stack(rows))


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (0.0 vs -0.0 and NaN payloads differ)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def unit_rows(rng, b, d):
    """Random unit-norm rows for building embedding batches."""
    m = rng.standard_normal((b, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)
