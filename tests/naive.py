"""Straight-line float64 reference implementations used as test oracles.

No vectorization, no stability tricks: plain exp/log/sum loops written
directly from the definitions (batch-mean reductions included). The
production path must agree with these within tight absolute tolerances on
random instances; the oracles never share code with it.
"""

import math

import numpy as np


def naive_logsumexp(v):
    return math.log(sum(math.exp(float(x)) for x in v))


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


def unit_rows(rng, b, d):
    """Random unit-norm rows for building embedding batches."""
    m = rng.standard_normal((b, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)
