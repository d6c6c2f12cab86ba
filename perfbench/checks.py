"""Output checks, computed apart from the program.

Artifacts are read only through the program's public loaders
(``load_corpus``, ``load_checkpoint``, ``parse_report_records``), so a later
change of file format does not break these checks. Everything else -- the
encoder forward pass, InfoNCE, retrieval ranks, the fusion blend -- is
recomputed here with plain numpy matrix products, not with the program's
fixed-order ``einsum`` code, so agreement is checked to a tolerance where
floating-point summation order can differ.

Each ``check_*`` function returns a list of failure messages; an empty list
means the outputs passed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from dfuse import load_checkpoint, load_corpus
from dfuse.evaluation import parse_report_records

LOSS_RTOL = 1e-9        # own InfoNCE vs the stored validation loss
FUSION_ATOL = 1e-12     # own (1 - a) t + a s vs the stored fused weights
RANK_EPS = 1e-9         # similarity gap below which a tie may break either way
PRETRAIN_MIN_R1 = 0.8   # teacher R@1 on the single-frame eval split
DISTILL_MIN_R1 = 0.9    # student R@1 on the video eval split
GRADCHECK_TOL = 1e-4    # largest relative error of any gradcheck trial


# --- independent model arithmetic -------------------------------------------

def tensors(ckpt) -> dict[str, np.ndarray]:
    """Split a loaded checkpoint's flat values by its stored layout."""
    out, pos = {}, 0
    values = np.asarray(ckpt.params.values, dtype=np.float64)
    for name, shape in ckpt.params.layout:
        size = int(np.prod(shape))
        out[name] = values[pos:pos + size].reshape(shape)
        pos += size
    return out


def _tower(w: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    h = np.tanh(x @ w[prefix + ".w1"].T + w[prefix + ".b1"])
    return h @ w[prefix + ".w2"].T + w[prefix + ".b2"]


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def embed_videos(w: dict, stacks, n_frames: int) -> np.ndarray:
    """Mean of the tower outputs over ``n_frames`` segment-centre frames, unit norm."""
    rows = []
    for stack in stacks:
        t = stack.shape[0]
        idx = np.floor((np.arange(n_frames) + 0.5) * t / n_frames).astype(int)
        rows.append(_tower(w, "video", stack[idx]).mean(axis=0))
    return _unit_rows(np.array(rows))


def embed_texts(w: dict, feats: np.ndarray) -> np.ndarray:
    return _unit_rows(_tower(w, "text", feats))


def infonce(z_v: np.ndarray, z_t: np.ndarray, sigma: float) -> float:
    """Symmetric InfoNCE with the diagonal as positives, mean over each direction."""
    s = z_v @ z_t.T / sigma
    def direction(m):
        top = m.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(m - top).sum(axis=1))
        return float(np.mean(lse - np.diag(m)))
    return direction(s) + direction(s.T)


def rank_bounds(queries: np.ndarray, gallery: np.ndarray):
    """Bounds on each query's pessimistic rank of its own gallery item.

    The program counts a tie against the true item. Ties closer than
    ``RANK_EPS`` may break either way under another summation order, so the
    rank is only pinned to ``[lo, hi]``.
    """
    sims = queries @ gallery.T
    true = np.diag(sims)[:, None]
    lo = 1 + np.count_nonzero(sims > true + RANK_EPS, axis=1)
    hi = np.count_nonzero(sims >= true - RANK_EPS, axis=1)
    return lo, hi


# --- corpus access -------------------------------------------------------------

def split_pairs(corpus, split: str):
    """(video stacks, text matrix) of a paired split, ordered by pair index."""
    vids = sorted((r for r in corpus.records if r.split == split and r.kind == "video"),
                  key=lambda r: r.pair_index)
    txts = sorted((r for r in corpus.records if r.split == split and r.kind == "text"),
                  key=lambda r: r.pair_index)
    return [r.features for r in vids], np.array([r.features for r in txts])


def _check_counts(corpus, expected: dict[str, int], label: str) -> list[str]:
    counts: dict[tuple[str, str], int] = {}
    for r in corpus.records:
        counts[(r.split, r.kind)] = counts.get((r.split, r.kind), 0) + 1
    errors = []
    for split, n in expected.items():
        for kind in ("video", "text"):
            got = counts.get((split, kind), 0)
            if got != n:
                errors.append(f"{label}: {split} has {got} {kind} records, asked for {n}")
    return errors


def recall_at_1(w: dict, corpus, n_frames: int) -> float:
    stacks, texts = split_pairs(corpus, "eval")
    lo, hi = rank_bounds(embed_texts(w, texts), embed_videos(w, stacks, n_frames))
    return float(np.mean(hi <= 1))


def _check_val_loss(ckpt, w: dict, corpus, label: str) -> tuple[list[str], float]:
    stacks, texts = split_pairs(corpus, "labeled-val")
    sigma = ckpt.loss_cfg.sigma
    own = infonce(embed_videos(w, stacks, ckpt.enc_cfg.n_frames), embed_texts(w, texts), sigma)
    if abs(own - ckpt.val_loss) > LOSS_RTOL * max(1.0, abs(own)):
        return [f"{label}: stored val loss {ckpt.val_loss!r} != recomputed {own!r}"], own
    return [], own


# --- per-workload checks ---------------------------------------------------------

def check_pretrain(corpus_path, teacher_path, expected: dict[str, int]) -> list[str]:
    """Split counts, teacher R@1 on the eval split, stored val loss."""
    corpus = load_corpus(corpus_path)
    teacher = load_checkpoint(teacher_path)
    w = tensors(teacher)
    errors = _check_counts(corpus, expected, "image corpus")
    loss_errors, _ = _check_val_loss(teacher, w, corpus, "teacher")
    errors += loss_errors
    r1 = recall_at_1(w, corpus, teacher.enc_cfg.n_frames)
    if r1 < PRETRAIN_MIN_R1:
        errors.append(f"teacher R@1 {r1:.4f} on the eval split is below {PRETRAIN_MIN_R1}")
    return errors


def check_distill(corpus_path, teacher_path, student_path,
                  expected: dict[str, int]) -> list[str]:
    """Selected val loss no worse than the teacher's step-0 loss; student R@1."""
    corpus = load_corpus(corpus_path)
    teacher = load_checkpoint(teacher_path)
    student = load_checkpoint(student_path)
    errors = _check_counts(corpus, expected, "video corpus")
    stacks, texts = split_pairs(corpus, "labeled-val")
    wt, ws = tensors(teacher), tensors(student)
    step0 = infonce(embed_videos(wt, stacks, teacher.enc_cfg.n_frames),
                    embed_texts(wt, texts), student.loss_cfg.sigma)
    loss_errors, own = _check_val_loss(student, ws, corpus, "student")
    errors += loss_errors
    if own > step0 * (1 + LOSS_RTOL):
        errors.append(f"student val loss {own!r} is above the teacher's step-0 loss {step0!r}")
    r1 = recall_at_1(ws, corpus, student.enc_cfg.n_frames)
    if r1 < DISTILL_MIN_R1:
        errors.append(f"student R@1 {r1:.4f} on the video eval split is below {DISTILL_MIN_R1}")
    return errors


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_report_records(fh)


def check_report_ranks(report, w: dict, corpus, n_frames: int, label: str) -> list[str]:
    """R@k and median rank from the rank list; the rank list from own embeddings."""
    errors = []
    ranks = np.sort(np.asarray(report.rank_list.ranks))
    for k in (1, 5, 10):
        own = float(np.count_nonzero(ranks <= k)) / ranks.size
        if own != report.summary[f"r_at_{k}"]:
            errors.append(f"{label}: r_at_{k} {report.summary[f'r_at_{k}']!r} != {own!r} "
                          "from its rank list")
    if int(ranks[(ranks.size - 1) // 2]) != report.summary["mdr"]:
        errors.append(f"{label}: mdr {report.summary['mdr']!r} != lower median of its rank list")
    stacks, texts = split_pairs(corpus, "eval")
    lo, hi = rank_bounds(embed_texts(w, texts), embed_videos(w, stacks, n_frames))
    got = np.asarray(report.rank_list.ranks)
    if got.shape != lo.shape:
        return errors + [f"{label}: {got.size} ranks for {lo.size} eval queries"]
    wrong = np.flatnonzero((got < lo) | (got > hi))
    if wrong.size:
        q = int(wrong[0])
        errors.append(f"{label}: {wrong.size} ranks disagree with recomputed ones "
                      f"(query {q}: {int(got[q])}, expected {int(lo[q])}..{int(hi[q])})")
    return errors


def check_classify(report, label: str) -> list[str]:
    """top1 equals the count-weighted mean of the per-class accuracies."""
    total = sum(report.per_class_count.values())
    own = sum(report.per_class_acc[c] * report.per_class_count[c]
              for c in report.per_class_count) / total
    if abs(own - report.summary["top1"]) > 1e-12:
        return [f"{label}: top1 {report.summary['top1']!r} != per-class mean {own!r}"]
    return []


def check_fused(teacher, student, fused, alpha: float, label: str) -> list[str]:
    if fused.params.layout != teacher.params.layout:
        return [f"{label}: layout differs from the teacher's"]
    t = np.asarray(teacher.params.values)
    s = np.asarray(student.params.values)
    want = (1.0 - alpha) * t + alpha * s
    err = float(np.max(np.abs(np.asarray(fused.params.values) - want)))
    if err > FUSION_ATOL:
        return [f"{label}: fused weights differ from (1-a)t + a s by up to {err:.3e}"]
    return []


def sweep_rows(path) -> dict[float, dict]:
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("record") == "alpha_row":
                rows[float(rec["alpha"])] = rec
    return rows


def tsv_rows(path) -> list[list[str]]:
    """Data rows of a tab-separated table, header dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh][1:]


def check_class_delta(path, report_a, report_b, limit: int, label: str) -> list[str]:
    """Rows are a - b per class, largest gain first, cut to the top and bottom ``limit``."""
    want = sorted(((c, report_a.per_class_acc[c], report_b.per_class_acc[c],
                    report_a.per_class_acc[c] - report_b.per_class_acc[c])
                   for c in report_a.per_class_acc), key=lambda r: (-r[3], r[0]))
    if 2 * limit < len(want):
        want = want[:limit] + want[-limit:]
    got = [(r[0], *map(float, r[1:])) for r in tsv_rows(path)]
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows, expected {len(want)}"]
    wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if wrong:
        return [f"{label}: {len(wrong)} rows differ from a - b of the two reports "
                f"(row {wrong[0] + 1}: {got[wrong[0]]!r}, expected {want[wrong[0]]!r})"]
    return []


def check_rank_dist(path, report_a, report_b, label: str) -> list[str]:
    """Rows are (position, i-th smallest rank of a, i-th smallest rank of b)."""
    a, b = np.sort(report_a.rank_list.ranks), np.sort(report_b.rank_list.ranks)
    want = np.stack([np.arange(1, a.size + 1), a, b], axis=1)
    got = np.array([[int(x) for x in r] for r in tsv_rows(path)], dtype=np.int64)
    if got.shape != want.shape:
        return [f"{label}: table of shape {got.shape}, expected {want.shape}"]
    wrong = np.flatnonzero((got != want).any(axis=1))
    if wrong.size:
        return [f"{label}: {wrong.size} rows differ from the sorted rank lists "
                f"(row {int(wrong[0]) + 1})"]
    return []


def check_evaluate(out: Path, ckpts: Path, images_path, videos_path, plan) -> list[str]:
    """Check the evaluate workload's outputs in ``out``.

    ``plan`` names the files: ``fused`` maps a fused-checkpoint name to its
    alpha, ``retrieval`` lists ``(checkpoint, report stem, corpus label)``,
    ``classify`` lists ``(checkpoint, report stem)``, ``endpoints`` pairs a fused report with
    the standalone report it must equal byte for byte, ``sweep`` names the
    sweep stem with the reports its alpha 0 and 1 rows must match, and
    ``delta`` and ``dist`` name each table's stem and its two input reports.
    """
    errors = []
    for fused_stem, ref_stem in plan["endpoints"]:
        for ext in (".tsv", ".jsonl"):
            if (out / f"{fused_stem}{ext}").read_bytes() != (out / f"{ref_stem}{ext}").read_bytes():
                errors.append(f"{fused_stem}{ext} is not byte-equal to {ref_stem}{ext}")

    teacher = load_checkpoint(ckpts / "teacher.ckpt")
    student = load_checkpoint(ckpts / "student.ckpt")
    models = {"teacher": teacher, "student": student}
    for name, alpha in plan["fused"].items():
        models[name] = load_checkpoint(out / f"{name}.ckpt")
        errors += check_fused(teacher, student, models[name], alpha, f"{name}.ckpt")

    corpora = {"images": load_corpus(images_path), "videos": load_corpus(videos_path)}
    weights = {name: tensors(ckpt) for name, ckpt in models.items()}
    reports = {}
    for model, stem, corpus in plan["retrieval"]:
        reports[stem] = read_report(out / f"{stem}.jsonl")
        errors += check_report_ranks(reports[stem], weights[model], corpora[corpus],
                                     models[model].enc_cfg.n_frames, f"{stem}.jsonl")
    for _, stem in plan["classify"]:
        reports[stem] = read_report(out / f"{stem}.jsonl")
        errors += check_classify(reports[stem], f"{stem}.jsonl")

    stem, a, b, limit = plan["delta"]
    errors += check_class_delta(out / f"{stem}.tsv", reports[a], reports[b], limit,
                                f"{stem}.tsv")
    stem, a, b = plan["dist"]
    errors += check_rank_dist(out / f"{stem}.tsv", reports[a], reports[b], f"{stem}.tsv")

    stem, at0, at1 = plan["sweep"]
    rows = sweep_rows(out / f"{stem}.jsonl")
    for alpha, ref in ((0.0, at0), (1.0, at1)):
        row = rows.get(alpha)
        if row is None:
            errors.append(f"{stem}.jsonl has no alpha {alpha} row")
            continue
        summary = reports[ref].summary
        for key in summary.keys() & row.keys() - {"record"}:
            if row[key] != summary[key]:
                errors.append(f"{stem}.jsonl alpha {alpha} {key} {row[key]!r} != "
                              f"{ref}.jsonl {summary[key]!r}")
    return errors


_TRIAL_LINE = re.compile(r"^trial\s+\d+\b.*max_rel_err=(\S+)")


def check_gradcheck(stdout: str, trials: int) -> list[str]:
    """Every trial the command printed is below ``GRADCHECK_TOL``, and all were printed."""
    errs = [float(m.group(1)) for m in map(_TRIAL_LINE.match, stdout.splitlines()) if m]
    errors = []
    if len(errs) != trials:
        errors.append(f"gradcheck printed {len(errs)} trials, asked for {trials}")
    bad = [e for e in errs if not e < GRADCHECK_TOL]
    if bad:
        errors.append(f"{len(bad)} gradcheck trials at or above {GRADCHECK_TOL:g} "
                      f"(worst {max(bad):.3e})")
    return errors
