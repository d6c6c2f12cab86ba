"""Acceptance suite: every criterion prints one PASS/FAIL line.

Criteria 4, 5, 8, 9, 10 run against a full desk-scale pipeline driven twice
through the CLI (generation, teacher pretraining, student training, fusion,
evaluation, diagnostics); the rest are direct oracle comparisons. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from dfuse.checkpointio import load_checkpoint
from dfuse.cli import cli_dispatch
from dfuse.encoder import EncoderConfig, init_params
from dfuse.evaluation import (
    RankList,
    delta_table,
    median_rank,
    parse_report_records,
    recall_at_k,
    retrieval_ranks,
)
from dfuse.fileio import sha256_file
from dfuse.gradcheck import run_gradcheck
from dfuse.losses import _scores, cross_entropy, cross_entropy_grad
from dfuse.numerics import scaled_dots
from dfuse.training import make_pseudo_labels
from naive import (
    naive_median,
    naive_ranks,
    naive_recall,
    naive_total,
    unit_rows,
)

SEED = "7"

# Pipeline stage wall-clock budgets (seconds), from the stated limits.
STUDENT_TIME_BUDGET = 300.0
SWEEP_TIME_BUDGET = 120.0
GRADCHECK_TIME_BUDGET = 60.0

REPORT_STEMS = (
    "rep_teacher", "rep_student", "rep_fused0", "rep_fused1", "rep_fused04",
    "rep_teacher_img", "cls_teacher", "cls_fused04",
)
COMPARED_FILES = (
    "images.jsonl", "videos.jsonl",
    "teacher.ckpt", "student.ckpt", "fused0.ckpt", "fused1.ckpt", "fused04.ckpt",
    "sweep.tsv", "sweep.jsonl", "sweep.impact.tsv", "delta.tsv", "dist.tsv",
    *[f"{stem}.tsv" for stem in REPORT_STEMS],
    *[f"{stem}.jsonl" for stem in REPORT_STEMS],
)


def criterion(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def _run(args):
    code = cli_dispatch([str(a) for a in args])
    assert code == 0, f"command failed ({code}): {args}"


def _run_pipeline(root):
    timings = {}
    images = root / "images.jsonl"
    videos = root / "videos.jsonl"
    _run(["gen-corpus", "--frames-per-video", "1", "--video-domain-shift", "0",
          "--n-labeled-train", "2048", "--n-labeled-val", "256", "--n-unlabeled", "0",
          "--n-eval", "512", "--seed", SEED, "--out", images])
    _run(["gen-corpus", "--seed", SEED, "--out", videos])
    _run(["pretrain-teacher", "--corpus", images, "--batch-size-labeled", "64",
          "--seed", SEED, "--out", root / "teacher.ckpt"])
    start = time.monotonic()
    _run(["train-student", "--teacher", root / "teacher.ckpt", "--corpus", videos,
          "--seed", SEED, "--out", root / "student.ckpt"])
    timings["student"] = time.monotonic() - start
    for alpha, name in (("0", "fused0"), ("1", "fused1"), ("0.4", "fused04")):
        _run(["fuse", "--teacher", root / "teacher.ckpt", "--student", root / "student.ckpt",
              "--alpha", alpha, "--out", root / f"{name}.ckpt"])
    eval_jobs = (
        ("teacher", "rep_teacher", videos),
        ("student", "rep_student", videos),
        ("fused0", "rep_fused0", videos),
        ("fused1", "rep_fused1", videos),
        ("fused04", "rep_fused04", videos),
        ("teacher", "rep_teacher_img", images),
    )
    for ckpt, stem, corpus in eval_jobs:
        _run(["eval-retrieval", "--ckpt", root / f"{ckpt}.ckpt", "--corpus", corpus,
              "--out", root / stem])
    _run(["eval-classify", "--ckpt", root / "teacher.ckpt", "--corpus", videos,
          "--out", root / "cls_teacher"])
    _run(["eval-classify", "--ckpt", root / "fused04.ckpt", "--corpus", videos,
          "--out", root / "cls_fused04"])
    start = time.monotonic()
    _run(["sweep-alpha", "--teacher", root / "teacher.ckpt",
          "--student", root / "student.ckpt", "--corpus", videos,
          "--out", root / "sweep"])
    timings["sweep"] = time.monotonic() - start
    _run(["report-class-delta", "--report-a", root / "cls_fused04.jsonl",
          "--report-b", root / "cls_teacher.jsonl", "--out", root / "delta.tsv"])
    _run(["report-rank-dist", "--report-a", root / "rep_fused04.jsonl",
          "--report-b", root / "rep_teacher.jsonl", "--out", root / "dist.tsv"])
    return timings


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    runs = {}
    for label in ("a", "b"):
        root = tmp_path_factory.mktemp(f"accept_{label}")
        runs[label] = (root, _run_pipeline(root))
    return runs


def _report_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_report_records(fh).summary


def test_ac1_gradient_correctness():
    start = time.monotonic()
    results = run_gradcheck(trials=20, seed=20240)
    elapsed = time.monotonic() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed(1e-4) for r in results) and elapsed < GRADCHECK_TIME_BUDGET
    criterion("AC1 gradient-correctness", ok,
              f"20 trials, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_ac2_loss_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        b, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        z_v_l, z_t_l = unit_rows(rng, b, d), unit_rows(rng, b, d)
        z_v_u, z_t_u = unit_rows(rng, b, d), unit_rows(rng, b, d)
        x = rng.uniform(-30, 30, size=(b, b))
        sigma = float(rng.uniform(1 / 25, 1.0))  # keeps |logits| <= 25 for unit rows
        lam = float(rng.uniform(0.0, 2.0))
        got = (cross_entropy(_scores([scaled_dots(z_v_l, z_t_l, sigma)])[0], None)
               + lam * cross_entropy(*_scores([scaled_dots(z_v_u, z_t_u, sigma), x])))
        want = naive_total(z_v_l, z_t_l, z_v_u, z_t_u, x, sigma, lam)
        worst = max(worst, abs(got - want))
    criterion("AC2 loss-oracle-equivalence", worst < 1e-10,
              f"100 instances, worst abs diff {worst:.2e}")


def test_ac3_distillation_fixed_point():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 9))
        x = rng.uniform(-20, 20, size=(b, b))
        worst = max(worst, float(np.max(np.abs(cross_entropy_grad(*_scores([x, x]))))))
    # end to end: pseudo labels from the same weights reproduce the student
    # logits bit-exactly, so the fixed point holds through the encoders too
    enc = EncoderConfig(6, 5, 8, 4, n_frames=2, seed=1)
    params = init_params(enc)
    videos = np.stack([rng.standard_normal((3, 6)) for _ in range(4)])
    texts = rng.standard_normal((4, 5))
    from dfuse.encoder import encode_text_batch, encode_video_batch
    from dfuse.numerics import similarity_matrix

    pseudo = make_pseudo_labels(
        encode_video_batch(params, videos, enc), encode_text_batch(params, texts, enc), 0.05
    )

    student_logits = similarity_matrix(
        encode_video_batch(params, videos, enc),
        encode_text_batch(params, texts, enc), 0.05,
    )
    worst = max(worst, float(np.max(np.abs(
        cross_entropy_grad(*_scores([student_logits, pseudo]))
    ))))
    criterion("AC3 distillation-fixed-point", worst < 1e-8,
              f"max |grad| at matching logits {worst:.2e}")


def test_ac4_fusion_endpoints_bit_exact(pipeline):
    root, _ = pipeline["a"]
    ok = True
    details = []
    for fused, reference in (("rep_fused0", "rep_teacher"), ("rep_fused1", "rep_student")):
        for ext in (".tsv", ".jsonl"):
            same = (root / f"{fused}{ext}").read_bytes() == (root / f"{reference}{ext}").read_bytes()
            ok = ok and same
            if not same:
                details.append(f"{fused}{ext} != {reference}{ext}")
    criterion("AC4 fusion-endpoints", ok, "; ".join(details) or "alpha 0/1 reports byte-equal")


def test_ac5_planted_data_learning(pipeline):
    root, timings = pipeline["a"]
    teacher_r1 = _report_summary(root / "rep_teacher_img.jsonl")["r_at_1"]
    student_r1 = _report_summary(root / "rep_student.jsonl")["r_at_1"]
    manifest = json.loads((root / "student.ckpt.manifest.json").read_text())
    cfg = manifest["config"]
    hyper_ok = (cfg["sigma"] == 0.05 and cfg["lambda"] == 0.999
                and cfg["lr"] == 3e-5 and cfg["max_steps"] == 2000)
    step_ok = load_checkpoint(root / "student.ckpt").step <= 2000
    time_ok = timings["student"] < STUDENT_TIME_BUDGET
    ok = teacher_r1 >= 0.8 and student_r1 >= 0.9 and hyper_ok and step_ok and time_ok
    criterion(
        "AC5 planted-data-learning", ok,
        f"teacher single-frame R@1 {teacher_r1:.3f} (>=0.8), "
        f"student video R@1 {student_r1:.3f} (>=0.9), "
        f"train {timings['student']:.1f}s (<{STUDENT_TIME_BUDGET:.0f}s)",
    )


def test_ac6_metric_oracle_equivalence():
    rng = np.random.default_rng(606)
    exact = True
    for _ in range(50):
        nq, ng, d = (int(x) for x in rng.integers(2, 16, size=3))
        q, g = unit_rows(rng, nq, d), unit_rows(rng, ng, d)
        true_index = rng.integers(0, ng, size=nq)
        ranks = retrieval_ranks(q, g, true_index)
        sims = q @ g.T
        oracle = naive_ranks(sims, true_index)
        exact = exact and np.array_equal(ranks.ranks, oracle)
        oracle_list = RankList(np.asarray(oracle), ng)
        for k in (1, 5, 10):
            exact = exact and recall_at_k(ranks, k) == naive_recall(oracle, k)
            exact = exact and recall_at_k(ranks, k) == recall_at_k(oracle_list, k)
        exact = exact and median_rank(ranks) == naive_median(oracle)
        perm = rng.permutation(ng)
        inverse = np.argsort(perm)
        permuted = retrieval_ranks(q, g[perm], inverse[true_index])
        exact = exact and np.array_equal(ranks.ranks, permuted.ranks)
    criterion("AC6 metric-oracle-equivalence", exact,
              "50 instances, sort oracle + permutation invariance, exact")


def test_ac7_published_delta_arithmetic():
    checks = [
        # (fused value, teacher value, published difference)
        (59.8, 55.1, 4.7),    # text-to-video R@5
        (73.3, 74.5, -1.2),   # action top-1
        (33.8, 30.4, 3.4),    # text-to-video R@1
        (21.8, 19.9, 1.9),    # action top-1, second benchmark
        (44.6, 40.3, 4.3),    # action top-5
        (5.8, 5.3, 0.5),      # fine-grained retrieval R@1
        (53.7, 49.9, 3.8),    # paragraph retrieval R@5
    ]
    ok = True
    for a, b, published in checks:
        (_, delta), = delta_table({"metric": a}, {"metric": b})
        ok = ok and round(delta, 1) == published
    criterion("AC7 published-delta-arithmetic", ok,
              f"{len(checks)} published pairs reproduced at printed precision")


def test_ac8_report_invariants(pipeline):
    root, _ = pipeline["a"]
    ok = True
    details = []
    for stem in REPORT_STEMS:
        with open(root / f"{stem}.jsonl", "r", encoding="utf-8") as fh:
            summary = parse_report_records(fh).summary
        good = (
            summary["top5"] >= summary["top1"]
            and summary["r_at_10"] >= summary["r_at_5"] >= summary["r_at_1"]
            and all(0.0 <= summary[m] <= 1.0
                    for m in ("top1", "top5", "r_at_1", "r_at_5", "r_at_10"))
            and summary["mdr"] >= 1
        )
        ok = ok and good
        if not good:
            details.append(stem)
    rows = (root / "dist.tsv").read_text().strip().split("\n")[1:]
    cols = np.array([[int(c) for c in row.split("\t")] for row in rows])
    monotone = bool(np.all(np.diff(cols[:, 1]) >= 0) and np.all(np.diff(cols[:, 2]) >= 0))
    ok = ok and monotone
    criterion("AC8 report-invariants", ok,
              "; ".join(details) or f"{len(REPORT_STEMS)} reports + rank-distribution shape")


def test_ac9_alpha_sweep_deliverable(pipeline):
    root, timings = pipeline["a"]
    lines = (root / "sweep.tsv").read_text().strip().split("\n")
    header_ok = lines[0] == "alpha\ttop1\ttop5\tr_at_1\tr_at_5\tr_at_10\tmdr"
    rows = [line.split("\t") for line in lines[1:]]
    shape_ok = len(rows) == 11 and all(len(r) == 7 for r in rows)
    alphas = [float(r[0]) for r in rows]
    grid_ok = alphas == [round(0.1 * i, 1) for i in range(11)]

    records = [json.loads(l) for l in (root / "sweep.jsonl").read_text().splitlines()]
    by_alpha = {r["alpha"]: r for r in records if r["record"] == "alpha_row"}
    teacher = _report_summary(root / "rep_teacher.jsonl")
    student = _report_summary(root / "rep_student.jsonl")
    metrics = ("top1", "top5", "r_at_1", "r_at_5", "r_at_10", "mdr")
    endpoints_ok = all(by_alpha[0.0][m] == teacher[m] for m in metrics) and \
        all(by_alpha[1.0][m] == student[m] for m in metrics)

    summary = records[-1]
    interior_recorded = (
        summary["record"] == "summary"
        and set(summary["interior_beats_endpoints"]) == set(metrics)
        and (root / "sweep.impact.tsv").is_file()
    )
    time_ok = timings["sweep"] < SWEEP_TIME_BUDGET
    ok = header_ok and shape_ok and grid_ok and endpoints_ok and interior_recorded and time_ok
    criterion(
        "AC9 alpha-sweep-deliverable", ok,
        f"11 rows, endpoints match standalone reports exactly, "
        f"interior flags {summary['interior_beats_endpoints']}, "
        f"{timings['sweep']:.1f}s (<{SWEEP_TIME_BUDGET:.0f}s)",
    )


def test_ac10_full_pipeline_determinism(pipeline):
    root_a, _ = pipeline["a"]
    root_b, _ = pipeline["b"]
    differing = [
        name for name in COMPARED_FILES
        if (root_a / name).read_bytes() != (root_b / name).read_bytes()
    ]
    criterion("AC10 determinism", not differing,
              "; ".join(differing) or f"{len(COMPARED_FILES)} artifacts byte-identical across runs")


def test_golden_digests(pipeline, golden_digests):
    root, _ = pipeline["a"]
    golden = golden_digests["pipeline"]
    differing = [name for name in COMPARED_FILES if sha256_file(root / name) != golden.get(name)]
    ok = not differing and set(golden) == set(COMPARED_FILES)
    criterion("golden digests", ok,
              ("differ: " + ", ".join(differing) if differing else
               f"{len(COMPARED_FILES)} artifacts match the recorded digests")
              + f" (recorded with numpy {golden_digests['numpy']}, running {np.__version__})")
