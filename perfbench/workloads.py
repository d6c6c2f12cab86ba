"""The benchmark's workloads: set-up commands, timed rounds and output checks.

Every command is an argv list for ``dfuse.cli.cli_dispatch``. Sizes follow the
repository's acceptance pipeline; the workload seed goes into every command
that takes ``--seed``, so the program sees only inputs generated from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The acceptance pipeline's single-frame image corpus; the video corpus is the
# gen-corpus default (8 frames, domain shift 0.4, 4096 unlabeled pairs, 34 MB).
IMAGE_SPLITS = {"labeled-train": 2048, "labeled-val": 256, "unlabeled": 0, "eval": 512}
VIDEO_SPLITS = {"labeled-train": 512, "labeled-val": 128, "unlabeled": 4096, "eval": 512}
GRADCHECK_TRIALS = 20


def gen_images(seed: int, out: Path) -> list[str]:
    return ["gen-corpus", "--frames-per-video", "1", "--video-domain-shift", "0",
            "--n-labeled-train", str(IMAGE_SPLITS["labeled-train"]),
            "--n-labeled-val", str(IMAGE_SPLITS["labeled-val"]),
            "--n-unlabeled", str(IMAGE_SPLITS["unlabeled"]),
            "--n-eval", str(IMAGE_SPLITS["eval"]),
            "--seed", str(seed), "--out", str(out)]


def gen_videos(seed: int, out: Path) -> list[str]:
    return ["gen-corpus", "--seed", str(seed), "--out", str(out)]


def pretrain(seed: int, corpus: Path, out: Path, *extra: str) -> list[str]:
    return ["pretrain-teacher", "--corpus", str(corpus), "--batch-size-labeled", "64",
            "--seed", str(seed), "--out", str(out), *extra]


def train_student(seed: int, teacher: Path, corpus: Path, out: Path, *extra: str) -> list[str]:
    return ["train-student", "--teacher", str(teacher), "--corpus", str(corpus),
            "--lambda", "0.999", "--sigma", "0.05",
            "--batch-size-labeled", "32", "--batch-size-unlabeled", "32",
            "--seed", str(seed), "--out", str(out), *extra]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], list[list[str]]]             # (seed, setup dir)
    round: Callable[[int, Path, Path], list[list[str]]]       # (seed, setup dir, round dir)
    check: Callable[[int, Path, Path, str], list[str]]        # (..., captured stdout)
    setup_reps: int


# --- distill: the paper's method --------------------------------------------------

def _distill_setup(seed, setup):
    return [gen_images(seed, setup / "images.jsonl"),
            pretrain(seed, setup / "images.jsonl", setup / "teacher.ckpt")]


def _distill_round(seed, setup, out):
    return [gen_videos(seed, out / "videos.jsonl"),
            train_student(seed, setup / "teacher.ckpt", out / "videos.jsonl",
                          out / "student.ckpt")]


def _distill_check(seed, setup, out, stdout):
    from checks import check_distill
    return check_distill(out / "videos.jsonl", setup / "teacher.ckpt",
                         out / "student.ckpt", VIDEO_SPLITS)


# --- pretrain: same encoder, loss and AdamW at T=1, no distillation --------------

def _no_setup(seed, setup):
    return []


def _pretrain_round(seed, setup, out):
    return [gen_images(seed, out / "images.jsonl"),
            pretrain(seed, out / "images.jsonl", out / "teacher.ckpt")]


def _pretrain_check(seed, setup, out, stdout):
    from checks import check_pretrain
    return check_pretrain(out / "images.jsonl", out / "teacher.ckpt", IMAGE_SPLITS)


# --- evaluate: the acceptance pipeline's post-training tail ----------------------

# Model quality does not change the cost of evaluation, so the set-up trains
# short: enough for distinct teacher and student weights.
EVAL_TEACHER_STEPS = "300"
EVAL_STUDENT_STEPS = "100"

EVAL_PLAN = {
    "fused": {"fused0": 0.0, "fused1": 1.0, "fused04": 0.4},
    "retrieval": [
        ("teacher", "rep_teacher", "videos"),
        ("student", "rep_student", "videos"),
        ("fused0", "rep_fused0", "videos"),
        ("fused1", "rep_fused1", "videos"),
        ("fused04", "rep_fused04", "videos"),
        ("teacher", "rep_teacher_img", "images"),
    ],
    "classify": [("teacher", "cls_teacher"), ("fused04", "cls_fused04")],
    "endpoints": [("rep_fused0", "rep_teacher"), ("rep_fused1", "rep_student")],
    "sweep": ("sweep", "rep_teacher", "rep_student"),
    "delta": ("delta", "cls_fused04", "cls_teacher", 25),
    "dist": ("dist", "rep_fused04", "rep_teacher"),
}


def evaluate_setup_commands(seed, setup, teacher_steps=EVAL_TEACHER_STEPS,
                            student_steps=EVAL_STUDENT_STEPS, videos_cmd=gen_videos):
    return [gen_images(seed, setup / "images.jsonl"),
            videos_cmd(seed, setup / "videos.jsonl"),
            pretrain(seed, setup / "images.jsonl", setup / "teacher.ckpt",
                     "--max-steps", teacher_steps),
            train_student(seed, setup / "teacher.ckpt", setup / "videos.jsonl",
                          setup / "student.ckpt", "--max-steps", student_steps)]


def evaluate_round_commands(seed, setup, out):
    ckpt = {"teacher": setup / "teacher.ckpt", "student": setup / "student.ckpt"}
    ckpt.update({name: out / f"{name}.ckpt" for name in EVAL_PLAN["fused"]})
    corpus = {"images": setup / "images.jsonl", "videos": setup / "videos.jsonl"}
    cmds = [["fuse", "--teacher", str(ckpt["teacher"]), "--student", str(ckpt["student"]),
             "--alpha", repr(alpha), "--out", str(ckpt[name])]
            for name, alpha in EVAL_PLAN["fused"].items()]
    cmds += [["eval-retrieval", "--ckpt", str(ckpt[model]), "--corpus", str(corpus[c]),
              "--out", str(out / stem)] for model, stem, c in EVAL_PLAN["retrieval"]]
    cmds += [["eval-classify", "--ckpt", str(ckpt[model]), "--corpus", str(corpus["videos"]),
              "--out", str(out / stem)] for model, stem in EVAL_PLAN["classify"]]
    cmds.append(["sweep-alpha", "--teacher", str(ckpt["teacher"]),
                 "--student", str(ckpt["student"]), "--corpus", str(corpus["videos"]),
                 "--out", str(out / "sweep")])
    stem, a, b, limit = EVAL_PLAN["delta"]
    cmds.append(["report-class-delta", "--report-a", str(out / f"{a}.jsonl"),
                 "--report-b", str(out / f"{b}.jsonl"), "--limit", str(limit),
                 "--out", str(out / f"{stem}.tsv")])
    stem, a, b = EVAL_PLAN["dist"]
    cmds.append(["report-rank-dist", "--report-a", str(out / f"{a}.jsonl"),
                 "--report-b", str(out / f"{b}.jsonl"), "--out", str(out / f"{stem}.tsv")])
    return cmds


def evaluate_check(seed, setup, out, stdout):
    from checks import check_evaluate
    return check_evaluate(out, setup, setup / "images.jsonl", setup / "videos.jsonl", EVAL_PLAN)


# --- gradcheck: the same encoder and loss code at tiny shapes ----------------------

# The instance seed fixes each trial's tensor shapes and so the amount of work:
# across workload seeds, 20 trials vary by 14% in run time. The acceptance
# suite's own instance seed is used for every workload seed instead.
GRADCHECK_SEED = "20240"


def _gradcheck_round(seed, setup, out):
    return [["gradcheck", "--trials", str(GRADCHECK_TRIALS), "--seed", GRADCHECK_SEED]]


def _gradcheck_check(seed, setup, out, stdout):
    from checks import check_gradcheck
    return check_gradcheck(stdout, GRADCHECK_TRIALS)


WORKLOADS = {w.name: w for w in (
    Workload("distill", _distill_setup, _distill_round, _distill_check, setup_reps=2),
    Workload("pretrain", _no_setup, _pretrain_round, _pretrain_check, setup_reps=5),
    Workload("evaluate", evaluate_setup_commands, evaluate_round_commands, evaluate_check,
             setup_reps=2),
    Workload("gradcheck", _no_setup, _gradcheck_round, _gradcheck_check, setup_reps=5),
)}
