"""Blend teacher and student weights and watch the metrics move.

The fused model at blending weight alpha is (1 - alpha) * teacher +
alpha * student, elementwise over every tensor. Alpha 0 reproduces the
teacher exactly and alpha 1 the student; the interesting question is what
happens in between.
"""

import numpy as np

from dfuse import (
    EncoderConfig,
    FusionConfig,
    LossConfig,
    SynthConfig,
    TrainConfig,
    build_corpus,
    build_prompt_set,
    evaluate_model,
    fuse_weights,
    prepare_eval,
    pretrain_teacher,
    sweep_alpha,
    train_student,
)

SEED = 9

images = build_corpus(SynthConfig(
    frames_per_video=1, video_domain_shift=0.0,
    n_labeled_train=512, n_labeled_val=64, n_unlabeled=0, n_eval=128, seed=SEED,
))
videos = build_corpus(SynthConfig(
    n_labeled_train=128, n_labeled_val=32, n_unlabeled=256, n_eval=128, seed=SEED,
))
enc = EncoderConfig(32, 32, 32, 16, n_frames=4, seed=SEED)

teacher = pretrain_teacher(
    images, enc,
    TrainConfig(lr=3e-3, batch_size_labeled=64, max_steps=600, eval_every=300, seed=SEED),
).params
student = train_student(
    teacher, videos, enc, LossConfig(sigma=0.05, lambda_=0.999),
    TrainConfig(lr=3e-4, batch_size_labeled=16, batch_size_unlabeled=16,
                max_steps=400, eval_every=100, seed=SEED),
).params

# --- the sweep ----------------------------------------------------------------

eval_inputs = prepare_eval(videos, enc, build_prompt_set(videos.synth))
rows = sweep_alpha(
    teacher, student, [round(0.1 * i, 1) for i in range(11)],
    lambda pv: evaluate_model(pv, eval_inputs, enc),
)

print("alpha   top1    r@1     r@5     mdr")
for alpha, report in rows:
    s = report.summary
    print(f"{alpha:4.1f}  {s['top1']:6.3f}  {s['r_at_1']:6.3f}  {s['r_at_5']:6.3f}  {s['mdr']:4d}")

# --- endpoint sanity: fusion at 0 and 1 is exact -------------------------------

fused0 = fuse_weights(teacher, student, FusionConfig(alpha=0.0))
fused1 = fuse_weights(teacher, student, FusionConfig(alpha=1.0))
print("\nalpha=0 equals teacher weights:", np.array_equal(fused0.values, teacher.values))
print("alpha=1 equals student weights:", np.array_equal(fused1.values, student.values))

best_alpha, best = max(rows, key=lambda ar: ar[1].summary["r_at_1"])
print(f"\nbest retrieval R@1 at alpha={best_alpha}: {best.summary['r_at_1']:.3f}")
