"""Per-class deltas and rank distributions for two models.

Aggregate metrics hide where two models differ. The per-class delta table
shows which classes one model wins and which it loses; the rank distribution
puts the two models' sorted retrieval ranks side by side, so a curve that
stays below the other is better at every cutoff.
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
    delta_table,
    evaluate_model,
    fuse_weights,
    prepare_eval,
    pretrain_teacher,
    rank_distribution,
    train_student,
)

SEED = 3

images = build_corpus(SynthConfig(
    frames_per_video=1, video_domain_shift=0.0, prompt_jitter=0.4,
    n_labeled_train=512, n_labeled_val=64, n_unlabeled=0, n_eval=128, seed=SEED,
))
videos = build_corpus(SynthConfig(
    prompt_jitter=0.4,
    n_labeled_train=128, n_labeled_val=32, n_unlabeled=256, n_eval=256, seed=SEED,
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
fused = fuse_weights(teacher, student, FusionConfig(alpha=0.4))

eval_inputs = prepare_eval(videos, enc, build_prompt_set(videos.synth))
report_teacher = evaluate_model(teacher, eval_inputs, enc)
report_fused = evaluate_model(fused, eval_inputs, enc)

for label, report in (("teacher:", report_teacher), ("fused:  ", report_fused)):
    s = report.summary
    print(f"{label} top1={s['top1']:.3f}  r@1={s['r_at_1']:.3f}  mdr={s['mdr']}")

# --- which classes moved ------------------------------------------------------

deltas = delta_table(report_fused.per_class_acc, report_teacher.per_class_acc)
moved = [(name, d) for name, d in deltas if d != 0.0]
print(f"\n{len(moved)} of {len(deltas)} classes changed top-1 accuracy (fused - teacher):")
for name, d in moved[:5]:
    print(f"  {name}  {d:+.3f}")
if len(moved) > 5:
    print(f"  ... and {len(moved) - 5} more")

# --- rank distributions ---------------------------------------------------------

table = rank_distribution(report_fused.rank_list, report_teacher.rank_list)
below = int(np.sum(table[:, 1] <= table[:, 2]))
print(f"\nsorted-rank comparison over {table.shape[0]} queries:")
print(f"  fused curve at or below teacher curve at {below}/{table.shape[0]} positions")
print(f"  tail ranks (worst 3 queries): fused {table[-3:, 1].tolist()} "
      f"vs teacher {table[-3:, 2].tolist()}")
