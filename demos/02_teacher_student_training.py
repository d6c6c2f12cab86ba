"""Pretrain a teacher on single-frame pairs, then refine a student on video.

The teacher never sees the video domain (its corpus is generated without the
video-map shift); the student starts from the teacher's weights and adapts
using labeled video pairs plus the teacher's soft similarity targets on
unlabeled batches. Progress lines are step, train loss, validation loss.
"""

import numpy as np

from dfuse import (
    EncoderConfig,
    LossConfig,
    SynthConfig,
    TrainConfig,
    build_corpus,
    encode_text_batch,
    encode_video_batch,
    pretrain_teacher,
    recall_at_k,
    retrieval_ranks,
    train_student,
)

SEED = 42

# --- two corpora in the same planted world -----------------------------------
# Same seed -> same concepts and text map; the video corpus rotates its
# feature map away from the base domain the teacher will be trained on.

image_cfg = SynthConfig(
    frames_per_video=1, video_domain_shift=0.0,
    n_labeled_train=512, n_labeled_val=64, n_unlabeled=0, n_eval=128, seed=SEED,
)
video_cfg = SynthConfig(
    n_labeled_train=128, n_labeled_val=32, n_unlabeled=256, n_eval=128, seed=SEED,
)
images = build_corpus(image_cfg)
videos = build_corpus(video_cfg)

enc = EncoderConfig(
    input_dim_video=image_cfg.d_v, input_dim_text=image_cfg.d_t,
    hidden_dim=32, embed_dim=16, n_frames=4, seed=SEED,
)


def video_r1(params, corpus):
    v, t = corpus.paired("eval")
    ranks = retrieval_ranks(
        encode_text_batch(params, t, enc),
        encode_video_batch(params, v, enc),
        np.arange(len(v)),
    )
    return recall_at_k(ranks, 1)


# --- teacher: contrastive only on single frames -------------------------------

print("teacher pretraining (step / train loss / val loss):")
teacher = pretrain_teacher(
    images, enc,
    TrainConfig(lr=3e-3, batch_size_labeled=64, batch_size_unlabeled=64,
                max_steps=600, eval_every=200, seed=SEED),
    log=print,
).params
print(f"teacher R@1  on single-frame eval: {video_r1(teacher, images):.3f}")
print(f"teacher R@1  on shifted video eval: {video_r1(teacher, videos):.3f}")

# --- student: labeled contrastive + teacher distillation ----------------------

print("\nstudent training:")
record = train_student(
    teacher, videos, enc,
    LossConfig(sigma=0.05, lambda_=0.999),
    TrainConfig(lr=3e-4, batch_size_labeled=16, batch_size_unlabeled=16,
                max_steps=400, eval_every=100, seed=SEED),
    log=print,
)
print(f"best checkpoint: step {record.step}, val loss {record.val_loss:.4f}")
print(f"student R@1 on shifted video eval: {video_r1(record.params, videos):.3f}")
