"""Generate a synthetic corpus and look inside it.

Every record derives from a latent concept vector; a paired video and text
share a per-pair latent (concept plus jitter), which is what makes retrieval
ground truth recoverable. With identity feature maps the video and text
feature spaces coincide, so the planted structure is visible directly in the
raw features: paired records nearly parallel, same-concept records close,
cross-concept records near orthogonal.
"""

import numpy as np

from dfuse import SynthConfig, build_corpus

# --- generate -----------------------------------------------------------------

cfg = SynthConfig(
    n_concepts=8, latent_dim=16, d_v=16, d_t=16, frames_per_video=4,
    identity_maps=True, video_domain_shift=0.0,
    n_labeled_train=64, n_labeled_val=16, n_unlabeled=64, n_eval=32, seed=42,
)
corpus = build_corpus(cfg)
counts = {split: (len(corpus.videos(split)), len(corpus.texts(split))) for split in corpus.splits}
print(f"{sum(v + t for v, t in counts.values())} records over splits:")
for split, (n_videos, n_texts) in counts.items():
    print(f"  {split:14s} {n_videos:4d} videos  {n_texts:4d} texts")

# Each split holds its records as columns; the features are one block per kind.
train = corpus.videos("labeled-train")
print(f"\nfirst video record: id={train.ids[0]} concept={train.concept_id[0]} "
      f"features shape={train.features[0].shape}")
print(f"labeled-train video block: {train.features.shape}")

# --- planted correspondence ----------------------------------------------------

# A paired split is stored in pair order: row i of both blocks is pair i.
videos, texts = corpus.paired("labeled-train")
concepts = train.concept_id


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


paired = [cosine(v.mean(axis=0), t) for v, t in zip(videos, texts)]
same_concept = [
    cosine(videos[i].mean(axis=0), texts[j])
    for i in range(len(videos)) for j in range(len(texts))
    if i != j and concepts[i] == concepts[j]
]
cross_concept = [
    cosine(videos[i].mean(axis=0), texts[j])
    for i in range(len(videos)) for j in range(len(texts))
    if concepts[i] != concepts[j]
]

print("\nmean cosine, video mean-frame vs text feature:")
print(f"  paired (same latent):          {np.mean(paired):.3f}")
print(f"  same concept, different pair:  {np.mean(same_concept):.3f}")
print(f"  different concept:             {np.mean(cross_concept):.3f}")
print("\nThe gap between the first two rows is the retrieval signal: the true")
print("counterpart must beat every sibling drawn from the same concept.")
