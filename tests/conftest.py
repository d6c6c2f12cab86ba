import json
from pathlib import Path

import pytest

from dfuse.corpus import SynthConfig, build_corpus
from dfuse.encoder import EncoderConfig, init_params


@pytest.fixture
def enc_cfg():
    return EncoderConfig(
        input_dim_video=6, input_dim_text=5, hidden_dim=7, embed_dim=4,
        n_frames=3, seed=11,
    )


@pytest.fixture
def params(enc_cfg):
    return init_params(enc_cfg)


@pytest.fixture
def tiny_synth():
    # Small enough for fast training smoke tests, large enough for batching.
    return SynthConfig(
        n_concepts=4, latent_dim=6, d_v=8, d_t=8, frames_per_video=3,
        noise_sigma=0.05, n_labeled_train=24, n_labeled_val=8,
        n_unlabeled=16, n_eval=16, seed=5,
    )


@pytest.fixture
def tiny_corpus(tiny_synth):
    return build_corpus(tiny_synth)


@pytest.fixture
def tiny_enc(tiny_synth):
    return EncoderConfig(
        input_dim_video=tiny_synth.d_v, input_dim_text=tiny_synth.d_t,
        hidden_dim=10, embed_dim=6, n_frames=2, seed=3,
    )


@pytest.fixture(scope="session")
def golden_digests():
    """Artifact SHA-256s recorded on an earlier commit (see ``about`` in the file)."""
    return json.loads((Path(__file__).parent / "golden_digests.json").read_text(encoding="utf-8"))
