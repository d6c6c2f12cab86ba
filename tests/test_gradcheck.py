"""The stacked finite-difference gradient against the per-coordinate loop oracle."""

import numpy as np
import pytest

from dfuse import gradcheck
from dfuse.encoder import ParamVector, encode_sampled
from dfuse.errors import UsageError
from dfuse.losses import loss_forward, total_loss_grad
from naive import (
    naive_finite_difference_grad,
    naive_sample_frames,
    naive_total,
    per_batch_loss_grad,
    same_bits,
)

SEED = 20240
TRIALS = range(6)


def _instance(trial):
    """A trial's instance as ``(enc_cfg, params, batches, terms, sigma, cfg, pseudo)``."""
    enc_cfg, cfg, params, lv, lt, uv, ut, pseudo = gradcheck._random_instance(trial, SEED)
    return enc_cfg, params, [(lv, lt), (uv, ut)], cfg.terms(pseudo), cfg.sigma, cfg, pseudo


def _reference_loss(pv, enc_cfg, batches, terms, sigma):
    """Reference forward loss: one weight vector, each batch encoded on its own."""
    return per_batch_loss_grad(pv, batches, terms, sigma, enc_cfg)[0]


def test_trials_cover_every_lambda_setting_and_short_clips(monkeypatch):
    lengths = []
    real = gradcheck.sample_frame_indices

    def recording(t, n_frames):
        lengths.append((t, n_frames))
        return real(t, n_frames)

    monkeypatch.setattr(gradcheck, "sample_frame_indices", recording)
    lambdas = {_instance(trial)[5].lambda_ for trial in TRIALS}
    assert 0.0 in lambdas and 0.999 in lambdas and len(lambdas) >= 3
    assert len(lengths) == 8 * len(TRIALS)  # one draw per clip
    assert any(t < n_frames for t, n_frames in lengths)
    assert len({t for t, _ in lengths}) > 1  # clips of varied length


def _listed_instance(trial, seed):
    """A trial's ``(lv, lt, uv, ut)``, each batch's clips drawn as a list of raw
    clips and then sampled with the loop oracle."""
    rng = np.random.default_rng([seed, trial])
    dv, dt = (int(d) for d in rng.integers(2, 9, size=4)[:2])
    n_frames = int(rng.integers(1, 5))
    rng.integers(0, 2**31)  # the encoder's init seed
    out = []
    for _ in range(2):
        clips = [rng.standard_normal((int(rng.integers(1, 7)), dv)) for _ in range(4)]
        out += [naive_sample_frames(clips, n_frames), rng.standard_normal((4, dt))]
    return out


@pytest.mark.parametrize("trial", TRIALS)
def test_ragged_clips_are_sampled_with_the_loop_oracle_bits(trial):
    _, _, _, lv, lt, uv, ut, _ = gradcheck._random_instance(trial, SEED)
    want = _listed_instance(trial, SEED)
    for got, ref in zip((lv, lt, uv, ut), want):
        assert got.flags["C_CONTIGUOUS"] and same_bits(got, ref)


@pytest.mark.parametrize("trial", TRIALS)
def test_stacked_gradient_equals_loop_oracle_bit_for_bit(trial):
    enc_cfg, params, batches, terms, sigma, _, _ = _instance(trial)

    def losses(stack):
        return loss_forward(stack, batches, terms, sigma, enc_cfg)

    def loss_of(values):
        return _reference_loss(ParamVector(values, params.layout), enc_cfg, batches, terms, sigma)

    stacked = gradcheck.finite_difference_grad(losses, params)
    loop = naive_finite_difference_grad(loss_of, params.values)
    assert stacked.layout == params.layout
    assert stacked.values.tobytes() == loop.tobytes()


@pytest.mark.parametrize("trial", TRIALS)
def test_one_vector_stack_equals_unstacked_loss(trial):
    enc_cfg, params, batches, terms, sigma, cfg, pseudo = _instance(trial)
    stack = ParamVector(params.values[None, :], params.layout)
    got = loss_forward(stack, batches, terms, sigma, enc_cfg)
    want = _reference_loss(params, enc_cfg, batches, terms, sigma)
    assert got.shape == (1,)
    assert got.tobytes() == np.float64(want).tobytes()
    assert total_loss_grad(params, batches, terms, sigma, enc_cfg)[0] == want
    # The loop-formula oracle on the same embeddings, within rounding.
    (lv, lt), (uv, ut) = batches
    loop = naive_total(*encode_sampled(params, lv, lt, enc_cfg),
                       *encode_sampled(params, uv, ut, enc_cfg), pseudo, sigma, cfg.lambda_)
    assert float(want) == pytest.approx(loop, abs=1e-10)


def test_chunked_stack_covers_every_coordinate():
    # More coordinates than one stacked forward takes, and not a multiple of it.
    n = 2 * gradcheck._FD_CHUNK + 5
    layout = (("w", (n,)),)
    weights = np.linspace(-1.0, 1.0, n)
    params = ParamVector(np.cos(np.arange(n, dtype=np.float64)), layout)
    calls = []

    def losses(stack):
        calls.append(stack.values.shape[0])
        return np.einsum("kj,j->k", stack.values * stack.values, weights)

    grad = gradcheck.finite_difference_grad(losses, params, h=1e-4)
    assert sum(calls) == 2 * n and max(calls) == 2 * gradcheck._FD_CHUNK
    np.testing.assert_allclose(grad.values, 2.0 * weights * params.values, atol=1e-8)


@pytest.mark.parametrize("trial", range(3))
def test_stack_size_leaves_the_gradient_bits(trial, monkeypatch):
    enc_cfg, params, batches, terms, sigma, _, _ = _instance(trial)

    def losses(stack):
        return loss_forward(stack, batches, terms, sigma, enc_cfg)

    grads = []
    for chunk in (1, 16, 64):
        monkeypatch.setattr(gradcheck, "_FD_CHUNK", chunk)
        grads.append(gradcheck.finite_difference_grad(losses, params).values.tobytes())
    assert params.n_params > 64
    assert grads[0] == grads[1] == grads[2]


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": 0}, "trials must be >= 1, got 0"),
    ({"trials": -3}, "trials must be >= 1, got -3"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_out_of_range_arguments_are_usage_errors(kwargs, message):
    with pytest.raises(UsageError) as info:
        gradcheck.run_gradcheck(**{"trials": 20, "seed": 20240, **kwargs})
    assert str(info.value) == message
