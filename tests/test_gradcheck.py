"""The stacked finite-difference gradient against the per-coordinate loop oracle."""

import numpy as np
import pytest

from dfuse import gradcheck
from dfuse.encoder import EmbeddingBatch, ParamVector, encode_sampled
from dfuse.errors import UsageError
from dfuse.losses import loss_forward, total_loss, total_loss_grad
from naive import naive_finite_difference_grad

SEED = 20240
TRIALS = range(6)


def _instance(trial):
    return gradcheck._random_instance(trial, SEED)


def _reference_loss(pv, enc_cfg, cfg, lv, lt, uv, ut, pseudo):
    """Reference forward loss: one weight vector, checked embedding batches, `total_loss`."""
    labeled = EmbeddingBatch(*encode_sampled(pv, lv, lt, enc_cfg))
    student_u = EmbeddingBatch(*encode_sampled(pv, uv, ut, enc_cfg))
    return total_loss(labeled, student_u, pseudo, cfg)


def test_trials_cover_every_lambda_setting_and_short_clips(monkeypatch):
    lengths = []
    real = gradcheck.sample_frames

    def recording(stacks, cfg):
        lengths.extend((len(s), cfg.n_frames) for s in stacks)
        return real(stacks, cfg)

    monkeypatch.setattr(gradcheck, "sample_frames", recording)
    lambdas = {_instance(trial)[1].lambda_ for trial in TRIALS}
    assert 0.0 in lambdas and 0.999 in lambdas and len(lambdas) >= 3
    assert any(t < n_frames for t, n_frames in lengths)


@pytest.mark.parametrize("trial", TRIALS)
def test_stacked_gradient_equals_loop_oracle_bit_for_bit(trial):
    enc_cfg, cfg, params, lv, lt, uv, ut, pseudo = _instance(trial)

    def losses(stack):
        return loss_forward(stack, lv, lt, uv, ut, pseudo, cfg, enc_cfg)[0]

    def loss_of(values):
        return _reference_loss(
            ParamVector(values, params.layout), enc_cfg, cfg, lv, lt, uv, ut, pseudo
        )

    stacked = gradcheck.finite_difference_grad(losses, params)
    loop = naive_finite_difference_grad(loss_of, params.values)
    assert stacked.layout == params.layout
    assert stacked.values.tobytes() == loop.tobytes()


@pytest.mark.parametrize("trial", TRIALS)
def test_one_vector_stack_equals_unstacked_loss(trial):
    enc_cfg, cfg, params, lv, lt, uv, ut, pseudo = _instance(trial)
    stack = ParamVector(params.values[None, :], params.layout)
    got = loss_forward(stack, lv, lt, uv, ut, pseudo, cfg, enc_cfg)[0]
    want = _reference_loss(params, enc_cfg, cfg, lv, lt, uv, ut, pseudo)
    assert got.shape == (1,)
    assert got.tobytes() == np.float64(want).tobytes()
    assert total_loss_grad(params, lv, lt, uv, ut, pseudo, cfg, enc_cfg)[0] == want


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
    enc_cfg, cfg, params, lv, lt, uv, ut, pseudo = _instance(trial)

    def losses(stack):
        return loss_forward(stack, lv, lt, uv, ut, pseudo, cfg, enc_cfg)[0]

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
        gradcheck.run_gradcheck(**kwargs)
    assert str(info.value) == message
