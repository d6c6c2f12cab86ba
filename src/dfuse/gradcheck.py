"""Finite-difference verification of the analytic gradient.

The checker builds small random training instances (labeled batch, unlabeled
batch, teacher pseudo-labels), evaluates the analytic gradient of the
combined objective, and compares every coordinate against central finite
differences of the forward loss. The forward pass is shared; the backward
path under test is not. The 2P perturbed weight vectors of a trial go through
the forward pass as stacks of 2 x ``_FD_CHUNK``, one call per stack instead
of one per vector, and each call runs each tower once over both batches;
every loss has the bits a one-vector forward gives, whatever the stack size.

Per-coordinate relative error uses a floor on the denominator:
|a - n| / max(|a|, |n|, 1e-2). Gradients here are O(0.1..10), so real
backprop mistakes land far above any tolerance, while finite-difference
noise (~1e-7 absolute at h=1e-5) stays orders of magnitude below it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoder import EncoderConfig, ParamVector, encode_sampled, init_params, sample_frame_indices
from .errors import UsageError
from .losses import LossConfig, loss_forward, total_loss_grad
from .training import make_pseudo_labels

DEFAULT_TOLERANCE = 1e-4
_REL_ERR_FLOOR = 1e-2
# Coordinates per stacked forward (twice as many weight vectors). On the
# gradcheck benchmark (5 s runs, 2 CPUs), one coordinate per forward peaks at
# 40.9 MB resident, 16 at 41.4 MB, 64 at 42.4 MB and one stack per trial at
# 44.8 MB; a round takes 1.0 s, 0.19 s, 0.15 s and 0.14 s.
_FD_CHUNK = 64


def finite_difference_grad(losses, params: ParamVector, h: float = 1e-5) -> ParamVector:
    """Central differences of ``losses`` around ``params``, many coordinates per call.

    ``losses`` maps a stacked ``ParamVector`` of K weight vectors to their K
    losses. For a run of k coordinates, row j of the stack is ``params`` with
    ``+h`` added to the j-th of them and row k + j the same with ``-h``: the
    bits of perturbing a copy per coordinate.
    """
    base = params.values
    grad = np.empty_like(base)
    for start in range(0, base.size, _FD_CHUNK):
        coord = np.arange(start, min(start + _FD_CHUNK, base.size))
        k = coord.size
        stack = np.tile(base, (2 * k, 1))
        stack[np.arange(k), coord] += h
        stack[np.arange(k, 2 * k), coord] -= h
        values = losses(ParamVector(stack, params.layout))
        grad[coord] = (values[:k] - values[k:]) / (2.0 * h)
    return ParamVector(grad, params.layout)


def relative_errors(analytic: ParamVector, numeric: ParamVector) -> np.ndarray:
    a = analytic.values
    n = numeric.values
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), _REL_ERR_FLOOR)
    return np.abs(a - n) / denom


@dataclass(frozen=True)
class GradCheckTrial:
    index: int
    n_params: int
    sigma: float
    lambda_: float
    max_rel_err: float
    max_abs_err: float

    def passed(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return self.max_rel_err < tol


def _sampled_clips(rng: np.random.Generator, b: int, dim: int, n_frames: int) -> np.ndarray:
    """``(b, n_frames, dim)`` frames sampled from b clips of 1 to 6 frames, drawn one by one."""
    clips = (rng.standard_normal((int(rng.integers(1, 7)), dim)) for _ in range(b))
    return np.stack([clip[sample_frame_indices(len(clip), n_frames)] for clip in clips])


def _random_instance(trial: int, seed: int):
    rng = np.random.default_rng([seed, trial])
    dv, dt, hidden, embed = (int(d) for d in rng.integers(2, 9, size=4))
    n_frames = int(rng.integers(1, 5))
    enc_cfg = EncoderConfig(
        input_dim_video=dv, input_dim_text=dt, hidden_dim=hidden,
        embed_dim=embed, n_frames=n_frames, seed=int(rng.integers(0, 2**31)),
    )
    b = 4
    labeled_frames = _sampled_clips(rng, b, dv, n_frames)
    labeled_texts = rng.standard_normal((b, dt))
    unlabeled_frames = _sampled_clips(rng, b, dv, n_frames)
    unlabeled_texts = rng.standard_normal((b, dt))
    sigma = float(np.exp(rng.uniform(np.log(0.05), 0.0)))
    # Cycle the distillation weight through off, the working default, and random.
    lambda_ = (0.0, 0.999, float(rng.uniform(0.1, 2.0)))[trial % 3]
    cfg = LossConfig(sigma=sigma, lambda_=lambda_)
    params = init_params(enc_cfg)
    teacher = init_params(replace(enc_cfg, seed=int(rng.integers(0, 2**31))))
    pseudo = make_pseudo_labels(
        *encode_sampled(teacher, unlabeled_frames, unlabeled_texts, enc_cfg), sigma
    )
    return enc_cfg, cfg, params, labeled_frames, labeled_texts, unlabeled_frames, unlabeled_texts, pseudo


def run_trial(trial: int, seed: int) -> GradCheckTrial:
    (enc_cfg, cfg, params, lv, lt, uv, ut, pseudo) = _random_instance(trial, seed)
    batches, terms = [(lv, lt), (uv, ut)], cfg.terms(pseudo)

    def losses(stack: ParamVector) -> np.ndarray:
        # Forward only; the backward path under test never runs here.
        return loss_forward(stack, batches, terms, cfg.sigma, enc_cfg)

    _, analytic = total_loss_grad(params, batches, terms, cfg.sigma, enc_cfg)
    numeric = finite_difference_grad(losses, params)
    errs = relative_errors(analytic, numeric)
    abs_err = np.abs(analytic.values - numeric.values)
    return GradCheckTrial(
        index=trial, n_params=params.n_params, sigma=cfg.sigma, lambda_=cfg.lambda_,
        max_rel_err=float(errs.max()), max_abs_err=float(abs_err.max()),
    )


_LEAST = {"trials": 1, "seed": 0}


def check_option(name: str, value: int) -> None:
    """``UsageError`` unless ``run_gradcheck``'s ``trials`` or ``seed`` (``name``) is in range."""
    if value < _LEAST[name]:
        raise UsageError(f"{name} must be >= {_LEAST[name]}, got {value}")


def run_gradcheck(trials: int, seed: int) -> list[GradCheckTrial]:
    """Random-instance gradient check; every trial should pass ``DEFAULT_TOLERANCE``."""
    check_option("trials", trials)
    check_option("seed", seed)
    return [run_trial(t, seed) for t in range(trials)]
