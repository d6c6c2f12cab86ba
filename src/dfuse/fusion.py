"""Weight-space fusion of teacher and student parameter vectors.

The fused model is the elementwise blend ``(1 - alpha) * teacher +
alpha * student`` over every tensor including biases; alpha = 0 reproduces
the teacher and alpha = 1 the student.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .encoder import ParamVector
from .errors import UsageError


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = field(default=0.4, metadata={"help": "student weight in [0, 1]"})

    def __post_init__(self):
        if not np.isfinite(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise UsageError(f"alpha must lie in [0, 1], got {self.alpha}")


def fuse_weights(teacher: ParamVector, student: ParamVector, cfg: FusionConfig) -> ParamVector:
    """Linear interpolation of two identically laid out parameter vectors."""
    if not teacher.same_layout(student):
        raise UsageError("teacher and student layouts differ; cannot fuse")
    values = (1.0 - cfg.alpha) * teacher.values + cfg.alpha * student.values
    return ParamVector(values, teacher.layout)


def sweep_alpha(
    teacher: ParamVector,
    student: ParamVector,
    alphas: Sequence[float],
    evaluate: Callable[[ParamVector], object],
) -> list[tuple[float, object]]:
    """Evaluate the fused model at each alpha; rows at 0 and 1 match the
    standalone teacher and student evaluations bit-exactly."""
    if len(alphas) == 0:
        raise UsageError("alpha sweep needs at least one value")
    rows = []
    for alpha in alphas:
        fused = fuse_weights(teacher, student, FusionConfig(alpha=float(alpha)))
        rows.append((float(alpha), evaluate(fused)))
    return rows
