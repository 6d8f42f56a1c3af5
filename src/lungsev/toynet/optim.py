"""Adaptive-moment optimizer with dynamic step-size bounds.

Standard first/second moment accumulation with bias correction, where the
per-parameter step size is clamped into a schedule that starts wide and
tightens toward FINAL_LR, so the behavior anneals from adaptive to SGD-like.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError
from .tensor import Tensor

log = logging.getLogger("lungsev.toynet")

LR = 0.001  # the adaptive step size before bias correction and the clamp
FINAL_LR = 0.1
GAMMA = 1e-3  # how fast the clamp interval closes around FINAL_LR
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def bound_schedule(t: int) -> tuple[float, float]:
    """Step-size clamp interval at step t >= 1; converges to FINAL_LR."""
    if t < 1:
        raise InputError(f"bound schedule needs t >= 1, got {t}")
    lower = FINAL_LR * (1.0 - 1.0 / (GAMMA * t + 1.0))
    upper = FINAL_LR * (1.0 + 1.0 / (GAMMA * t))
    return lower, upper


@dataclass
class OptimizerState:
    step_count: int = 0
    skipped_steps: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(params: dict[str, Tensor], state: OptimizerState) -> bool:
    """Apply one update in place from each parameter's .grad (None counts as
    zeros), then clear every .grad. Returns False (and counts a skip) when any
    gradient is non-finite; parameters and moments are left untouched then."""
    names = sorted(params)
    grads = {name: params[name].grad for name in names}
    for p in params.values():
        p.grad = None
    for name in names:
        g = grads[name]
        if g is not None and not np.all(np.isfinite(g)):
            state.skipped_steps += 1
            log.warning("non-finite gradient for %s at step %d; step skipped",
                        name, state.step_count + 1)
            return False

    state.step_count += 1
    t = state.step_count
    lower, upper = bound_schedule(t)
    step_size = LR * math.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t)
    for name in names:
        p = params[name]
        g = grads[name]
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        eff = np.clip(step_size / (np.sqrt(v) + EPS), lower, upper)
        p.data = p.data - eff * m
    return True
