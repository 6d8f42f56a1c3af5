"""Soft Jaccard training loss restricted to a lung mask."""

import numpy as np

from ..errors import InputError
from .tensor import Tensor, _accum, _result

SMOOTHING = 1.0


def jaccard_loss(p: Tensor, target, lung) -> Tensor:
    """1 - (<p,y> + 1) / (<p,p> + <y,y> - <p,y> + 1), sums over lung voxels.

    p holds positive-class probabilities; target and lung are 0/1 arrays of
    the same shape, cast to the dtype numpy promotes p, target and lung to,
    so float32 p with float32 or bool masks stays float32. The masks go
    unchecked; training makes both from `> 0`. Voxels outside the lung
    contribute nothing, so their gradient is exactly zero. The loss is one
    tape node.
    """
    target, lung = np.asarray(target), np.asarray(lung)
    dtype = np.result_type(p.data, target, lung)
    y, m = target.astype(dtype, copy=False), lung.astype(dtype, copy=False)
    if p.data.shape != y.shape or p.data.shape != m.shape:
        raise InputError(
            f"jaccard_loss: shapes differ: p {p.data.shape}, y {y.shape}, lung {m.shape}"
        )
    if not (p.data.min() >= 0.0 and p.data.max() <= 1.0):  # NaN fails both
        raise InputError("jaccard_loss: probabilities must lie in [0,1]")

    ym = y * m
    pm = p.data * m
    s_py = (pm * ym).sum()
    s_pp = (pm * pm).sum()
    num = s_py + SMOOTHING
    den = (s_pp + -s_py) + (ym.sum() + SMOOTHING)

    def back(g):
        g_num = -g / den
        g_den = g * num / (den * den)
        _accum(p, (2 * g_den * pm + (g_num + -g_den) * ym) * m)

    return _result(np.asarray(-(num / den) + 1.0), (p,), back)
