"""Soft Jaccard training loss restricted to a lung mask."""

import numpy as np

from ..errors import InputError
from .tensor import Tensor, add, div0, mul, neg, tsum

SMOOTHING = 1.0


def jaccard_loss(p: Tensor, target, lung) -> Tensor:
    """1 - (<p,y> + 1) / (<p,p> + <y,y> - <p,y> + 1), sums over lung voxels.

    p holds positive-class probabilities; target and lung are binary arrays
    of the same shape. Voxels outside the lung contribute nothing, so their
    gradient is exactly zero.
    """
    y = np.asarray(target, dtype=np.float64)
    m = np.asarray(lung, dtype=np.float64)
    if p.data.shape != y.shape or p.data.shape != m.shape:
        raise InputError(
            f"jaccard_loss: shapes differ: p {p.data.shape}, y {y.shape}, lung {m.shape}"
        )
    if not np.all((y == 0) | (y == 1)):
        raise InputError("jaccard_loss: target must be binary")
    if not np.all((m == 0) | (m == 1)):
        raise InputError("jaccard_loss: lung mask must be binary")
    if not (p.data.min() >= 0.0 and p.data.max() <= 1.0):  # NaN fails both
        raise InputError("jaccard_loss: probabilities must lie in [0,1]")

    ym = Tensor(y * m)
    mask = Tensor(m)
    pm = mul(p, mask)
    s_py = tsum(mul(pm, ym))
    s_pp = tsum(mul(pm, pm))
    s_yy = float((y * m).sum())

    num = add(s_py, Tensor(SMOOTHING))
    den = add(add(s_pp, neg(s_py)), Tensor(s_yy + SMOOTHING))
    return add(neg(div0(num, den)), Tensor(1.0))
