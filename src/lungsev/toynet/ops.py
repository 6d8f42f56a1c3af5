"""Volumetric convolution ops for the autodiff tape.

One shape rule is the contract of both ops. Per axis, with kernel k and
stride s (k >= s, k - s even), conv3d pads each side of its input with
(k - s) / 2 zeros and maps n voxels to n / s; transpose_conv3d maps n voxels
back to n * s. With the same weights the two ops are exact adjoints,
<conv(x), y> == <x, tconv(y)>, so each op's input gradient is the other op's
forward.

Both run on one kernel, `_correlate`: the strided sliding windows of a grid,
copied by `_im2col` into one matrix whose rows are taps and whose columns are
output voxels, and multiplied by the weights in one matmul. `_im2col` forms
the windows as one read-only `as_strided` view of the grid, shaped
(Ci, kz, ky, kx, B, zo, yo, xo): a tap axis steps as the grid's axis does, an
output axis steps stride times as far, and reshaping the view makes the one
copy. The adjoint of `_correlate`, `_scatter`, is that same correlation at
unit stride over a zero-inserted grid, with the weights' channels swapped
and taps flipped, offset so that it yields exactly the unpadded voxels.
Both weight gradients multiply one side's activation by the `_im2col` matrix
of the other's padded grid (`_weight_grad`), so a backward closure keeps the
op's inputs and no im2col copy. Every op computes in the dtype of its inputs.

Weight layouts:
    conv3d            w: (C_out, C_in, kz, ky, kx)
    transpose_conv3d  w: (C_in, C_out, kz, ky, kx)

so a transpose conv with a conv's weights maps conv-output space back to
conv-input space. conv3d adds its optional bias per output channel;
transpose_conv3d takes none.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import InputError, at_least, checked, entries
from .tensor import Tensor, _accum, _result

NORM_EPS = 1e-5

# What conv3d and transpose_conv3d accept as a stride.
_STRIDE = entries(at_least(1), 3)


def _conv_args(op, x, w, stride, in_axis):
    """The checked stride and the per-side pad (k - s) / 2 of a conv op whose
    weights w hold the input's channels on in_axis (0 or 1) and the output's on the other."""
    if x.ndim != 5 or w.ndim != 5 or x.size == 0:
        raise InputError(f"{op} expects nonempty 5-d tensors, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[in_axis]:
        raise InputError(f"{op}: input has {x.shape[1]} channels, weights expect {w.shape[in_axis]}")
    stride, kernel = checked("stride", stride, _STRIDE), w.shape[2:]
    if any(k < s or (k - s) % 2 for k, s in zip(kernel, stride)):
        raise InputError(f"{op}: kernel {kernel} does not fit stride {stride}; need k >= s, k - s even")
    return stride, tuple((k - s) // 2 for k, s in zip(kernel, stride))


def _pad(x, pad):
    """x (B, C, ...) with pad zeros on each side of every spatial axis."""
    if not any(pad):
        return x
    dims = x.shape[2:]
    out = np.zeros((*x.shape[:2], *(n + 2 * p for n, p in zip(dims, pad))), x.dtype)
    out[(..., *(slice(p, p + n) for n, p in zip(dims, pad)))] = x
    return out


def _im2col(grid, kernel, stride):
    """The strided kernel windows of grid (B, Ci, ...) as a (Ci*kz*ky*kx, B*zo*yo*xo) matrix.

    Output voxels are innermost, so each run the copy makes is a row of
    output voxels rather than one kernel row of kx taps.
    """
    b, ci, *dims = grid.shape
    sb, sc, *steps = grid.strides
    out_dims = ((n - k) // s + 1 for n, k, s in zip(dims, kernel, stride))
    win = as_strided(grid, (ci, *kernel, b, *out_dims),
                     (sc, *steps, sb, *(st * s for st, s in zip(steps, stride))), writeable=False)
    return win.reshape(ci * math.prod(kernel), -1)


def _correlate(xp, w, stride):
    """Cross-correlate grid xp (B, Ci, ...) with w (Co, Ci, kz, ky, kx): im2col and one matmul."""
    co, kernel = w.shape[0], w.shape[2:]
    dims = ((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], kernel, stride))
    out = w.reshape(co, -1) @ _im2col(xp, kernel, stride)
    return out.reshape(co, xp.shape[0], *dims).swapaxes(0, 1)


def _scatter(x, w, stride, pad):
    """Adjoint of `_correlate(_pad(., pad), w, stride)`: x (B, Co, n...) spread over n * s voxels.

    x lands on every stride-th voxel of a zero grid of n * s + k - 1 voxels,
    from offset k - 1 - pad, and the grid is correlated at unit stride with w's
    channels swapped and taps flipped.
    """
    axes = list(zip(x.shape[2:], w.shape[2:], stride, pad))
    grid = np.zeros((*x.shape[:2], *(n * s + k - 1 for n, k, s, _ in axes)), x.dtype)
    grid[(..., *(slice(k - 1 - p, k - p + (n - 1) * s, s) for n, k, s, p in axes))] = x
    return _correlate(grid, w.swapaxes(0, 1)[:, :, ::-1, ::-1, ::-1], (1, 1, 1))


def _weight_grad(a, grid, kernel, stride):
    """d<a, _correlate(grid, w, stride)>/dw: a (B, Co, ...) against the windows of grid (B, Ci, ...)."""
    co = a.shape[1]
    dw = a.swapaxes(0, 1).reshape(co, -1) @ _im2col(grid, kernel, stride).T
    return dw.reshape(co, grid.shape[1], *kernel)


def conv3d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride=(1, 1, 1)) -> Tensor:
    stride, pad = _conv_args("conv3d", x.data, w.data, stride, 1)
    if any(n % s for n, s in zip(x.data.shape[2:], stride)):
        raise InputError(f"conv3d: input dims {x.data.shape[2:]} are not multiples of stride {stride}")
    if bias is not None and bias.data.shape != w.data.shape[:1]:
        raise InputError(f"conv3d: bias shape {bias.data.shape} != ({w.data.shape[0]},)")
    kernel = w.data.shape[2:]
    out = _correlate(_pad(x.data, pad), w.data, stride)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1, 1)

    def back(g):
        if w.requires_grad:
            _accum(w, _weight_grad(g, _pad(x.data, pad), kernel, stride))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            _accum(x, _scatter(g, w.data, stride, pad))

    return _result(out, (x, w) if bias is None else (x, w, bias), back)


def transpose_conv3d(x: Tensor, w: Tensor, stride) -> Tensor:
    stride, pad = _conv_args("transpose_conv3d", x.data, w.data, stride, 0)
    kernel = w.data.shape[2:]

    def back(g):
        gp = _pad(g, pad)
        if w.requires_grad:
            _accum(w, _weight_grad(x.data, gp, kernel, stride))
        if x.requires_grad:
            _accum(x, _correlate(gp, w.data, stride))

    return _result(_scatter(x.data, w.data, stride, pad), (x, w), back)


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine normalization using batch statistics over (B,Z,Y,X)."""
    if x.data.ndim != 5:
        raise InputError(f"channel_norm expects a 5-d tensor, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise InputError(f"channel_norm: affine params must have shape ({c},)")
    axes = (0, 2, 3, 4)
    n = x.data.size / c
    xc = x.data - x.data.mean(axis=axes, keepdims=True)
    var = (xc * xc).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = np.multiply(xc, inv, out=xc)
    gview = gamma.data.reshape(1, c, 1, 1, 1)
    out = gview * xhat + beta.data.reshape(1, c, 1, 1, 1)

    def back(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=axes))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=axes))
        if x.requires_grad:
            dxhat = g * gview
            term1 = dxhat.sum(axis=axes, keepdims=True)
            term2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
            _accum(x, (inv / n) * (n * dxhat - term1 - xhat * term2))

    return _result(out, (x, gamma, beta), back)
