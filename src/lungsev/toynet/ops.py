"""Volumetric convolution ops for the autodiff tape.

Both conv ops run on one kernel, `_correlate`: the strided sliding windows of
a grid, flattened (im2col) and multiplied by the weights in one matmul. Its
adjoint, `_scatter`, is that same correlation at unit stride over a
zero-inserted grid, with the weights' channels swapped and taps flipped.
conv3d's forward is a correlation and its input gradient a scatter;
transpose_conv3d is the reverse, so the adjoint identity
<conv(x), y> == <x, tconv(y)> holds to rounding error with shared weights.
Both weight gradients contract one side's activation with the windows of the
other's grid (`_weight_grad`), so a backward closure keeps the op's inputs and
no im2col copy.

Weight layouts:
    conv3d            w: (C_out, C_in, kz, ky, kx)
    transpose_conv3d  w: (C_in, C_out, kz, ky, kx)

so a transpose conv with a conv's weights maps conv-output space back to
conv-input space.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InputError, at_least, checked, entries
from .tensor import Tensor, _accum, _result

NORM_EPS = 1e-5

# What conv3d and transpose_conv3d accept as a stride and as explicit padding.
_STRIDE = entries(at_least(1), 3)
_PADDING = entries(at_least(0), 3)


def _resolve_padding(padding, kernel, stride):
    if padding == "same":
        if stride != (1, 1, 1):
            raise InputError("'same' padding requires unit stride")
        if any(k % 2 == 0 for k in kernel):
            raise InputError(f"'same' padding requires odd kernels, got {kernel}")
        return tuple(k // 2 for k in kernel)
    return checked("padding", padding, _PADDING)


def _pad_spatial(x, pad):
    pz, py, px = pad
    if pz == py == px == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pz, pz), (py, py), (px, px)))


def _unpad(dxp, pad, dims):
    pz, py, px = pad
    z, y, x = dims
    return dxp[:, :, pz : pz + z, py : py + y, px : px + x]


def _correlate(xp, w, stride):
    """Cross-correlate grid xp (B, Ci, ...) with w (Co, Ci, kz, ky, kx): im2col and one matmul."""
    co, kernel = w.shape[0], w.shape[2:]
    if any(n < k for n, k in zip(xp.shape[2:], kernel)):
        raise InputError(f"kernel {kernel} larger than padded input {xp.shape[2:]}")
    tz, ty, tx = stride
    win = sliding_window_view(xp, kernel, axis=(2, 3, 4))[:, :, ::tz, ::ty, ::tx]
    b, _, zo, yo, xo = win.shape[:5]
    cols = win.transpose(0, 2, 3, 4, 1, 5, 6, 7).reshape(b, zo * yo * xo, w[0].size)
    out = cols @ w.reshape(co, -1).T
    return out.transpose(0, 2, 1).reshape(b, co, zo, yo, xo)


def _scatter(x, w, stride, out_dims):
    """Adjoint of `_correlate(., w, stride)`: x (B, Co, ...) spread over out_dims voxels.

    x lands on every stride-th voxel of a zero grid, from offset k - 1, and the
    grid is correlated at unit stride with w's channels swapped and taps flipped.
    """
    kernel = w.shape[2:]
    grid = np.zeros((*x.shape[:2], *(n + k - 1 for n, k in zip(out_dims, kernel))), x.dtype)
    grid[(..., *(slice(k - 1, k + (n - 1) * s, s) for n, k, s in zip(x.shape[2:], kernel, stride)))] = x
    return _correlate(grid, w.swapaxes(0, 1)[:, :, ::-1, ::-1, ::-1], (1, 1, 1))


def _weight_grad(a, grid, kernel, stride):
    """d<a, _correlate(grid, w, stride)>/dw: a (B, Co, ...) against the windows of grid (B, Ci, ...)."""
    tz, ty, tx = stride
    win = sliding_window_view(grid, kernel, axis=(2, 3, 4))[:, :, ::tz, ::ty, ::tx]
    return np.tensordot(a, win, axes=([0, 2, 3, 4], [0, 2, 3, 4]))


def conv3d(x: Tensor, w: Tensor, bias: Tensor, stride=(1, 1, 1), padding="same") -> Tensor:
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise InputError(f"conv3d expects 5-d tensors, got {x.data.shape} and {w.data.shape}")
    co, ci, kz, ky, kx = w.data.shape
    if x.data.shape[1] != ci:
        raise InputError(f"conv3d: input has {x.data.shape[1]} channels, weights expect {ci}")
    if bias.data.shape != (co,):
        raise InputError(f"conv3d: bias shape {bias.data.shape} != ({co},)")
    stride = checked("stride", stride, _STRIDE)
    kernel = (kz, ky, kx)
    pad = _resolve_padding(padding, kernel, stride)

    out = _correlate(_pad_spatial(x.data, pad), w.data, stride)
    out = out + bias.data.reshape(1, co, 1, 1, 1)

    def back(g):
        if w.requires_grad:
            _accum(w, _weight_grad(g, _pad_spatial(x.data, pad), kernel, stride))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            dims = x.data.shape[2:]
            dxp = _scatter(g, w.data, stride, tuple(n + 2 * p for n, p in zip(dims, pad)))
            _accum(x, _unpad(dxp, pad, dims))

    return _result(out, (x, w, bias), back)


def transpose_conv3d(x: Tensor, w: Tensor, bias: Tensor, stride) -> Tensor:
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise InputError(
            f"transpose_conv3d expects 5-d tensors, got {x.data.shape} and {w.data.shape}"
        )
    cx, co, kz, ky, kx = w.data.shape
    if x.data.shape[1] != cx:
        raise InputError(
            f"transpose_conv3d: input has {x.data.shape[1]} channels, weights expect {cx}"
        )
    if bias.data.shape != (co,):
        raise InputError(f"transpose_conv3d: bias shape {bias.data.shape} != ({co},)")
    stride = checked("stride", stride, _STRIDE)
    kernel = (kz, ky, kx)

    out_dims = tuple((n - 1) * s + k for n, s, k in zip(x.data.shape[2:], stride, kernel))
    out = _scatter(x.data, w.data, stride, out_dims)
    out = out + bias.data.reshape(1, co, 1, 1, 1)

    def back(g):
        if w.requires_grad:
            _accum(w, _weight_grad(x.data, g, kernel, stride))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            _accum(x, _correlate(g, w.data, stride))

    return _result(out, (x, w, bias), back)


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine normalization using batch statistics over (B,Z,Y,X)."""
    if x.data.ndim != 5:
        raise InputError(f"channel_norm expects a 5-d tensor, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise InputError(f"channel_norm: affine params must have shape ({c},)")
    axes = (0, 2, 3, 4)
    n = x.data.size / c
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - mu) * inv
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
