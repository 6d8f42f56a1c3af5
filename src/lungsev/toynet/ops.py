"""Volumetric convolution ops for the autodiff tape.

Convolution is cross-correlation via windowed matmul (im2col); its input
gradient is a scatter-add over the same windows. Transpose convolution is
implemented as exactly that scatter-add, which makes the adjoint identity
<conv(x), y> == <x, tconv(y)> hold to rounding error with shared weights.

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


def _conv_cols(x, kernel, stride, pad):
    """im2col: padded sliding windows flattened to (B, n_out_voxels, Ci*K)."""
    kz, ky, kx = kernel
    tz, ty, tx = stride
    xp = _pad_spatial(x, pad)
    if xp.shape[2] < kz or xp.shape[3] < ky or xp.shape[4] < kx:
        raise InputError(f"kernel {kernel} larger than padded input {xp.shape[2:]}")
    win = sliding_window_view(xp, (kz, ky, kx), axis=(2, 3, 4))[:, :, ::tz, ::ty, ::tx]
    b, ci, zo, yo, xo = win.shape[:5]
    cols = win.transpose(0, 2, 3, 4, 1, 5, 6, 7).reshape(b, zo * yo * xo, ci * kz * ky * kx)
    return cols, (zo, yo, xo), xp.shape


def _scatter_windows(dcols, xp_shape, out_dims, kernel, stride):
    """col2im: accumulate per-window gradients back onto the padded grid."""
    b = xp_shape[0]
    ci = xp_shape[1]
    zo, yo, xo = out_dims
    kz, ky, kx = kernel
    tz, ty, tx = stride
    dxp = np.zeros(xp_shape)
    dc = dcols.reshape(b, zo, yo, xo, ci, kz, ky, kx).transpose(0, 4, 1, 2, 3, 5, 6, 7)
    for dz in range(kz):
        for dy in range(ky):
            for dx in range(kx):
                dxp[
                    :,
                    :,
                    dz : dz + (zo - 1) * tz + 1 : tz,
                    dy : dy + (yo - 1) * ty + 1 : ty,
                    dx : dx + (xo - 1) * tx + 1 : tx,
                ] += dc[:, :, :, :, :, dz, dy, dx]
    return dxp


def _unpad(dxp, pad, dims):
    pz, py, px = pad
    z, y, x = dims
    return dxp[:, :, pz : pz + z, py : py + y, px : px + x]


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

    cols, out_dims, xp_shape = _conv_cols(x.data, kernel, stride, pad)
    b = x.data.shape[0]
    out = cols @ w.data.reshape(co, -1).T
    out = out.transpose(0, 2, 1).reshape(b, co, *out_dims)
    out = out + bias.data.reshape(1, co, 1, 1, 1)

    def back(g):
        gn = g.transpose(0, 2, 3, 4, 1).reshape(b, -1, co)
        if w.requires_grad:
            _accum(w, np.einsum("bnc,bnk->ck", gn, cols).reshape(w.data.shape))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            dcols = gn @ w.data.reshape(co, -1)
            dxp = _scatter_windows(dcols, xp_shape, out_dims, kernel, stride)
            _accum(x, _unpad(dxp, pad, x.data.shape[2:]))

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

    b, _, z, y, xdim = x.data.shape
    out_dims = tuple((n - 1) * s + k for n, s, k in zip((z, y, xdim), stride, kernel))
    xn = x.data.transpose(0, 2, 3, 4, 1).reshape(b, -1, cx)
    cols = xn @ w.data.reshape(cx, -1)
    out = _scatter_windows(cols, (b, co, *out_dims), (z, y, xdim), kernel, stride)
    out = out + bias.data.reshape(1, co, 1, 1, 1)

    def back(g):
        gwin = sliding_window_view(g, kernel, axis=(2, 3, 4))[
            :, :, :: stride[0], :: stride[1], :: stride[2]
        ]
        if w.requires_grad:
            _accum(w, np.tensordot(x.data, gwin, axes=([0, 2, 3, 4], [0, 2, 3, 4])))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            gcols, _, _ = _conv_cols(g, kernel, stride, (0, 0, 0))
            _accum(
                x,
                (gcols @ w.data.reshape(cx, -1).T).transpose(0, 2, 1).reshape(x.data.shape),
            )

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
