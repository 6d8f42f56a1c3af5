"""Tensor engine and network tests: finite differences, adjoints, training."""

import csv
import dataclasses
import gc
import importlib
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from lungsev import phantom
from lungsev.errors import GeometryError, HeaderError, InputError
from lungsev.toynet import (
    NetConfig,
    OptimizerState,
    Tensor,
    bound_schedule,
    channel_norm,
    concat,
    conv3d,
    dense_block,
    init_params,
    jaccard_loss,
    load_checkpoint,
    net_forward,
    optimizer_step,
    save_checkpoint,
    softmax_channels,
    take_channel,
    train,
    transpose_conv3d,
    write_loss_csv,
)
from lungsev.toynet import loss as loss_module, network as network_module, ops as ops_module
from lungsev.toynet import tensor as tensor_module
from lungsev.toynet.ops import NORM_EPS, _correlate, _im2col, _pad, _weight_grad
from lungsev.toynet.optim import FINAL_LR
from lungsev.toynet.tensor import _accum, _result
from lungsev.toynet.train import _clone_params, _frozen, _loss_for, _prepare, sample_augment
from lungsev.volume import LabelMask, Volume, clip_normalize

train_module = importlib.import_module("lungsev.toynet.train")  # `toynet.train` names the function


def proj_loss(out: Tensor, proj: np.ndarray) -> Tensor:
    """<out, proj> as one tape node, whose gradient is proj."""
    return _result(np.asarray((out.data * proj).sum()), (out,), lambda g: _accum(out, g * proj))


def fd_check(build_loss, tensors, h=1e-5, tol=1e-6, samples=4, seed=0):
    """Central finite differences vs backprop on sampled parameter entries."""
    loss = build_loss()
    for t in tensors:
        t.grad = None
    loss.backward()
    analytic = {id(t): (np.zeros_like(t.data) if t.grad is None else t.grad.copy()) for t in tensors}
    rng = np.random.default_rng(seed)
    for k, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        idxs = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = build_loss().item()
            flat[i] = orig - h
            f_minus = build_loss().item()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * h)
            ana = float(analytic[id(t)].reshape(-1)[i])
            denom = max(1.0, abs(num), abs(ana))
            assert abs(num - ana) <= tol * denom, (
                f"tensor {k} [{i}]: numeric {num} vs analytic {ana}"
            )


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 1, 3, 5, 5)))
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0
    out = conv3d(x, Tensor(w))
    assert np.array_equal(out.data, x.data)


def test_conv_ones_kernel_window_sum():
    x = Tensor(np.ones((1, 1, 2, 5, 5)))
    w = Tensor(np.ones((1, 1, 1, 3, 3)))
    out = conv3d(x, w)
    assert out.data.shape == (1, 1, 2, 5, 5)
    assert out.data[0, 0, 1, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0, 0] == 4.0  # corner sees a 2x2 window


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 2, 3, 6, 6)), requires_grad=True)
    w = Tensor(0.3 * rng.standard_normal((3, 2, 1, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    proj = rng.standard_normal((2, 3, 3, 6, 6))

    fd_check(
        lambda: proj_loss(conv3d(x, w, b), proj),
        [x, w, b],
    )


def test_strided_conv_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((1, 3, 4, 6, 6)), requires_grad=True)
    w = Tensor(0.3 * rng.standard_normal((4, 3, 2, 2, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    proj = rng.standard_normal((1, 4, 2, 3, 3))

    fd_check(
        lambda: proj_loss(conv3d(x, w, b, stride=(2, 2, 2)), proj),
        [x, w, b],
    )


def test_conv_shape_errors():
    x = Tensor(np.zeros((1, 2, 4, 4, 4)))
    w = Tensor(np.zeros((3, 5, 1, 3, 3)))  # channel mismatch
    with pytest.raises(InputError):
        conv3d(x, w, Tensor(np.zeros(3)))
    with pytest.raises(InputError):
        conv3d(x, Tensor(np.zeros((3, 2, 2, 3, 3))), Tensor(np.zeros(3)))
    with pytest.raises(InputError, match=r"^conv3d: bias shape \(2,\) != \(3,\)$"):
        conv3d(x, Tensor(np.zeros((3, 2, 1, 3, 3))), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# Transpose convolution
# ---------------------------------------------------------------------------

def test_tconv_shape_contract():
    x = Tensor(np.zeros((2, 3, 4, 4, 4)))
    w = Tensor(np.zeros((3, 5, 1, 2, 2)))
    out = transpose_conv3d(x, w, stride=(1, 2, 2))
    assert out.data.shape == (2, 5, 4, 8, 8)


def test_conv_tconv_adjoint_identity():
    rng = np.random.default_rng(3)
    for stride, kernel, dims in (
        ((2, 2, 2), (2, 2, 2), (4, 4, 4)),
        ((1, 2, 2), (1, 2, 2), (3, 4, 6)),
        ((1, 2, 2), (1, 4, 4), (3, 8, 8)),
    ):
        x = Tensor(rng.standard_normal((2, 3, *dims)))
        w = Tensor(rng.standard_normal((4, 3, *kernel)))
        cx = conv3d(x, w, stride=stride)
        y = Tensor(rng.standard_normal(cx.data.shape))
        ty = transpose_conv3d(y, w, stride=stride)
        lhs = float((cx.data * y.data).sum())
        rhs = float((x.data * ty.data).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_tconv_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 4, 2, 3, 3)), requires_grad=True)
    w = Tensor(0.3 * rng.standard_normal((4, 2, 2, 2, 2)), requires_grad=True)
    proj = rng.standard_normal((1, 2, 4, 6, 6))

    fd_check(
        lambda: proj_loss(transpose_conv3d(x, w, stride=(2, 2, 2)), proj),
        [x, w],
    )


def _taps(kernel, dims, stride):
    """Each kernel tap with the strided slice of the larger grid it meets (dims: the smaller grid)."""
    for tap in np.ndindex(*kernel):
        yield (..., *tap), (..., *(slice(t, t + (n - 1) * s + 1, s) for t, n, s in zip(tap, dims, stride)))


def reference_conv(x, w, b, g, stride, pad):
    """conv3d's output and its x, w, bias gradients for output gradient g, one tap at a time."""
    xp = np.pad(x, ((0, 0), (0, 0), *((p, p) for p in pad)))
    y, dxp, dw = np.zeros(g.shape) + b.reshape(1, -1, 1, 1, 1), np.zeros(xp.shape), np.zeros(w.shape)
    for tap, window in _taps(w.shape[2:], g.shape[2:], stride):
        y += np.einsum("bizyx,oi->bozyx", xp[window], w[tap])
        dxp[window] += np.einsum("bozyx,oi->bizyx", g, w[tap])
        dw[tap] = np.einsum("bozyx,bizyx->oi", g, xp[window])
    dx = dxp[(..., *(slice(p, p + n) for p, n in zip(pad, x.shape[2:])))]
    return y, dx, dw, g.sum(axis=(0, 2, 3, 4))


def reference_tconv(x, w, g, stride, pad):
    """transpose_conv3d's output and its x, w gradients for output gradient g, one tap at a time."""
    gp = np.pad(g, ((0, 0), (0, 0), *((p, p) for p in pad)))
    yp, dx, dw = np.zeros(gp.shape), np.zeros(x.shape), np.zeros(w.shape)
    for tap, window in _taps(w.shape[2:], x.shape[2:], stride):
        yp[window] += np.einsum("bizyx,io->bozyx", x, w[tap])
        dx += np.einsum("bozyx,io->bizyx", gp[window], w[tap])
        dw[tap] = np.einsum("bizyx,bozyx->io", x, gp[window])
    return yp[(..., *(slice(p, p + n) for p, n in zip(pad, g.shape[2:])))], dx, dw


@pytest.mark.parametrize(
    "kernel, stride, dims",
    [
        ((1, 3, 3), (1, 1, 1), (3, 6, 5)),
        ((3, 3, 3), (1, 1, 1), (4, 5, 6)),
        ((1, 2, 2), (1, 2, 2), (3, 6, 4)),
        ((2, 2, 2), (2, 2, 2), (4, 6, 4)),
        ((1, 4, 4), (1, 2, 2), (3, 6, 4)),  # padded by one voxel in-plane
    ],
    ids=["same_133", "same_333", "kernel_is_stride_122", "kernel_is_stride_222", "strided_padded_144"],
)
def test_conv_ops_match_a_per_tap_reference(kernel, stride, dims):
    rng = np.random.default_rng(5)
    pad = tuple((k - s) // 2 for k, s in zip(kernel, stride))
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    for op, ref, w_shape, biases in (
        (lambda x, w: conv3d(x, w, b, stride), lambda x, w, g: reference_conv(x, w, b.data, g, stride, pad),
         (4, 3, *kernel), (b,)),
        (lambda x, w: transpose_conv3d(x, w, stride), lambda x, w, g: reference_tconv(x, w, g, stride, pad),
         (3, 4, *kernel), ()),
    ):
        x = Tensor(rng.standard_normal((2, 3, *dims)), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        y = op(x, w)
        g = rng.standard_normal(y.data.shape)
        proj_loss(y, g).backward()
        results = (y.data, x.grad, w.grad, *(t.grad for t in biases))
        for got, want in zip(results, ref(x.data, w.data, g), strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kernel", [(1, 3, 3), (3, 3, 3)])
@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2), (2, 2, 2)])
def test_correlate_and_weight_grad_match_a_direct_tap_sum(kernel, stride):
    rng = np.random.default_rng(12)
    grid = rng.standard_normal((2, 3, 7, 8, 9))
    w = rng.standard_normal((4, 3, *kernel))
    dims = tuple((n - k) // s + 1 for n, k, s in zip(grid.shape[2:], kernel, stride))
    a = rng.standard_normal((2, 4, *dims))
    want_out, want_dw = np.zeros(a.shape), np.zeros(w.shape)
    for tap, window in _taps(kernel, dims, stride):
        want_out += np.einsum("bizyx,oi->bozyx", grid[window], w[tap])
        want_dw[tap] = np.einsum("bozyx,bizyx->oi", a, grid[window])
    for got, want in ((_correlate(grid, w, stride), want_out), (_weight_grad(a, grid, kernel, stride), want_dw)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def grids_of_every_layout(dtype):
    """A (2, 3, 7, 8, 9) grid of dtype: contiguous, a strided slice of a larger
    grid, a batch-major view of a channel-major array, and one flipped in y."""
    rng = np.random.default_rng(13)
    grid = rng.standard_normal((2, 3, 7, 8, 9)).astype(dtype)
    sliced = rng.standard_normal((2, 3, 14, 8, 18)).astype(dtype)[:, :, ::2, :, 1::2]
    swapped = np.ascontiguousarray(grid.swapaxes(0, 1)).swapaxes(0, 1)
    flipped = grid[:, :, :, ::-1]
    assert not any(g.flags.c_contiguous for g in (sliced, swapped, flipped))
    return grid, sliced, swapped, flipped


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [(0, 0, 0), (0, 1, 1), (1, 1, 1), (2, 0, 1)])
def test_pad_equals_np_pad(dtype, pad):
    for grid in grids_of_every_layout(dtype):
        got = _pad(grid, pad)
        want = np.pad(grid, ((0, 0), (0, 0), *((p, p) for p in pad)))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [(1, 3, 3), (3, 3, 3), (2, 2, 2)])
@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2), (2, 2, 2)])
def test_im2col_equals_the_sliding_window_form(dtype, kernel, stride):
    tz, ty, tx = stride
    for grid in grids_of_every_layout(dtype):
        win = sliding_window_view(grid, kernel, axis=(2, 3, 4))[:, :, ::tz, ::ty, ::tx]
        want = win.transpose(1, 5, 6, 7, 0, 2, 3, 4).reshape(grid.shape[1] * math.prod(kernel), -1)
        got = _im2col(grid, kernel, stride)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, grid)


def test_conv_backward_keeps_no_copy_larger_than_its_operands():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((1, 4, 4, 8, 8)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    for op, w in (
        (lambda w: conv3d(x, w, b), rng.standard_normal((4, 4, 3, 3, 3))),
        (lambda w: transpose_conv3d(x, w, (2, 2, 2)), rng.standard_normal((4, 4, 2, 2, 2))),
    ):
        w = Tensor(w, requires_grad=True)
        out = op(w)
        kept = [cell.cell_contents for cell in out._backward.__closure__]
        arrays = [v.data if isinstance(v, Tensor) else v for v in kept if isinstance(v, (Tensor, np.ndarray))]
        assert max(a.nbytes for a in arrays) <= max(t.data.nbytes for t in (x, w, b, out))


# ---------------------------------------------------------------------------
# Normalization, softmax
# ---------------------------------------------------------------------------

def test_channel_norm_standardizes():
    rng = np.random.default_rng(5)
    x = Tensor(5.0 + 3.0 * rng.standard_normal((2, 3, 4, 4, 4)))
    out = channel_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    for c in range(3):
        vals = out.data[:, c]
        assert abs(float(vals.mean())) < 1e-12
        assert abs(float(vals.var()) - 1.0) < 1e-4  # epsilon shrinks variance slightly


def test_channel_norm_gradients():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 3, 2, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = Tensor(rng.standard_normal(3), requires_grad=True)
    proj = rng.standard_normal((2, 3, 2, 3, 3))

    fd_check(
        lambda: proj_loss(channel_norm(x, gamma, beta), proj),
        [x, gamma, beta],
        tol=1e-5,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_norm_equals_the_var_formulas_bit_for_bit(dtype):
    rng = np.random.default_rng(8)
    x = Tensor((2.0 + 3.0 * rng.standard_normal((2, 3, 4, 5, 6))).astype(dtype), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3).astype(dtype), requires_grad=True)
    beta = Tensor(rng.standard_normal(3).astype(dtype), requires_grad=True)
    g = rng.standard_normal(x.data.shape).astype(dtype)
    out = channel_norm(x, gamma, beta)
    proj_loss(out, g).backward()

    axes, c = (0, 2, 3, 4), x.data.shape[1]
    n = x.data.size / c
    mu = x.data.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(x.data.var(axis=axes, keepdims=True) + NORM_EPS)
    xhat = (x.data - mu) * inv
    gview = gamma.data.reshape(1, c, 1, 1, 1)
    dxhat = g * gview
    term1 = dxhat.sum(axis=axes, keepdims=True)
    term2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
    for got, want in (
        (out.data, gview * xhat + beta.data.reshape(1, c, 1, 1, 1)),
        (gamma.grad, (g * xhat).sum(axis=axes)),
        (beta.grad, g.sum(axis=axes)),
        (x.grad, (inv / n) * (n * dxhat - term1 - xhat * term2)),
    ):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_softmax_channels_properties_and_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(3.0 * rng.standard_normal((2, 2, 2, 3, 3)), requires_grad=True)
    out = softmax_channels(x)
    sums = out.data.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    proj = rng.standard_normal(out.data.shape)
    fd_check(lambda: proj_loss(softmax_channels(x), proj), [x])


# ---------------------------------------------------------------------------
# Dense blocks and the full network
# ---------------------------------------------------------------------------

def test_dense_block_channel_arithmetic():
    params = init_params(NetConfig(seed=1))
    x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 2, 4, 4)))
    out = dense_block(x, params, 1)
    assert out.data.shape == (1, 8 + 2 * 4, 2, 4, 4)


def test_dense_block_zero_weights_concat_zeros():
    params = init_params(NetConfig(seed=1))
    for name, t in params.items():
        if name.startswith("enc1.layer"):
            t.data = np.zeros_like(t.data)
    x_arr = np.random.default_rng(1).standard_normal((1, 8, 2, 4, 4))
    out = dense_block(Tensor(x_arr), params, 1)
    assert np.array_equal(out.data[:, :8], x_arr)
    assert np.all(out.data[:, 8:] == 0.0)


def test_dense_block_gradients():
    params = init_params(NetConfig(seed=2))
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((1, 8, 2, 4, 4)), requires_grad=True)
    proj = rng.standard_normal((1, 16, 2, 4, 4))
    check = [x] + [params[n] for n in ("enc1.layer1.w", "enc1.layer2.w", "enc1.layer2.b")]

    fd_check(
        lambda: proj_loss(dense_block(x, params, 1), proj),
        check,
        tol=1e-5,
    )


def test_net_forward_shape_and_probability_contract():
    config = NetConfig(seed=3)
    params = init_params(config)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 1, 8, 32, 32)))
    out = net_forward(x, params, config)
    assert out.data.shape == (1, 2, 8, 32, 32)
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-9)
    assert out.data.min() >= 0.0


def test_net_forward_zero_head_gives_half():
    config = NetConfig(seed=0)
    params = init_params(config)
    params["head.w"].data = np.zeros_like(params["head.w"].data)
    params["head.b"].data = np.zeros_like(params["head.b"].data)
    x = Tensor(np.random.default_rng(3).standard_normal((1, 1, 8, 32, 32)))
    out = net_forward(x, params, config)
    assert np.all(out.data == 0.5)


def test_net_forward_rejects_indivisible_dims():
    config = NetConfig(seed=0)
    params = init_params(config)
    for bad in ((1, 1, 9, 32, 32), (1, 1, 8, 32, 30)):
        with pytest.raises(InputError):
            net_forward(Tensor(np.zeros(bad)), params, config)


def test_net_config_validation():
    assert [f.name for f in dataclasses.fields(NetConfig)] == ["seed"]
    strides = network_module.DOWNSAMPLE_STRIDES
    # each stride has a stage kernel, and the anisotropic ones come first
    assert all(s in network_module.STAGE_KERNEL for s in strides) and list(strides) == sorted(strides)
    assert network_module.CUMULATIVE_STRIDE == tuple(np.prod(strides, axis=0)) == (8, 32, 32)
    growth = network_module.LAYERS_PER_BLOCK * network_module.GROWTH_RATE
    assert network_module.ENCODER_CHANNELS == tuple(
        network_module.STEM_CHANNELS + k * growth for k in range(len(strides) + 1))


def test_net_config_names_the_field_it_rejects():
    with pytest.raises(InputError, match=r"^seed: expected an integer >= 0, got -1$"):
        NetConfig(seed=-1)
    with pytest.raises(TypeError, match="stem_channels"):
        NetConfig(stem_channels=4)


def test_conv_arguments_name_the_one_they_reject():
    x = Tensor(np.zeros((1, 1, 4, 4, 4)))
    w, b = Tensor(np.zeros((1, 1, 1, 1, 1))), Tensor(np.zeros(1))
    with pytest.raises(InputError, match=r"^stride: expected an integer >= 1, got 0$"):
        conv3d(x, w, b, stride=(0, 1, 1))
    with pytest.raises(InputError, match=r"^transpose_conv3d: kernel \(1, 1, 2\) does not fit stride \(1, 1, 1\); "):
        transpose_conv3d(x, Tensor(np.zeros((1, 1, 1, 1, 2))), stride=(1, 1, 1))
    with pytest.raises(InputError, match=r"^conv3d: kernel \(1, 1, 1\) does not fit stride \(1, 1, 2\); "):
        conv3d(x, w, b, stride=(1, 1, 2))
    with pytest.raises(InputError, match=r"^conv3d expects nonempty 5-d tensors, got \(1, 1, 0, 4, 4\) and "):
        conv3d(Tensor(np.zeros((1, 1, 0, 4, 4))), w, b)
    with pytest.raises(InputError, match=r"^conv3d: input dims \(4, 4, 4\) are not multiples of stride \(1, 3, 3\)$"):
        conv3d(x, Tensor(np.zeros((1, 1, 1, 3, 3))), b, stride=(1, 3, 3))
    with pytest.raises(InputError, match=r"^stride: expected 3 entries, got 2$"):
        transpose_conv3d(x, w, stride=(2, 2))


def test_init_params_scales_weights_by_fan_in():
    params = init_params(NetConfig())
    weights = [name for name in params if name.endswith(".w")]
    assert len(weights) == 1 + 5 * 3 + 5 * 2 + 1  # stem, encoder, decoder, head
    for name in weights:
        shape = params[name].data.shape
        # conv weights are (C_out, C_in, k...), transpose conv weights (C_in, C_out, k...)
        c_in = shape[0] if name.startswith("dec") and name.endswith(".up.w") else shape[1]
        bound = np.sqrt(1.0 / (c_in * np.prod(shape[2:])))
        peak = np.abs(params[name].data).max()
        assert 0.9 * bound < peak <= bound, name
    for name, t in params.items():
        if name.endswith((".b", ".beta")):
            assert np.all(t.data == 0.0), name
        elif name.endswith(".gamma"):
            assert np.all(t.data == 1.0), name


def test_end_to_end_loss_gradients():
    config = NetConfig(seed=4)
    params = init_params(config)
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0.0, 1.0, (1, 1, 8, 32, 32)), requires_grad=True)
    lung = (rng.random((1, 1, 8, 32, 32)) < 0.6).astype(float)
    target = ((rng.random((1, 1, 8, 32, 32)) < 0.3) & (lung > 0)).astype(float)

    def build():
        probs = net_forward(x, params, config)
        return jaccard_loss(take_channel(probs, 1), target, lung)

    check = [x] + [
        params[n]
        for n in (
            "stem.w",
            "enc1.down.w",
            "enc1.layer1.w",
            "enc2.layer1.w",
            "dec2.up.w",
            "dec1.w",
            "head.w",
            "head.b",
        )
    ]
    fd_check(build, check, tol=1e-4, samples=3)


def test_every_parameter_of_the_default_net_gets_a_gradient():
    """One float64 step of the default net moves every tensor init_params makes.

    A bias that feeds straight into channel_norm gets a zero gradient in exact
    arithmetic, so the stem and the transpose convs carry none: in this step
    their biases read 8.1e-20 to 8.7e-18, and every other tensor 4.8e-6 or
    more. At 8x32x32 the deepest stage sits at 1x1x1, where its norms see
    one voxel per channel and its layers get an exact zero at init; so this
    runs at 16x64x64.
    """
    config = NetConfig(seed=0)
    params = _clone_params(init_params(config), np.float64)
    _loss_for(phantom_training_cases(1, dims=(16, 64, 64))[0], params, config).backward()
    grads = {name: np.abs(t.grad).max() for name, t in params.items()}
    assert min(grads.values()) > 1e-10, min(grads, key=grads.get)
    assert len(grads) == 80


def test_a_first_gradient_is_stored_as_a_copy_in_the_tensors_dtype():
    t = Tensor(np.zeros(3, np.float32), requires_grad=True)
    given = np.array([1.0, -0.0, 2.5], np.float32)
    _accum(t, given)
    assert t.grad.dtype == np.float32 and not np.shares_memory(t.grad, given)
    _accum(t, np.ones(3, np.float32))
    assert np.array_equal(given, [1.0, -0.0, 2.5]) and np.signbit(given[1])
    assert np.array_equal(t.grad, [2.0, 1.0, 3.5])
    widened = Tensor(np.zeros(2, np.float32), requires_grad=True)
    _accum(widened, np.array([0.1, -0.0]))
    assert widened.grad.dtype == np.float32
    assert np.array_equal(widened.grad, np.float32([0.1, 0.0])) and not np.signbit(widened.grad[1])


def test_tape_is_freed_without_cyclic_gc():
    config = NetConfig(seed=5)
    params = init_params(config)
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(0.0, 1.0, (1, 1, 8, 32, 32)), requires_grad=True)
    lung = np.ones((1, 1, 8, 32, 32))
    target = (rng.random((1, 1, 8, 32, 32)) < 0.3).astype(float)
    gc.collect()
    gc.disable()
    try:
        loss = jaccard_loss(take_channel(net_forward(x, params, config), 1), target, lung)
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Dtype: float32 and float64 data keep their dtype through every op
# ---------------------------------------------------------------------------

def test_tensor_keeps_float_data_and_widens_the_rest_to_float64():
    for data, dtype in (
        (np.zeros(3, np.float64), np.float64),
        (np.zeros(3, np.float32), np.float32),
        (np.arange(3), np.float64),
        (np.arange(3, dtype=np.uint8), np.float64),
        (np.array([True, False]), np.float64),
        (np.zeros(3, np.float16), np.float64),
        (1, np.float64),
    ):
        assert Tensor(data).data.dtype == dtype
    kept = np.ones(3)
    assert Tensor(kept).data is kept


def tape_nodes(root: Tensor) -> list[Tensor]:
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def phantom_training_cases(n=9, dims=(8, 32, 32)):
    """n (volume, lobes, abnorm) phantom cases with noise, at the dims the default net takes."""
    cases = []
    for i in range(n):
        case = phantom.generate(phantom.random_spec(1 + i, dims=dims, n_lesions=1 + i % 4, noise_sigma_hu=10.0))
        cases.append((case.volume, case.lobes, case.abnorm_gt))
    return cases


def test_default_net_step_on_float32_data_stays_float32(monkeypatch):
    handed = set()  # the dtypes of the gradients the backward closures hand on

    def spy(t, g):
        handed.add(g.dtype)
        _accum(t, g)

    for module in (tensor_module, ops_module, loss_module):
        monkeypatch.setattr(module, "_accum", spy)
    config = NetConfig(seed=1)
    params = _clone_params(init_params(config), np.float32)
    loss = _loss_for(phantom_training_cases(1)[0], params, config, (5.0, 2))
    nodes = tape_nodes(loss)
    assert len(nodes) > 100
    assert {t.data.dtype for t in nodes} == {np.dtype(np.float32)}
    loss.backward()
    assert handed == {np.dtype(np.float32)}
    assert {t.grad.dtype for t in nodes if t.grad is not None} == {np.dtype(np.float32)}
    state = OptimizerState()
    assert optimizer_step(params, state)
    for name, t in params.items():
        assert t.data.dtype == state.m[name].dtype == state.v[name].dtype == np.float32
    result = train(NetConfig(), background_cases(10), epochs=1)
    assert {t.data.dtype for t in result.params.values()} == {np.dtype(np.float32)}


def test_backward_leaves_gradients_on_the_parameters_and_none_on_the_tape():
    config = NetConfig(seed=2)
    params = _clone_params(init_params(config), np.float32)
    loss = _loss_for(phantom_training_cases(1)[0], params, config, (-3.0, 0))
    inner = [t for t in tape_nodes(loss) if t._backward is not None and t is not loss]
    assert len(inner) > 50
    loss.backward()
    assert all(t.grad is not None for t in params.values())
    assert [t for t in inner if t.grad is not None] == []
    assert loss.grad is not None


def test_the_default_net_calls_its_ops_through_the_network_module(monkeypatch):
    """The benchmark's per-op replay records these three calls by patching
    exactly these names of the network module."""
    counts = dict.fromkeys(("conv3d", "transpose_conv3d", "channel_norm"), 0)
    for name in counts:
        def counted(*args, _name=name, _op=getattr(network_module, name), **kwargs):
            counts[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(network_module, name, counted)
    config = NetConfig(seed=0)
    x = np.random.default_rng(3).uniform(0.0, 1.0, (1, 1, 8, 32, 32))
    net_forward(Tensor(x), init_params(config), config)
    stages, layers = len(network_module.DOWNSAMPLE_STRIDES), network_module.LAYERS_PER_BLOCK
    assert counts == {
        "conv3d": 2 + stages * (2 + layers),
        "transpose_conv3d": stages,
        "channel_norm": 1 + stages * (1 + layers),
    }


def traced_peak_mb(fn):
    """fn's peak of traced allocations in MB; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def test_a_default_net_step_drops_each_spent_gradient():
    """Measured: 15.4 MB while inner tape nodes kept their gradients until
    the loss was dropped, 13.2 MB once backward() drops each when it is spent."""
    config = NetConfig(seed=1)
    case = phantom_training_cases(1)[0]
    params = _clone_params(init_params(config), np.float32)
    assert traced_peak_mb(lambda: _loss_for(case, params, config, sample_augment(0)).backward()) <= 14.3


def test_two_default_net_training_epochs_stay_under_a_traced_peak():
    """Measured: 20.9 MB while inner tape nodes kept their gradients, 18.6 MB
    now. The peak falls inside backward(): dropping the loss after the
    optimizer step instead of before it leaves it at 18.7 MB."""
    cases = phantom_training_cases(10)
    assert traced_peak_mb(lambda: train(NetConfig(seed=1), cases, 2)) <= 19.8


def test_training_drops_the_loss_and_its_tape_before_the_optimizer_step(monkeypatch):
    losses, dropped = [], []

    def loss_for(*args, **kwargs):
        loss = _loss_for(*args, **kwargs)
        losses.append(weakref.ref(loss.data))
        return loss

    def step(params, state):
        dropped.append(losses[-1]() is None)
        return optimizer_step(params, state)

    monkeypatch.setattr(train_module, "_loss_for", loss_for)
    monkeypatch.setattr(train_module, "optimizer_step", step)
    train(NetConfig(), background_cases(10), epochs=1)
    assert dropped == [True] * 9


def run_steps(cases, config, steps, dtype):
    """The training loop's steps on parameters of one dtype: losses and the final parameters.

    _prepare returns float32 data, so with float64 parameters every op
    promotes to float64 and the run is a float64 reference of the same steps."""
    params = _clone_params(init_params(config), dtype)
    state, losses = OptimizerState(), []
    for k in range(steps):
        loss = _loss_for(cases[k % len(cases)], params, config, sample_augment(k))
        assert loss.data.dtype == dtype
        loss.backward()
        optimizer_step(params, state)
        losses.append(loss.item())
    return np.array(losses), params


def test_float32_training_stays_within_a_stated_bound_of_a_float64_reference():
    """Training in float32 gives up byte identity with float64 training; this bounds the gap.

    The first loss differs only by the rounding of the inputs and weights.
    After that, the optimizer divides each gradient by its running RMS: its
    first step moves an entry by 10x its gradient below 1e-4 and by 1e-3
    above, so a gradient's rounding error grows into a parameter gap, and
    the runs drift apart. Measured with this test's steps at config seeds
    s = 1..8 (phantom seeds s to s + 8): at most 1.9e-3 on a loss and
    6.4e-3 on a parameter (s = 7; 1.3e-6 and 3.0e-5 at the others); over
    the benchmark's 36 training steps against float64 training, 1.4e-7 and
    5.7e-7. At s = 7 the gap starts at step 1, on weights: one of dec3's
    pre-activations lies within float32 rounding of 0, so the two runs take
    opposite branches of leaky_relu there, dec3.up.w's gradients differ by
    3.4% of their largest entry, and the first step leaves dec3.up.w 3.1e-4
    apart. The bounds are about 5x the largest.
    """
    config = NetConfig(seed=1)
    cases = phantom_training_cases()
    losses32, params32 = run_steps(cases, config, 18, np.float32)
    losses64, params64 = run_steps(cases, config, 18, np.float64)
    assert abs(losses32[0] - losses64[0]) <= 1e-5
    assert np.abs(losses32 - losses64).max() <= 1e-2
    assert max(np.abs(params32[n].data - params64[n].data).max() for n in params32) <= 3e-2


# ---------------------------------------------------------------------------
# Jaccard loss
# ---------------------------------------------------------------------------

def test_jaccard_zero_when_prediction_equals_target():
    rng = np.random.default_rng(10)
    y = (rng.random((1, 1, 4, 4, 4)) < 0.4).astype(float)
    lung = np.ones_like(y)
    loss = jaccard_loss(Tensor(y), y, lung)
    assert loss.item() == 0.0


def test_jaccard_disjoint_indicators():
    p = np.zeros((1, 1, 2, 2, 2))
    y = np.zeros((1, 1, 2, 2, 2))
    p[0, 0, 0, 0, 0] = 1.0
    y[0, 0, 1, 1, 1] = 1.0
    loss = jaccard_loss(Tensor(p), y, np.ones_like(p))
    assert abs(loss.item() - 2.0 / 3.0) < 1e-15


def test_jaccard_range_and_masking():
    rng = np.random.default_rng(11)
    p = Tensor(rng.uniform(0.01, 0.99, (1, 1, 6, 6, 6)), requires_grad=True)
    lung = (rng.random((1, 1, 6, 6, 6)) < 0.5).astype(float)
    y = ((rng.random((1, 1, 6, 6, 6)) < 0.4) & (lung > 0)).astype(float)
    loss = jaccard_loss(p, y, lung)
    assert 0.0 <= loss.item() < 1.0
    loss.backward()
    outside = lung == 0
    assert np.all(p.grad[outside] == 0.0)
    assert np.any(p.grad[lung == 1] != 0.0)


def test_jaccard_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    p = Tensor(rng.uniform(0.05, 0.95, (1, 1, 6, 6, 6)), requires_grad=True)
    lung = (rng.random((1, 1, 6, 6, 6)) < 0.6).astype(float)
    y = ((rng.random((1, 1, 6, 6, 6)) < 0.3) & (lung > 0)).astype(float)
    fd_check(lambda: jaccard_loss(p, y, lung), [p], tol=1e-7, samples=8)


def test_jaccard_input_validation():
    p = Tensor(np.full((1, 1, 2, 2, 2), 0.5))
    with pytest.raises(InputError):
        jaccard_loss(p, np.zeros((1, 1, 2, 2, 1)), np.ones((1, 1, 2, 2, 2)))
    for bad in (1.5, -0.5, np.nan):
        probs = np.full((1, 1, 2, 2, 2), 0.5)
        probs[0, 0, 1, 1, 1] = bad
        with pytest.raises(InputError, match="probabilities must lie in"):
            jaccard_loss(Tensor(probs), np.ones((1, 1, 2, 2, 2)), np.ones((1, 1, 2, 2, 2)))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def step_with(w: Tensor, grad, state: OptimizerState) -> bool:
    w.grad = grad
    ok = optimizer_step({"w": w}, state)
    assert w.grad is None  # the step consumes the gradient
    return ok


def test_optimizer_zero_gradient_keeps_params():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = OptimizerState()
    for grad in (np.zeros(2), None):  # no gradient counts as zeros
        assert step_with(w, grad, state)
        assert np.array_equal(w.data, [1.0, -2.0])
    # after a real step, a zero-grad step decays the first moment
    step_with(w, np.ones(2), state)
    m_before = state.m["w"].copy()
    step_with(w, None, state)
    assert np.all(np.abs(state.m["w"]) < np.abs(m_before))


def test_optimizer_skips_nonfinite_gradients():
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimizerState()
    ok = step_with(w, np.array([np.nan]), state)
    assert not ok
    assert state.skipped_steps == 1
    assert state.step_count == 0
    assert np.array_equal(w.data, [1.0])


def test_optimizer_descends_quadratic():
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimizerState()
    trace = []
    for _ in range(200):
        step_with(w, 2.0 * w.data, state)
        trace.append(abs(float(w.data[0])))
    tail = trace[20:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert trace[-1] < trace[50] < trace[0]


def test_bound_schedule_tightens_to_final_lr():
    prev_width = None
    for t in (1, 10, 100, 10_000):
        lower, upper = bound_schedule(t)
        assert 0.0 <= lower < FINAL_LR < upper
        width = upper - lower
        if prev_width is not None:
            assert width < prev_width
        prev_width = width
    lower, upper = bound_schedule(10**9)
    assert abs(lower - FINAL_LR) < 1e-6
    assert abs(upper - FINAL_LR) < 1e-6
    with pytest.raises(InputError):
        bound_schedule(0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def blob_lung(dims=(4, 8, 8)):
    z, y, x = np.indices(dims, dtype=float)
    cz, cy, cx = [(d - 1) / 2.0 for d in dims]
    r = ((z - cz) / (dims[0] * 0.4)) ** 2 + ((y - cy) / (dims[1] * 0.4)) ** 2 + (
        (x - cx) / (dims[2] * 0.4)
    ) ** 2
    return (r <= 1.0).astype(np.uint8)


def background_cases(n=10, dims=(8, 32, 32)):
    """n copies of one (volume, lobes, abnorm) case with no abnormal voxel."""
    lung = blob_lung(dims)
    volume = Volume(np.where(lung > 0, -850.0, -1024.0), (1.0, 1.0, 1.0))
    case = (volume, LabelMask(lung, (1.0, 1.0, 1.0)), LabelMask(np.zeros(dims, np.uint8), (1.0, 1.0, 1.0), (1,)))
    return [case] * n


def test_train_rejects_small_datasets():
    with pytest.raises(InputError):
        train(NetConfig(), background_cases(9), epochs=1)


@pytest.mark.parametrize("mismatch", ["dims", "spacing"])
def test_train_rejects_a_case_whose_grids_disagree(mismatch):
    cases = background_cases(10)
    volume, lobes, abnorm = cases[3]
    if mismatch == "dims":
        abnorm = LabelMask(np.zeros((8, 32, 16), np.uint8), abnorm.spacing_mm, (1,))
    else:
        abnorm = LabelMask(abnorm.data, (1.0, 1.0, 2.0), (1,))
    cases[3] = (volume, lobes, abnorm)
    with pytest.raises(GeometryError, match="^geometry mismatch: case 3 volume: .* vs case 3 abnorm: "):
        train(NetConfig(), cases, epochs=1)


@pytest.mark.parametrize("field, value", [("epochs", 0)])
def test_train_checks_its_own_arguments(field, value):
    arguments = {"epochs": 1, field: value}
    with pytest.raises(InputError, match=f"^{field}: "):
        train(NetConfig(), background_cases(10), **arguments)


def test_train_background_case_converges_fast():
    config = NetConfig(seed=5)
    result = train(config, background_cases(10), epochs=6)
    within_50 = [row.train_loss for row in result.history if row.iteration <= 50]
    assert min(within_50) < 0.05
    assert result.history[-1].train_loss < 0.05


def test_train_is_bit_deterministic():
    config = NetConfig(seed=6)
    cases = background_cases(10)
    r1 = train(config, cases, epochs=2)
    r2 = train(config, cases, epochs=2)
    assert r1.history == r2.history
    assert r1.best_val_loss == r2.best_val_loss
    assert all(
        np.array_equal(r1.params[k].data, r2.params[k].data) for k in r1.params
    )


def test_train_val_split_and_history_layout():
    config = NetConfig(seed=7)
    result = train(config, background_cases(12), epochs=3)
    assert len(result.val_indices) == 1
    per_epoch = (12 - 1)
    assert len(result.history) == 3 * per_epoch
    for i, row in enumerate(result.history, 1):
        assert row.iteration == i
        if i % per_epoch == 0:
            assert row.val_loss is not None
        else:
            assert row.val_loss is None
    assert result.best_val_loss <= min(r.val_loss for r in result.history if r.val_loss is not None) + 1e-15


def test_validation_views_share_the_parameters_and_record_no_tape():
    config = NetConfig(seed=3)
    params = _clone_params(init_params(config), np.float32)
    frozen = _frozen(params)
    for name, t in frozen.items():
        assert t.data is params[name].data and not t.requires_grad
    case = background_cases(1)[0]
    with_grad = _loss_for(case, params, config)
    without = _loss_for(case, frozen, config)
    assert with_grad._parents and without._parents == ()
    assert without.item() == with_grad.item()


def test_loss_csv_round_trip(tmp_path):
    config = NetConfig(seed=8)
    result = train(config, background_cases(10), epochs=2)
    path = tmp_path / "loss.csv"
    write_loss_csv(result.history, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "train_loss", "val_loss"]
    assert len(rows) == len(result.history) + 1
    for row, ref in zip(rows[1:], result.history):
        assert int(row[0]) == ref.iteration
        assert float(row[1]) == ref.train_loss
        if ref.val_loss is None:
            assert row[2] == ""
        else:
            assert float(row[2]) == ref.val_loss


def test_checkpoint_round_trip(tmp_path):
    config = NetConfig(seed=9)
    params = init_params(config)
    save_checkpoint(params, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
    x = Tensor(np.random.default_rng(4).standard_normal((1, 1, 8, 32, 32)))
    out_a = net_forward(x, params, config)
    out_b = net_forward(x, loaded, config)
    assert np.array_equal(out_a.data, out_b.data)


def test_checkpoint_error_paths(tmp_path):
    config = NetConfig(seed=10)
    params = init_params(config)
    save_checkpoint(params, tmp_path / "ckpt")
    with pytest.raises(HeaderError):
        load_checkpoint(tmp_path / "missing")
    (tmp_path / "ckpt.json").write_text("{not json")
    with pytest.raises(HeaderError):
        load_checkpoint(tmp_path / "ckpt")
    save_checkpoint(params, tmp_path / "ckpt2")
    raw = (tmp_path / "ckpt2.raw").read_bytes()
    (tmp_path / "ckpt2.raw").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(HeaderError):
        load_checkpoint(tmp_path / "ckpt2")
    manifest = json.loads((tmp_path / "ckpt2.json").read_text())
    first, second = manifest["tensors"][:2]
    for bad_entry in (
        {"name": second["name"], "shape": first["shape"]},  # a name given twice
        {"shape": first["shape"]},
        {"name": first["name"]},
        {"name": first["name"], "shape": ["four"]},
        {"name": first["name"], "shape": [2.5]},
        {"name": first["name"], "shape": 4},
    ):
        manifest["tensors"][0] = bad_entry
        (tmp_path / "ckpt2.json").write_text(json.dumps(manifest))
        with pytest.raises(HeaderError, match=r"ckpt2\.json: tensors: "):
            load_checkpoint(tmp_path / "ckpt2")


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def asymmetric_case(seed=0, dims=(3, 4, 5)):
    """A (volume, lobes, abnorm) case whose HU lie inside the lung window and
    whose grids all change under a flip along any axis."""
    rng = np.random.default_rng(seed)
    spacing = (1.0, 1.0, 1.0)
    case = (
        Volume(rng.uniform(-1300.0, 100.0, size=dims), spacing),
        LabelMask(rng.integers(0, 2, size=dims), spacing),
        LabelMask(rng.integers(0, 2, size=dims), spacing, (1,)),
    )
    for grid in case:
        for axis in (0, 1, 2):
            assert not np.array_equal(np.flip(grid.data, axis), grid.data)
    return case


def test_augment_deterministic():
    case = asymmetric_case()
    assert sample_augment(99) == sample_augment(99)
    for a, b in zip(_prepare(case, sample_augment(123)), _prepare(case, sample_augment(123))):
        np.testing.assert_array_equal(a, b)


def test_augment_flip_is_involution():
    volume, lobes, abnorm = asymmetric_case(4)
    plain = _prepare((volume, lobes, abnorm))
    for axis in (0, 1, 2):
        flipped = (
            Volume(np.flip(volume.data, axis), volume.spacing_mm),
            LabelMask(np.flip(lobes.data, axis), lobes.spacing_mm),
            LabelMask(np.flip(abnorm.data, axis), abnorm.spacing_mm, (1,)),
        )
        for got, want in zip(_prepare(flipped, (0.0, axis)), plain):
            np.testing.assert_array_equal(got, want)


def test_augment_shift_within_bounds_and_uniform_flip_rates():
    counts = {None: 0, 0: 0, 1: 0, 2: 0}
    for seed in range(10_000):
        shift, axis = sample_augment(seed)
        assert -20.0 <= shift <= 20.0
        counts[axis] += 1
    assert abs(counts[None] / 10_000 - 0.5) < 0.02
    for axis in (0, 1, 2):
        assert abs(counts[axis] / 10_000 - 1 / 6) < 0.02


def test_augment_matches_manual_composition():
    case = volume, lobes, abnorm = asymmetric_case(17)
    axes = set()
    for seed in range(12):
        shift, axis = sample_augment(seed)
        axes.add(axis)
        x, y, m = _prepare(case, (shift, axis))
        image, target, lung = volume.data + shift, abnorm.data, lobes.data
        if axis is not None:
            image, target, lung = (np.flip(a, axis) for a in (image, target, lung))
        np.testing.assert_array_equal(x[0, 0], clip_normalize(Volume(image, (1, 1, 1))).data)
        np.testing.assert_array_equal(y[0, 0], target)
        np.testing.assert_array_equal(m[0, 0], lung)
        assert x.dtype == y.dtype == m.dtype == np.float32
    assert axes == {None, 0, 1, 2}


def test_augment_flips_image_target_and_lung_together():
    case = asymmetric_case(8)
    x0, y0, m0 = _prepare(case)
    for axis in (0, 1, 2):
        x, y, m = _prepare(case, (0.0, axis))
        np.testing.assert_array_equal(x, np.flip(x0, axis + 2))
        np.testing.assert_array_equal(y, np.flip(y0, axis + 2))
        np.testing.assert_array_equal(m, np.flip(m0, axis + 2))


def test_augment_does_not_mutate_input():
    case = asymmetric_case(1)
    before = [grid.data.copy() for grid in case]
    for axis in (None, 0, 1, 2):
        _prepare(case, (7.5, axis))
    for grid, b in zip(case, before):
        np.testing.assert_array_equal(grid.data, b)
