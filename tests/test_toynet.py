"""Tensor engine and network tests: finite differences, adjoints, training."""

import csv
import json

import numpy as np
import pytest

from lungsev.errors import HeaderError, InputError, InternalError
from lungsev.toynet import (
    NetConfig,
    OptimizerState,
    Sample,
    Tensor,
    bound_schedule,
    channel_norm,
    concat,
    conv3d,
    dense_block,
    init_params,
    jaccard_loss,
    load_checkpoint,
    mul,
    net_forward,
    optimizer_step,
    save_checkpoint,
    set_debug_finite,
    softmax_channels,
    take_channel,
    train,
    transpose_conv3d,
    tsum,
    write_loss_csv,
)
from lungsev.toynet.optim import FINAL_LR


def proj_loss(out: Tensor, proj: np.ndarray) -> Tensor:
    return tsum(mul(out, Tensor(proj)))


def fd_check(build_loss, tensors, h=1e-5, tol=1e-6, samples=4, seed=0):
    """Central finite differences vs backprop on sampled parameter entries."""
    loss = build_loss()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    analytic = {id(t): (np.zeros_like(t.data) if t.grad is None else t.grad.copy()) for t in tensors}
    rng = np.random.default_rng(seed)
    for t in tensors:
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
                f"{t.name or 'tensor'}[{i}]: numeric {num} vs analytic {ana}"
            )


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 1, 3, 5, 5)))
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0
    out = conv3d(x, Tensor(w), Tensor(np.zeros(1)), stride=(1, 1, 1), padding="same")
    assert np.array_equal(out.data, x.data)


def test_conv_ones_kernel_window_sum():
    x = Tensor(np.ones((1, 1, 2, 5, 5)))
    w = Tensor(np.ones((1, 1, 1, 3, 3)))
    out = conv3d(x, w, Tensor(np.zeros(1)), stride=(1, 1, 1), padding="same")
    assert out.data.shape == (1, 1, 2, 5, 5)
    assert out.data[0, 0, 1, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0, 0] == 4.0  # corner sees a 2x2 window


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 2, 3, 6, 6)), requires_grad=True, name="x")
    w = Tensor(0.3 * rng.standard_normal((3, 2, 1, 3, 3)), requires_grad=True, name="w")
    b = Tensor(rng.standard_normal(3), requires_grad=True, name="b")
    proj = rng.standard_normal((2, 3, 3, 6, 6))

    fd_check(
        lambda: proj_loss(conv3d(x, w, b, stride=(1, 1, 1), padding="same"), proj),
        [x, w, b],
    )


def test_strided_conv_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((1, 3, 4, 6, 6)), requires_grad=True, name="x")
    w = Tensor(0.3 * rng.standard_normal((4, 3, 2, 2, 2)), requires_grad=True, name="w")
    b = Tensor(rng.standard_normal(4), requires_grad=True, name="b")
    proj = rng.standard_normal((1, 4, 2, 3, 3))

    fd_check(
        lambda: proj_loss(conv3d(x, w, b, stride=(2, 2, 2), padding=(0, 0, 0)), proj),
        [x, w, b],
    )


def test_conv_shape_errors():
    x = Tensor(np.zeros((1, 2, 4, 4, 4)))
    w = Tensor(np.zeros((3, 5, 1, 3, 3)))  # channel mismatch
    with pytest.raises(InputError):
        conv3d(x, w, Tensor(np.zeros(3)))
    with pytest.raises(InputError):
        conv3d(x, Tensor(np.zeros((3, 2, 2, 3, 3))), Tensor(np.zeros(3)), padding="same")


# ---------------------------------------------------------------------------
# Transpose convolution
# ---------------------------------------------------------------------------

def test_tconv_shape_contract():
    x = Tensor(np.zeros((2, 3, 4, 4, 4)))
    w = Tensor(np.zeros((3, 5, 1, 2, 2)))
    out = transpose_conv3d(x, w, Tensor(np.zeros(5)), stride=(1, 2, 2))
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
        zero4 = Tensor(np.zeros(4))
        zero3 = Tensor(np.zeros(3))
        cx = conv3d(x, w, zero4, stride=stride, padding=(0, 0, 0))
        y = Tensor(rng.standard_normal(cx.data.shape))
        ty = transpose_conv3d(y, w, zero3, stride=stride)
        lhs = float((cx.data * y.data).sum())
        rhs = float((x.data * ty.data).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_tconv_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 4, 2, 3, 3)), requires_grad=True, name="x")
    w = Tensor(0.3 * rng.standard_normal((4, 2, 2, 2, 2)), requires_grad=True, name="w")
    b = Tensor(rng.standard_normal(2), requires_grad=True, name="b")
    proj = rng.standard_normal((1, 2, 4, 6, 6))

    fd_check(
        lambda: proj_loss(transpose_conv3d(x, w, b, stride=(2, 2, 2)), proj),
        [x, w, b],
    )


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
    x = Tensor(rng.standard_normal((2, 3, 2, 3, 3)), requires_grad=True, name="x")
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True, name="gamma")
    beta = Tensor(rng.standard_normal(3), requires_grad=True, name="beta")
    proj = rng.standard_normal((2, 3, 2, 3, 3))

    fd_check(
        lambda: proj_loss(channel_norm(x, gamma, beta), proj),
        [x, gamma, beta],
        tol=1e-5,
    )


def test_softmax_channels_properties_and_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(3.0 * rng.standard_normal((2, 2, 2, 3, 3)), requires_grad=True, name="logits")
    out = softmax_channels(x)
    sums = out.data.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    proj = rng.standard_normal(out.data.shape)
    fd_check(lambda: proj_loss(softmax_channels(x), proj), [x])


def test_debug_finite_hook():
    set_debug_finite(True)
    try:
        with pytest.raises(InternalError):
            Tensor(np.array([1.0, np.inf]))
    finally:
        set_debug_finite(False)


# ---------------------------------------------------------------------------
# Dense blocks and the full network
# ---------------------------------------------------------------------------

def toy_config(**overrides):
    defaults = dict(
        stem_channels=4,
        num_dense_blocks=2,
        layers_per_block=1,
        growth_rate=3,
        downsample_strides=((1, 2, 2), (2, 2, 2)),
        norm_enabled=False,
        seed=0,
    )
    defaults.update(overrides)
    return NetConfig(**defaults)


def test_dense_block_channel_arithmetic():
    config = NetConfig(num_dense_blocks=1, downsample_strides=((1, 2, 2),), seed=1)
    params = init_params(config)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 2, 4, 4)))
    out = dense_block(x, params, config, 1)
    assert out.data.shape == (1, 8 + 2 * 4, 2, 4, 4)


def test_dense_block_zero_weights_concat_zeros():
    config = NetConfig(
        num_dense_blocks=1, downsample_strides=((1, 2, 2),), norm_enabled=False, seed=1
    )
    params = init_params(config)
    for name, t in params.items():
        if name.startswith("enc1.layer"):
            t.data = np.zeros_like(t.data)
    x_arr = np.random.default_rng(1).standard_normal((1, 8, 2, 4, 4))
    out = dense_block(Tensor(x_arr), params, config, 1)
    assert np.array_equal(out.data[:, :8], x_arr)
    assert np.all(out.data[:, 8:] == 0.0)


def test_dense_block_gradients():
    config = NetConfig(
        num_dense_blocks=1,
        downsample_strides=((1, 2, 2),),
        layers_per_block=2,
        norm_enabled=False,
        seed=2,
    )
    params = init_params(config)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((1, 8, 2, 4, 4)), requires_grad=True, name="x")
    proj = rng.standard_normal((1, 16, 2, 4, 4))
    check = [x] + [params[n] for n in ("enc1.layer1.w", "enc1.layer2.w", "enc1.layer2.b")]

    fd_check(
        lambda: proj_loss(dense_block(x, params, config, 1), proj),
        check,
        tol=1e-5,
    )


def test_net_forward_shape_and_probability_contract():
    config = NetConfig(seed=3)  # full five-block default
    params = init_params(config)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 1, 8, 32, 32)))
    out = net_forward(x, params, config)
    assert out.data.shape == (1, 2, 8, 32, 32)
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-9)
    assert out.data.min() >= 0.0


def test_net_forward_zero_head_gives_half():
    config = toy_config()
    params = init_params(config)
    params["head.w"].data = np.zeros_like(params["head.w"].data)
    params["head.b"].data = np.zeros_like(params["head.b"].data)
    x = Tensor(np.random.default_rng(3).standard_normal((1, 1, 4, 8, 8)))
    out = net_forward(x, params, config)
    assert np.all(out.data == 0.5)


def test_net_forward_rejects_indivisible_dims():
    config = NetConfig(seed=0)
    params = init_params(config)
    for bad in ((1, 1, 9, 32, 32), (1, 1, 8, 32, 30)):
        with pytest.raises(InputError):
            net_forward(Tensor(np.zeros(bad)), params, config)


def test_net_config_validation():
    with pytest.raises(InputError):
        NetConfig(downsample_strides=((2, 2, 2), (1, 2, 2)), num_dense_blocks=2)
    with pytest.raises(InputError):
        NetConfig(downsample_strides=((1, 3, 3),), num_dense_blocks=1)
    with pytest.raises(InputError):
        NetConfig(num_dense_blocks=3)  # stride count mismatch
    assert NetConfig().cumulative_stride == (8, 32, 32)


def test_end_to_end_loss_gradients():
    config = toy_config(seed=4)
    params = init_params(config)
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0.0, 1.0, (1, 1, 4, 16, 16)), requires_grad=True, name="input")
    lung = (rng.random((1, 1, 4, 16, 16)) < 0.6).astype(float)
    target = ((rng.random((1, 1, 4, 16, 16)) < 0.3) & (lung > 0)).astype(float)

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
    p = Tensor(rng.uniform(0.05, 0.95, (1, 1, 6, 6, 6)), requires_grad=True, name="p")
    lung = (rng.random((1, 1, 6, 6, 6)) < 0.6).astype(float)
    y = ((rng.random((1, 1, 6, 6, 6)) < 0.3) & (lung > 0)).astype(float)
    fd_check(lambda: jaccard_loss(p, y, lung), [p], tol=1e-7, samples=8)


def test_jaccard_input_validation():
    p = Tensor(np.full((1, 1, 2, 2, 2), 0.5))
    with pytest.raises(InputError):
        jaccard_loss(p, np.zeros((1, 1, 2, 2, 1)), np.ones((1, 1, 2, 2, 2)))
    with pytest.raises(InputError):
        jaccard_loss(p, np.full((1, 1, 2, 2, 2), 0.5), np.ones((1, 1, 2, 2, 2)))
    with pytest.raises(InputError):
        jaccard_loss(Tensor(np.full((1, 1, 2, 2, 2), 1.5)), np.ones((1, 1, 2, 2, 2)), np.ones((1, 1, 2, 2, 2)))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_optimizer_zero_gradient_keeps_params():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="w")
    state = OptimizerState()
    ok = optimizer_step({"w": w}, {"w": np.zeros(2)}, state)
    assert ok
    assert np.array_equal(w.data, [1.0, -2.0])
    # after a real step, a zero-grad step decays the first moment
    optimizer_step({"w": w}, {"w": np.ones(2)}, state)
    m_before = state.m["w"].copy()
    optimizer_step({"w": w}, {"w": np.zeros(2)}, state)
    assert np.all(np.abs(state.m["w"]) < np.abs(m_before))


def test_optimizer_skips_nonfinite_gradients():
    w = Tensor(np.array([1.0]), requires_grad=True, name="w")
    state = OptimizerState()
    ok = optimizer_step({"w": w}, {"w": np.array([np.nan])}, state)
    assert not ok
    assert state.skipped_steps == 1
    assert state.step_count == 0
    assert np.array_equal(w.data, [1.0])


def test_optimizer_descends_quadratic():
    w = Tensor(np.array([1.0]), requires_grad=True, name="w")
    state = OptimizerState(lr=0.001)
    trace = []
    for _ in range(200):
        g = 2.0 * w.data
        optimizer_step({"w": w}, {"w": g}, state)
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


def background_samples(n=10, dims=(4, 8, 8)):
    lung = blob_lung(dims)
    image = np.where(lung > 0, -850.0, -1024.0)
    return [Sample(image, np.zeros(dims), lung) for _ in range(n)]


def test_train_rejects_small_datasets():
    config = toy_config(norm_enabled=True)
    with pytest.raises(InputError):
        train(config, background_samples(9), epochs=1)


def test_train_background_case_converges_fast():
    config = toy_config(norm_enabled=True, seed=5)
    result = train(config, background_samples(10), epochs=6)
    within_50 = [row.train_loss for row in result.history if row.iteration <= 50]
    assert min(within_50) < 0.05
    assert result.history[-1].train_loss < 0.05


def test_train_is_bit_deterministic():
    config = toy_config(norm_enabled=True, seed=6)
    samples = background_samples(10)
    r1 = train(config, samples, epochs=2)
    r2 = train(config, samples, epochs=2)
    assert r1.history == r2.history
    assert r1.best_val_loss == r2.best_val_loss
    assert all(
        np.array_equal(r1.params[k].data, r2.params[k].data) for k in r1.params
    )


def test_train_val_split_and_history_layout():
    config = toy_config(norm_enabled=True, seed=7)
    samples = background_samples(12)
    result = train(config, samples, epochs=3)
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


def test_loss_csv_round_trip(tmp_path):
    config = toy_config(norm_enabled=True, seed=8)
    result = train(config, background_samples(10), epochs=2)
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
    config = toy_config(seed=9)
    params = init_params(config)
    save_checkpoint(params, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
    x = Tensor(np.random.default_rng(4).standard_normal((1, 1, 2, 8, 8)))
    out_a = net_forward(x, params, config)
    out_b = net_forward(x, loaded, config)
    assert np.array_equal(out_a.data, out_b.data)


def test_checkpoint_error_paths(tmp_path):
    config = toy_config(seed=10)
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
    first = manifest["tensors"][0]
    for bad_entry in (
        {"shape": first["shape"]},
        {"name": first["name"]},
        {"name": first["name"], "shape": ["four"]},
        {"name": first["name"], "shape": [2.5]},
        {"name": first["name"], "shape": 4},
    ):
        manifest["tensors"][0] = bad_entry
        (tmp_path / "ckpt2.json").write_text(json.dumps(manifest))
        with pytest.raises(HeaderError, match="malformed checkpoint manifest"):
            load_checkpoint(tmp_path / "ckpt2")


def test_sample_validation():
    with pytest.raises(InputError):
        Sample(np.zeros((4, 4, 4)), np.zeros((4, 4, 3)), np.zeros((4, 4, 4)))
    with pytest.raises(InputError):
        Sample(np.zeros((4, 4, 4)), np.full((4, 4, 4), 2.0), np.zeros((4, 4, 4)))
