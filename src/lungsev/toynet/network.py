"""Anisotropic dense encoder-decoder for volumetric binary segmentation.

Layout: a stem conv, then num_dense_blocks stages of [strided downsample
conv -> dense block]. Early stages downsample only in-plane with (1,2,2)
strides and use (1,3,3) kernels; once strides become isotropic (2,2,2) the
kernels switch to (3,3,3). The decoder mirrors the encoder: each stage is a
transpose conv (kernel = stride) back to the matching encoder resolution,
concatenation with that skip tensor, and one composite conv. A 1x1x1 head
plus channelwise softmax yields two per-voxel class probabilities.

Dense blocks follow the pre-activation pattern: every layer applies
norm -> LeakyReLU -> conv to the concatenation of the block input and all
previous layer outputs, emitting growth_rate channels.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .ops import channel_norm, conv3d, transpose_conv3d
from .tensor import Tensor, concat, leaky_relu, softmax_channels

ANISO_STRIDE = (1, 2, 2)
ISO_STRIDE = (2, 2, 2)
IN_CHANNELS = 1
OUT_CHANNELS = 2
STEM_KERNEL = (1, 3, 3)
LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class NetConfig:
    stem_channels: int = 8
    num_dense_blocks: int = 5
    layers_per_block: int = 2
    growth_rate: int = 4
    downsample_strides: tuple[tuple[int, int, int], ...] = (
        ANISO_STRIDE,
        ANISO_STRIDE,
        ISO_STRIDE,
        ISO_STRIDE,
        ISO_STRIDE,
    )
    norm_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.stem_channels < 1 or self.layers_per_block < 1 or self.growth_rate < 1:
            raise InputError("stem/layers/growth must be >= 1")
        strides = tuple(tuple(int(v) for v in s) for s in self.downsample_strides)
        if len(strides) != self.num_dense_blocks or not strides:
            raise InputError("need one downsample stride per dense block")
        for s in strides:
            if s not in (ANISO_STRIDE, ISO_STRIDE):
                raise InputError(f"stride {s} must be {ANISO_STRIDE} or {ISO_STRIDE}")
        # in-plane-only downsampling must come first, isotropic after
        seen_iso = False
        for s in strides:
            if s == ISO_STRIDE:
                seen_iso = True
            elif seen_iso:
                raise InputError("anisotropic strides must precede isotropic ones")
        object.__setattr__(self, "downsample_strides", strides)

    @property
    def cumulative_stride(self) -> tuple[int, int, int]:
        cum = [1, 1, 1]
        for s in self.downsample_strides:
            cum = [c * v for c, v in zip(cum, s)]
        return tuple(cum)

    def block_kernel(self, index: int) -> tuple[int, int, int]:
        """Conv kernel for stage `index` (1-based): in-plane while the
        matching stride is anisotropic, full 3-d once isotropic."""
        return (3, 3, 3) if self.downsample_strides[index - 1] == ISO_STRIDE else (1, 3, 3)

    def encoder_channels(self) -> list[int]:
        """Channel width at each resolution level 0..num_dense_blocks."""
        ch = [self.stem_channels]
        for _ in range(self.num_dense_blocks):
            ch.append(ch[-1] + self.layers_per_block * self.growth_rate)
        return ch


def init_params(config: NetConfig) -> dict[str, Tensor]:
    """Fan-in-scaled uniform weights, zero biases, unit norm scales; seeded."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}

    def conv_p(name, c_out, c_in, kernel):
        fan_in = c_in * kernel[0] * kernel[1] * kernel[2]
        bound = math.sqrt(1.0 / fan_in)
        params[f"{name}.w"] = Tensor(
            rng.uniform(-bound, bound, size=(c_out, c_in, *kernel)), requires_grad=True, name=f"{name}.w"
        )
        params[f"{name}.b"] = Tensor(np.zeros(c_out), requires_grad=True, name=f"{name}.b")

    def tconv_p(name, c_in, c_out, kernel):
        fan_in = c_in * kernel[0] * kernel[1] * kernel[2]
        bound = math.sqrt(1.0 / fan_in)
        params[f"{name}.w"] = Tensor(
            rng.uniform(-bound, bound, size=(c_in, c_out, *kernel)), requires_grad=True, name=f"{name}.w"
        )
        params[f"{name}.b"] = Tensor(np.zeros(c_out), requires_grad=True, name=f"{name}.b")

    def norm_p(name, c):
        params[f"{name}.gamma"] = Tensor(np.ones(c), requires_grad=True, name=f"{name}.gamma")
        params[f"{name}.beta"] = Tensor(np.zeros(c), requires_grad=True, name=f"{name}.beta")

    ch = config.encoder_channels()
    conv_p("stem", ch[0], IN_CHANNELS, STEM_KERNEL)
    norm_p("stem.norm", ch[0])

    for k in range(1, config.num_dense_blocks + 1):
        stride = config.downsample_strides[k - 1]
        kernel = config.block_kernel(k)
        conv_p(f"enc{k}.down", ch[k - 1], ch[k - 1], stride)
        for j in range(1, config.layers_per_block + 1):
            c_in = ch[k - 1] + (j - 1) * config.growth_rate
            norm_p(f"enc{k}.layer{j}.norm", c_in)
            conv_p(f"enc{k}.layer{j}", config.growth_rate, c_in, kernel)

    for k in range(config.num_dense_blocks, 0, -1):
        stride = config.downsample_strides[k - 1]
        kernel = config.block_kernel(k)
        tconv_p(f"dec{k}.up", ch[k], ch[k - 1], stride)
        norm_p(f"dec{k}.norm", 2 * ch[k - 1])
        conv_p(f"dec{k}", ch[k - 1], 2 * ch[k - 1], kernel)

    conv_p("head", OUT_CHANNELS, ch[0], (1, 1, 1))
    return params


def _maybe_norm(x: Tensor, params, name, config: NetConfig) -> Tensor:
    if not config.norm_enabled:
        return x
    return channel_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"])


def dense_block(x: Tensor, params: dict, config: NetConfig, index: int) -> Tensor:
    feats = [x]
    for j in range(1, config.layers_per_block + 1):
        h = feats[0] if len(feats) == 1 else concat(feats, axis=1)
        h = _maybe_norm(h, params, f"enc{index}.layer{j}.norm", config)
        h = leaky_relu(h, LEAKY_SLOPE)
        h = conv3d(h, params[f"enc{index}.layer{j}.w"], params[f"enc{index}.layer{j}.b"],
                   stride=(1, 1, 1), padding="same")
        feats.append(h)
    return concat(feats, axis=1)


def net_forward(x: Tensor, params: dict, config: NetConfig) -> Tensor:
    """Per-voxel class probabilities, shape (B, OUT_CHANNELS, Z, Y, X)."""
    if x.data.ndim != 5:
        raise InputError(f"expected (B,C,Z,Y,X) input, got shape {x.data.shape}")
    if x.data.shape[1] != IN_CHANNELS:
        raise InputError(f"expected {IN_CHANNELS} input channels, got {x.data.shape[1]}")
    cum = config.cumulative_stride
    spatial = x.data.shape[2:]
    if any(d % c != 0 or d < c for d, c in zip(spatial, cum)):
        raise InputError(
            f"input spatial dims {spatial} must be positive multiples of the "
            f"cumulative stride {cum}"
        )

    h = conv3d(x, params["stem.w"], params["stem.b"], stride=(1, 1, 1), padding="same")
    h = _maybe_norm(h, params, "stem.norm", config)
    h = leaky_relu(h, LEAKY_SLOPE)

    skips = []
    for k in range(1, config.num_dense_blocks + 1):
        skips.append(h)
        stride = config.downsample_strides[k - 1]
        h = conv3d(h, params[f"enc{k}.down.w"], params[f"enc{k}.down.b"],
                   stride=stride, padding=(0, 0, 0))
        h = dense_block(h, params, config, k)

    for k in range(config.num_dense_blocks, 0, -1):
        stride = config.downsample_strides[k - 1]
        h = transpose_conv3d(h, params[f"dec{k}.up.w"], params[f"dec{k}.up.b"], stride=stride)
        h = concat([h, skips[k - 1]], axis=1)
        h = _maybe_norm(h, params, f"dec{k}.norm", config)
        h = leaky_relu(h, LEAKY_SLOPE)
        h = conv3d(h, params[f"dec{k}.w"], params[f"dec{k}.b"], stride=(1, 1, 1), padding="same")

    logits = conv3d(h, params["head.w"], params["head.b"], stride=(1, 1, 1), padding=(0, 0, 0))
    return softmax_channels(logits)
