"""Anisotropic dense encoder-decoder for volumetric binary segmentation.

Layout: a stem conv, then one stage per downsample stride of [strided
downsample conv -> dense block]. Early stages downsample only in-plane with
(1,2,2) strides and use (1,3,3) kernels; once strides become isotropic
(2,2,2) the kernels switch to (3,3,3). The decoder mirrors the encoder: each
stage is a transpose conv (kernel = stride) back to the matching encoder
resolution, concatenation with that skip tensor, and one composite conv. A
1x1x1 head plus channelwise softmax yields two per-voxel class probabilities.

Dense blocks follow the pre-activation pattern: every layer applies
norm -> LeakyReLU -> conv to the concatenation of the block input and all
previous layer outputs, emitting GROWTH_RATE channels.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, at_least, checked
from .ops import channel_norm, conv3d, transpose_conv3d
from .tensor import Tensor, concat, leaky_relu, softmax_channels

ANISO_STRIDE = (1, 2, 2)
ISO_STRIDE = (2, 2, 2)
IN_CHANNELS = 1
OUT_CHANNELS = 2
STEM_KERNEL = (1, 3, 3)
# A stage's conv kernel: in-plane while its stride is anisotropic, full 3-d once isotropic.
STAGE_KERNEL = {ANISO_STRIDE: (1, 3, 3), ISO_STRIDE: (3, 3, 3)}

# The one architecture: a stem of STEM_CHANNELS, then one stage per stride,
# each adding LAYERS_PER_BLOCK layers of GROWTH_RATE channels.
STEM_CHANNELS = 8
LAYERS_PER_BLOCK = 2
GROWTH_RATE = 4
DOWNSAMPLE_STRIDES = (ANISO_STRIDE, ANISO_STRIDE, ISO_STRIDE, ISO_STRIDE, ISO_STRIDE)
# The product of the strides: input dims must be multiples of it.
CUMULATIVE_STRIDE = (8, 32, 32)
# Channel width at each resolution level, 0 to one per stride.
ENCODER_CHANNELS = (8, 16, 24, 32, 40, 48)


@dataclass(frozen=True)
class NetConfig:
    """The one setting of a run: the seed of the initial weights and of
    training's split, order and augmentation."""

    seed: int = 0

    def __post_init__(self):
        checked("seed", self.seed, at_least(0))


def init_params(config: NetConfig) -> dict[str, Tensor]:
    """Fan-in-scaled uniform weights, zero biases, unit norm scales; seeded.
    The stem and the transpose convs carry no bias, as each feeds a channel_norm,
    which removes any per-channel constant; every other conv carries one."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}

    def conv_p(name, c_in, c_out, kernel, transpose=False, bias=True):
        """Weights uniform within sqrt(1/fan_in), fan_in = c_in * kernel volume,
        laid out (C_out, C_in, ...) for a conv and (C_in, C_out, ...) for a
        transpose conv; with bias, a zero bias over the output channels."""
        bound = math.sqrt(1.0 / (c_in * math.prod(kernel)))
        shape = (c_in, c_out, *kernel) if transpose else (c_out, c_in, *kernel)
        params[f"{name}.w"] = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
        if bias:
            params[f"{name}.b"] = Tensor(np.zeros(c_out), requires_grad=True)

    def norm_p(name, c):
        params[f"{name}.gamma"] = Tensor(np.ones(c), requires_grad=True)
        params[f"{name}.beta"] = Tensor(np.zeros(c), requires_grad=True)

    ch = ENCODER_CHANNELS
    conv_p("stem", IN_CHANNELS, ch[0], STEM_KERNEL, bias=False)
    norm_p("stem.norm", ch[0])

    for k, stride in enumerate(DOWNSAMPLE_STRIDES, 1):
        kernel = STAGE_KERNEL[stride]
        conv_p(f"enc{k}.down", ch[k - 1], ch[k - 1], stride)
        for j in range(1, LAYERS_PER_BLOCK + 1):
            c_in = ch[k - 1] + (j - 1) * GROWTH_RATE
            norm_p(f"enc{k}.layer{j}.norm", c_in)
            conv_p(f"enc{k}.layer{j}", c_in, GROWTH_RATE, kernel)

    for k, stride in reversed(list(enumerate(DOWNSAMPLE_STRIDES, 1))):
        kernel = STAGE_KERNEL[stride]
        conv_p(f"dec{k}.up", ch[k], ch[k - 1], stride, transpose=True, bias=False)
        norm_p(f"dec{k}.norm", 2 * ch[k - 1])
        conv_p(f"dec{k}", 2 * ch[k - 1], ch[k - 1], kernel)

    conv_p("head", ch[0], OUT_CHANNELS, (1, 1, 1))
    return params


def _norm(x: Tensor, params, name) -> Tensor:
    return channel_norm(x, params[f"{name}.gamma"], params[f"{name}.beta"])


def dense_block(x: Tensor, params: dict, index: int) -> Tensor:
    feats = [x]
    for j in range(1, LAYERS_PER_BLOCK + 1):
        h = feats[0] if len(feats) == 1 else concat(feats, axis=1)
        h = _norm(h, params, f"enc{index}.layer{j}.norm")
        h = leaky_relu(h)
        h = conv3d(h, params[f"enc{index}.layer{j}.w"], params[f"enc{index}.layer{j}.b"])
        feats.append(h)
    return concat(feats, axis=1)


def net_forward(x: Tensor, params: dict, config: NetConfig) -> Tensor:
    """Per-voxel class probabilities, shape (B, OUT_CHANNELS, Z, Y, X), from
    the params init_params(config) made; the architecture is the one above."""
    if x.data.ndim != 5:
        raise InputError(f"expected (B,C,Z,Y,X) input, got shape {x.data.shape}")
    if x.data.shape[1] != IN_CHANNELS:
        raise InputError(f"expected {IN_CHANNELS} input channels, got {x.data.shape[1]}")
    spatial = x.data.shape[2:]
    if any(d % c != 0 or d < c for d, c in zip(spatial, CUMULATIVE_STRIDE)):
        raise InputError(
            f"input spatial dims {spatial} must be positive multiples of the "
            f"cumulative stride {CUMULATIVE_STRIDE}"
        )

    h = conv3d(x, params["stem.w"])
    h = _norm(h, params, "stem.norm")
    h = leaky_relu(h)

    skips = []
    for k, stride in enumerate(DOWNSAMPLE_STRIDES, 1):
        skips.append(h)
        h = conv3d(h, params[f"enc{k}.down.w"], params[f"enc{k}.down.b"], stride)
        h = dense_block(h, params, k)

    for k, stride in reversed(list(enumerate(DOWNSAMPLE_STRIDES, 1))):
        h = transpose_conv3d(h, params[f"dec{k}.up.w"], stride)
        h = concat([h, skips[k - 1]], axis=1)
        h = _norm(h, params, f"dec{k}.norm")
        h = leaky_relu(h)
        h = conv3d(h, params[f"dec{k}.w"], params[f"dec{k}.b"])

    logits = conv3d(h, params["head.w"], params["head.b"])
    return softmax_channels(logits)
