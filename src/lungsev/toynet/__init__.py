from .tensor import Tensor, concat, leaky_relu, softmax_channels, take_channel, tsum
from .ops import channel_norm, conv3d, transpose_conv3d
from .network import NetConfig, dense_block, init_params, net_forward
from .loss import jaccard_loss
from .optim import OptimizerState, bound_schedule, optimizer_step
from .train import (
    HistoryRow,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_csv,
)

__all__ = [
    "Tensor",
    "concat",
    "leaky_relu",
    "softmax_channels",
    "take_channel",
    "tsum",
    "channel_norm",
    "conv3d",
    "transpose_conv3d",
    "NetConfig",
    "dense_block",
    "init_params",
    "net_forward",
    "jaccard_loss",
    "OptimizerState",
    "bound_schedule",
    "optimizer_step",
    "HistoryRow",
    "TrainResult",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "write_loss_csv",
]
