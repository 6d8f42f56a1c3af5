"""Training loop, checkpoints, and loss-curve serialization.

Single-sample batches, a seeded 10% validation split, per-sample augmentation
(HU shift + axis flip applied to image and masks alike), and selection of the
parameters with minimal validation loss. Everything is deterministic for a
fixed config seed.
"""

import csv
import json
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import HeaderError, InputError
from ..volume import Volume, _paths_for, apply_augment, clip_normalize, sample_augment
from .loss import jaccard_loss
from .network import NetConfig, init_params, net_forward
from .optim import OptimizerState, optimizer_step
from .tensor import Tensor, take_channel

VALIDATION_FRACTION = 0.1


@dataclass(frozen=True)
class Sample:
    """One training case: an HU image plus binary target and lung masks."""

    image: np.ndarray
    target: np.ndarray
    lung: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        tgt = np.asarray(self.target)
        lng = np.asarray(self.lung)
        if img.ndim != 3 or img.shape != tgt.shape or img.shape != lng.shape:
            raise InputError(
                f"sample arrays must share a 3-d shape, got {img.shape}, {tgt.shape}, {lng.shape}"
            )
        for name, arr in (("target", tgt), ("lung", lng)):
            if not np.all((arr == 0) | (arr == 1)):
                raise InputError(f"sample {name} must be binary")
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "target", tgt.astype(np.float64))
        object.__setattr__(self, "lung", lng.astype(np.float64))


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    train_loss: float
    val_loss: float | None


@dataclass(frozen=True)
class TrainResult:
    history: tuple[HistoryRow, ...]
    params: dict
    best_val_loss: float
    best_iteration: int
    val_indices: tuple[int, ...]


def _prepare(sample: Sample, plan=None):
    vol = Volume(sample.image, (1.0, 1.0, 1.0))
    tgt = sample.target
    lng = sample.lung
    if plan is not None:
        vol = apply_augment(vol, plan)
        if plan.flip_axis is not None:
            tgt = np.flip(tgt, axis=plan.flip_axis)
            lng = np.flip(lng, axis=plan.flip_axis)
    x = np.asarray(clip_normalize(vol).data)
    return x[None, None], tgt[None, None], lng[None, None]


def _loss_for(sample: Sample, params, config, plan=None) -> Tensor:
    x, y, m = _prepare(sample, plan)
    probs = net_forward(Tensor(x), params, config)
    return jaccard_loss(take_channel(probs, 1), y, m)


def _clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {
        name: Tensor(t.data.copy(), requires_grad=True, name=t.name) for name, t in params.items()
    }


def train(
    config: NetConfig,
    samples: list[Sample],
    epochs: int,
    initial_lr: float = 0.001,
) -> TrainResult:
    n = len(samples)
    if n < 10:
        raise InputError(f"need at least 10 samples for a nonempty 10% split, got {n}")
    if epochs < 1:
        raise InputError(f"epochs must be >= 1, got {epochs}")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    val_idx = tuple(int(i) for i in order[:n_val])
    train_idx = [int(i) for i in order[n_val:]]

    params = init_params(config)
    state = OptimizerState(lr=initial_lr)
    history: list[HistoryRow] = []
    best_val = float("inf")
    best_params = _clone_params(params)
    best_iter = 0
    iteration = 0

    for _ in range(epochs):
        epoch_order = [train_idx[int(i)] for i in rng.permutation(len(train_idx))]
        for si in epoch_order:
            plan = sample_augment(int(rng.integers(0, 2**31)))
            loss = _loss_for(samples[si], params, config, plan)
            for t in params.values():
                t.zero_grad()
            loss.backward()
            grads = {name: t.grad for name, t in params.items()}
            optimizer_step(params, grads, state)
            iteration += 1
            history.append(HistoryRow(iteration, loss.item(), None))

        val_losses = [_loss_for(samples[vi], params, config).item() for vi in val_idx]
        val_loss = float(np.mean(val_losses))
        last = history[-1]
        history[-1] = HistoryRow(last.iteration, last.train_loss, val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = _clone_params(params)
            best_iter = iteration

    return TrainResult(
        history=tuple(history),
        params=best_params,
        best_val_loss=best_val,
        best_iteration=best_iter,
        val_indices=val_idx,
    )


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest + raw little-endian float64 payload
# ---------------------------------------------------------------------------

def save_checkpoint(params: dict[str, Tensor], path) -> None:
    manifest_path, payload_path = _paths_for(path)
    names = sorted(params)
    manifest = {
        "format": "net-checkpoint",
        "dtype": "float64",
        "byte_order": "little",
        "tensors": [{"name": n, "shape": list(params[n].data.shape)} for n in names],
    }
    payload = b"".join(np.ascontiguousarray(params[n].data, dtype="<f8").tobytes() for n in names)
    manifest_path.write_text(json.dumps(manifest, indent=2))
    payload_path.write_bytes(payload)


def load_checkpoint(path) -> dict[str, Tensor]:
    manifest_path, payload_path = _paths_for(path)
    if not manifest_path.exists() or not payload_path.exists():
        raise HeaderError(f"checkpoint files missing at {manifest_path} / {payload_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        encoding = (manifest["dtype"], manifest["byte_order"])
        entries = [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]]
        for name, shape in entries:
            if not isinstance(name, str) or not all(isinstance(s, int) and s >= 0 for s in shape):
                raise ValueError(f"tensor {name!r} has bad shape {list(shape)!r}")
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise HeaderError(f"malformed checkpoint manifest {manifest_path}: {exc}") from exc
    if encoding != ("float64", "little"):
        raise HeaderError(f"unsupported checkpoint encoding in {manifest_path}")
    blob = payload_path.read_bytes()
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape in entries:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * struct.calcsize("<d")
        if offset + nbytes > len(blob):
            raise HeaderError(f"checkpoint payload too short for tensor {name}")
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(shape)
        params[name] = Tensor(arr.copy(), requires_grad=True, name=name)
        offset += nbytes
    if offset != len(blob):
        raise HeaderError("checkpoint payload has trailing bytes")
    return params


def write_loss_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "train_loss", "val_loss"])
        for row in history:
            writer.writerow(
                [row.iteration, repr(row.train_loss), "" if row.val_loss is None else repr(row.val_loss)]
            )
