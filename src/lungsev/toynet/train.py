"""Training loop, checkpoints, and loss-curve serialization.

Single-case batches, a seeded 10% validation split, per-case augmentation
(HU shift + axis flip applied to image and masks alike), and selection of the
parameters with minimal validation loss. Everything is deterministic for a
fixed config seed.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from ..errors import HeaderError, InputError
from ..errors import at_least, checked, entries, exactly, one_of, read_field, read_json
from ..volume import LabelMask, Volume, _paths_for, check_same_geometry, clip_normalize
from .loss import jaccard_loss
from .network import NetConfig, init_params, net_forward
from .optim import OptimizerState, optimizer_step
from .tensor import Tensor, take_channel

VALIDATION_FRACTION = 0.1
MIN_TRAIN_CASES = 10  # the fewest cases whose 10% validation split is nonempty


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


def sample_augment(seed: int) -> tuple[float, int | None]:
    """One augmentation draw: an HU shift in [-20, 20), and a flip axis that
    is None (probability 1/2) or 0/1/2 for z/y/x, chosen uniformly."""
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(-20.0, 20.0))
    axis = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
    return shift, axis


def _prepare(case, augment=None):
    """Network input, target and lung arrays for one (volume, lobes, abnorm)
    case, all float32, the masks 0/1: with an augment (shift, axis), the
    image is shifted, then image and masks are flipped together; the image
    is windowed last, by clip_normalize, into the float32 bytes `preprocess`
    writes. The network computes in the dtype of its input."""
    volume, lobes, abnorm = case
    image = volume.data.astype(np.float64)
    target = (abnorm.data > 0).astype(np.float32)
    lung = (lobes.data > 0).astype(np.float32)
    if augment is not None:
        shift, axis = augment
        image = image + shift
        if axis is not None:
            image, target, lung = (np.flip(a, axis) for a in (image, target, lung))
    x = clip_normalize(Volume(image, volume.spacing_mm)).data
    return x[None, None], target[None, None], lung[None, None]


def _loss_for(case, params, config, augment=None) -> Tensor:
    x, y, m = _prepare(case, augment)
    probs = net_forward(Tensor(x), params, config)
    return jaccard_loss(take_channel(probs, 1), y, m)


def _clone_params(params: dict[str, Tensor], dtype=None) -> dict[str, Tensor]:
    """Copies of params that require grad, cast to dtype if one is given."""
    return {name: Tensor(t.data.astype(dtype or t.data.dtype), requires_grad=True)
            for name, t in params.items()}


def _frozen(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Views of the same parameter arrays that do not require grad, so a
    forward pass through them records no tape."""
    return {name: Tensor(t.data) for name, t in params.items()}


def train(
    config: NetConfig,
    cases: list[tuple[Volume, LabelMask, LabelMask]],
    epochs: int,
) -> TrainResult:
    """Train on (volume, lobes, abnorm) cases, the grids compute_report takes;
    each case's three grids must share dims and spacing."""
    n = len(cases)
    if n < MIN_TRAIN_CASES:
        raise InputError(f"need at least {MIN_TRAIN_CASES} cases for a nonempty 10% split, got {n}")
    epochs = checked("epochs", epochs, at_least(1))
    for i, (volume, lobes, abnorm) in enumerate(cases):
        check_same_geometry(
            (f"case {i} volume", volume), (f"case {i} lobes", lobes), (f"case {i} abnorm", abnorm))

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n)))
    val_idx = tuple(int(i) for i in order[:n_val])
    train_idx = [int(i) for i in order[n_val:]]

    # init_params draws in float64; training computes in float32, and the
    # checkpoint widens the result back to float64, which is exact
    params = _clone_params(init_params(config), np.float32)
    state = OptimizerState()
    history: list[HistoryRow] = []
    best_val = float("inf")
    best_params = _clone_params(params)
    best_iter = 0
    iteration = 0

    for _ in range(epochs):
        epoch_order = [train_idx[int(i)] for i in rng.permutation(len(train_idx))]
        for si in epoch_order:
            augment = sample_augment(int(rng.integers(0, 2**31)))
            loss = _loss_for(cases[si], params, config, augment)
            loss.backward()
            train_loss = loss.item()
            del loss  # free this step's tape before the optimizer allocates its moments
            optimizer_step(params, state)
            iteration += 1
            history.append(HistoryRow(iteration, train_loss, None))

        frozen = _frozen(params)
        val_losses = [_loss_for(cases[vi], frozen, config).item() for vi in val_idx]
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
    manifest_path.write_text(json.dumps(manifest, indent=2, allow_nan=False))
    payload_path.write_bytes(payload)


def _tensor_entry(d: dict) -> tuple[str, tuple[int, ...]]:
    return read_field(d, "name", exactly(str)), read_field(d, "shape", entries(at_least(0)))


def load_checkpoint(path) -> dict[str, Tensor]:
    manifest_path, payload_path = _paths_for(path)

    def build(manifest):
        read_field(manifest, "format", one_of("net-checkpoint"))
        read_field(manifest, "dtype", one_of("float64"))
        read_field(manifest, "byte_order", one_of("little"))
        tensors = read_field(manifest, "tensors", entries(_tensor_entry))
        blob = payload_path.read_bytes()
        params: dict[str, Tensor] = {}
        offset = 0
        for name, shape in tensors:
            if name in params:
                raise HeaderError(f"tensors: duplicate name {name!r}")
            nbytes = math.prod(shape) * 8
            if offset + nbytes > len(blob):
                raise HeaderError(f"payload {payload_path} too short for tensor {name}")
            arr = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(shape)
            params[name] = Tensor(arr.copy(), requires_grad=True)
            offset += nbytes
        if offset != len(blob):
            raise HeaderError(f"payload {payload_path} has trailing bytes")
        return params

    return read_json(manifest_path, build, HeaderError)


def write_loss_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "train_loss", "val_loss"])
        for row in history:
            writer.writerow(
                [row.iteration, repr(row.train_loss), "" if row.val_loss is None else repr(row.val_loss)]
            )
