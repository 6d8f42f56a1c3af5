"""Volumetric data model, raw file I/O, and geometric/intensity preprocessing.

All grids are 3D scalar fields in z-y-x axis order with anisotropic physical
spacing in millimeters. Intensity volumes are in Hounsfield units unless an
operation explicitly produces normalized output. Every operation here is pure:
inputs are never mutated, and constructed grids are frozen so they can be
shared across threads.

Physical convention: the center of voxel (z, y, x) sits at
(z * sz, y * sy, x * sx) millimeters. Resampling maps voxel centers between
grids under this convention and clamps out-of-domain samples to the nearest
edge voxel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyMaskError, GeometryError, HeaderError, InputError

# Raw-file dtypes; the sidecar header names them by these strings.
_HEADER_DTYPES = {
    "int16": np.dtype("<i2"),
    "float32": np.dtype("<f4"),
    "uint8": np.dtype("u1"),
}

LOBE_LABELS = (1, 2, 3, 4, 5)  # 1=RU, 2=RM, 3=RL, 4=LU, 5=LL
AIR_HU = -1024.0


def _round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (deterministic)."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _validate_grid(data: np.ndarray, spacing_mm: tuple[float, float, float]) -> None:
    if data.ndim != 3:
        raise InputError(f"grid data must be 3D (z,y,x), got ndim={data.ndim}")
    if any(d < 1 for d in data.shape):
        raise InputError(f"grid dims must all be >= 1, got {data.shape}")
    if len(spacing_mm) != 3:
        raise InputError(f"spacing_mm must have 3 components, got {spacing_mm}")
    for s in spacing_mm:
        if not (math.isfinite(s) and s > 0):
            raise InputError(f"spacing components must be positive and finite, got {spacing_mm}")


@dataclass(frozen=True)
class Volume:
    """A 3D scalar grid (z-y-x order) with physical voxel spacing in mm.

    The data array is frozen at construction; operations return new volumes.
    """

    data: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data)
        spacing = tuple(float(s) for s in self.spacing_mm)
        _validate_grid(data, spacing)
        data = data.view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing_mm", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(Z, Y, X) voxel counts."""
        return self.data.shape

    @property
    def voxel_volume_mm3(self) -> float:
        sz, sy, sx = self.spacing_mm
        return sz * sy * sx


@dataclass(frozen=True)
class LabelMask:
    """Integer label grid aligned with a Volume.

    Label semantics: 0 = background; for lobe masks 1..5 are the five lung
    lobes (three right, two left); for abnormality masks 1 = abnormal.
    """

    data: np.ndarray
    spacing_mm: tuple[float, float, float]
    allowed_labels: tuple[int, ...] = field(default=LOBE_LABELS)

    def __post_init__(self):
        data = np.asarray(self.data)
        spacing = tuple(float(s) for s in self.spacing_mm)
        _validate_grid(data, spacing)
        if not np.issubdtype(data.dtype, np.integer):
            raise InputError(f"mask dtype must be integer, got {data.dtype}")
        allowed = tuple(sorted({0, *map(int, self.allowed_labels)}))
        present = np.unique(data)
        bad = set(present.tolist()) - set(allowed)
        if bad:
            raise InputError(f"mask contains labels {sorted(bad)} outside allowed set {allowed}")
        data = data.view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing_mm", spacing)
        object.__setattr__(self, "allowed_labels", allowed)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def voxel_volume_mm3(self) -> float:
        sz, sy, sx = self.spacing_mm
        return sz * sy * sx


@dataclass(frozen=True)
class WindowSpec:
    """HU clip window. Clip range is [level - width/2, level + width/2]."""

    level: float = -600.0
    width: float = 1500.0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise InputError(f"window width must be > 0, got {self.width}")

    @property
    def lo(self) -> float:
        return self.level - self.width / 2.0

    @property
    def hi(self) -> float:
        return self.level + self.width / 2.0


def check_same_geometry(a: Volume | LabelMask, b: Volume | LabelMask) -> None:
    """Raise GeometryError unless dims and spacing match exactly."""
    if a.dims != b.dims or a.spacing_mm != b.spacing_mm:
        raise GeometryError(
            f"geometry mismatch: dims {a.dims} spacing {a.spacing_mm} "
            f"vs dims {b.dims} spacing {b.spacing_mm}"
        )


# ---------------------------------------------------------------------------
# File I/O: <name>.json header + <name>.raw little-endian payload
# ---------------------------------------------------------------------------

def _paths_for(path: str | Path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".raw")


def write_volume(v: Volume | LabelMask, path: str | Path) -> None:
    """Write the header/payload file pair for a grid.

    The array dtype must be one of int16, float32, uint8; callers convert
    beforehand. Payload is raw little-endian voxels in z-y-x linear order.
    """
    name = v.data.dtype.name
    if name not in _HEADER_DTYPES:
        raise InputError(f"unsupported dtype {name!r}; expected one of {sorted(_HEADER_DTYPES)}")
    header_path, raw_path = _paths_for(path)
    header = {
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing_mm),
        "dtype": name,
        "byte_order": "little",
    }
    header_path.write_text(json.dumps(header) + "\n")
    raw_path.write_bytes(np.ascontiguousarray(v.data, dtype=_HEADER_DTYPES[name]).tobytes())


def _read_grid(path: str | Path) -> tuple[np.ndarray, tuple[float, float, float]]:
    header_path, raw_path = _paths_for(path)
    if not header_path.exists():
        raise HeaderError(f"missing header sidecar {header_path}")
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as e:
        raise HeaderError(f"ill-formed header {header_path}: {e}") from e
    if not isinstance(header, dict):
        raise HeaderError(f"header {header_path} is not a JSON object")
    for key in ("dims", "spacing_mm", "dtype", "byte_order"):
        if key not in header:
            raise HeaderError(f"header {header_path} missing field {key!r}")
    if header["byte_order"] != "little":
        raise HeaderError(f"unsupported byte_order {header['byte_order']!r}")
    if header["dtype"] not in _HEADER_DTYPES:
        raise HeaderError(f"unsupported dtype {header['dtype']!r}")
    dims = header["dims"]
    if not isinstance(dims, list) or len(dims) != 3 or any(
        not isinstance(d, int) or d < 1 for d in dims
    ):
        raise HeaderError(f"bad dims {dims!r} in {header_path}")
    spacing = header["spacing_mm"]
    if not isinstance(spacing, list) or not all(isinstance(s, (int, float)) for s in spacing):
        raise HeaderError(f"bad spacing_mm {spacing!r} in {header_path}")
    dtype = _HEADER_DTYPES[header["dtype"]]
    if not raw_path.exists():
        raise HeaderError(f"missing raw payload {raw_path}")
    raw = raw_path.read_bytes()
    expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
    if len(raw) != expected:
        raise HeaderError(
            f"payload length mismatch for {raw_path}: header implies {expected} bytes, found {len(raw)}"
        )
    data = np.frombuffer(raw, dtype=dtype).reshape(dims)
    return data, tuple(float(s) for s in spacing)


def read_volume(path: str | Path) -> Volume:
    """Read a grid written by write_volume. Round-trips are bit-identical."""
    data, spacing = _read_grid(path)
    return Volume(data, spacing)


def read_mask(path: str | Path, allowed_labels: tuple[int, ...] = LOBE_LABELS) -> LabelMask:
    data, spacing = _read_grid(path)
    if not np.issubdtype(data.dtype, np.integer):
        raise HeaderError(f"mask file {path} has non-integer dtype {data.dtype}")
    return LabelMask(data, spacing, allowed_labels)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _resample_dims(dims, spacing_in, spacing_out) -> tuple[int, ...]:
    return tuple(
        max(1, _round_half_away(d * si / so))
        for d, si, so in zip(dims, spacing_in, spacing_out)
    )


def _source_coords(out_dim: int, in_dim: int, s_in: float, s_out: float) -> np.ndarray:
    # Physical position of each output voxel center mapped back into source
    # index space, clamped to the source domain (clamp-to-edge).
    coords = np.arange(out_dim, dtype=np.float64) * (s_out / s_in)
    return np.clip(coords, 0.0, in_dim - 1)


def resample(v: Volume, target_spacing: tuple[float, float, float], mode: str = "trilinear") -> Volume:
    """Resample a volume onto a grid with the given spacing.

    Output dims are round(dim_in * spacing_in / spacing_out), at least 1 per
    axis. Trilinear output is float64; nearest preserves the input dtype and
    its values are a subset of the input values.
    """
    if mode not in ("nearest", "trilinear"):
        raise InputError(f"unknown resample mode {mode!r}")
    target = tuple(float(s) for s in target_spacing)
    for s in target:
        if not (math.isfinite(s) and s > 0):
            raise InputError(f"target spacing must be positive, got {target}")
    out_dims = _resample_dims(v.dims, v.spacing_mm, target)
    coords = [
        _source_coords(od, idim, s_in, s_out)
        for od, idim, s_in, s_out in zip(out_dims, v.dims, v.spacing_mm, target)
    ]
    if mode == "nearest":
        idx = [np.clip(np.floor(c + 0.5).astype(np.intp), 0, d - 1) for c, d in zip(coords, v.dims)]
        out = v.data[np.ix_(*idx)]
        return Volume(out.copy(), target)

    data = v.data.astype(np.float64, copy=False)
    lo = [np.floor(c).astype(np.intp) for c in coords]
    lo = [np.minimum(l, d - 1) for l, d in zip(lo, v.dims)]
    hi = [np.minimum(l + 1, d - 1) for l, d in zip(lo, v.dims)]
    frac = [c - l for c, l in zip(coords, lo)]
    fz = frac[0][:, None, None]
    fy = frac[1][None, :, None]
    fx = frac[2][None, None, :]

    def lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        # a + f*(b - a) keeps constant regions bit-exact for any fraction.
        return a + f * (b - a)

    c00 = lerp(data[np.ix_(lo[0], lo[1], lo[2])], data[np.ix_(lo[0], lo[1], hi[2])], fx)
    c01 = lerp(data[np.ix_(lo[0], hi[1], lo[2])], data[np.ix_(lo[0], hi[1], hi[2])], fx)
    c10 = lerp(data[np.ix_(hi[0], lo[1], lo[2])], data[np.ix_(hi[0], lo[1], hi[2])], fx)
    c11 = lerp(data[np.ix_(hi[0], hi[1], lo[2])], data[np.ix_(hi[0], hi[1], hi[2])], fx)
    out = lerp(lerp(c00, c01, fy), lerp(c10, c11, fy), fz)
    return Volume(out, target)


def resample_mask(m: LabelMask, target_spacing: tuple[float, float, float]) -> LabelMask:
    """Nearest-neighbor resampling for label masks (labels must not blend)."""
    as_volume = Volume(m.data, m.spacing_mm)
    res = resample(as_volume, target_spacing, mode="nearest")
    return LabelMask(res.data, res.spacing_mm, m.allowed_labels)


# ---------------------------------------------------------------------------
# Intensity and geometry ops
# ---------------------------------------------------------------------------

def clip_normalize(v: Volume, window: WindowSpec = WindowSpec()) -> Volume:
    """Clip to the HU window and rescale to [0, 1].

    out = (clamp(v, lo, hi) - lo) / width. Monotone and bounded; the window
    midpoint maps to 0.5.
    """
    clipped = np.clip(v.data.astype(np.float64, copy=False), window.lo, window.hi)
    return Volume((clipped - window.lo) / window.width, v.spacing_mm)


def lung_center(lobes: LabelMask) -> tuple[int, int, int]:
    """Geometric center of the nonzero mask voxels, in voxel coordinates.

    Arithmetic mean of nonzero indices, rounded half away from zero.
    """
    nz = np.nonzero(lobes.data)
    if nz[0].size == 0:
        raise EmptyMaskError("cannot compute center of an empty mask")
    return tuple(_round_half_away(float(np.mean(axis_idx))) for axis_idx in nz)


def crop_box(
    v: Volume,
    center: tuple[int, int, int],
    box: tuple[int, int, int],
    pad_value: float = AIR_HU,
) -> Volume:
    """Crop a fixed box around a center voxel, padding outside with pad_value.

    The source center voxel maps to index box//2 of the output, so the value
    at the center is preserved whenever the center lies inside the source.
    Padding happens in HU (default air, -1024) before any normalization.
    """
    if any(b < 1 for b in box):
        raise InputError(f"crop box dims must be >= 1, got {box}")
    data = v.data
    if np.issubdtype(data.dtype, np.integer) and float(pad_value) == int(pad_value):
        out = np.full(box, int(pad_value), dtype=data.dtype)
    else:
        out = np.full(box, float(pad_value), dtype=np.float64)
        data = data.astype(np.float64, copy=False)
    src_slices, dst_slices = [], []
    for c, b, d in zip(center, box, data.shape):
        start = int(c) - b // 2  # center voxel of source lands at index b//2
        src_lo, src_hi = max(start, 0), min(start + b, d)
        if src_lo >= src_hi:
            break  # box entirely outside the source
        src_slices.append(slice(src_lo, src_hi))
        dst_slices.append(slice(src_lo - start, src_hi - start))
    else:
        out[tuple(dst_slices)] = data[tuple(src_slices)]
    return Volume(out, v.spacing_mm)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentPlan:
    """One sampled augmentation: a global HU offset plus an optional flip.

    flip_axis is None (probability 1/2) or one of 0/1/2 for z/y/x, chosen
    uniformly when a flip happens.
    """

    intensity_shift_hu: float
    flip_axis: int | None


def sample_augment(seed: int) -> AugmentPlan:
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(-20.0, 20.0))
    axis = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
    return AugmentPlan(shift, axis)


def flip(v: Volume, axis: int) -> Volume:
    """Mirror along one axis (0=z, 1=y, 2=x). Applying twice is the identity."""
    if axis not in (0, 1, 2):
        raise InputError(f"flip axis must be 0, 1 or 2, got {axis}")
    return Volume(np.flip(v.data, axis=axis).copy(), v.spacing_mm)


def apply_augment(v: Volume, plan: AugmentPlan) -> Volume:
    """Shift every voxel by the plan's HU offset, then flip along its axis, if any."""
    shifted = Volume(v.data.astype(np.float64, copy=False) + plan.intensity_shift_hu, v.spacing_mm)
    return shifted if plan.flip_axis is None else flip(shifted, plan.flip_axis)

