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
from .errors import at_least, checked, entries, finite, naming, one_of, positive, read_field, read_json

# Raw-file dtypes; the sidecar header names them by these strings.
_HEADER_DTYPES = {
    "int16": np.dtype("<i2"),
    "float32": np.dtype("<f4"),
    "uint8": np.dtype("u1"),
}

LOBE_LABELS = (1, 2, 3, 4, 5)  # 1=RU, 2=RM, 3=RL, 4=LU, 5=LL
AIR_HU = -1024.0

# The lung window clip_normalize maps onto [0, 1]: [-1350, 150] HU.
WINDOW_LEVEL_HU = -600.0
WINDOW_WIDTH_HU = 1500.0

# A slab is whole z-planes, at most this many voxels of them (one plane if a
# plane alone is larger): 4 planes of a 512x512 grid, a small case in one.
# On a 300x512x512 int16 chest (2-core VM) a quantify child peaked at 33-58 MB
# with 1 to 8 planes, 79 MB with 16 and 130 MB with 32, all in 0.5-0.6 s.
SLAB_VOXELS = 1 << 20


def _round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (deterministic)."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class Volume:
    """A 3D scalar grid (z-y-x order) with physical voxel spacing in mm.

    Every grid is built here: the data must be 3D with every dim >= 1 and
    the spacing three finite positive numbers that give the whole grid a
    finite volume > 0. The data array is frozen at construction; operations
    return new grids.
    """

    data: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data)
        spacing = tuple(float(s) for s in self.spacing_mm)
        if data.ndim != 3:
            raise InputError(f"grid data must be 3D (z,y,x), got ndim={data.ndim}")
        if any(d < 1 for d in data.shape):
            raise InputError(f"grid dims must all be >= 1, got {data.shape}")
        if len(spacing) != 3:
            raise InputError(f"spacing_mm must have 3 components, got {spacing}")
        for s in spacing:
            if not (math.isfinite(s) and s > 0):
                raise InputError(f"spacing_mm components must be positive and finite, got {spacing}")
        grid_mm3 = math.prod(spacing) * data.size  # bounds every volume a report can hold
        if not 0 < grid_mm3 < math.inf:
            raise InputError(f"spacing_mm {spacing} over dims {data.shape} gives a grid of {grid_mm3} mm^3")
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

    def slabs(self):
        """The grid as consecutive z-slabs of whole planes, at most
        SLAB_VOXELS voxels each (one plane if a plane is larger): views of
        the data, nothing copied."""
        planes = _slab_planes(self.dims)
        for z0 in range(0, self.dims[0], planes):
            yield self.data[z0:z0 + planes]


def _slab_planes(dims: tuple[int, int, int]) -> int:
    return max(1, SLAB_VOXELS // (dims[1] * dims[2]))


@dataclass(frozen=True)
class LabelMask(Volume):
    """A Volume whose voxels are integer labels.

    Label semantics: 0 = background; for lobe masks 1..5 are the five lung
    lobes (three right, two left); for abnormality masks 1 = abnormal.

    Construction checks every voxel against the allowed labels (0 is always
    allowed). When they form a contiguous range, as LOBE_LABELS and (1,) do,
    a min/max range check suffices; np.unique runs only when that check
    fails or the allowed set has gaps, to name the offending labels.
    """

    allowed_labels: tuple[int, ...] = field(default=LOBE_LABELS)

    def __post_init__(self):
        super().__post_init__()
        allowed = _mask_labels(self.data.dtype, self.allowed_labels)
        bad = _labels_outside(self.data, allowed)
        if bad:
            raise _labels_error(bad, allowed)
        object.__setattr__(self, "allowed_labels", allowed)


def _mask_labels(dtype: np.dtype, allowed_labels) -> tuple[int, ...]:
    """The sorted allowed labels with 0 added, for a mask of `dtype`, which must be integer."""
    if not np.issubdtype(dtype, np.integer):
        raise InputError(f"mask dtype must be integer, got {dtype}")
    return tuple(sorted({0, *map(int, allowed_labels)}))


def _labels_outside(data: np.ndarray, allowed: tuple[int, ...]) -> set[int]:
    """The labels in `data` outside `allowed`. When `allowed` is a contiguous
    range a min/max check suffices; np.unique runs only when it fails."""
    contiguous = allowed[-1] - allowed[0] == len(allowed) - 1
    if contiguous and allowed[0] <= int(data.min()) and int(data.max()) <= allowed[-1]:
        return set()
    return set(np.unique(data).tolist()) - set(allowed)


def _labels_error(bad: set[int], allowed: tuple[int, ...]) -> InputError:
    return InputError(f"mask contains labels {sorted(bad)} outside allowed set {allowed}")


def check_same_geometry(first: tuple[str, Volume], *others: tuple[str, Volume]) -> None:
    """Raise GeometryError, naming both grids, unless every (name, grid) pair
    in `others` has the dims and spacing of the `first` pair."""
    first_name, a = first
    for name, b in others:
        if a.dims != b.dims or a.spacing_mm != b.spacing_mm:
            raise GeometryError(
                f"geometry mismatch: {first_name}: dims {a.dims} spacing {a.spacing_mm} "
                f"vs {name}: dims {b.dims} spacing {b.spacing_mm}"
            )


# ---------------------------------------------------------------------------
# File I/O: <name>.json header + <name>.raw little-endian payload
# ---------------------------------------------------------------------------

def _paths_for(path: str | Path) -> tuple[Path, Path]:
    """The (.json, .raw) pair for a base path; a trailing .json or .raw is
    dropped, and any other suffix stays part of the name."""
    p = Path(path)
    if not p.name:
        raise InputError(f"file path {str(path)!r} has no file name")
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p.with_name(p.name + ".json"), p.with_name(p.name + ".raw")


def _check_finite_payload(data: np.ndarray, raw_path: Path) -> None:
    """Raise HeaderError naming `raw_path` if a float grid holds NaN or an
    infinity. Min and max propagate both, so no full-size temporary is made."""
    if data.dtype.kind == "f" and not (math.isfinite(data.min()) and math.isfinite(data.max())):
        raise HeaderError(f"payload {raw_path} holds non-finite values")


def write_volume(v: Volume, path: str | Path) -> None:
    """Write the header/payload file pair for a grid.

    The array dtype must be one of int16, float32, uint8; callers convert
    beforehand, and a float grid must be finite, as read_volume requires.
    Payload is raw little-endian voxels in z-y-x linear order.
    """
    name = v.data.dtype.name
    if name not in _HEADER_DTYPES:
        raise InputError(f"unsupported dtype {name!r}; expected one of {sorted(_HEADER_DTYPES)}")
    header_path, raw_path = _paths_for(path)
    _check_finite_payload(v.data, raw_path)
    header = {
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing_mm),
        "dtype": name,
        "byte_order": "little",
    }
    header_path.write_text(json.dumps(header, allow_nan=False) + "\n")
    # A C-contiguous little-endian grid is written from its own buffer; only
    # a strided or big-endian one is copied first.
    raw_path.write_bytes(memoryview(np.ascontiguousarray(v.data, dtype=_HEADER_DTYPES[name])))


@dataclass(frozen=True)
class GridFile:
    """A grid file pair whose header is read and checked and whose payload
    stays on disk until slabs() reads it.

    `data` has the grid's shape, dtype and size but holds no voxels: it is a
    read-only zero-stride view of a single zero, so its values are not the
    grid's. A mask (`allowed_labels` not None) is checked slab by slab as
    LabelMask checks its data; a float grid must be finite, as read_volume
    requires.
    """

    header_path: Path
    raw_path: Path
    data: np.ndarray
    spacing_mm: tuple[float, float, float]
    allowed_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        # Volume checks the dims and spacing, reading no voxel of the shell.
        object.__setattr__(self, "spacing_mm", Volume(self.data, self.spacing_mm).spacing_mm)
        if self.allowed_labels is not None:
            object.__setattr__(self, "allowed_labels", _mask_labels(self.data.dtype, self.allowed_labels))

    # Volume's geometry accessors, which read only data.shape and spacing_mm.
    dims = Volume.dims
    voxel_volume_mm3 = Volume.voxel_volume_mm3

    def _read(self, raw, planes: int) -> np.ndarray:
        """The next `planes` z-planes from the open payload file `raw`."""
        data = np.empty((planes, *self.dims[1:]), self.data.dtype)
        missing = data.nbytes - raw.readinto(data)
        if missing:
            raise HeaderError(f"payload {self.raw_path} ended {missing} bytes short of its header")
        _check_finite_payload(data, self.raw_path)
        return data

    def slabs(self):
        """The payload as consecutive z-slabs, each read from the file as it
        is reached and checked; any fault is a HeaderError naming the header.

        A mask label outside the allowed set stops the reading; the rest of
        the file is then scanned, so the error names every such label."""
        planes = _slab_planes(self.dims)
        nz = self.dims[0]
        bad = set()
        with naming(self.header_path, HeaderError), open(self.raw_path, "rb") as raw:
            for z0 in range(0, nz, planes):
                slab = self._read(raw, min(planes, nz - z0))
                if self.allowed_labels is not None:
                    bad |= _labels_outside(slab, self.allowed_labels)
                if not bad:
                    yield slab
            if bad:
                raise _labels_error(bad, self.allowed_labels)


def _open_grid(path: str | Path, allowed_labels: tuple[int, ...] | None) -> GridFile:
    header_path, raw_path = _paths_for(path)
    if not header_path.exists():
        raise HeaderError(f"{header_path}: missing header sidecar")

    def build(header):
        read_field(header, "byte_order", one_of("little"))
        dtype = _HEADER_DTYPES[read_field(header, "dtype", one_of(*_HEADER_DTYPES))]
        dims = read_field(header, "dims", entries(at_least(1), 3))
        spacing = read_field(header, "spacing_mm", entries(finite))
        size = raw_path.stat().st_size  # a stat, not an open: a FIFO given as the payload cannot block
        expected = math.prod(dims) * dtype.itemsize
        if size != expected:
            raise HeaderError(f"payload length mismatch for {raw_path}: {size} bytes, header implies {expected}")
        shell = np.ndarray(dims, dtype, bytes(dtype.itemsize), strides=(0, 0, 0))
        return GridFile(header_path, raw_path, shell, spacing, allowed_labels)

    return read_json(header_path, build, HeaderError)


def open_volume(path: str | Path) -> GridFile:
    """The grid file pair at `path`, its header checked as read_volume checks it."""
    return _open_grid(path, None)


def open_mask(path: str | Path, allowed_labels: tuple[int, ...] = LOBE_LABELS) -> GridFile:
    """The mask file pair at `path`, its header checked as read_mask checks it."""
    return _open_grid(path, allowed_labels)


def _read_grid(path: str | Path, make):
    """make(data, spacing_mm) for the grid file pair at `path`; any fault in
    either file is a HeaderError that names the header file."""
    grid = _open_grid(path, None)
    with naming(grid.header_path, HeaderError), open(grid.raw_path, "rb") as raw:
        return make(grid._read(raw, grid.dims[0]), grid.spacing_mm)


def read_volume(path: str | Path) -> Volume:
    """Read a grid written by write_volume. Round-trips are bit-identical."""
    return _read_grid(path, Volume)


def read_mask(path: str | Path, allowed_labels: tuple[int, ...] = LOBE_LABELS) -> LabelMask:
    return _read_grid(path, lambda data, spacing: LabelMask(data, spacing, allowed_labels))


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _source_coords(grid: Volume, target_spacing) -> tuple[tuple, list[np.ndarray]]:
    """The checked target spacing, and per axis the source index of each
    output voxel center, clamped to the source domain (clamp-to-edge).

    Output dims are round(dim_in * spacing_in / spacing_out), at least 1 per axis.
    """
    target = checked("target_spacing", target_spacing, entries(positive, 3))
    coords = []
    for d, s_in, s_out in zip(grid.dims, grid.spacing_mm, target):
        out_dim = max(1, _round_half_away(d * s_in / s_out))
        coords.append(np.clip(np.arange(out_dim, dtype=np.float64) * (s_out / s_in), 0.0, d - 1))
    return target, coords


# Output z-planes per resample slab. Its temporaries stay far below the output,
# and small slabs ran fastest: on a 300x512x512 int16 chest (2-core VM) 1 to 4
# planes took 0.26-0.33 s per resample, one slab of the whole grid 0.71 s.
_RESAMPLE_SLAB_PLANES = 4


def _lerp_axis(a: np.ndarray, coords: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of `a` at fractional indices `coords` along one axis.

    Gathers the two neighbouring slices, then computes lo + f*(hi - lo) in
    float64, which keeps constant regions bit-exact for any fraction.
    """
    dim = a.shape[axis]
    lo = np.minimum(np.floor(coords).astype(np.intp), dim - 1)
    hi = np.minimum(lo + 1, dim - 1)
    shape = [1] * a.ndim
    shape[axis] = -1
    frac = (coords - lo).reshape(shape)
    a_lo = np.take(a, lo, axis=axis).astype(np.float64, copy=False)
    out = np.take(a, hi, axis=axis) - a_lo
    out *= frac
    out += a_lo
    return out


def resample(v: Volume, target_spacing: tuple[float, float, float]) -> Volume:
    """Trilinear resampling of a volume onto a grid with the given spacing;
    the output is float64.

    Interpolation runs as three 1-D linear passes, z first, then y, then x;
    each pass reads the previous one's output, and the first reads the input
    dtype directly. This differs from interpolating the eight corners of each
    cell only in float64 rounding (pinned at 1e-9 HU by the tests), and
    constant regions stay bit-exact. The passes run on slabs of a few
    output z-planes at a time (_RESAMPLE_SLAB_PLANES), filling the output in
    place; every voxel gets the arithmetic of a whole-grid pass, so the
    result is the same bytes without full-size float64 temporaries.
    """
    target, coords = _source_coords(v, target_spacing)
    cz, cy, cx = coords
    out = np.empty((cz.size, cy.size, cx.size), dtype=np.float64)
    for z0 in range(0, cz.size, _RESAMPLE_SLAB_PLANES):
        slab = _lerp_axis(v.data, cz[z0:z0 + _RESAMPLE_SLAB_PLANES], 0)
        out[z0:z0 + _RESAMPLE_SLAB_PLANES] = _lerp_axis(_lerp_axis(slab, cy, 1), cx, 2)
    return Volume(out, target)


def resample_mask(m: LabelMask, target_spacing: tuple[float, float, float]) -> LabelMask:
    """Nearest-neighbor resampling for label masks: labels never blend, and
    the output keeps the mask's dtype and allowed labels."""
    target, coords = _source_coords(m, target_spacing)
    # coords lie in [0, dim - 1], so rounding them stays in range.
    idx = [np.floor(c + 0.5).astype(np.intp) for c in coords]
    return LabelMask(m.data[np.ix_(*idx)], target, m.allowed_labels)


# ---------------------------------------------------------------------------
# Intensity and geometry ops
# ---------------------------------------------------------------------------

def clip_normalize(v: Volume) -> Volume:
    """Clip to the lung window and rescale to [0, 1].

    out = (clamp(v, lo, hi) - lo) / width with lo, hi = -1350, 150 HU,
    computed in float64 in the one output array.
    Monotone and bounded; the window level, -600 HU, maps to 0.5.
    """
    lo = WINDOW_LEVEL_HU - WINDOW_WIDTH_HU / 2.0
    out = np.clip(v.data, lo, lo + WINDOW_WIDTH_HU, dtype=np.float64)
    out -= lo
    out /= WINDOW_WIDTH_HU
    return Volume(out, v.spacing_mm)


def lung_center(lobes: LabelMask) -> tuple[int, int, int]:
    """Geometric center of the nonzero mask voxels, in voxel coordinates.

    Arithmetic mean of nonzero indices, rounded half away from zero. Each
    axis's mean comes from its per-index voxel counts, as exact integer
    sums, so no index arrays are built.
    """
    per_zy = np.count_nonzero(lobes.data, axis=2)
    total = int(per_zy.sum())
    if total == 0:
        raise EmptyMaskError("cannot compute center of an empty mask")
    per_axis = (per_zy.sum(axis=1), per_zy.sum(axis=0), np.count_nonzero(lobes.data, axis=(0, 1)))
    return tuple(_round_half_away(int(counts @ np.arange(counts.size)) / total) for counts in per_axis)


def crop_box(
    v: Volume,
    center: tuple[int, int, int],
    box: tuple[int, int, int],
    pad_value: float = AIR_HU,
) -> Volume:
    """Crop a fixed box around a center voxel, padding outside with pad_value.

    The source center voxel maps to index box//2 of the output, so the value
    at the center is preserved whenever the center lies inside the source.
    The default pad value is air in HU (-1024); a windowed grid is padded
    with windowed air instead. The output keeps the input dtype, which must
    hold pad_value exactly.
    """
    box = checked("box", box, entries(at_least(1), 3))
    data = v.data
    try:
        exact = data.dtype.type(pad_value) == pad_value
    except (OverflowError, ValueError):
        exact = False
    if not exact:
        raise InputError(f"pad value {pad_value} does not fit the crop's dtype {data.dtype}")
    out = np.full(box, pad_value, dtype=data.dtype)
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
