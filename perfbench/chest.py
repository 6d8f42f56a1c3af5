"""Full-size synthetic chest CTs for the `fullsize` workload.

A case is a 300x512x512 int16 HU volume at (1.0, 0.7, 0.7) mm, a five-lobe
label mask (uint8 or int16) and a binary abnormality mask, written in the
lungsev sidecar format (`<name>.json` header + `<name>.raw` payload) by this
module's own writer, so the program only ever sees finished files.

The grid is filled in z slabs to keep memory small, and the exact per-lobe
voxel counts that a severity report is built from are tallied with
`np.bincount` while the slabs are in memory. Those counts are the
independent reference the benchmark checks `quantify` against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIMS = (300, 512, 512)
SPACING_MM = (1.0, 0.7, 0.7)
THRESHOLD_HU = -200
SLAB = 12

AIR_HU = -1000
OUTSIDE_FOV_HU = -1024
SOFT_TISSUE_HU = 40
PARENCHYMA_HU = -850
NOISE_HU = 30  # uniform integer noise in [-30, 30] HU


@dataclass(frozen=True)
class CaseKind:
    """How much of the grid the lungs fill, and the lobe mask dtype.

    `lung_extent` is the lung bounding box's share of the grid along
    (z, y, x); its product is the box's share of the grid volume.
    """

    name: str
    lung_extent: tuple[float, float, float]
    lobe_dtype: str
    lesions: int


# A realistic chest (lung box about half the grid) and a tightly cropped one
# (lungs fill most of it), with both lobe dtypes the file format allows.
CASE_KINDS = (
    CaseKind("realistic_u8", (0.84, 0.74, 0.80), "uint8", 8),
    CaseKind("tight_i16", (0.97, 0.95, 0.97), "int16", 12),
    CaseKind("realistic_i16", (0.84, 0.74, 0.80), "int16", 10),
)


def _write_header(path: Path, dtype: str) -> None:
    header = {
        "dims": list(DIMS),
        "spacing_mm": list(SPACING_MM),
        "dtype": dtype,
        "byte_order": "little",
    }
    path.with_suffix(".json").write_text(json.dumps(header) + "\n")


def _ellipsoid_q(center, radii, pz, py, px):
    return (
        ((pz - center[0]) / radii[0]) ** 2
        + ((py - center[1]) / radii[1]) ** 2
        + ((px - center[2]) / radii[2]) ** 2
    )


def _plan(kind: CaseKind, rng: np.random.Generator) -> dict:
    """Draw lung, fissure and lesion geometry in physical mm."""
    ext = [(d - 1) * s for d, s in zip(DIMS, SPACING_MM)]
    fz, fy, fx = kind.lung_extent
    gap = 0.05 * ext[2]
    rx = (fx * ext[2] - gap) / 4.0
    ry = fy * ext[1] / 2.0
    rz = fz * ext[0] / 2.0
    cz, cy, cx = ext[0] / 2.0, ext[1] / 2.0, ext[2] / 2.0
    jitter = lambda: rng.uniform(-0.01, 0.01)  # noqa: E731
    lungs = [
        ((cz, cy, cx - gap / 2.0 - rx), (rz * (1 + jitter()), ry, rx)),
        ((cz, cy, cx + gap / 2.0 + rx), (rz * (1 + jitter()), ry, rx)),
    ]
    # Fissures are oblique planes z = z0 + slope * (y - cy); upper lobes sit at
    # larger z. Right lung: two cuts (RL | RM | RU), left: one (LL | LU).
    slope = rng.uniform(0.25, 0.45)
    right_cuts = (cz - rz + 0.35 * 2 * rz, cz - rz + 0.62 * 2 * rz)
    left_cut = cz - rz + rng.uniform(0.45, 0.55) * 2 * rz
    lesions = []
    for _ in range(kind.lesions):
        center_lung, radii_lung = lungs[int(rng.integers(0, 2))]
        while True:
            u = rng.uniform(-1.0, 1.0, size=3)
            if float(u @ u) <= 0.6:
                break
        center = tuple(c + ui * r for c, ui, r in zip(center_lung, u, radii_lung))
        radii = tuple(rng.uniform(8.0, 40.0, size=3))
        if rng.random() < 0.4:
            hu = int(rng.integers(-150, 60))  # consolidation
        else:
            hu = int(rng.integers(-700, -300))  # ground glass
        lesions.append((center, radii, hu))
    body = (cy, cx, 0.47 * ext[1], 0.48 * ext[2])
    return {
        "lungs": lungs,
        "slope": slope,
        "cy": cy,
        "right_cuts": right_cuts,
        "left_cut": left_cut,
        "lesions": lesions,
        "body": body,
    }


def write_case(kind: CaseKind, seed: int, out_dir: Path) -> dict:
    """Generate one case into out_dir and return its exact reference counts.

    The returned dict holds, per lobe label 1..5, the lobe voxel count, the
    abnormal voxel count and the abnormal voxel count at or above -200 HU,
    plus the lung bounding box's share of the grid volume.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    plan = _plan(kind, rng)
    zdim, ydim, xdim = DIMS
    sz, sy, sx = SPACING_MM
    ypos = (np.arange(ydim) * sy)[None, :, None]
    xpos = (np.arange(xdim) * sx)[None, None, :]
    bcy, bcx, bry, brx = plan["body"]
    body = (((ypos - bcy) / bry) ** 2 + ((xpos - bcx) / brx) ** 2) <= 1.0
    fov = (((ypos - bcy) / (0.5 * ydim * sy)) ** 2 + ((xpos - bcx) / (0.5 * xdim * sx)) ** 2) <= 1.0

    counts = np.zeros(18, dtype=np.int64)  # index: lobe + 6 * abnormal + 6 * high
    lung_lo = np.array(DIMS)
    lung_hi = np.full(3, -1)
    lobe_dtype = np.dtype(kind.lobe_dtype).newbyteorder("<")
    background = np.where(body[0], SOFT_TISSUE_HU, np.where(fov[0], AIR_HU, OUTSIDE_FOV_HU))
    background = background.astype(np.int16)
    fissure_shift = plan["slope"] * (ypos - plan["cy"])
    (rc, rr), (lc, lr) = plan["lungs"]
    r1, r2 = plan["right_cuts"]
    paths = {name: (out_dir / name).with_suffix(".raw") for name in ("volume", "lobes", "abnorm")}
    with open(paths["volume"], "wb") as f_vol, open(paths["lobes"], "wb") as f_lob, open(
        paths["abnorm"], "wb"
    ) as f_abn:
        for z0 in range(0, zdim, SLAB):
            z1 = min(z0 + SLAB, zdim)
            pz = (np.arange(z0, z1) * sz)[:, None, None]
            shape = (z1 - z0, ydim, xdim)
            right = _ellipsoid_q(rc, rr, pz, ypos, xpos) <= 1.0
            left = (_ellipsoid_q(lc, lr, pz, ypos, xpos) <= 1.0) & ~right
            # Label per (z, y) row on each side: 3/2/1 on the right, 5/4 on the left.
            right_label = (3 - (pz >= r1 + fissure_shift) - (pz >= r2 + fissure_shift)).astype(np.uint8)
            left_label = (5 - (pz >= plan["left_cut"] + fissure_shift)).astype(np.uint8)
            lobes = np.where(right, right_label, np.where(left, left_label, np.uint8(0)))
            lung = right | left

            hu = np.where(lung, np.int16(PARENCHYMA_HU), background)
            abnorm = np.zeros(shape, dtype=np.uint8)
            for center, radii, les_hu in plan["lesions"]:
                window = []
                for axis, (c, r, n, s) in enumerate(zip(center, radii, shape, SPACING_MM)):
                    offset = z0 if axis == 0 else 0
                    lo = max(int(np.ceil((c - r) / s)) - offset, 0)
                    hi = min(int(np.floor((c + r) / s)) + 1 - offset, n)
                    window.append(slice(lo, hi))
                if any(w.start >= w.stop for w in window):
                    continue
                window = tuple(window)
                q = _ellipsoid_q(center, radii, pz[window[0]], ypos[:, window[1]], xpos[:, :, window[2]])
                m = (q <= 1.0) & lung[window]
                abnorm[window][m] = 1
                hu[window][m] = les_hu
            hu += rng.integers(-NOISE_HU, NOISE_HU + 1, size=shape, dtype=np.int16)

            high = (hu >= THRESHOLD_HU) & (abnorm > 0)
            code = lobes + np.uint8(6) * abnorm + np.uint8(6) * high
            counts += np.bincount(code.ravel(), minlength=18)
            if lung.any():
                idx = [np.nonzero(lung.any(axis=a))[0] for a in ((1, 2), (0, 2), (0, 1))]
                lo = [idx[0][0] + z0, idx[1][0], idx[2][0]]
                hi = [idx[0][-1] + z0, idx[1][-1], idx[2][-1]]
                lung_lo = np.minimum(lung_lo, lo)
                lung_hi = np.maximum(lung_hi, hi)

            f_vol.write(hu.astype("<i2", copy=False).tobytes())
            f_lob.write(lobes.astype(lobe_dtype).tobytes())
            f_abn.write(abnorm.tobytes())
    _write_header(paths["volume"], "int16")
    _write_header(paths["lobes"], kind.lobe_dtype)
    _write_header(paths["abnorm"], "uint8")
    box_share = float(np.prod((lung_hi - lung_lo + 1) / np.array(DIMS)))
    lobe = counts[0:6] + counts[6:12] + counts[12:18]
    return {
        "lobe": lobe.tolist(),
        "abnormal": (counts[6:12] + counts[12:18]).tolist(),
        "high": counts[12:18].tolist(),
        "lung_box_share": box_share,
        "lesions": len(plan["lesions"]),
    }
