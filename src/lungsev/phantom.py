"""Deterministic synthetic chest-CT phantoms with exact severity ground truth.

A phantom is two ellipsoidal lungs partitioned into five lobes by axial cut
planes, plus ellipsoidal lesions painted as ground-glass (below the high
opacity threshold) or consolidation (at or above it). Every generated case
carries a reference SeverityReport computed by a single-pass voxel loop that
is deliberately separate from the severity module, so the two implementations
can be cross-checked against each other.

Noise never changes the ground truth: lesion intensities must keep a 25 HU
margin from the -200 HU boundary whenever noise is enabled, and the noise
itself is clipped to +/-24 HU.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .severity import LobeRecord, SeverityReport
from .volume import LabelMask, Volume, write_volume

HIGH_OPACITY_HU = -200.0
GGO_FLOOR_HU = -760.0
NOISE_CLIP_HU = 24.0
NOISE_MARGIN_HU = 25.0
FLIP_PROB = 0.8

LESION_KINDS = ("ggo", "consolidation")


def _triple(name, value, kind=float):
    t = tuple(kind(v) for v in value)
    if len(t) != 3:
        raise InputError(f"{name} must have 3 entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid in physical mm, z-y-x component order."""

    center_mm: tuple[float, float, float]
    radii_mm: tuple[float, float, float]

    def __post_init__(self):
        center = _triple("center_mm", self.center_mm)
        radii = _triple("radii_mm", self.radii_mm)
        if not all(math.isfinite(c) for c in center):
            raise InputError(f"ellipsoid center must be finite, got {center}")
        if not all(math.isfinite(r) and r > 0 for r in radii):
            raise InputError(f"ellipsoid radii must be > 0, got {radii}")
        object.__setattr__(self, "center_mm", center)
        object.__setattr__(self, "radii_mm", radii)


@dataclass(frozen=True)
class Lesion:
    shape: Ellipsoid
    intensity_hu: float
    kind: str

    def __post_init__(self):
        if self.kind not in LESION_KINDS:
            raise InputError(f"lesion kind must be one of {LESION_KINDS}, got {self.kind!r}")
        hu = float(self.intensity_hu)
        if self.kind == "consolidation" and not hu >= HIGH_OPACITY_HU:
            raise InputError(f"consolidation intensity must be >= {HIGH_OPACITY_HU}, got {hu}")
        if self.kind == "ggo" and not (GGO_FLOOR_HU < hu < HIGH_OPACITY_HU):
            raise InputError(
                f"ggo intensity must lie in ({GGO_FLOOR_HU}, {HIGH_OPACITY_HU}), got {hu}"
            )
        object.__setattr__(self, "intensity_hu", hu)


@dataclass(frozen=True)
class PhantomSpec:
    """Generation recipe. lungs[0] is the right lung (split into three lobes
    by two axial cut fractions), lungs[1] the left (split into two). Higher z
    is superior, so the upper lobes sit at larger z."""

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    lungs: tuple[Ellipsoid, Ellipsoid]
    right_cut_fractions: tuple[float, float] = (0.33, 0.66)
    left_cut_fraction: float = 0.5
    lesions: tuple[Lesion, ...] = ()
    background_hu: float = -1024.0
    lung_parenchyma_hu: float = -850.0
    noise_sigma_hu: float = 0.0
    seed: int = 0

    def __post_init__(self):
        dims = _triple("dims", self.dims, int)
        if any(d < 8 for d in dims):
            raise InputError(f"phantom dims must be >= 8 per axis, got {dims}")
        spacing = _triple("spacing_mm", self.spacing_mm)
        if not all(math.isfinite(s) and s > 0 for s in spacing):
            raise InputError(f"spacing must be positive, got {spacing}")
        lungs = tuple(self.lungs)
        if len(lungs) != 2 or not all(isinstance(e, Ellipsoid) for e in lungs):
            raise InputError("lungs must be exactly two ellipsoids (right, left)")
        f1, f2 = (float(f) for f in self.right_cut_fractions)
        if not (0.0 < f1 < f2 < 1.0):
            raise InputError(f"right cut fractions must satisfy 0 < f1 < f2 < 1, got {(f1, f2)}")
        fl = float(self.left_cut_fraction)
        if not (0.0 < fl < 1.0):
            raise InputError(f"left cut fraction must lie in (0,1), got {fl}")
        sigma = float(self.noise_sigma_hu)
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise InputError(f"noise sigma must be >= 0, got {sigma}")
        lesions = tuple(self.lesions)
        if sigma > 0.0:
            # Noise is clipped below the margin, so intensities this far from
            # the threshold can never cross it.
            for les in lesions:
                dist = abs(les.intensity_hu - HIGH_OPACITY_HU)
                if dist < NOISE_MARGIN_HU:
                    raise InputError(
                        f"lesion at {les.intensity_hu} HU is within {NOISE_MARGIN_HU} HU of "
                        f"the {HIGH_OPACITY_HU} threshold; not allowed with noise enabled"
                    )
            if abs(float(self.lung_parenchyma_hu) - HIGH_OPACITY_HU) < NOISE_MARGIN_HU:
                raise InputError("parenchyma HU too close to threshold for noisy generation")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing_mm", spacing)
        object.__setattr__(self, "lungs", lungs)
        object.__setattr__(self, "right_cut_fractions", (f1, f2))
        object.__setattr__(self, "left_cut_fraction", fl)
        object.__setattr__(self, "lesions", lesions)
        object.__setattr__(self, "background_hu", float(self.background_hu))
        object.__setattr__(self, "lung_parenchyma_hu", float(self.lung_parenchyma_hu))
        object.__setattr__(self, "noise_sigma_hu", sigma)
        object.__setattr__(self, "seed", int(self.seed))

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "spacing_mm": list(self.spacing_mm),
            "lungs": [
                {"center_mm": list(e.center_mm), "radii_mm": list(e.radii_mm)}
                for e in self.lungs
            ],
            "right_cut_fractions": list(self.right_cut_fractions),
            "left_cut_fraction": self.left_cut_fraction,
            "lesions": [
                {
                    "center_mm": list(l.shape.center_mm),
                    "radii_mm": list(l.shape.radii_mm),
                    "intensity_hu": l.intensity_hu,
                    "type": l.kind,
                }
                for l in self.lesions
            ],
            "background_hu": self.background_hu,
            "lung_parenchyma_hu": self.lung_parenchyma_hu,
            "noise_sigma_hu": self.noise_sigma_hu,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PhantomSpec":
        try:
            lungs = tuple(
                Ellipsoid(tuple(e["center_mm"]), tuple(e["radii_mm"])) for e in d["lungs"]
            )
            lesions = tuple(
                Lesion(
                    Ellipsoid(tuple(l["center_mm"]), tuple(l["radii_mm"])),
                    l["intensity_hu"],
                    l["type"],
                )
                for l in d.get("lesions", ())
            )
            return PhantomSpec(
                dims=tuple(d["dims"]),
                spacing_mm=tuple(d["spacing_mm"]),
                lungs=lungs,
                right_cut_fractions=tuple(d.get("right_cut_fractions", (0.33, 0.66))),
                left_cut_fraction=d.get("left_cut_fraction", 0.5),
                lesions=lesions,
                background_hu=d.get("background_hu", -1024.0),
                lung_parenchyma_hu=d.get("lung_parenchyma_hu", -850.0),
                noise_sigma_hu=d.get("noise_sigma_hu", 0.0),
                seed=d.get("seed", 0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed phantom spec: {exc}") from exc


@dataclass(frozen=True)
class PhantomCase:
    volume: Volume
    lobes: LabelMask
    abnorm_gt: LabelMask
    oracle: SeverityReport


def _inside(e: Ellipsoid, pz, py, px) -> np.ndarray:
    cz, cy, cx = e.center_mm
    rz, ry, rx = e.radii_mm
    q = ((pz - cz) / rz) ** 2 + ((py - cy) / ry) ** 2 + ((px - cx) / rx) ** 2
    return q <= 1.0


def oracle_report(
    volume: Volume, lobes: LabelMask, abnorm: LabelMask, threshold: float = HIGH_OPACITY_HU
) -> SeverityReport:
    """Reference severity report from one pure-Python pass over the voxels.

    Kept independent of the severity module so generated cases carry a
    separately derived answer to test against.
    """
    hu = volume.data.tolist()
    lab = lobes.data.tolist()
    ab = abnorm.data.tolist()
    zdim, ydim, xdim = lobes.dims
    n = [0] * 6
    na = [0] * 6
    nh = [0] * 6
    for z in range(zdim):
        hu_z = hu[z]
        lab_z = lab[z]
        ab_z = ab[z]
        for y in range(ydim):
            hu_y = hu_z[y]
            lab_y = lab_z[y]
            ab_y = ab_z[y]
            for x in range(xdim):
                label = lab_y[x]
                if label == 0:
                    continue
                n[label] += 1
                if ab_y[x] > 0:
                    na[label] += 1
                    if hu_y[x] >= threshold:
                        nh[label] += 1

    def score(f: float) -> int:
        if f == 0:
            return 0
        if f <= 0.25:
            return 1
        if f <= 0.5:
            return 2
        if f <= 0.75:
            return 3
        return 4

    lung = sum(n[1:])
    if lung == 0:
        raise InputError("phantom produced an empty lung mask")
    voxel = lobes.voxel_volume_mm3
    records = []
    lss = lhos = 0
    for k in (1, 2, 3, 4, 5):
        affected = na[k] / n[k] if n[k] else 0.0
        high = nh[k] / n[k] if n[k] else 0.0
        s = score(affected)
        hs = score(high)
        lss += s
        lhos += hs
        records.append(
            LobeRecord(
                lobe_label=k,
                lobe_volume_mm3=n[k] * voxel,
                affected_fraction=affected,
                high_opacity_fraction=high,
                lobe_score=s,
                lobe_ho_score=hs,
            )
        )
    return SeverityReport(
        po=100.0 * sum(na[1:]) / lung,
        pho=100.0 * sum(nh[1:]) / lung,
        lss=lss,
        lhos=lhos,
        per_lobe=tuple(records),
        lung_volume_mm3=lung * voxel,
        abnormal_volume_mm3=sum(na[1:]) * voxel,
        high_opacity_volume_mm3=sum(nh[1:]) * voxel,
        threshold_hu=float(threshold),
    )


def generate(spec: PhantomSpec) -> PhantomCase:
    """Build a phantom case. Voxel membership is decided analytically at the
    voxel centers (index * spacing); later lesions overwrite earlier ones."""
    zdim, ydim, xdim = spec.dims
    sz, sy, sx = spec.spacing_mm
    zpos = (np.arange(zdim) * sz)[:, None, None]
    ypos = (np.arange(ydim) * sy)[None, :, None]
    xpos = (np.arange(xdim) * sx)[None, None, :]

    right = _inside(spec.lungs[0], zpos, ypos, xpos)
    left = _inside(spec.lungs[1], zpos, ypos, xpos) & ~right
    lung = right | left

    lobes = np.zeros(spec.dims, dtype=np.uint8)
    zline = np.arange(zdim) * sz

    cz, rz = spec.lungs[0].center_mm[0], spec.lungs[0].radii_mm[0]
    f1, f2 = spec.right_cut_fractions
    z1 = (cz - rz) + f1 * (2 * rz)
    z2 = (cz - rz) + f2 * (2 * rz)
    below1 = (zline < z1)[:, None, None]
    below2 = (zline < z2)[:, None, None]
    lobes[right & below1] = 3
    lobes[right & ~below1 & below2] = 2
    lobes[right & ~below2] = 1

    cz, rz = spec.lungs[1].center_mm[0], spec.lungs[1].radii_mm[0]
    zl = (cz - rz) + spec.left_cut_fraction * (2 * rz)
    belowl = (zline < zl)[:, None, None]
    lobes[left & belowl] = 5
    lobes[left & ~belowl] = 4

    hu = np.full(spec.dims, spec.background_hu, dtype=np.float64)
    hu[lung] = spec.lung_parenchyma_hu
    abnorm = np.zeros(spec.dims, dtype=np.uint8)
    for les in spec.lesions:
        m = _inside(les.shape, zpos, ypos, xpos) & lung
        abnorm[m] = 1
        hu[m] = les.intensity_hu

    if spec.noise_sigma_hu > 0.0:
        rng = np.random.default_rng(spec.seed)
        noise = rng.normal(0.0, spec.noise_sigma_hu, size=spec.dims)
        hu = hu + np.clip(noise, -NOISE_CLIP_HU, NOISE_CLIP_HU)

    volume = Volume(hu.astype(np.float32), spec.spacing_mm)
    lobes_mask = LabelMask(lobes, spec.spacing_mm)
    abnorm_mask = LabelMask(abnorm, spec.spacing_mm, allowed_labels=(1,))
    oracle = oracle_report(volume, lobes_mask, abnorm_mask)
    return PhantomCase(volume=volume, lobes=lobes_mask, abnorm_gt=abnorm_mask, oracle=oracle)


def _shift_any(mask: np.ndarray) -> np.ndarray:
    """True where any 6-connected neighbor is set; out of bounds counts unset."""
    out = np.zeros_like(mask)
    out[1:, :, :] |= mask[:-1, :, :]
    out[:-1, :, :] |= mask[1:, :, :]
    out[:, 1:, :] |= mask[:, :-1, :]
    out[:, :-1, :] |= mask[:, 1:, :]
    out[:, :, 1:] |= mask[:, :, :-1]
    out[:, :, :-1] |= mask[:, :, 1:]
    return out


def _shift_all(mask: np.ndarray) -> np.ndarray:
    """True where all 6-connected neighbors are set; out of bounds counts unset."""
    out = np.zeros_like(mask)
    out[1:, :, :] = mask[:-1, :, :]
    out[:-1, :, :] &= mask[1:, :, :]
    out[:, 1:, :] &= mask[:, :-1, :]
    out[:, :-1, :] &= mask[:, 1:, :]
    out[:, :, 1:] &= mask[:, :, :-1]
    out[:, :, :-1] &= mask[:, :, 1:]
    out[0, :, :] = False
    out[-1, :, :] = False
    out[:, 0, :] = False
    out[:, -1, :] = False
    out[:, :, 0] = False
    out[:, :, -1] = False
    return out


def make_noisy_prediction(
    case: PhantomCase, dilate_vox: int = 0, erode_vox: int = 0, seed: int = 0
) -> LabelMask:
    """Emulate an imperfect segmenter by stochastic 6-connected morphology.

    Erosion rounds run first, then dilation rounds; in each round every
    boundary candidate flips independently with probability 0.8. With both
    counts zero the ground truth is returned unchanged.
    """
    if dilate_vox < 0 or erode_vox < 0:
        raise InputError("dilate/erode counts must be >= 0")
    mask = case.abnorm_gt.data > 0
    rng = np.random.default_rng(seed)
    for _ in range(erode_vox):
        boundary = mask & ~_shift_all(mask)
        flips = rng.random(mask.shape) < FLIP_PROB
        mask = mask & ~(boundary & flips)
    for _ in range(dilate_vox):
        candidates = ~mask & _shift_any(mask)
        flips = rng.random(mask.shape) < FLIP_PROB
        mask = mask | (candidates & flips)
    return LabelMask(mask.astype(np.uint8), case.abnorm_gt.spacing_mm, allowed_labels=(1,))


def random_spec(
    seed: int,
    dims: tuple[int, int, int] = (16, 28, 28),
    spacing_mm: tuple[float, float, float] = (1.5, 1.0, 1.0),
    n_lesions: int | None = None,
    noise_sigma_hu: float = 0.0,
) -> PhantomSpec:
    """Sample a randomized but always-valid spec. n_lesions=None draws 0..6."""
    rng = np.random.default_rng(seed)
    ext = tuple((d - 1) * s for d, s in zip(dims, spacing_mm))

    def lung_at(x_frac: float) -> Ellipsoid:
        center = (0.5 * ext[0], 0.5 * ext[1], x_frac * ext[2])
        base = (0.40 * ext[0], 0.30 * ext[1], 0.16 * ext[2])
        radii = tuple(r * rng.uniform(0.9, 1.1) for r in base)
        return Ellipsoid(center, radii)

    lungs = (lung_at(0.28), lung_at(0.72))
    count = int(rng.integers(0, 7)) if n_lesions is None else int(n_lesions)
    lesions = []
    for _ in range(count):
        host = lungs[int(rng.integers(0, 2))]
        while True:
            u = rng.uniform(-1.0, 1.0, size=3)
            if float(u @ u) <= 0.49:
                break
        center = tuple(c + ui * r for c, ui, r in zip(host.center_mm, u, host.radii_mm))
        radii = (rng.uniform(2.0, 6.0), rng.uniform(2.0, 7.0), rng.uniform(2.0, 7.0))
        if rng.random() < 0.4:
            lesions.append(Lesion(Ellipsoid(center, radii), rng.uniform(-150.0, 40.0), "consolidation"))
        else:
            lesions.append(Lesion(Ellipsoid(center, radii), rng.uniform(-700.0, -250.0), "ggo"))
    return PhantomSpec(
        dims=dims,
        spacing_mm=spacing_mm,
        lungs=lungs,
        lesions=tuple(lesions),
        noise_sigma_hu=noise_sigma_hu,
        seed=seed,
    )


def write_case(case: PhantomCase, out_dir: str | Path) -> None:
    """Emit volume/lobes/abnorm in the sidecar format plus oracle.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_volume(case.volume, out / "volume")
    write_volume(case.lobes, out / "lobes")
    write_volume(case.abnorm_gt, out / "abnorm")
    (out / "oracle.json").write_text(json.dumps(case.oracle.to_json_dict(), indent=2))
