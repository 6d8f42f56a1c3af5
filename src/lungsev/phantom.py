"""Deterministic synthetic chest-CT phantoms with exact severity ground truth.

A phantom is two ellipsoidal lungs partitioned into five lobes by axial cut
planes at fixed fractions of each lung's height, plus ellipsoidal lesions painted as ground-glass (below the high
opacity threshold) or consolidation (at or above it). Every generated case
carries a reference SeverityReport computed by a single-pass voxel loop that
is deliberately separate from the severity module, so the two implementations
can be cross-checked against each other.

Noise never changes the ground truth: lesion intensities must keep a 25 HU
margin from the -200 HU boundary whenever noise is enabled, and the noise
itself is clipped to +/-24 HU.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, at_least, checked, entries, exactly, finite, integer, nonnegative
from .errors import one_of, positive
from .severity import LobeRecord, SeverityReport
from .volume import LabelMask, Volume, write_volume

HIGH_OPACITY_HU = -200.0
GGO_FLOOR_HU = -760.0
NOISE_CLIP_HU = 24.0
NOISE_MARGIN_HU = 25.0
FLIP_PROB = 0.8

# The one anatomy every phantom has. The right lung's two axial cuts and the
# left lung's one sit at these fractions of each lung's z extent, from its
# inferior end; air and healthy lung have these intensities.
RIGHT_CUT_FRACTIONS = (0.33, 0.66)
LEFT_CUT_FRACTION = 0.5
BACKGROUND_HU = -1024.0
LUNG_PARENCHYMA_HU = -850.0
# z-y-x voxel spacing of a random_spec case.
RANDOM_SPACING_MM = (1.5, 1.0, 1.0)
# Each axis of a phantom grid has at least this many voxels.
MIN_DIM = 8

LESION_KINDS = ("ggo", "consolidation")


def _check_fields(recipe) -> None:
    """Run each field of a frozen recipe through its _SPEC_CHECKS check, keeping what it returns."""
    for name, value in list(vars(recipe).items()):
        object.__setattr__(recipe, name, checked(name, value, _SPEC_CHECKS[name]))


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid in physical mm, z-y-x component order."""

    center_mm: tuple[float, float, float]
    radii_mm: tuple[float, float, float]

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class Lesion:
    """An ellipsoid painted at one HU value; `type` is "ggo" or "consolidation"."""

    shape: Ellipsoid
    intensity_hu: float
    type: str

    def __post_init__(self):
        _check_fields(self)
        hu = self.intensity_hu
        if self.type == "consolidation" and not hu >= HIGH_OPACITY_HU:
            raise InputError(f"consolidation intensity must be >= {HIGH_OPACITY_HU}, got {hu}")
        if self.type == "ggo" and not (GGO_FLOOR_HU < hu < HIGH_OPACITY_HU):
            raise InputError(
                f"ggo intensity must lie in ({GGO_FLOOR_HU}, {HIGH_OPACITY_HU}), got {hu}"
            )


@dataclass(frozen=True)
class PhantomSpec:
    """Generation recipe. lungs[0] is the right lung (split into three lobes
    at RIGHT_CUT_FRACTIONS), lungs[1] the left (split into two at
    LEFT_CUT_FRACTION). Higher z is superior, so the upper lobes sit at
    larger z."""

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    lungs: tuple[Ellipsoid, Ellipsoid]
    lesions: tuple[Lesion, ...] = ()
    noise_sigma_hu: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        dims, spacing = self.dims, self.spacing_mm
        if not any(_inside(e, *_centres(dims, spacing)).any() for e in self.lungs):
            raise InputError(f"lungs: no voxel centre of the {dims} grid at {spacing} mm lies in a lung")
        if self.noise_sigma_hu > 0.0:
            # Noise is clipped below the margin, so intensities this far from
            # the threshold can never cross it.
            for les in self.lesions:
                dist = abs(les.intensity_hu - HIGH_OPACITY_HU)
                if dist < NOISE_MARGIN_HU:
                    raise InputError(
                        f"lesion at {les.intensity_hu} HU is within {NOISE_MARGIN_HU} HU of "
                        f"the {HIGH_OPACITY_HU} threshold; not allowed with noise enabled"
                    )

    def to_json_dict(self) -> dict:
        """Every field in declaration order; a lesion is its ellipsoid's fields plus HU and type."""
        return {
            **vars(self),
            "lungs": [dict(vars(e)) for e in self.lungs],
            "lesions": [
                {**vars(l.shape), "intensity_hu": l.intensity_hu, "type": l.type} for l in self.lesions
            ],
        }


# The check for every field of Ellipsoid, Lesion and PhantomSpec.
_SPEC_CHECKS = {
    "center_mm": entries(finite, 3),
    "radii_mm": entries(positive, 3),
    "shape": exactly(Ellipsoid),
    "intensity_hu": finite,
    "type": one_of(*LESION_KINDS),
    "dims": entries(at_least(MIN_DIM), 3),
    "spacing_mm": entries(positive, 3),
    "lungs": entries(exactly(Ellipsoid), 2),
    "lesions": entries(exactly(Lesion)),
    "noise_sigma_hu": nonnegative,
    "seed": integer,
}


@dataclass(frozen=True)
class PhantomCase:
    volume: Volume
    lobes: LabelMask
    abnorm_gt: LabelMask
    oracle: SeverityReport


def _centres(dims, spacing_mm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voxel-centre positions in mm along z, y and x, shaped to broadcast over the grid."""
    return np.ix_(*(np.arange(d) * s for d, s in zip(dims, spacing_mm)))


def _inside(e: Ellipsoid, pz, py, px) -> np.ndarray:
    cz, cy, cx = e.center_mm
    rz, ry, rx = e.radii_mm
    q = ((pz - cz) / rz) ** 2 + ((py - cy) / ry) ** 2 + ((px - cx) / rx) ** 2
    return q <= 1.0


def oracle_report(volume: Volume, lobes: LabelMask, abnorm: LabelMask) -> SeverityReport:
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
                    if hu_y[x] >= HIGH_OPACITY_HU:
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
    )


def generate(spec: PhantomSpec) -> PhantomCase:
    """Build a phantom case. Voxel membership is decided analytically at the
    voxel centers (index * spacing); later lesions overwrite earlier ones."""
    zpos, ypos, xpos = _centres(spec.dims, spec.spacing_mm)
    right = _inside(spec.lungs[0], zpos, ypos, xpos)
    left = _inside(spec.lungs[1], zpos, ypos, xpos) & ~right
    lung = right | left

    lobes = np.zeros(spec.dims, dtype=np.uint8)

    cz, rz = spec.lungs[0].center_mm[0], spec.lungs[0].radii_mm[0]
    f1, f2 = RIGHT_CUT_FRACTIONS
    z1 = (cz - rz) + f1 * (2 * rz)
    z2 = (cz - rz) + f2 * (2 * rz)
    below1 = zpos < z1
    below2 = zpos < z2
    lobes[right & below1] = 3
    lobes[right & ~below1 & below2] = 2
    lobes[right & ~below2] = 1

    cz, rz = spec.lungs[1].center_mm[0], spec.lungs[1].radii_mm[0]
    zl = (cz - rz) + LEFT_CUT_FRACTION * (2 * rz)
    belowl = zpos < zl
    lobes[left & belowl] = 5
    lobes[left & ~belowl] = 4

    hu = np.full(spec.dims, BACKGROUND_HU, dtype=np.float64)
    hu[lung] = LUNG_PARENCHYMA_HU
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


def _neighbours(mask: np.ndarray) -> list[np.ndarray]:
    """The six 6-connected neighbours of every voxel, as shifted views of the
    mask padded with one unset voxel per side: out of bounds counts unset."""
    p = np.pad(mask, 1)
    z, y, x = (slice(1, n + 1) for n in mask.shape)
    return [p[:-2, y, x], p[2:, y, x], p[z, :-2, x], p[z, 2:, x], p[z, y, :-2], p[z, y, 2:]]


def make_noisy_prediction(
    case: PhantomCase, dilate_vox: int = 0, erode_vox: int = 0, seed: int = 0
) -> LabelMask:
    """Emulate an imperfect segmenter by stochastic 6-connected morphology.

    Erosion rounds run first, then dilation rounds; in each round every
    boundary candidate flips independently with probability 0.8. With both
    counts zero the ground truth is returned unchanged.
    """
    dilate_vox = checked("dilate_vox", dilate_vox, at_least(0))
    erode_vox = checked("erode_vox", erode_vox, at_least(0))
    mask = case.abnorm_gt.data > 0
    rng = np.random.default_rng(seed)
    for _ in range(erode_vox):
        boundary = mask & ~np.logical_and.reduce(_neighbours(mask))
        flips = rng.random(mask.shape) < FLIP_PROB
        mask = mask & ~(boundary & flips)
    for _ in range(dilate_vox):
        candidates = ~mask & np.logical_or.reduce(_neighbours(mask))
        flips = rng.random(mask.shape) < FLIP_PROB
        mask = mask | (candidates & flips)
    return LabelMask(mask.astype(np.uint8), case.abnorm_gt.spacing_mm, allowed_labels=(1,))


def random_spec(
    seed: int,
    dims: tuple[int, int, int] = (16, 28, 28),
    n_lesions: int | None = None,
    noise_sigma_hu: float = 0.0,
) -> PhantomSpec:
    """Sample a randomized but always-valid spec at RANDOM_SPACING_MM.
    n_lesions=None draws 0..6."""
    rng = np.random.default_rng(seed)
    ext = tuple((d - 1) * s for d, s in zip(dims, RANDOM_SPACING_MM))

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
        spacing_mm=RANDOM_SPACING_MM,
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
    (out / "oracle.json").write_text(json.dumps(case.oracle.to_json_dict(), indent=2, allow_nan=False))
