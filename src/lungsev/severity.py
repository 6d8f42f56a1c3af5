"""Severity measures computed from lobe and abnormality masks.

Four summary measures describe how much of the lung is involved:

* PO: percentage of lung volume covered by the abnormality mask.
* PHO: percentage of lung volume that is both abnormal and at or above a
  high-opacity HU threshold (default -200 HU).
* LSS: sum over the five lobes of a 0-4 score binned from the affected
  fraction of each lobe.
* LHOS: the same sum with high-opacity fractions instead.

Fractions use physical volumes (voxel count times voxel volume), so the
measures are invariant to uniform spacing rescale. Abnormality voxels that
fall outside the lung are ignored.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, InputError
from .volume import LOBE_LABELS, LabelMask, Volume, check_same_geometry

DEFAULT_THRESHOLD_HU = -200.0


@dataclass(frozen=True)
class LobeRecord:
    lobe_label: int
    lobe_volume_mm3: float
    affected_fraction: float
    high_opacity_fraction: float
    lobe_score: int
    lobe_ho_score: int


@dataclass(frozen=True)
class SeverityReport:
    po: float
    pho: float
    lss: int
    lhos: int
    per_lobe: tuple[LobeRecord, ...]
    lung_volume_mm3: float
    abnormal_volume_mm3: float
    high_opacity_volume_mm3: float
    threshold_hu: float

    def to_json_dict(self) -> dict:
        return {
            "po": self.po,
            "pho": self.pho,
            "lss": self.lss,
            "lhos": self.lhos,
            "per_lobe": [
                {
                    "lobe_label": rec.lobe_label,
                    "lobe_volume_mm3": rec.lobe_volume_mm3,
                    "affected_fraction": rec.affected_fraction,
                    "high_opacity_fraction": rec.high_opacity_fraction,
                    "lobe_score": rec.lobe_score,
                    "lobe_ho_score": rec.lobe_ho_score,
                }
                for rec in self.per_lobe
            ],
            "lung_volume_mm3": self.lung_volume_mm3,
            "abnormal_volume_mm3": self.abnormal_volume_mm3,
            "high_opacity_volume_mm3": self.high_opacity_volume_mm3,
            "threshold_hu": self.threshold_hu,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SeverityReport":
        try:
            per_lobe = tuple(
                LobeRecord(
                    lobe_label=int(rec["lobe_label"]),
                    lobe_volume_mm3=float(rec["lobe_volume_mm3"]),
                    affected_fraction=float(rec["affected_fraction"]),
                    high_opacity_fraction=float(rec["high_opacity_fraction"]),
                    lobe_score=int(rec["lobe_score"]),
                    lobe_ho_score=int(rec["lobe_ho_score"]),
                )
                for rec in d["per_lobe"]
            )
            return SeverityReport(
                po=float(d["po"]),
                pho=float(d["pho"]),
                lss=int(d["lss"]),
                lhos=int(d["lhos"]),
                per_lobe=per_lobe,
                lung_volume_mm3=float(d["lung_volume_mm3"]),
                abnormal_volume_mm3=float(d["abnormal_volume_mm3"]),
                high_opacity_volume_mm3=float(d["high_opacity_volume_mm3"]),
                threshold_hu=float(d["threshold_hu"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed severity report: {exc}") from exc


def lobe_score(fraction: float) -> int:
    """Bin an affected fraction into the 0-4 lobe score.

    0 only at exactly zero involvement; then (0,0.25] -> 1, (0.25,0.5] -> 2,
    (0.5,0.75] -> 3, (0.75,1] -> 4.
    """
    f = float(fraction)
    if not math.isfinite(f) or f < 0.0 or f > 1.0:
        raise InputError(f"lobe fraction must be in [0,1], got {fraction}")
    if f == 0.0:
        return 0
    if f <= 0.25:
        return 1
    if f <= 0.50:
        return 2
    if f <= 0.75:
        return 3
    return 4


def _check_raw_hu(v: Volume) -> None:
    # A volume whose every value sits in [0,1] is almost certainly the
    # normalized training tensor, on which an HU threshold is meaningless.
    lo = float(v.data.min())
    hi = float(v.data.max())
    if lo >= 0.0 and hi <= 1.0:
        raise InputError(
            "volume values all lie in [0,1]; high-opacity thresholding needs raw HU"
        )


def compute_report(
    v: Volume,
    lobes: LabelMask,
    abnorm: LabelMask,
    threshold: float = DEFAULT_THRESHOLD_HU,
) -> SeverityReport:
    """Full severity breakdown: global PO/PHO plus per-lobe scores and sums."""
    check_same_geometry(v, lobes)
    _check_raw_hu(v)
    check_same_geometry(lobes, abnorm)
    lung = lobes.data > 0
    lung_count = int(lung.sum())
    if lung_count == 0:
        raise EmptyMaskError("lung mask is empty")
    abn_in_lung = (abnorm.data > 0) & lung
    high_in_lung = abn_in_lung & (v.data >= threshold)
    voxel_mm3 = lobes.voxel_volume_mm3

    records = []
    lss = lhos = 0
    for label in LOBE_LABELS:
        in_lobe = lobes.data == label
        n_lobe = int(in_lobe.sum())
        n_abn = int((abn_in_lung & in_lobe).sum())
        n_high = int((high_in_lung & in_lobe).sum())
        affected = n_abn / n_lobe if n_lobe else 0.0
        high_frac = n_high / n_lobe if n_lobe else 0.0
        score = lobe_score(affected)
        ho_score = lobe_score(high_frac)
        lss += score
        lhos += ho_score
        records.append(
            LobeRecord(
                lobe_label=label,
                lobe_volume_mm3=n_lobe * voxel_mm3,
                affected_fraction=affected,
                high_opacity_fraction=high_frac,
                lobe_score=score,
                lobe_ho_score=ho_score,
            )
        )

    n_abn_total = int(abn_in_lung.sum())
    n_high_total = int(high_in_lung.sum())
    return SeverityReport(
        po=100.0 * n_abn_total / lung_count,
        pho=100.0 * n_high_total / lung_count,
        lss=lss,
        lhos=lhos,
        per_lobe=tuple(records),
        lung_volume_mm3=lung_count * voxel_mm3,
        abnormal_volume_mm3=n_abn_total * voxel_mm3,
        high_opacity_volume_mm3=n_high_total * voxel_mm3,
        threshold_hu=float(threshold),
    )
