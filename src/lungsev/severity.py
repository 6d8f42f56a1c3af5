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

from .errors import EmptyMaskError, InputError, checked, entries, finite, integer, read_field
from .volume import LOBE_LABELS, GridFile, LabelMask, Volume, check_same_geometry

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
        """Every field in declaration order, each lobe record as a dict of its fields."""
        return {**vars(self), "per_lobe": [dict(vars(rec)) for rec in self.per_lobe]}

    @staticmethod
    def from_json_dict(d: dict) -> "SeverityReport":
        """The report that to_json_dict wrote, checked: exact ints, finite
        floats, one record per lobe, sums that match, 0 <= pho <= po <= 100."""
        report = SeverityReport(
            per_lobe=read_field(d, "per_lobe", _lobe_records),
            po=read_field(d, "po", finite),
            pho=read_field(d, "pho", finite),
            lss=read_field(d, "lss", integer),
            lhos=read_field(d, "lhos", integer),
            lung_volume_mm3=read_field(d, "lung_volume_mm3", finite),
            abnormal_volume_mm3=read_field(d, "abnormal_volume_mm3", finite),
            high_opacity_volume_mm3=read_field(d, "high_opacity_volume_mm3", finite),
            threshold_hu=read_field(d, "threshold_hu", finite),
        )
        labels = [rec.lobe_label for rec in report.per_lobe]
        if sorted(labels) != list(LOBE_LABELS):
            raise InputError(f"per_lobe: expected one record per lobe label {LOBE_LABELS}, got labels {labels}")
        if report.lss != sum(rec.lobe_score for rec in report.per_lobe):
            raise InputError(f"lss: {report.lss} is not the sum of the lobe scores")
        if report.lhos != sum(rec.lobe_ho_score for rec in report.per_lobe):
            raise InputError(f"lhos: {report.lhos} is not the sum of the lobe high-opacity scores")
        if not 0.0 <= report.pho <= report.po <= 100.0:
            raise InputError(f"po, pho: need 0 <= pho <= po <= 100, got po={report.po}, pho={report.pho}")
        return report


def _score(value) -> int:
    if type(value) is not int or not 0 <= value <= 4:
        raise ValueError(f"expected an integer score from 0 to 4, got {value!r}")
    return value


def _lobe_record(rec: dict) -> LobeRecord:
    return LobeRecord(  # positional, in field order: thousands of records are read per evaluate
        read_field(rec, "lobe_label", integer),
        read_field(rec, "lobe_volume_mm3", finite),
        read_field(rec, "affected_fraction", finite),
        read_field(rec, "high_opacity_fraction", finite),
        read_field(rec, "lobe_score", _score),
        read_field(rec, "lobe_ho_score", _score),
    )


_lobe_records = entries(_lobe_record)


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


def _count(v, lobes, abnorm, threshold: float) -> tuple:
    """Every count a report needs, summed over (hu, lobes, abnorm) z-slab
    triples: lung voxels, abnormal lung voxels and the high-opacity ones
    among them; the same three counts per lobe label, as the rows of an
    array indexed by label; and the HU min and max, which propagate NaN."""
    n_labels = max(LOBE_LABELS) + 1
    lung = abnormal = high_opacity = 0
    per_label = np.zeros((3, n_labels), dtype=np.int64)
    lo, hi = math.inf, -math.inf
    for hu, lab, abn in zip(v.slabs(), lobes.slabs(), abnorm.slabs(), strict=True):
        lo, hi = np.minimum(lo, hu.min()), np.maximum(hi, hu.max())
        lung += np.count_nonzero(lab > 0)
        per_label[0, LOBE_LABELS] += [np.count_nonzero(lab == label) for label in LOBE_LABELS]
        # Abnormal voxels are a small share of a slab: gather labels and HU
        # there only, and keep those inside the lung (label > 0).
        abn_idx = np.flatnonzero(abn > 0)
        abn_labels = np.take(lab, abn_idx)
        in_lung = abn_labels > 0
        abn_labels = abn_labels[in_lung]
        high = np.take(hu, abn_idx[in_lung]) >= threshold
        abnormal += abn_labels.size
        high_opacity += np.count_nonzero(high)
        per_label[1] += np.bincount(abn_labels, minlength=n_labels)[:n_labels]
        per_label[2] += np.bincount(abn_labels[high], minlength=n_labels)[:n_labels]
    return (lung, abnormal, high_opacity), per_label, float(lo), float(hi)


def _check_raw_hu(dtype: np.dtype, lo: float, hi: float) -> None:
    # A NaN or infinite voxel would silently drop out of the counts. An
    # unsigned grid (a label mask given as the volume) cannot hold the
    # negative HU of lung, and a volume whose every value sits in [0,1] is
    # almost certainly the normalized training tensor; an HU threshold is
    # meaningless on either.
    if dtype.kind == "u":
        raise InputError(f"volume dtype {dtype} is unsigned; high-opacity thresholding needs raw HU")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"volume holds non-finite values (min {lo}, max {hi})")
    if lo >= 0.0 and hi <= 1.0:
        raise InputError(
            "volume values all lie in [0,1]; high-opacity thresholding needs raw HU"
        )


def compute_report(
    v: Volume | GridFile,
    lobes: LabelMask | GridFile,
    abnorm: LabelMask | GridFile,
    threshold: float = DEFAULT_THRESHOLD_HU,
) -> SeverityReport:
    """Full severity breakdown: global PO/PHO plus per-lobe scores and sums.

    The grids are counted z-slab by z-slab through their slabs(), so a grid
    in memory and a GridFile on disk take the one counting path, and a file
    is never held whole."""
    threshold = checked("threshold", threshold, finite)
    check_same_geometry(("volume", v), ("lobes", lobes), ("abnorm", abnorm))
    (lung_count, n_abn_total, n_high_total), per_label, lo, hi = _count(v, lobes, abnorm, threshold)
    _check_raw_hu(v.data.dtype, lo, hi)
    if lung_count == 0:
        raise EmptyMaskError("lung mask is empty")
    voxel_mm3 = lobes.voxel_volume_mm3

    records = []
    lss = lhos = 0
    for label in LOBE_LABELS:
        n_lobe, n_abn, n_high = per_label[:, label].tolist()
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

    return SeverityReport(
        po=100.0 * n_abn_total / lung_count,
        pho=100.0 * n_high_total / lung_count,
        lss=lss,
        lhos=lhos,
        per_lobe=tuple(records),
        lung_volume_mm3=lung_count * voxel_mm3,
        abnormal_volume_mm3=n_abn_total * voxel_mm3,
        high_opacity_volume_mm3=n_high_total * voxel_mm3,
        threshold_hu=threshold,
    )
