"""Checks of lungsev's outputs against values computed apart from the program.

Every reference here is numpy (or scipy, where installed) working on the raw
files, never on lungsev's own readers or results. Each `check_*` returns a
list of error strings; an empty list means the output is correct.
`self_test` feeds each check one perturbed output and confirms it is caught.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

try:
    import scipy.stats as sps
except ImportError:  # the p-values and interval widths are then left unchecked
    sps = None

THRESHOLD_HU = -200.0
WINDOW_LO, WINDOW_WIDTH = -1350.0, 1500.0  # level -600, width 1500
PAD_HU = -1024.0
RESAMPLE_MM = (3.0, 1.0, 1.0)
METRICS = ("po", "pho", "lss", "lhos")
FIT_METRICS = ("po", "pho")
PERCENT_EDGES = (0.0, 1.0, 25.0, 50.0, 75.0, 100.0)
SCORE_EDGES = tuple(float(e) for e in range(22))
REL_TOL = 1e-12
STAT_TOL = 1e-10
P_TOL = 1e-8

_DTYPES = {"int16": "<i2", "uint8": "u1", "float32": "<f4"}


def read_raw(base: Path, mmap: bool = False) -> tuple[np.ndarray, list[float]]:
    """Array and spacing of a sidecar grid, read directly from its two files."""
    header = json.loads(base.with_suffix(".json").read_text())
    dtype = np.dtype(_DTYPES[header["dtype"]])
    raw = base.with_suffix(".raw")
    if mmap:
        data = np.memmap(raw, dtype=dtype, mode="r", shape=tuple(header["dims"]))
    else:
        data = np.fromfile(raw, dtype=dtype).reshape(header["dims"])
    return data, header["spacing_mm"]


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) or a == b


def _score(fraction: float) -> int:
    return 0 if fraction == 0 else min(4, math.ceil(4 * fraction))


# ---------------------------------------------------------------------------
# quantify
# ---------------------------------------------------------------------------

def reference_counts(volume: np.ndarray, lobes: np.ndarray, abnorm: np.ndarray) -> dict:
    """Per-label voxel counts: lobe, abnormal, abnormal at or above -200 HU."""
    lab = lobes.astype(np.int64).ravel()
    abn = abnorm.ravel() > 0
    high = abn & (volume.ravel() >= THRESHOLD_HU)
    return {
        "lobe": np.bincount(lab, minlength=6).tolist(),
        "abnormal": np.bincount(lab[abn], minlength=6).tolist(),
        "high": np.bincount(lab[high], minlength=6).tolist(),
    }


def check_report(report: dict, counts: dict, spacing: list[float]) -> list[str]:
    """Counts and scores exactly; PO, PHO and fractions to a relative 1e-12.

    Volumes are count x voxel volume, so a count off by one, or a volume off
    by one ulp, shows as an exact mismatch.
    """
    errors = []
    voxel = spacing[0] * spacing[1] * spacing[2]
    lobe = counts["lobe"]
    abnormal = counts["abnormal"]
    high = counts["high"]
    lung, n_abn, n_high = sum(lobe[1:6]), sum(abnormal[1:6]), sum(high[1:6])

    def exact(name, got, want):
        if got != want or type(got) is not type(want):
            errors.append(f"{name}: got {got!r}, want {want!r}")

    def close(name, got, want):
        if not _rel_close(float(got), want, REL_TOL):
            errors.append(f"{name}: got {got!r}, want {want!r}")

    lss = lhos = 0
    records = report.get("per_lobe", [])
    if len(records) != 5:
        return [f"per_lobe has {len(records)} records, want 5"]
    for k, rec in zip(range(1, 6), records):
        affected = abnormal[k] / lobe[k] if lobe[k] else 0.0
        high_frac = high[k] / lobe[k] if lobe[k] else 0.0
        lss += _score(affected)
        lhos += _score(high_frac)
        exact(f"lobe {k} label", rec["lobe_label"], k)
        exact(f"lobe {k} volume", rec["lobe_volume_mm3"], lobe[k] * voxel)
        close(f"lobe {k} affected_fraction", rec["affected_fraction"], affected)
        close(f"lobe {k} high_opacity_fraction", rec["high_opacity_fraction"], high_frac)
        exact(f"lobe {k} score", rec["lobe_score"], _score(affected))
        exact(f"lobe {k} ho score", rec["lobe_ho_score"], _score(high_frac))
    exact("lss", report["lss"], lss)
    exact("lhos", report["lhos"], lhos)
    exact("lung_volume_mm3", report["lung_volume_mm3"], lung * voxel)
    exact("abnormal_volume_mm3", report["abnormal_volume_mm3"], n_abn * voxel)
    exact("high_opacity_volume_mm3", report["high_opacity_volume_mm3"], n_high * voxel)
    close("po", report["po"], 100.0 * n_abn / lung)
    close("pho", report["pho"], 100.0 * n_high / lung)
    exact("threshold_hu", report["threshold_hu"], THRESHOLD_HU)
    return errors


def check_against_oracle(report: dict, oracle: dict) -> list[str]:
    """A ground-truth-mask report against phantom.oracle_report's answer."""
    errors = []
    for key in ("lss", "lhos", "lung_volume_mm3", "abnormal_volume_mm3", "high_opacity_volume_mm3"):
        if report[key] != oracle[key]:
            errors.append(f"{key}: got {report[key]!r}, oracle {oracle[key]!r}")
    for key in ("po", "pho"):
        if not _rel_close(report[key], oracle[key], REL_TOL):
            errors.append(f"{key}: got {report[key]!r}, oracle {oracle[key]!r}")
    for got, ref in zip(report["per_lobe"], oracle["per_lobe"]):
        for key in ("lobe_label", "lobe_score", "lobe_ho_score", "lobe_volume_mm3"):
            if got[key] != ref[key]:
                errors.append(f"lobe {ref['lobe_label']} {key}: got {got[key]!r}, oracle {ref[key]!r}")
        for key in ("affected_fraction", "high_opacity_fraction"):
            if not _rel_close(got[key], ref[key], REL_TOL):
                errors.append(f"lobe {ref['lobe_label']} {key}: got {got[key]!r}, oracle {ref[key]!r}")
    return errors


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _axis_coords(out_dim: int, in_dim: int, s_in: float, s_out: float) -> np.ndarray:
    return np.clip(np.arange(out_dim) * (s_out / s_in), 0.0, in_dim - 1)


def preprocess_samples(out_base: Path, case_dir: Path, box, n_samples: int, seed: int):
    """Sampled output voxels and the values recomputed from the source.

    Returns (errors, got, want). The crop centre is recomputed from the
    nearest-neighbour resampled lobe mask; each expected value is a direct
    trilinear interpolation of the source HU at that voxel, then the window.
    """
    errors = []
    header = json.loads(out_base.with_suffix(".json").read_text())
    if header["dims"] != list(box):
        errors.append(f"output dims {header['dims']}, want {list(box)}")
    if header["dtype"] != "float32" or header["spacing_mm"] != list(RESAMPLE_MM):
        errors.append(f"output dtype/spacing {header['dtype']} {header['spacing_mm']}")
    if errors:
        return errors, np.zeros(0), np.zeros(0)
    out, _ = read_raw(out_base, mmap=True)
    lo, hi = float(out.min()), float(out.max())
    if not (0.0 <= lo and hi <= 1.0):
        errors.append(f"output values span [{lo}, {hi}], want within [0, 1]")

    src, spacing = read_raw(case_dir / "volume", mmap=True)
    lobes, _ = read_raw(case_dir / "lobes", mmap=True)
    res_dims = [max(1, _round_half_away(d * s / t)) for d, s, t in zip(src.shape, spacing, RESAMPLE_MM)]
    coords = [_axis_coords(o, d, s, t) for o, d, s, t in zip(res_dims, src.shape, spacing, RESAMPLE_MM)]
    nearest = [np.clip(np.floor(c + 0.5).astype(np.intp), 0, d - 1) for c, d in zip(coords, src.shape)]
    lung = np.asarray(lobes[np.ix_(*nearest)]) != 0
    total = int(lung.sum())
    center = []
    for axis in range(3):
        others = tuple(a for a in range(3) if a != axis)
        per_index = lung.sum(axis=others, dtype=np.int64)
        center.append(_round_half_away(int(per_index @ np.arange(len(per_index))) / total))

    rng = np.random.default_rng(seed)
    pos = np.stack([rng.integers(0, b, size=n_samples) for b in box])
    res_idx = pos + (np.array(center) - np.array(box) // 2)[:, None]
    inside = np.all((res_idx >= 0) & (res_idx < np.array(res_dims)[:, None]), axis=0)
    want = np.full(n_samples, PAD_HU)
    idx = res_idx[:, inside]
    c = [coords[a][idx[a]] for a in range(3)]
    lo_i = [np.minimum(np.floor(ca).astype(np.intp), d - 1) for ca, d in zip(c, src.shape)]
    hi_i = [np.minimum(l + 1, d - 1) for l, d in zip(lo_i, src.shape)]
    f = [ca - la for ca, la in zip(c, lo_i)]
    acc = np.zeros(idx.shape[1])
    for corner in range(8):
        bits = [(corner >> (2 - a)) & 1 for a in range(3)]
        zi, yi, xi = (hi_i[a] if bits[a] else lo_i[a] for a in range(3))
        weight = np.ones(idx.shape[1])
        for a in range(3):
            weight *= f[a] if bits[a] else 1.0 - f[a]
        acc += weight * src[zi, yi, xi].astype(np.float64)
    want[inside] = acc
    want = (np.clip(want, WINDOW_LO, WINDOW_LO + WINDOW_WIDTH) - WINDOW_LO) / WINDOW_WIDTH
    got = np.asarray(out[pos[0], pos[1], pos[2]], dtype=np.float64)
    return errors, got, want


def compare_samples(got: np.ndarray, want: np.ndarray) -> list[str]:
    diff = np.abs(got - want)
    bad = int(np.count_nonzero(~(diff <= 1e-6)))
    if bad:
        return [f"{bad} of {len(got)} sampled voxels differ by more than 1e-6 (max {diff.max():.3g})"]
    return []


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _bin(values: np.ndarray, edges) -> np.ndarray:
    idx = np.searchsorted(np.asarray(edges), values, side="right") - 1
    return np.bincount(np.minimum(idx, len(edges) - 2), minlength=len(edges) - 1)


def _tau_b(x: np.ndarray, y: np.ndarray):
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    s = float((dx * dy).sum()) / 2.0
    d1 = float(np.count_nonzero(dx)) / 2.0
    d2 = float(np.count_nonzero(dy)) / 2.0
    if d1 == 0 or d2 == 0:
        return None
    return s / math.sqrt(d1 * d2)


def reference_stats(gt_pos, pred_pos, gt_all, pred_all, metric: str) -> dict:
    """Independent agreement statistics for one metric; None where undefined."""
    x = np.asarray(pred_pos, dtype=np.float64)
    y = np.asarray(gt_pos, dtype=np.float64)
    n = len(x)
    out: dict = {}
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        out["pearson_r"] = None
    else:
        out["pearson_r"] = float(np.corrcoef(x, y)[0, 1])
        if sps is not None:
            out["pearson_p"] = float(sps.pearsonr(x, y).pvalue)
    out["kendall_tau"] = _tau_b(x, y)
    if out["kendall_tau"] is not None and sps is not None:
        out["kendall_p"] = float(sps.kendalltau(x, y, method="asymptotic").pvalue)
    edges = PERCENT_EDGES if metric in FIT_METRICS else SCORE_EDGES
    table = np.stack([_bin(np.asarray(gt_all, float), edges), _bin(np.asarray(pred_all, float), edges)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        out["chi2"] = None
    else:
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
        out["chi2"] = float(((table - expected) ** 2 / expected).sum())
        out["chi2_dof"] = table.shape[1] - 1
        if sps is not None:
            out["chi2_p"] = float(sps.chi2.sf(out["chi2"], out["chi2_dof"]))
    if metric in FIT_METRICS:
        if np.ptp(x) == 0:
            out["beta0"] = None
        else:
            design = np.stack([np.ones(n), x], axis=1)
            (b0, b1), *_ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - (b0 + b1 * x)
            ssres = float(resid @ resid)
            sstot = float(((y - y.mean()) ** 2).sum())
            out["beta0"], out["beta1"] = float(b0), float(b1)
            out["r2"] = (1.0 if ssres == 0 else 0.0) if sstot == 0 else 1.0 - ssres / sstot
            out["mean_abs_error"] = float(np.abs(y - x).mean())
            out["rmse_about_fit"] = math.sqrt(ssres / n)
            if sps is not None:
                t = float(sps.t.ppf(0.975, n - 2))
                sigma2 = ssres / (n - 2)
                sxx = float(((x - x.mean()) ** 2).sum())
                out["beta1_ci_half"] = t * math.sqrt(sigma2 / sxx)
                out["beta0_ci_half"] = t * math.sqrt(sigma2 * (1.0 / n + x.mean() ** 2 / sxx))
    return out


def _stat_close(got, want, tol, name) -> list[str]:
    if want is None or got is None:
        return [] if want is None and got is None else [f"{name}: got {got!r}, want {want!r}"]
    if abs(got - want) <= tol * max(1.0, abs(want)):
        return []
    return [f"{name}: got {got!r}, want {want!r}"]


def check_summary(summary: dict, gt: dict, pred: dict, positives: set[str]) -> list[str]:
    """Every statistic in an evaluate summary against numpy/scipy formulas."""
    errors = []
    ids = sorted(gt)
    if summary["n_cases"] != len(ids) or summary["n_positive"] != len(positives):
        errors.append(f"case counts {summary['n_cases']}/{summary['n_positive']}, "
                      f"want {len(ids)}/{len(positives)}")
    rows = summary["cases"]
    if [r["case_id"] for r in rows] != ids:
        return errors + ["summary cases are not the paired case ids in order"]
    for row in rows:
        cid = row["case_id"]
        if row["positive"] != (cid in positives):
            errors.append(f"{cid}: positive flag {row['positive']}")
        for m in METRICS:
            if row[m + "_gt"] != float(gt[cid][m]) or row[m + "_pred"] != float(pred[cid][m]):
                errors.append(f"{cid} {m}: summary values differ from the reports")
    for m in METRICS:
        got = summary["metrics"][m]
        gt_all = [float(gt[c][m]) for c in ids]
        pred_all = [float(pred[c][m]) for c in ids]
        gt_pos = [float(gt[c][m]) for c in ids if c in positives]
        pred_pos = [float(pred[c][m]) for c in ids if c in positives]
        want = reference_stats(gt_pos, pred_pos, gt_all, pred_all, m)
        errors += _stat_close(got["pearson_r"], want["pearson_r"], STAT_TOL, f"{m} pearson_r")
        errors += _stat_close(got["kendall_tau"], want["kendall_tau"], STAT_TOL, f"{m} kendall_tau")
        errors += _stat_close(got["chi2"], want["chi2"], STAT_TOL, f"{m} chi2")
        if want["chi2"] is not None and got["chi2_dof"] != want["chi2_dof"]:
            errors.append(f"{m} chi2_dof: got {got['chi2_dof']}, want {want['chi2_dof']}")
        for key in ("pearson_p", "kendall_p", "chi2_p"):
            if key in want:
                errors += _stat_close(got[key], want[key], P_TOL, f"{m} {key}")
        if m in FIT_METRICS:
            if want["beta0"] is None:
                if "fit_undefined" not in got:
                    errors.append(f"{m}: fit defined on a constant predictor")
                continue
            for key in ("beta0", "beta1", "r2", "mean_abs_error", "rmse_about_fit"):
                errors += _stat_close(got.get(key), want[key], STAT_TOL, f"{m} {key}")
            for key in ("beta0", "beta1"):
                if key + "_ci_half" in want:
                    lo, hi = got[key + "_ci"]
                    errors += _stat_close((hi - lo) / 2.0, want[key + "_ci_half"], STAT_TOL,
                                          f"{m} {key}_ci")
    return errors


def check_scatter(text: str, summary: dict, jitter_pct: float = 0.2) -> list[str]:
    """Four rows per case; unjittered columns equal the report values."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if header != ["case_id", "metric", "gt", "pred", "gt_jittered", "pred_jittered"]:
        return [f"scatter header {header}"]
    if len(body) != 4 * len(summary["cases"]):
        return [f"scatter has {len(body)} rows for {len(summary['cases'])} cases"]
    errors = []
    for i, row in enumerate(body):
        case = summary["cases"][i // 4]
        m = METRICS[i % 4]
        gt, pred, gt_j, pred_j = (float(v) for v in row[2:])
        if row[0] != case["case_id"] or row[1] != m:
            errors.append(f"scatter row {i}: {row[:2]}")
        elif gt != case[m + "_gt"] or pred != case[m + "_pred"]:
            errors.append(f"scatter row {i}: {gt!r}/{pred!r} differ from the reports")
        elif abs(gt_j - gt) > jitter_pct or abs(pred_j - pred) > jitter_pct:
            errors.append(f"scatter row {i}: jitter beyond {jitter_pct}")
    return errors


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def check_training(loss_csv: str, epochs: int, per_epoch: int) -> list[str]:
    """Row count, finite losses in [0, 1], last epoch's mean below the first's."""
    rows = list(csv.reader(io.StringIO(loss_csv)))[1:]
    if len(rows) != epochs * per_epoch:
        return [f"loss CSV has {len(rows)} rows, want {epochs} x {per_epoch}"]
    losses = np.array([float(r[1]) for r in rows])
    errors = []
    if not np.all(np.isfinite(losses) & (losses >= 0.0) & (losses <= 1.0)):
        errors.append("training losses outside [0, 1] or not finite")
    first, last = losses[:per_epoch].mean(), losses[-per_epoch:].mean()
    if not last < first:
        errors.append(f"mean training loss rose from {first} (first epoch) to {last} (last)")
    return errors


def check_checkpoint(loaded: dict, expected: dict) -> list[str]:
    """Names and shapes of a reloaded checkpoint against init_params(config)."""
    got = {name: tuple(t.data.shape) for name, t in loaded.items()}
    want = {name: tuple(t.data.shape) for name, t in expected.items()}
    if got != want:
        return [f"checkpoint tensors differ from init_params: {sorted(set(got) ^ set(want))[:5]}"]
    return []


# ---------------------------------------------------------------------------
# perturbation self-test
# ---------------------------------------------------------------------------

def self_test(report: dict, counts: dict, spacing, samples, evaluation, training) -> list[str]:
    """Feed each check one wrong answer; return the checks that missed it.

    samples is (got, want) from preprocess_samples or None; evaluation is
    (summary, gt, pred, positives, scatter_text) or None; training is
    (loss_csv, epochs, per_epoch) or None.
    """
    missed = []
    bad = json.loads(json.dumps(report))
    rec = bad["per_lobe"][0]
    rec["lobe_volume_mm3"] = float(np.nextafter(rec["lobe_volume_mm3"], math.inf))
    if not check_report(bad, counts, spacing):
        missed.append("report check accepted a lobe volume one ulp off")
    bad = json.loads(json.dumps(report))
    bad["po"] = bad["po"] * (1 + 1e-9) + 1e-9
    if not check_report(bad, counts, spacing):
        missed.append("report check accepted a changed PO")
    if samples is not None:
        got, want = samples
        moved = got.copy()
        moved[0] = want[0] + 1e-4
        if not compare_samples(moved, want):
            missed.append("preprocess check accepted a moved voxel")
    if evaluation is not None:
        summary, gt, pred, positives, scatter_text = evaluation
        bad = json.loads(json.dumps(summary))
        stats = bad["metrics"]["po"]
        key = "pearson_r" if stats["pearson_r"] is not None else "chi2"
        stats[key] = (stats[key] or 0.0) + 1e-7
        if not check_summary(bad, gt, pred, positives):
            missed.append("evaluate check accepted a changed statistic")
        lines = scatter_text.splitlines()
        fields = lines[1].split(",")
        fields[2] = repr(float(np.nextafter(float(fields[2]), math.inf)))
        lines[1] = ",".join(fields)
        if not check_scatter("\n".join(lines) + "\n", summary):
            missed.append("scatter check accepted a gt value one ulp off")
    if training is not None:
        loss_csv, epochs, per_epoch = training
        lines = loss_csv.splitlines()
        fields = lines[-1].split(",")
        fields[1] = "1.5"
        lines[-1] = ",".join(fields)
        if not check_training("\n".join(lines) + "\n", epochs, per_epoch):
            missed.append("training check accepted a loss above 1")
    return missed
