"""Cohort-level agreement statistics between two sets of severity reports."""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateDataError, InputError
from .severity import SeverityReport
from .stats import (
    PERCENT_BIN_EDGES,
    SCORE_BIN_EDGES,
    PairedSeries,
    RegressionFit,
    bin_counts,
    chi2_contingency,
    kendall_tau,
    linfit,
    pearson,
)

METRICS = ("po", "pho", "lss", "lhos")

# Metrics with a linear-fit panel in the summary.
FIT_METRICS = ("po", "pho")

MIN_CASES = 3


@dataclass(frozen=True)
class MetricStats:
    """Agreement statistics for one severity metric across a cohort.

    Any statistic whose preconditions fail (constant series, empty
    contingency support, ...) is left as None with the reason recorded
    in the matching *_undefined field. Fields are in summary JSON order.
    """

    metric: str
    pearson_r: float | None = None
    pearson_p: float | None = None
    kendall_tau: float | None = None
    kendall_p: float | None = None
    chi2: float | None = None
    chi2_dof: int | None = None
    chi2_p: float | None = None
    pearson_undefined: str | None = None
    kendall_undefined: str | None = None
    chi2_undefined: str | None = None
    fit_undefined: str | None = None
    fit: RegressionFit | None = None

    def to_json_dict(self) -> dict:
        out = {
            key: value
            for key, value in vars(self).items()
            if key not in ("metric", "fit") and not (value is None and key.endswith("_undefined"))
        }
        if self.fit is not None:
            out.update(vars(self.fit))
        return out


@dataclass(frozen=True)
class CaseRow:
    """Ground-truth and predicted metric values for one case."""

    case_id: str
    positive: bool
    gt: dict[str, float]
    pred: dict[str, float]

    def to_json_dict(self) -> dict:
        out: dict = {"case_id": self.case_id, "positive": self.positive}
        for metric in METRICS:
            out[metric + "_gt"] = self.gt[metric]
            out[metric + "_pred"] = self.pred[metric]
        return out


@dataclass(frozen=True)
class EvaluationSummary:
    n_cases: int
    n_positive: int
    metrics: dict[str, MetricStats]
    cases: tuple[CaseRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "n_positive": self.n_positive,
            "metrics": {m: self.metrics[m].to_json_dict() for m in METRICS},
            "cases": [row.to_json_dict() for row in self.cases],
        }


def _attempt(fields: dict, key: str, compute) -> None:
    """Add the (name, value) pairs compute() returns to fields or, when the
    statistic is undefined for this cohort, the reason under key_undefined."""
    try:
        fields.update(compute())
    except DegenerateDataError as exc:
        fields[key + "_undefined"] = exc.reason


def _metric_stats(
    metric: str,
    rows: Sequence[CaseRow],
    positive_rows: Sequence[CaseRow],
) -> MetricStats:
    series = PairedSeries(
        [row.gt[metric] for row in positive_rows], [row.pred[metric] for row in positive_rows]
    )
    edges = PERCENT_BIN_EDGES if metric in FIT_METRICS else SCORE_BIN_EDGES
    gt_bins = bin_counts((row.gt[metric] for row in rows), edges)
    pred_bins = bin_counts((row.pred[metric] for row in rows), edges)

    fields: dict = {"metric": metric}
    _attempt(fields, "pearson", lambda: zip(("pearson_r", "pearson_p"), pearson(series)))
    _attempt(fields, "kendall", lambda: zip(("kendall_tau", "kendall_p"), kendall_tau(series)))
    _attempt(
        fields,
        "chi2",
        lambda: zip(("chi2", "chi2_dof", "chi2_p"), astuple(chi2_contingency(gt_bins, pred_bins))),
    )
    if metric in FIT_METRICS:
        _attempt(fields, "fit", lambda: {"fit": linfit(series)})
    return MetricStats(**fields)


def evaluate_reports(
    gt_reports: Mapping[str, SeverityReport],
    pred_reports: Mapping[str, SeverityReport],
    positive_ids: Iterable[str] | None = None,
) -> EvaluationSummary:
    """Pair reports by case id and compute per-metric agreement statistics.

    Correlations and the linear fit use positive cases only when
    positive_ids is given; the contingency test always uses the full
    cohort. Without positive_ids every case is treated as positive.
    """
    gt_ids = set(gt_reports)
    pred_ids = set(pred_reports)
    if gt_ids != pred_ids:
        missing_pred = sorted(gt_ids - pred_ids)
        missing_gt = sorted(pred_ids - gt_ids)
        parts = []
        if missing_pred:
            parts.append("missing predictions for " + ", ".join(missing_pred))
        if missing_gt:
            parts.append("missing ground truth for " + ", ".join(missing_gt))
        raise InputError("case id mismatch: " + "; ".join(parts))
    case_ids = sorted(gt_ids)
    if len(case_ids) < MIN_CASES:
        raise InputError(f"need at least {MIN_CASES} paired cases, got {len(case_ids)}")

    if positive_ids is None:
        positive = set(case_ids)
    else:
        positive = set()
        for cid in positive_ids:
            if cid in positive:
                raise InputError(f"positive_ids: duplicate case id {cid!r}")
            positive.add(cid)
        unknown = sorted(positive - set(case_ids))
        if unknown:
            raise InputError("positive list names unknown cases: " + ", ".join(unknown))
        if len(positive) < MIN_CASES:
            raise InputError(
                f"need at least {MIN_CASES} positive cases for correlations, got {len(positive)}"
            )

    rows = tuple(
        CaseRow(
            case_id=cid,
            positive=cid in positive,
            gt={m: float(getattr(gt_reports[cid], m)) for m in METRICS},
            pred={m: float(getattr(pred_reports[cid], m)) for m in METRICS},
        )
        for cid in case_ids
    )
    positive_rows = [row for row in rows if row.positive]

    metrics = {m: _metric_stats(m, rows, positive_rows) for m in METRICS}
    return EvaluationSummary(
        n_cases=len(rows),
        n_positive=len(positive_rows),
        metrics=metrics,
        cases=rows,
    )


# Half-width of the display jitter, in each metric's own units.
JITTER = 0.2

SCATTER_HEADER = ("case_id", "metric", "gt", "pred", "gt_jittered", "pred_jittered")


def scatter_rows(summary: EvaluationSummary, seed: int = 0) -> list[tuple]:
    """Per-case scatter points with a uniform display jitter within ±JITTER.

    The jitter exists purely to separate overlapping markers; the
    unjittered columns are the values every statistic is computed from.
    """
    points = [(case, m) for case in summary.cases for m in METRICS]
    # One (gt, pred) jitter pair per point, drawn in row order.
    jitter = np.random.default_rng(seed).uniform(-JITTER, JITTER, size=(len(points), 2))
    return [
        (case.case_id, m, case.gt[m], case.pred[m], case.gt[m] + dg, case.pred[m] + dp)
        for (case, m), (dg, dp) in zip(points, jitter.tolist())
    ]


def write_scatter_csv(rows: Iterable[tuple], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCATTER_HEADER)
        writer.writerows(rows)
