import csv
import json

import numpy as np
import pytest

from lungsev.errors import InputError
from lungsev.evaluate import (
    JITTER,
    METRICS,
    SCATTER_HEADER,
    EvaluationSummary,
    evaluate_reports,
    scatter_rows,
    write_scatter_csv,
)
from lungsev.severity import SeverityReport
from lungsev.stats import (
    PERCENT_BIN_EDGES,
    SCORE_BIN_EDGES,
    PairedSeries,
    bin_counts,
    chi2_contingency,
    kendall_tau,
    linfit,
    pearson,
)


def make_report(po, pho, lss, lhos):
    return SeverityReport(
        po=float(po),
        pho=float(pho),
        lss=int(lss),
        lhos=int(lhos),
        per_lobe=(),
        lung_volume_mm3=1000.0,
        abnormal_volume_mm3=10.0 * po,
        high_opacity_volume_mm3=10.0 * pho,
    )


def random_cohort(seed, n):
    rng = np.random.default_rng(seed)
    gt = {}
    pred = {}
    for i in range(n):
        cid = f"case_{i:03d}"
        po = float(rng.uniform(0.0, 80.0))
        pho = float(rng.uniform(0.0, po)) if po > 0 else 0.0
        lss = int(rng.integers(0, 21))
        lhos = int(rng.integers(0, lss + 1))
        gt[cid] = make_report(po, pho, lss, lhos)
        po_p = max(0.0, po + float(rng.normal(0, 4.0)))
        pho_p = max(0.0, pho + float(rng.normal(0, 2.0)))
        lss_p = int(np.clip(lss + rng.integers(-2, 3), 0, 20))
        lhos_p = int(np.clip(lhos + rng.integers(-2, 3), 0, 20))
        pred[cid] = make_report(po_p, pho_p, lss_p, lhos_p)
    return gt, pred


# ---------------------------------------------------------------------------
# Perfect agreement
# ---------------------------------------------------------------------------

def test_identical_reports_reach_the_exact_fixed_point():
    gt, _ = random_cohort(1, 12)
    summary = evaluate_reports(gt, dict(gt))
    for metric in METRICS:
        stats = summary.metrics[metric]
        assert stats.pearson_r == 1.0
        assert stats.kendall_tau == 1.0
        assert stats.chi2 == 0.0
        assert stats.chi2_p == 1.0
    for metric in ("po", "pho"):
        fit = summary.metrics[metric].fit
        assert fit.beta0 == 0.0
        assert fit.beta1 == 1.0
        assert fit.beta0_ci == (0.0, 0.0)
        assert fit.beta1_ci == (1.0, 1.0)
        assert fit.r2 == 1.0
        assert fit.mean_abs_error == 0.0
        assert fit.rmse_about_fit == 0.0
    for metric in ("lss", "lhos"):
        assert summary.metrics[metric].fit is None


# ---------------------------------------------------------------------------
# Wiring against direct statistic calls
# ---------------------------------------------------------------------------

def test_summary_matches_direct_statistics():
    gt, pred = random_cohort(7, 40)
    summary = evaluate_reports(gt, pred)
    ids = sorted(gt)
    for metric in METRICS:
        g = [float(getattr(gt[c], metric)) for c in ids]
        p = [float(getattr(pred[c], metric)) for c in ids]
        series = PairedSeries(g, p)
        stats = summary.metrics[metric]
        r, rp = pearson(series)
        assert stats.pearson_r == r
        assert stats.pearson_p == rp
        tau, tp = kendall_tau(series)
        assert stats.kendall_tau == tau
        assert stats.kendall_p == tp
        edges = PERCENT_BIN_EDGES if metric in ("po", "pho") else SCORE_BIN_EDGES
        table = chi2_contingency(bin_counts(g, edges), bin_counts(p, edges))
        assert stats.chi2 == table.chi2
        assert stats.chi2_dof == table.dof
        assert stats.chi2_p == table.p_value
        if metric in ("po", "pho"):
            assert stats.fit == linfit(series)


def test_positive_list_restricts_correlations_but_not_contingency():
    gt, pred = random_cohort(11, 30)
    ids = sorted(gt)
    positives = ids[:18]
    # controls get flat zeros so restriction visibly changes the answer
    for cid in ids[18:]:
        gt[cid] = make_report(0.0, 0.0, 0, 0)
        pred[cid] = make_report(0.0, 0.0, 0, 0)
    summary = evaluate_reports(gt, pred, positive_ids=positives)
    assert summary.n_cases == 30
    assert summary.n_positive == 18

    g_pos = [gt[c].po for c in positives]
    p_pos = [pred[c].po for c in positives]
    r, _ = pearson(PairedSeries(g_pos, p_pos))
    assert summary.metrics["po"].pearson_r == r

    g_all = [gt[c].po for c in ids]
    p_all = [pred[c].po for c in ids]
    table = chi2_contingency(
        bin_counts(g_all, PERCENT_BIN_EDGES), bin_counts(p_all, PERCENT_BIN_EDGES)
    )
    assert summary.metrics["po"].chi2 == table.chi2

    r_all, _ = pearson(PairedSeries(g_all, p_all))
    assert summary.metrics["po"].pearson_r != r_all

    flags = {row.case_id: row.positive for row in summary.cases}
    assert all(flags[c] for c in positives)
    assert not any(flags[c] for c in ids[18:])


# ---------------------------------------------------------------------------
# Degenerate cohorts
# ---------------------------------------------------------------------------

def test_all_zero_cohort_reports_reasons_not_nan():
    gt = {f"c{i}": make_report(0.0, 0.0, 0, 0) for i in range(6)}
    summary = evaluate_reports(gt, dict(gt))
    for metric in METRICS:
        stats = summary.metrics[metric]
        assert stats.pearson_r is None
        assert stats.pearson_undefined
        assert stats.kendall_tau is None
        assert stats.kendall_undefined
        assert stats.chi2 is None
        assert stats.chi2_undefined
    payload = summary.to_json_dict()
    # every value remains JSON-clean: no NaN anywhere
    json.dumps(payload, allow_nan=False)
    assert "pearson_undefined" in payload["metrics"]["po"]
    assert "fit_undefined" in payload["metrics"]["po"]
    assert payload["metrics"]["po"]["pearson_r"] is None


def test_partial_degeneracy_keeps_other_statistics():
    # constant predictions: pearson/fit undefined, contingency still defined
    gt, _ = random_cohort(3, 10)
    pred = {cid: make_report(5.0, 1.0, 4, 2) for cid in gt}
    summary = evaluate_reports(gt, pred)
    stats = summary.metrics["po"]
    assert stats.pearson_r is None
    assert stats.pearson_undefined
    assert stats.fit is None
    assert stats.fit_undefined
    assert stats.chi2 is not None


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_mismatched_ids_name_the_offenders():
    gt, pred = random_cohort(5, 5)
    del pred["case_001"]
    pred["case_xyz"] = make_report(1.0, 0.5, 1, 1)
    with pytest.raises(InputError, match="case_001"):
        evaluate_reports(gt, pred)
    with pytest.raises(InputError, match="case_xyz"):
        evaluate_reports(gt, pred)


def test_too_few_cases_rejected():
    gt, pred = random_cohort(9, 2)
    with pytest.raises(InputError, match="at least 3"):
        evaluate_reports(gt, pred)


def test_unknown_positive_id_rejected():
    gt, pred = random_cohort(13, 5)
    with pytest.raises(InputError, match="nope"):
        evaluate_reports(gt, pred, positive_ids=["nope"])


def test_repeated_positive_id_rejected():
    gt, pred = random_cohort(13, 5)
    with pytest.raises(InputError, match=r"^positive_ids: duplicate case id 'case_000'$"):
        evaluate_reports(gt, pred, positive_ids=["case_000", "case_000", "case_001", "case_002"])


def test_too_few_positives_rejected():
    gt, pred = random_cohort(15, 8)
    with pytest.raises(InputError, match="positive"):
        evaluate_reports(gt, pred, positive_ids=sorted(gt)[:2])


# ---------------------------------------------------------------------------
# Scatter output
# ---------------------------------------------------------------------------

def test_scatter_rows_jitter_is_bounded_and_display_only():
    gt, pred = random_cohort(21, 15)
    summary = evaluate_reports(gt, pred)
    rows = scatter_rows(summary, seed=42)
    assert len(rows) == 15 * len(METRICS)
    by_case = {(row.case_id, m): row for row in summary.cases for m in METRICS}
    for cid, metric, g, p, gj, pj in rows:
        case = by_case[(cid, metric)]
        assert g == case.gt[metric]
        assert p == case.pred[metric]
        assert abs(gj - g) <= JITTER
        assert abs(pj - p) <= JITTER

    again = scatter_rows(summary, seed=42)
    assert rows == again
    other = scatter_rows(summary, seed=43)
    assert rows != other

    # the jitter never touches the statistics
    summary2 = evaluate_reports(gt, pred)
    assert summary2.metrics["po"] == summary.metrics["po"]


def test_scatter_rows_draw_jitter_per_row_gt_first():
    gt, pred = random_cohort(25, 9)
    summary = evaluate_reports(gt, pred)
    rng = np.random.default_rng(5)
    expected = []
    for case in summary.cases:
        for metric in METRICS:
            gt_j = case.gt[metric] + float(rng.uniform(-JITTER, JITTER))
            pred_j = case.pred[metric] + float(rng.uniform(-JITTER, JITTER))
            expected.append((case.case_id, metric, case.gt[metric], case.pred[metric], gt_j, pred_j))
    assert scatter_rows(summary, seed=5) == expected


def test_scatter_csv_round_trip(tmp_path):
    gt, pred = random_cohort(23, 5)
    summary = evaluate_reports(gt, pred)
    rows = scatter_rows(summary, seed=0)
    path = tmp_path / "scatter.csv"
    write_scatter_csv(rows, path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        parsed = [tuple(row) for row in reader]
    assert header == SCATTER_HEADER
    assert len(parsed) == len(rows)
    for raw, row in zip(parsed, rows):
        assert raw[0] == row[0]
        assert raw[1] == row[1]
        assert float(raw[2]) == row[2]
        assert float(raw[5]) == row[5]


# ---------------------------------------------------------------------------
# JSON shape
# ---------------------------------------------------------------------------

def test_summary_json_structure():
    gt, pred = random_cohort(31, 8)
    summary = evaluate_reports(gt, pred)
    payload = summary.to_json_dict()
    assert payload["n_cases"] == 8
    assert payload["n_positive"] == 8
    assert set(payload["metrics"]) == set(METRICS)
    for metric in METRICS:
        entry = payload["metrics"][metric]
        for key in ("pearson_r", "pearson_p", "kendall_tau", "kendall_p", "chi2", "chi2_p"):
            assert key in entry
    for metric in ("po", "pho"):
        entry = payload["metrics"][metric]
        for key in ("beta0", "beta0_ci", "beta1", "beta1_ci", "r2", "mean_abs_error", "rmse_about_fit"):
            assert key in entry
    for metric in ("lss", "lhos"):
        assert "beta0" not in payload["metrics"][metric]
    assert len(payload["cases"]) == 8
    first = payload["cases"][0]
    assert first["case_id"] == sorted(gt)[0]
    assert {"po_gt", "po_pred", "lhos_gt", "lhos_pred"} <= set(first)
    assert isinstance(summary, EvaluationSummary)


STATISTIC_KEYS = ["pearson_r", "pearson_p", "kendall_tau", "kendall_p", "chi2", "chi2_dof", "chi2_p"]
FIT_KEYS = ["beta0", "beta0_ci", "beta1", "beta1_ci", "r2", "mean_abs_error", "rmse_about_fit"]


def _all_zero_cohort():
    gt = {f"c{i}": make_report(0.0, 0.0, 0, 0) for i in range(6)}
    return gt, dict(gt)


def _constant_prediction_cohort():
    gt, _ = random_cohort(3, 10)
    return gt, {cid: make_report(5.0, 1.0, 4, 2) for cid in gt}


@pytest.mark.parametrize(
    "cohort, expected",
    [
        (
            lambda: random_cohort(31, 8),
            {m: STATISTIC_KEYS + (FIT_KEYS if m in ("po", "pho") else []) for m in METRICS},
        ),
        (
            _all_zero_cohort,
            {
                m: STATISTIC_KEYS
                + ["pearson_undefined", "kendall_undefined", "chi2_undefined"]
                + (["fit_undefined"] if m in ("po", "pho") else [])
                for m in METRICS
            },
        ),
        (
            _constant_prediction_cohort,
            {
                m: STATISTIC_KEYS
                + ["pearson_undefined", "kendall_undefined"]
                + (["fit_undefined"] if m in ("po", "pho") else [])
                for m in METRICS
            },
        ),
    ],
    ids=["all_defined", "all_zero", "constant_prediction"],
)
def test_summary_metric_keys_keep_their_order(cohort, expected):
    # statistics first, then the reasons for undefined ones, then the fit panel
    gt, pred = cohort()
    metrics = evaluate_reports(gt, pred).to_json_dict()["metrics"]
    assert {m: list(metrics[m]) for m in METRICS} == expected
