"""Stats toolbox tests against definitional oracles and scipy."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from lungsev.errors import ConvergenceError, DegenerateDataError, InputError
from lungsev.special import (
    normal_sf,
    reg_inc_beta,
    reg_inc_gamma_q,
    student_t_ppf_upper,
    student_t_sf,
)
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


def series(gt, pred):
    return PairedSeries(tuple(gt), tuple(pred))


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def test_gamma_q_at_zero_is_one():
    assert reg_inc_gamma_q(0.5, 0.0) == 1.0
    assert reg_inc_gamma_q(7.0, 0.0) == 1.0


def test_normal_sf_symmetry():
    assert normal_sf(0.0) == 0.5
    assert abs(normal_sf(1.0) + normal_sf(-1.0) - 1.0) < 1e-15


def test_gamma_q_closed_form_a1():
    # Q(1, x) = exp(-x)
    assert abs(reg_inc_gamma_q(1.0, 1.0) - math.exp(-1.0)) < 1e-13
    assert abs(reg_inc_gamma_q(1.0, 3.5) - math.exp(-3.5)) < 1e-13


def test_gamma_q_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = float(rng.uniform(0.05, 50.0))
        x = float(rng.uniform(0.0, 100.0))
        assert abs(reg_inc_gamma_q(a, x) - scipy.special.gammaincc(a, x)) < 1e-12


def test_inc_beta_matches_scipy():
    rng = np.random.default_rng(43)
    for _ in range(300):
        a = float(rng.uniform(0.05, 40.0))
        b = float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 1.0))
        assert abs(reg_inc_beta(a, b, x) - scipy.special.betainc(a, b, x)) < 1e-12
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


def test_student_t_sf_matches_scipy():
    rng = np.random.default_rng(44)
    for _ in range(200):
        t = float(rng.uniform(-8.0, 8.0))
        dof = int(rng.integers(1, 200))
        assert abs(student_t_sf(t, dof) - scipy.stats.t.sf(t, dof)) < 1e-12


def test_student_t_quantile_matches_scipy():
    for dof in (1, 2, 5, 30, 98):
        ours = student_t_ppf_upper(0.025, dof)
        ref = scipy.stats.t.ppf(0.975, dof)
        assert abs(ours - ref) < 1e-9


def test_special_function_domain_errors():
    with pytest.raises(InputError):
        reg_inc_gamma_q(-1.0, 2.0)
    with pytest.raises(InputError):
        reg_inc_gamma_q(1.0, -0.5)
    with pytest.raises(InputError):
        reg_inc_beta(1.0, 1.0, 1.5)
    with pytest.raises(InputError):
        student_t_sf(1.0, 0)


# ---------------------------------------------------------------------------
# Pearson
# ---------------------------------------------------------------------------

def test_pearson_exact_linear_is_exactly_one():
    r, _ = pearson(series((1, 2, 3), (2, 4, 6)))
    assert r == 1.0
    r, _ = pearson(series((1, 2, 3), (3, 2, 1)))
    assert r == -1.0


def test_pearson_identical_series_exact_one():
    rng = np.random.default_rng(3)
    vals = tuple(rng.uniform(0, 100, size=40).tolist())
    r, p = pearson(series(vals, vals))
    assert r == 1.0
    assert p == 0.0


def test_pearson_noisy_line_matches_oracle():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 50, size=20)
    y = 3.0 * x + 1.0 + rng.normal(0, 4.0, size=20)
    r, p = pearson(series(y.tolist(), x.tolist()))
    # definitional oracle for r
    r_oracle = float(np.corrcoef(x, y)[0, 1])
    assert abs(r - r_oracle) < 1e-12
    # independent incomplete-beta evaluation of the two-sided p
    n = 20
    t = abs(r_oracle) * math.sqrt((n - 2) / (1 - r_oracle**2))
    p_oracle = float(scipy.special.betainc((n - 2) / 2.0, 0.5, (n - 2) / ((n - 2) + t * t)))
    assert abs(p - p_oracle) < 1e-9
    sp = scipy.stats.pearsonr(x, y)
    assert abs(r - sp.statistic) < 1e-12
    assert abs(p - sp.pvalue) < 1e-9


def test_pearson_affine_invariance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    r_base, _ = pearson(series(y.tolist(), x.tolist()))
    r_aff, _ = pearson(series(y.tolist(), (2.5 * x + 7.0).tolist()))
    assert abs(r_base - r_aff) < 1e-12
    r_neg, _ = pearson(series(y.tolist(), (-2.5 * x + 7.0).tolist()))
    assert abs(r_base + r_neg) < 1e-12


def test_pearson_constant_series_raises():
    with pytest.raises(DegenerateDataError):
        pearson(series((1, 1, 1), (1, 2, 3)))
    with pytest.raises(DegenerateDataError):
        pearson(series((1, 2, 3), (5, 5, 5)))


def test_pearson_n2_has_unit_p():
    r, p = pearson(series((0, 1), (0, 2)))
    assert r == 1.0 and p == 1.0


# ---------------------------------------------------------------------------
# Kendall tau-b
# ---------------------------------------------------------------------------

def kendall_bruteforce(x, y):
    """O(n^2) pair-counting oracle for tau-b and the concordance statistic."""
    n = len(x)
    conc = disc = ties_x = ties_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 or dy == 0:
                if dx == 0:
                    ties_x += 1
                if dy == 0:
                    ties_y += 1
            elif (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    d1 = n0 - ties_x
    d2 = n0 - ties_y
    return (conc - disc) / math.sqrt(d1 * d2), conc - disc


def test_kendall_perfect_and_reversed():
    tau, _ = kendall_tau(series((1, 2, 3, 4), (1, 2, 3, 4)))
    assert tau == 1.0
    tau, _ = kendall_tau(series((1, 2, 3, 4), (4, 3, 2, 1)))
    assert tau == -1.0


def test_kendall_with_ties_matches_bruteforce_exactly():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 6, size=30).astype(float).tolist()
    y = rng.integers(0, 6, size=30).astype(float).tolist()
    tau, _ = kendall_tau(series(y, x))
    tau_oracle, _ = kendall_bruteforce(x, y)
    assert tau == tau_oracle


def test_kendall_random_series_match_bruteforce_and_scipy():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(3, 40))
        if trial % 2 == 0:
            x = rng.integers(0, 8, size=n).astype(float)
            y = rng.integers(0, 8, size=n).astype(float)
        else:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        if len(set(x.tolist())) == 1 or len(set(y.tolist())) == 1:
            continue
        tau, p = kendall_tau(series(y.tolist(), x.tolist()))
        tau_oracle, _ = kendall_bruteforce(x.tolist(), y.tolist())
        assert tau == tau_oracle
        ref = scipy.stats.kendalltau(x, y, method="asymptotic")
        assert abs(tau - ref.statistic) < 1e-14
        assert abs(p - ref.pvalue) < 1e-9


def test_kendall_monotone_transform_invariance():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(25)
    y = rng.standard_normal(25)
    tau_base, _ = kendall_tau(series(y.tolist(), x.tolist()))
    tau_exp, _ = kendall_tau(series(y.tolist(), np.exp(x).tolist()))
    assert tau_base == tau_exp


def test_kendall_all_tied_raises():
    with pytest.raises(DegenerateDataError):
        kendall_tau(series((1, 2, 3), (7, 7, 7)))


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

def test_bin_counts_basic():
    assert bin_counts([0.5, 1.0, 30.0]) == [1, 1, 1, 0, 0]
    assert bin_counts([0.0] * 9) == [9, 0, 0, 0, 0]
    assert bin_counts([100.0]) == [0, 0, 0, 0, 1]


def test_bin_counts_uniform_random_matches_loop():
    rng = np.random.default_rng(15)
    values = rng.uniform(0, 100, size=100).tolist()
    counts = bin_counts(values)
    assert sum(counts) == 100
    edges = PERCENT_BIN_EDGES
    expected = [0] * 5
    for v in values:
        for k in range(5):
            closed = k == 4
            if edges[k] <= v < edges[k + 1] or (closed and v == edges[5]):
                expected[k] += 1
                break
    assert counts == expected


def test_bin_counts_score_edges():
    values = [0, 0, 20, 7, 7, 7]
    counts = bin_counts(values, SCORE_BIN_EDGES)
    assert len(counts) == 21
    assert counts[0] == 2 and counts[20] == 1 and counts[7] == 3
    assert sum(counts) == 6


def test_bin_counts_out_of_range_raises():
    with pytest.raises(InputError):
        bin_counts([101.0])
    with pytest.raises(InputError):
        bin_counts([-0.5])
    with pytest.raises(InputError, match="value -1.0 outside"):
        bin_counts([3.0, -1.0, 101.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bin_counts_non_finite_raises_naming_the_value(bad):
    with pytest.raises(InputError, match=f"value {bad} outside"):
        bin_counts([3.0, bad, 50.0, 200.0])


def test_bin_counts_accepts_any_iterable():
    values = [0.0, 0.5, 1.0, 24.9, 25.0, 99.0, 100.0]
    expected = [2, 2, 1, 0, 2]
    assert bin_counts(values) == expected
    assert bin_counts(tuple(values)) == expected
    assert bin_counts(v for v in values) == expected
    assert bin_counts(np.array(values)) == expected


# ---------------------------------------------------------------------------
# Chi-squared contingency
# ---------------------------------------------------------------------------

def test_chi2_identical_rows():
    res = chi2_contingency((10, 10, 10), (10, 10, 10))
    assert res.chi2 == 0.0
    assert res.p_value == 1.0
    assert res.dof == 2


def test_chi2_disjoint_rows_hand_computed():
    # E = 5 in every cell, so chi2 = 4 * (5^2 / 5) = 20 with 1 dof
    res = chi2_contingency((10, 0), (0, 10))
    assert abs(res.chi2 - 20.0) < 1e-12
    assert res.dof == 1


def test_chi2_random_tables_match_definitional_oracle():
    rng = np.random.default_rng(16)
    for _ in range(50):
        gt = rng.integers(0, 30, size=5)
        pred = rng.integers(0, 30, size=5)
        if gt.sum() == 0 or pred.sum() == 0:
            continue
        keep = (gt + pred) > 0
        if keep.sum() < 2:
            continue
        res = chi2_contingency(tuple(gt), tuple(pred))
        obs = np.stack([gt[keep], pred[keep]]).astype(float)
        expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
        chi2_oracle = float(((obs - expected) ** 2 / expected).sum())
        assert abs(res.chi2 - chi2_oracle) < 1e-10
        p_oracle = float(scipy.stats.chi2.sf(chi2_oracle, keep.sum() - 1))
        assert abs(res.p_value - p_oracle) < 1e-8


def test_chi2_row_symmetry_and_scaling():
    a, b = (3, 9, 1, 0, 5), (2, 2, 8, 1, 4)
    r1 = chi2_contingency(a, b)
    r2 = chi2_contingency(b, a)
    assert abs(r1.chi2 - r2.chi2) < 1e-12
    r3 = chi2_contingency(tuple(3 * v for v in a), tuple(3 * v for v in b))
    assert abs(r3.chi2 - 3 * r1.chi2) < 1e-9


def test_chi2_degenerate_inputs():
    with pytest.raises(InputError):
        chi2_contingency((0, 0, 0), (1, 2, 3))
    with pytest.raises(DegenerateDataError):
        chi2_contingency((5, 0, 0), (7, 0, 0))


def test_chi2_p_monotone_in_statistic():
    res_small = chi2_contingency((10, 12), (12, 10))
    res_big = chi2_contingency((20, 2), (2, 20))
    assert res_big.chi2 > res_small.chi2
    assert res_big.p_value < res_small.p_value


# ---------------------------------------------------------------------------
# Linear regression
# ---------------------------------------------------------------------------

def test_linfit_exact_line():
    fit = linfit(series((1, 3, 5, 7), (0, 1, 2, 3)))
    assert fit.beta0 == 1.0
    assert fit.beta1 == 2.0
    assert fit.r2 == 1.0
    assert fit.beta1_ci == (2.0, 2.0)
    assert fit.rmse_about_fit == 0.0


def test_linfit_identity():
    vals = (0.0, 2.0, 5.0, 9.0, 11.0)
    fit = linfit(series(vals, vals))
    assert fit.beta0 == 0.0
    assert fit.beta1 == 1.0
    assert fit.mean_abs_error == 0.0
    assert fit.r2 == 1.0


def test_linfit_noisy_line_matches_normal_equations_oracle():
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 10, size=50)
    y = 0.8 * x + 0.5 + rng.normal(0, 0.3, size=50)
    fit = linfit(series(y.tolist(), x.tolist()))

    a_mat = np.column_stack([np.ones_like(x), x])
    coef, _, _, _ = np.linalg.lstsq(a_mat, y, rcond=None)
    assert abs(fit.beta0 - coef[0]) < 1e-10
    assert abs(fit.beta1 - coef[1]) < 1e-10

    resid = y - a_mat @ coef
    sigma2 = float(resid @ resid) / (50 - 2)
    cov = sigma2 * np.linalg.inv(a_mat.T @ a_mat)
    tq = scipy.stats.t.ppf(0.975, 48)
    for est, ci, se in (
        (coef[0], fit.beta0_ci, math.sqrt(cov[0, 0])),
        (coef[1], fit.beta1_ci, math.sqrt(cov[1, 1])),
    ):
        assert abs(ci[0] - (est - tq * se)) < 1e-10
        assert abs(ci[1] - (est + tq * se)) < 1e-10

    sstot = float(((y - y.mean()) ** 2).sum())
    assert abs(fit.r2 - (1 - float(resid @ resid) / sstot)) < 1e-12
    assert abs(fit.mean_abs_error - float(np.mean(np.abs(y - x)))) < 1e-14


def test_linfit_residuals_sum_to_zero():
    rng = np.random.default_rng(18)
    x = rng.uniform(-5, 5, size=40)
    y = 2.0 * x + rng.normal(0, 1.0, size=40)
    fit = linfit(series(y.tolist(), x.tolist()))
    resid = y - (fit.beta0 + fit.beta1 * x)
    assert abs(float(resid.sum())) < 1e-9


def test_linfit_ci_brackets_estimate():
    rng = np.random.default_rng(19)
    x = rng.uniform(0, 1, size=15)
    y = x + rng.normal(0, 0.1, size=15)
    fit = linfit(series(y.tolist(), x.tolist()))
    assert fit.beta0_ci[0] <= fit.beta0 <= fit.beta0_ci[1]
    assert fit.beta1_ci[0] <= fit.beta1 <= fit.beta1_ci[1]
    assert 0.0 <= fit.r2 <= 1.0


def test_linfit_errors():
    with pytest.raises(InputError):
        linfit(series((1, 2), (1, 2)))
    with pytest.raises(DegenerateDataError):
        linfit(series((1, 2, 3), (4, 4, 4)))


def test_paired_series_validation():
    with pytest.raises(InputError):
        PairedSeries((1, 2), (1, 2, 3))
    with pytest.raises(InputError):
        PairedSeries((1,), (1,))
    with pytest.raises(InputError):
        PairedSeries((1, float("nan")), (1, 2))
