"""Statistical toolbox for the evaluation harness: Pearson and Kendall
correlations, binned chi-squared contingency test, and simple linear
regression with confidence intervals.

All routines are pure and operate on paired ground-truth/predicted series.
Degenerate inputs (constant series, all-tied ranks, a single occupied bin)
raise DegenerateDataError rather than returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateDataError, InputError
from .special import normal_sf, reg_inc_gamma_q, student_t_ppf_upper, student_t_sf

# Clinically motivated percent bins: [0,1), [1,25), [25,50), [50,75), [75,100]
PERCENT_BIN_EDGES = (0.0, 1.0, 25.0, 50.0, 75.0, 100.0)
# Lobe-score sums take integer values 0..20; one bin per value.
SCORE_BIN_EDGES = tuple(float(e) for e in range(22))


@dataclass(frozen=True)
class PairedSeries:
    """Paired ground-truth and predicted values of equal length."""

    gt: tuple[float, ...]
    pred: tuple[float, ...]

    def __post_init__(self):
        gt = tuple(float(v) for v in self.gt)
        pred = tuple(float(v) for v in self.pred)
        if len(gt) != len(pred):
            raise InputError(f"series lengths differ: {len(gt)} vs {len(pred)}")
        if len(gt) < 2:
            raise InputError("paired series needs at least 2 observations")
        if not all(math.isfinite(v) for v in gt + pred):
            raise InputError("series contain non-finite values")
        object.__setattr__(self, "gt", gt)
        object.__setattr__(self, "pred", pred)

    @property
    def n(self) -> int:
        return len(self.gt)


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit of gt on pred with intercept, 95% CIs, and error summaries."""

    beta0: float
    beta0_ci: tuple[float, float]
    beta1: float
    beta1_ci: tuple[float, float]
    r2: float
    mean_abs_error: float  # mean |gt - pred|
    rmse_about_fit: float  # sqrt(SSres / n)


@dataclass(frozen=True)
class ContingencyResult:
    chi2: float
    dof: int
    p_value: float


def _exact_collinear_sign(x: tuple[float, ...], y: tuple[float, ...]) -> int:
    """Return +-1 if the pairs are exactly collinear (Cauchy-Schwarz equality
    in exact rational arithmetic), else 0. Floats are exact rationals, so this
    is decidable."""
    n = len(x)
    fx = [Fraction(v) for v in x]
    fy = [Fraction(v) for v in y]
    mx = sum(fx) / n
    my = sum(fy) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    sxx = sum((a - mx) ** 2 for a in fx)
    syy = sum((b - my) ** 2 for b in fy)
    if sxx > 0 and syy > 0 and sxy * sxy == sxx * syy:
        return 1 if sxy > 0 else -1
    return 0


def pearson(s: PairedSeries) -> tuple[float, float]:
    """Pearson correlation with two-sided p from the exact t transform.

    Exactly collinear inputs return r = +-1.0 (detected in exact arithmetic,
    so identical series get r = 1.0 bit-exactly). Constant series raise.
    """
    x = np.asarray(s.pred, dtype=np.float64)
    y = np.asarray(s.gt, dtype=np.float64)
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    syy = float(ym @ ym)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("correlation undefined: at least one series is constant")
    r = float(xm @ ym) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) > 1.0 - 1e-9:
        sign = _exact_collinear_sign(s.pred, s.gt)
        if sign != 0:
            r = float(sign)
    n = s.n
    if n - 2 < 1:
        return r, 1.0  # no residual degrees of freedom
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, 2.0 * student_t_sf(abs(t), n - 2)


def _merge_count_inversions(a: list[float]) -> int:
    """Count pairs i < j with a[i] > a[j] (strict), merge-sort style."""
    n = len(a)
    buf = a[:]
    tmp = [0.0] * n
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if buf[j] < buf[i]:
                    inversions += mid - i  # all remaining left values exceed buf[j]
                    tmp[k] = buf[j]
                    j += 1
                else:
                    tmp[k] = buf[i]
                    i += 1
                k += 1
            tmp[k:hi] = buf[i:mid] if i < mid else buf[j:hi]
            buf[lo:hi] = tmp[lo:hi]
        width *= 2
    return inversions


def _tie_group_sizes(sorted_values: list[float]) -> list[int]:
    sizes = []
    run = 1
    for prev, cur in zip(sorted_values, sorted_values[1:]):
        if cur == prev:
            run += 1
        else:
            if run > 1:
                sizes.append(run)
            run = 1
    if run > 1:
        sizes.append(run)
    return sizes


def kendall_tau(s: PairedSeries) -> tuple[float, float]:
    """Tie-corrected Kendall rank correlation (tau-b) in O(n log n).

    Pairs are sorted by (pred, gt); discordant pairs are counted as strict
    inversions of the gt sequence via merge counting. The p-value uses the
    normal approximation with tie-adjusted variance of the concordance
    statistic.
    """
    n = s.n
    order = sorted(range(n), key=lambda i: (s.pred[i], s.gt[i]))
    xs = [s.pred[i] for i in order]
    ys = [s.gt[i] for i in order]

    n0 = n * (n - 1) // 2
    x_groups = _tie_group_sizes(xs)
    joint_groups = _tie_group_sizes(list(zip(xs, ys)))  # runs of equal (x, y) pairs
    y_groups = _tie_group_sizes(sorted(ys))
    n1 = sum(t * (t - 1) // 2 for t in x_groups)
    n2 = sum(u * (u - 1) // 2 for u in y_groups)
    n3 = sum(c * (c - 1) // 2 for c in joint_groups)

    discordant = _merge_count_inversions(ys)
    concordant = n0 - n1 - n2 + n3 - discordant
    s_stat = concordant - discordant

    d1, d2 = n0 - n1, n0 - n2
    if d1 == 0 or d2 == 0:
        raise DegenerateDataError("tau-b undefined: all values tied in one series")
    root = math.isqrt(d1 * d2)
    denom = float(root) if root * root == d1 * d2 else math.sqrt(d1 * d2)
    tau = max(-1.0, min(1.0, s_stat / denom))

    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in x_groups)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in y_groups)
    var = (v0 - vt - vu) / 18.0
    var += (sum(t * (t - 1) for t in x_groups) * sum(u * (u - 1) for u in y_groups)) / (
        2.0 * n * (n - 1)
    )
    if n > 2:
        var += (
            sum(t * (t - 1) * (t - 2) for t in x_groups)
            * sum(u * (u - 1) * (u - 2) for u in y_groups)
        ) / (9.0 * n * (n - 1) * (n - 2))
    if var <= 0.0:
        return tau, 1.0 if s_stat == 0 else 0.0
    z = s_stat / math.sqrt(var)
    return tau, 2.0 * normal_sf(abs(z))


def bin_counts(values, edges=PERCENT_BIN_EDGES) -> list[int]:
    """Histogram counts over half-open bins [e_k, e_{k+1}), last bin closed.

    Values outside [edges[0], edges[-1]] are an error; counts sum to len(values).
    """
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise InputError(f"bin edges must be strictly increasing, got {edges}")
    v = np.fromiter(values, dtype=np.float64)
    outside = ~((v >= edges[0]) & (v <= edges[-1]))  # NaN compares false, so it is outside
    if outside.any():
        bad = float(v[outside.argmax()])
        raise InputError(f"value {bad} outside bin range [{edges[0]}, {edges[-1]}]")
    k = len(edges) - 1
    idx = np.minimum(np.searchsorted(edges, v, side="right") - 1, k - 1)  # last bin is closed
    return np.bincount(idx, minlength=k).tolist()


def chi2_contingency(gt_counts, pred_counts) -> ContingencyResult:
    """Pearson chi-squared test on the 2 x K table of binned frequencies.

    Rows are the two sources (ground truth, predicted); all-zero columns are
    dropped before computing expectations and dof = K' - 1. No continuity
    correction.
    """
    gt = [int(c) for c in gt_counts]
    pred = [int(c) for c in pred_counts]
    if len(gt) != len(pred):
        raise InputError(f"count rows differ in length: {len(gt)} vs {len(pred)}")
    if any(c < 0 for c in gt + pred):
        raise InputError("counts must be non-negative")
    row_sums = (sum(gt), sum(pred))
    if row_sums[0] == 0 or row_sums[1] == 0:
        raise InputError("each row of the contingency table must have positive total")
    keep = [k for k in range(len(gt)) if gt[k] + pred[k] > 0]
    if len(keep) < 2:
        raise DegenerateDataError("chi-squared undefined: fewer than two occupied bins")
    grand = row_sums[0] + row_sums[1]
    chi2 = 0.0
    for row, rsum in ((gt, row_sums[0]), (pred, row_sums[1])):
        for k in keep:
            expected = rsum * (gt[k] + pred[k]) / grand
            diff = row[k] - expected
            chi2 += diff * diff / expected
    dof = len(keep) - 1
    p = reg_inc_gamma_q(dof / 2.0, chi2 / 2.0)
    return ContingencyResult(chi2=chi2, dof=dof, p_value=p)


def linfit(s: PairedSeries) -> RegressionFit:
    """OLS of gt on pred with intercept; 95% two-sided CIs from Student t.

    Also reports the mean absolute error between the raw series and the RMSE
    of the residuals about the fitted line.
    """
    n = s.n
    if n < 3:
        raise InputError(f"regression needs n >= 3, got {n}")
    x = np.asarray(s.pred, dtype=np.float64)
    y = np.asarray(s.gt, dtype=np.float64)
    xbar = float(x.mean())
    ybar = float(y.mean())
    xm = x - xbar
    ym = y - ybar
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise DegenerateDataError("regression undefined: constant predictor")
    beta1 = float(xm @ ym) / sxx
    beta0 = ybar - beta1 * xbar
    resid = y - (beta0 + beta1 * x)
    ssres = float(resid @ resid)
    sstot = float(ym @ ym)
    if sstot == 0.0:
        r2 = 1.0 if ssres == 0.0 else 0.0
    else:
        r2 = 1.0 - ssres / sstot
    sigma2 = ssres / (n - 2)
    se_beta1 = math.sqrt(sigma2 / sxx)
    se_beta0 = math.sqrt(sigma2 * (1.0 / n + xbar * xbar / sxx))
    tq = student_t_ppf_upper(0.025, n - 2)
    return RegressionFit(
        beta0=beta0,
        beta0_ci=(beta0 - tq * se_beta0, beta0 + tq * se_beta0),
        beta1=beta1,
        beta1_ci=(beta1 - tq * se_beta1, beta1 + tq * se_beta1),
        r2=r2,
        mean_abs_error=float(np.mean(np.abs(y - x))),
        rmse_about_fit=math.sqrt(ssres / n),
    )
