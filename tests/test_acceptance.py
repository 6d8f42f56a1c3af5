"""End-to-end acceptance checks for the whole toolkit.

Each test covers one numbered release criterion; the terminal summary
prints a PASS/FAIL line per criterion (see conftest.py).
"""

import json
import math
import time

import numpy as np
import scipy.stats

from lungsev import phantom
from lungsev.cli import main
from lungsev.evaluate import METRICS, evaluate_reports
from lungsev.severity import SeverityReport, compute_report
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
from lungsev.toynet import (
    NetConfig,
    Tensor,
    channel_norm,
    concat,
    conv3d,
    init_params,
    jaccard_loss,
    leaky_relu,
    load_checkpoint,
    net_forward,
    save_checkpoint,
    softmax_channels,
    take_channel,
    train,
    transpose_conv3d,
    tsum,
)
from lungsev.toynet.network import CUMULATIVE_STRIDE, DOWNSAMPLE_STRIDES
from lungsev.toynet.tensor import _accum, _result
from lungsev.volume import (
    AIR_HU,
    LOBE_LABELS,
    RESAMPLE_SPACING_MM,
    LabelMask,
    Volume,
    clip_normalize,
    crop_box,
    lung_center,
    read_mask,
    read_volume,
    resample,
    resample_mask,
    write_volume,
)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Criterion 1: severity measures agree with the phantom oracles
# ---------------------------------------------------------------------------

def test_criterion_01_phantom_severity_matches_oracle():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(50):
        spec = phantom.random_spec(seed)
        case = phantom.generate(spec)
        report = compute_report(case.volume, case.lobes, case.abnorm_gt)
        oracle = case.oracle
        assert report.lss == oracle.lss
        assert report.lhos == oracle.lhos
        assert rel_close(report.po, oracle.po, 1e-12)
        assert rel_close(report.pho, oracle.pho, 1e-12)
        for got, ref in zip(report.per_lobe, oracle.per_lobe):
            assert got.lobe_label == ref.lobe_label
            assert got.lobe_score == ref.lobe_score
            assert got.lobe_ho_score == ref.lobe_ho_score
            assert rel_close(got.affected_fraction, ref.affected_fraction, 1e-12)
            assert rel_close(got.high_opacity_fraction, ref.high_opacity_fraction, 1e-12)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 50
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: measure ordering and spacing invariance
# ---------------------------------------------------------------------------

def test_criterion_02_measure_invariants_and_spacing_invariance():
    rng = np.random.default_rng(2)
    dims = (6, 8, 8)
    for _ in range(1000):
        lobes_arr = rng.integers(0, 6, dims).astype(np.int16)
        if not lobes_arr.any():
            lobes_arr[0, 0, 0] = 1
        density = rng.uniform(0.05, 0.6)
        abnorm_arr = (rng.random(dims) < density).astype(np.int16)
        hu = rng.uniform(-1000.0, 100.0, dims)
        spacing = (1.5, 1.0, 1.0)

        volume = Volume(hu, spacing)
        lobes = LabelMask(lobes_arr, spacing)
        abnorm = LabelMask(abnorm_arr, spacing, (1,))
        report = compute_report(volume, lobes, abnorm)
        assert report.pho <= report.po
        assert report.lhos <= report.lss

        scale = float(rng.uniform(0.3, 3.0))
        scaled = tuple(s * scale for s in spacing)
        rescaled = compute_report(
            Volume(hu, scaled), LabelMask(lobes_arr, scaled), LabelMask(abnorm_arr, scaled, (1,))
        )
        assert (rescaled.po, rescaled.pho, rescaled.lss, rescaled.lhos) == (
            report.po,
            report.pho,
            report.lss,
            report.lhos,
        )


# ---------------------------------------------------------------------------
# Criterion 3: statistics vs independent definitional implementations
# ---------------------------------------------------------------------------

def kendall_reference(x, y):
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
    return (conc - disc) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def pearson_reference(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))


def chi2_reference(counts_a, counts_b):
    table = np.array([counts_a, counts_b], dtype=float)
    keep = table.sum(axis=0) > 0
    table = table[:, keep]
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    chi2 = float(((table - expected) ** 2 / expected).sum())
    dof = table.shape[1] - 1
    return chi2, dof, float(scipy.stats.chi2.sf(chi2, dof))


def linfit_reference(x, y, n):
    design = np.column_stack([np.ones(n), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    ss_res = float(resid @ resid)
    sxx = float(((x - x.mean()) ** 2).sum())
    se2 = ss_res / (n - 2)
    se_b1 = math.sqrt(se2 / sxx)
    se_b0 = math.sqrt(se2 * (1.0 / n + x.mean() ** 2 / sxx))
    tq = float(scipy.stats.t.ppf(0.975, n - 2))
    return beta[0], beta[1], se_b0 * tq, se_b1 * tq


def test_criterion_03_statistics_match_reference_implementations():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        n = int(rng.integers(5, 41))
        if trial % 2 == 0:
            x = rng.normal(0.0, 1.0, n)
            y = 0.5 * x + rng.normal(0.0, 1.0, n)
        else:
            x = rng.integers(0, 6, n).astype(float)
            y = np.clip(x + rng.integers(-2, 3, n), 0, 8).astype(float)
        if np.ptp(x) == 0:
            x[0] += 1.0
        if np.ptp(y) == 0:
            y[0] += 1.0
        series = PairedSeries(x, y)

        r, r_p = pearson(series)
        assert abs(r - pearson_reference(x, y)) <= 1e-10
        ref = scipy.stats.pearsonr(x, y)
        assert abs(r - ref.statistic) <= 1e-10
        assert abs(r_p - ref.pvalue) <= 1e-8

        tau, tau_p = kendall_tau(series)
        assert tau == kendall_reference(list(x), list(y))
        ref = scipy.stats.kendalltau(x, y, method="asymptotic")
        assert abs(tau - ref.statistic) <= 1e-10
        assert abs(tau_p - ref.pvalue) <= 1e-8

        # linfit regresses gt on pred, so the predictor column is y
        fit = linfit(series)
        b0, b1, hw0, hw1 = linfit_reference(y, x, n)
        assert abs(fit.beta0 - b0) <= 1e-10 * max(1.0, abs(b0))
        assert abs(fit.beta1 - b1) <= 1e-10 * max(1.0, abs(b1))
        assert abs((fit.beta0_ci[1] - fit.beta0_ci[0]) / 2.0 - hw0) <= 1e-10 * max(1.0, hw0)
        assert abs((fit.beta1_ci[1] - fit.beta1_ci[0]) / 2.0 - hw1) <= 1e-10 * max(1.0, hw1)

        while True:
            counts_a = rng.integers(0, 30, 6)
            counts_b = rng.integers(0, 30, 6)
            occupied = int(np.count_nonzero(counts_a + counts_b))
            if occupied >= 2:
                break
        result = chi2_contingency([int(c) for c in counts_a], [int(c) for c in counts_b])
        chi2_ref, dof_ref, p_ref = chi2_reference(counts_a, counts_b)
        assert abs(result.chi2 - chi2_ref) <= 1e-10 * max(1.0, chi2_ref)
        assert result.dof == dof_ref
        assert abs(result.p_value - p_ref) <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 4: identical report sets hit the exact agreement fixed point
# ---------------------------------------------------------------------------

def fabricated_report(po, pho, lss, lhos):
    return SeverityReport(
        po=float(po),
        pho=float(pho),
        lss=int(lss),
        lhos=int(lhos),
        per_lobe=(),
        lung_volume_mm3=2000.0,
        abnormal_volume_mm3=20.0 * po,
        high_opacity_volume_mm3=20.0 * pho,
    )


def test_criterion_04_perfect_agreement_fixed_point():
    rng = np.random.default_rng(4)
    gt = {}
    for i in range(20):
        po = float(rng.uniform(0.0, 90.0))
        pho = float(rng.uniform(0.0, po))
        lss = int(rng.integers(0, 21))
        lhos = int(rng.integers(0, lss + 1))
        gt[f"case_{i:03d}"] = fabricated_report(po, pho, lss, lhos)
    gt["case_000"] = fabricated_report(5.0, 2.0, 2, 1)
    gt["case_001"] = fabricated_report(70.0, 40.0, 18, 15)

    summary = evaluate_reports(gt, dict(gt))
    for metric in METRICS:
        stats = summary.metrics[metric]
        assert stats.pearson_r == 1.0
        assert stats.kendall_tau == 1.0
        assert stats.chi2 == 0.0
    for metric in ("po", "pho"):
        fit = summary.metrics[metric].fit
        assert fit.beta0 == 0.0
        assert fit.beta1 == 1.0
        assert fit.r2 == 1.0
        assert fit.mean_abs_error == 0.0


# ---------------------------------------------------------------------------
# Criterion 5: finite-difference gradient checks
# ---------------------------------------------------------------------------

def fd_check(build_loss, tensors, h=1e-5, tol=1e-6, samples=4, seed=0):
    loss = build_loss()
    for t in tensors:
        t.grad = None
    loss.backward()
    analytic = {
        id(t): (np.zeros_like(t.data) if t.grad is None else t.grad.copy()) for t in tensors
    }
    rng = np.random.default_rng(seed)
    for t in tensors:
        flat = t.data.reshape(-1)
        idxs = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = build_loss().item()
            flat[i] = orig - h
            f_minus = build_loss().item()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * h)
            ana = float(analytic[id(t)].reshape(-1)[i])
            assert abs(num - ana) <= tol * max(1.0, abs(num), abs(ana)), (
                f"numeric {num} vs analytic {ana}"
            )


def test_criterion_05_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    def proj_loss(out, proj):
        """<out, proj> as one tape node, whose gradient is proj."""
        return _result(np.asarray((out.data * proj).sum()), (out,), lambda g: _accum(out, g * proj))

    a = Tensor(rng.standard_normal((2, 3, 2, 2, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3, 2, 2, 2)), requires_grad=True)
    pr = rng.standard_normal((2, 3, 2, 2, 2))
    shifted = Tensor(a.data + 0.31, requires_grad=True)
    fd_check(lambda: proj_loss(leaky_relu(shifted), pr), [shifted])
    fd_check(lambda: tsum(a), [a])
    pr2 = rng.standard_normal((2, 6, 2, 2, 2))
    fd_check(lambda: proj_loss(concat([a, b], axis=1), pr2), [a, b])
    pr3 = rng.standard_normal((2, 1, 2, 2, 2))
    fd_check(lambda: proj_loss(take_channel(a, 1), pr3), [a])
    fd_check(lambda: proj_loss(softmax_channels(a), pr), [a])

    x = Tensor(rng.standard_normal((1, 2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 1, 3, 3)) * 0.3, requires_grad=True)
    bias = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    prc = rng.standard_normal((1, 3, 3, 6, 6))
    fd_check(lambda: proj_loss(conv3d(x, w, bias), prc), [x, w, bias])
    fd_check(lambda: proj_loss(conv3d(x, w), prc), [x, w])
    prs = rng.standard_normal((1, 3, 3, 3, 3))
    w4 = Tensor(np.pad(w.data, ((0, 0), (0, 0), (0, 0), (0, 1), (0, 1))), requires_grad=True)  # kernel (1,4,4): pad 1
    fd_check(lambda: proj_loss(conv3d(x, w4, bias, (1, 2, 2)), prs), [x, w4, bias])

    xt = Tensor(rng.standard_normal((1, 2, 2, 3, 3)), requires_grad=True)
    wt = Tensor(rng.standard_normal((2, 3, 2, 2, 2)) * 0.3, requires_grad=True)
    prt = rng.standard_normal((1, 3, 4, 6, 6))
    fd_check(lambda: proj_loss(transpose_conv3d(xt, wt, (2, 2, 2)), prt), [xt, wt])

    xn = Tensor(rng.standard_normal((2, 3, 2, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
    prn = rng.standard_normal((2, 3, 2, 3, 3))
    fd_check(lambda: proj_loss(channel_norm(xn, gamma, beta), prn), [xn, gamma, beta])

    p = Tensor(rng.uniform(0.05, 0.95, (1, 1, 3, 4, 4)), requires_grad=True)
    lung = (rng.random((1, 1, 3, 4, 4)) < 0.7).astype(float)
    target = ((rng.random((1, 1, 3, 4, 4)) < 0.4) & (lung > 0)).astype(float)
    fd_check(lambda: jaccard_loss(p, target, lung), [p])

    config = NetConfig(seed=5)
    params = init_params(config)
    xe = Tensor(rng.uniform(0.0, 1.0, (1, 1, 8, 32, 32)), requires_grad=True)
    lung_e = (rng.random((1, 1, 8, 32, 32)) < 0.6).astype(float)
    target_e = ((rng.random((1, 1, 8, 32, 32)) < 0.3) & (lung_e > 0)).astype(float)

    def build_e2e():
        probs = net_forward(xe, params, config)
        return jaccard_loss(take_channel(probs, 1), target_e, lung_e)

    check = [xe] + [
        params[n]
        for n in (
            "stem.w",
            "enc1.down.w",
            "enc1.layer1.w",
            "enc2.layer1.w",
            "dec2.up.w",
            "dec1.w",
            "head.w",
            "head.b",
        )
    ]
    fd_check(build_e2e, check, tol=1e-4, samples=3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 6: network output contract at the default configuration
# ---------------------------------------------------------------------------

def test_criterion_06_network_output_contract():
    config = NetConfig(seed=6)
    assert DOWNSAMPLE_STRIDES == (
        (1, 2, 2),
        (1, 2, 2),
        (2, 2, 2),
        (2, 2, 2),
        (2, 2, 2),
    )
    assert CUMULATIVE_STRIDE == (8, 32, 32)
    params = init_params(config)
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(0.0, 1.0, (2, 1, 8, 32, 32)))
    out = net_forward(x, params, config)
    assert out.data.shape == (2, 2, 8, 32, 32)
    sums = out.data.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9
    assert out.data.min() >= 0.0


# ---------------------------------------------------------------------------
# Criterion 7: training converges, tracks validation, and reproduces bitwise
# ---------------------------------------------------------------------------

def phantom_cases(n=10, dims=(8, 32, 32)):
    cases = []
    for i in range(n):
        case = phantom.generate(phantom.random_spec(100 + i, dims=dims, n_lesions=1 + i % 4))
        cases.append((case.volume, case.lobes, case.abnorm_gt))
    return cases


def test_criterion_07_training_convergence_and_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cases = phantom_cases(10)
    config = NetConfig(seed=11)
    per_epoch = 9  # 10 cases minus the single validation case
    result = train(config, cases, epochs=22)
    assert len(result.history) == 22 * per_epoch
    assert len(result.history) <= 200
    assert len(result.val_indices) == 1

    first = result.history[0].train_loss
    best = min(row.train_loss for row in result.history)
    assert best <= 0.5 * first, f"loss only moved {first} -> {best}"

    val_rows = [row for row in result.history if row.val_loss is not None]
    assert val_rows
    assert result.best_val_loss == min(row.val_loss for row in val_rows)
    assert result.best_iteration % per_epoch == 0
    best_row = result.history[result.best_iteration - 1]
    assert best_row.val_loss == result.best_val_loss

    ckpt = tmp_path / "ckpt"
    save_checkpoint(result.params, ckpt)
    restored = load_checkpoint(ckpt)
    assert set(restored) == set(result.params)
    for name in result.params:
        assert np.array_equal(restored[name].data, result.params[name].data)

    repeat = train(config, cases, epochs=22)
    assert repeat.history == result.history
    for name in result.params:
        assert np.array_equal(repeat.params[name].data, result.params[name].data)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"training criterion took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 8: full-size quantification throughput
# ---------------------------------------------------------------------------

def test_criterion_08_quantify_throughput(tmp_path):
    dims = (300, 512, 512)
    rng = np.random.default_rng(8)
    hu = rng.integers(-1000, 101, size=dims, dtype=np.int16)
    lobes = np.zeros(dims, dtype=np.uint8)
    # blocky two-lung layout with three right and two left partitions
    lobes[30:109, 100:412, 100:230] = 3
    lobes[109:188, 100:412, 100:230] = 2
    lobes[188:270, 100:412, 100:230] = 1
    lobes[30:150, 100:412, 282:412] = 5
    lobes[150:270, 100:412, 282:412] = 4
    abnorm = np.zeros(dims, dtype=np.uint8)
    abnorm[60:200, 150:350, 120:220] = 1

    spacing = (1.0, 1.0, 1.0)
    write_volume(Volume(hu, spacing), tmp_path / "volume")
    write_volume(LabelMask(lobes, spacing), tmp_path / "lobes")
    write_volume(LabelMask(abnorm, spacing, (1,)), tmp_path / "abnorm")

    out = tmp_path / "report.json"
    code = main([
        "quantify",
        "--volume", str(tmp_path / "volume"),
        "--lobes", str(tmp_path / "lobes"),
        "--abnorm", str(tmp_path / "abnorm"),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["wall_time_s"] <= 10.0, f"took {payload['wall_time_s']:.2f}s"

    lung = lobes > 0
    inter = int(np.count_nonzero((abnorm > 0) & lung))
    total = int(np.count_nonzero(lung))
    assert payload["po"] == 100.0 * inter / total
    high = int(np.count_nonzero((abnorm > 0) & lung & (hu >= -200)))
    assert payload["pho"] == 100.0 * high / total


# ---------------------------------------------------------------------------
# Criterion 9: preprocessing equals the composed three-step oracle
# ---------------------------------------------------------------------------

def test_criterion_09_preprocess_composition(tmp_path):
    spec = phantom.random_spec(9, dims=(12, 20, 20), n_lesions=3)
    case = phantom.generate(spec)
    phantom.write_case(case, tmp_path / "case")
    out_base = tmp_path / "pre"
    code = main([
        "preprocess",
        "--volume", str(tmp_path / "case" / "volume"),
        "--lobes", str(tmp_path / "case" / "lobes"),
        "--out", str(out_base),
        "--box", "8,16,16",
    ])
    assert code == 0

    v = read_volume(tmp_path / "case" / "volume")
    m = read_mask(tmp_path / "case" / "lobes")
    v_res = resample(v)
    m_res = resample_mask(m)
    center = lung_center(m_res)
    cropped = crop_box(v_res, center, (8, 16, 16), pad_value=AIR_HU)
    expected = clip_normalize(cropped).data

    got = read_volume(out_base)
    assert got.data.dtype == np.float32
    assert np.abs(got.data.astype(np.float64) - expected.astype(np.float64)).max() <= 1e-6

    data = np.full((8, 16, 16), -600.0, dtype=np.float32)
    write_volume(Volume(data, RESAMPLE_SPACING_MM), tmp_path / "flat")
    labels = np.zeros((8, 16, 16), dtype=np.int16)
    labels[2:6, 4:12, 4:12] = 1
    write_volume(LabelMask(labels, RESAMPLE_SPACING_MM), tmp_path / "flat_lobes")
    code = main([
        "preprocess",
        "--volume", str(tmp_path / "flat"),
        "--lobes", str(tmp_path / "flat_lobes"),
        "--out", str(tmp_path / "flat_pre"),
        "--box", "4,8,8",
    ])
    assert code == 0
    flat = read_volume(tmp_path / "flat_pre")
    assert np.all(flat.data == np.float32(0.5))


# ---------------------------------------------------------------------------
# Criterion 10: lesion-free cases stay at exactly zero
# ---------------------------------------------------------------------------

def test_criterion_10_clean_cases_stay_at_zero():
    clean = 0
    for seed in range(100):
        spec = phantom.random_spec(seed, dims=(10, 16, 16), n_lesions=0)
        case = phantom.generate(spec)
        report = compute_report(case.volume, case.lobes, case.abnorm_gt)
        if (report.po, report.pho, report.lss, report.lhos) == (0.0, 0.0, 0, 0):
            clean += 1
    assert clean == 100
