import csv
import json
import logging
import shutil

import numpy as np
import pytest

from lungsev import phantom
from lungsev.cli import RESAMPLE_SPACING_MM, _log_level_from_env, main
from lungsev.volume import (
    AIR_HU,
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


def write_phantom_case(root, name, seed, n_lesions=2, dims=(12, 20, 20)):
    spec = phantom.random_spec(seed, dims=dims, n_lesions=n_lesions)
    case = phantom.generate(spec)
    case_dir = root / name
    phantom.write_case(case, case_dir)
    return case_dir, case


def run_quantify(case_dir, out_path, extra=()):
    args = [
        "quantify",
        "--volume", str(case_dir / "volume"),
        "--lobes", str(case_dir / "lobes"),
        "--abnorm", str(case_dir / "abnorm"),
        "--out", str(out_path),
    ]
    args.extend(extra)
    return main(args)


# ---------------------------------------------------------------------------
# quantify
# ---------------------------------------------------------------------------

def test_quantify_report_matches_oracle(tmp_path, capsys):
    case_dir, case = write_phantom_case(tmp_path, "c0", seed=4, n_lesions=3)
    out = tmp_path / "report.json"
    assert run_quantify(case_dir, out) == 0
    payload = json.loads(out.read_text())
    assert payload["po"] == case.oracle.po
    assert payload["pho"] == case.oracle.pho
    assert payload["lss"] == case.oracle.lss
    assert payload["lhos"] == case.oracle.lhos
    assert payload["wall_time_s"] >= 0.0
    assert "po=" in capsys.readouterr().out


def test_quantify_threshold_flag_changes_pho_only(tmp_path):
    case_dir, case = write_phantom_case(tmp_path, "c0", seed=6, n_lesions=4)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_quantify(case_dir, out_a) == 0
    assert run_quantify(case_dir, out_b, extra=["--threshold-hu", "-400"]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["po"] == b["po"]
    assert a["threshold_hu"] == -200.0
    assert b["threshold_hu"] == -400.0


def test_quantify_geometry_mismatch_exits_2(tmp_path, capsys):
    case_a, _ = write_phantom_case(tmp_path, "a", seed=1, dims=(12, 20, 20))
    case_b, _ = write_phantom_case(tmp_path, "b", seed=2, dims=(12, 20, 22))
    code = main([
        "quantify",
        "--volume", str(case_a / "volume"),
        "--lobes", str(case_b / "lobes"),
        "--abnorm", str(case_a / "abnorm"),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "(12, 20, 20)" in err
    assert "(12, 20, 22)" in err


def test_quantify_missing_input_exits_2(tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
    code = main([
        "quantify",
        "--volume", str(tmp_path / "absent"),
        "--lobes", str(case_dir / "lobes"),
        "--abnorm", str(case_dir / "abnorm"),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_quantify_malformed_header_exits_2(tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
    header_path = case_dir / "volume.json"
    header = json.loads(header_path.read_text())
    header["spacing_mm"][2] = "1.0mm"
    header_path.write_text(json.dumps(header))
    out = tmp_path / "r.json"
    assert run_quantify(case_dir, out) == 2
    err = capsys.readouterr().err
    assert "spacing_mm" in err and str(header_path) in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def build_report_dirs(tmp_path, n_cases=5):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for i in range(n_cases):
        case_dir, _ = write_phantom_case(tmp_path, f"case_{i}", seed=10 + i, n_lesions=1 + i % 4)
        assert run_quantify(case_dir, gt_dir / f"case_{i:03d}.json") == 0
        shutil.copyfile(gt_dir / f"case_{i:03d}.json", pred_dir / f"case_{i:03d}.json")
    return gt_dir, pred_dir


def test_evaluate_identity_reaches_fixed_point(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path)
    out = tmp_path / "summary.json"
    scatter = tmp_path / "scatter.csv"
    code = main([
        "evaluate",
        "--gt", str(gt_dir),
        "--pred", str(pred_dir),
        "--out", str(out),
        "--scatter", str(scatter),
        "--seed", "3",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_cases"] == 5
    for metric in ("po", "pho", "lss", "lhos"):
        assert payload["metrics"][metric]["pearson_r"] == 1.0
        assert payload["metrics"][metric]["kendall_tau"] == 1.0
        assert payload["metrics"][metric]["chi2"] == 0.0
    assert payload["metrics"]["po"]["beta1"] == 1.0
    with open(scatter, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["case_id", "metric", "gt", "pred", "gt_jittered", "pred_jittered"]
    assert len(rows) == 1 + 5 * 4
    assert "evaluated 5 cases" in capsys.readouterr().out


def test_evaluate_positive_list(tmp_path):
    gt_dir, pred_dir = build_report_dirs(tmp_path)
    listing = tmp_path / "positives.txt"
    listing.write_text("case_000\ncase_001\ncase_002\n")
    out_full = tmp_path / "full.json"
    out_pos = tmp_path / "pos.json"
    base = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir)]
    assert main(base + ["--out", str(out_full)]) == 0
    assert main(base + ["--out", str(out_pos), "--positive-list", str(listing)]) == 0
    full = json.loads(out_full.read_text())
    pos = json.loads(out_pos.read_text())
    assert pos["n_positive"] == 3
    assert full["n_positive"] == 5
    # contingency always uses the whole cohort
    assert pos["metrics"]["po"]["chi2"] == full["metrics"]["po"]["chi2"]


def test_evaluate_too_few_cases_exits_2(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for i in range(2):
        case_dir, _ = write_phantom_case(tmp_path, f"c{i}", seed=20 + i)
        assert run_quantify(case_dir, gt_dir / f"c{i}.json") == 0
        shutil.copyfile(gt_dir / f"c{i}.json", pred_dir / f"c{i}.json")
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err


def test_evaluate_empty_dir_exits_2(tmp_path):
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(gt_dir),
                 "--out", str(tmp_path / "s.json")])
    assert code == 2


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------

def test_phantom_command_is_bit_reproducible(tmp_path):
    args = ["phantom", "--count", "2", "--seed", "9", "--dims", "10,16,16"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for case in ("case_000", "case_001"):
        for name in ("volume.raw", "volume.json", "lobes.raw", "abnorm.raw",
                     "oracle.json", "spec.json"):
            a = (tmp_path / "a" / case / name).read_bytes()
            b = (tmp_path / "b" / case / name).read_bytes()
            assert a == b, f"{case}/{name} differs between runs"


def test_phantom_cases_carry_usable_ground_truth(tmp_path):
    assert main(["phantom", "--count", "1", "--seed", "2", "--dims", "10,16,16",
                 "--out", str(tmp_path / "out")]) == 0
    case_dir = tmp_path / "out" / "case_000"
    oracle = json.loads((case_dir / "oracle.json").read_text())
    report_path = tmp_path / "r.json"
    assert run_quantify(case_dir, report_path) == 0
    payload = json.loads(report_path.read_text())
    assert payload["po"] == oracle["po"]
    assert payload["lss"] == oracle["lss"]


def test_phantom_spec_template_bumps_seed(tmp_path):
    spec = phantom.random_spec(3, dims=(10, 16, 16), n_lesions=1)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json_dict()))
    assert main(["phantom", "--count", "2", "--seed", "5", "--spec", str(spec_path),
                 "--out", str(tmp_path / "out")]) == 0
    s0 = json.loads((tmp_path / "out" / "case_000" / "spec.json").read_text())
    s1 = json.loads((tmp_path / "out" / "case_001" / "spec.json").read_text())
    assert s0["seed"] == 5
    assert s1["seed"] == 6
    assert s0["lungs"] == s1["lungs"]


def test_phantom_spec_with_non_numeric_radius_exits_2(tmp_path, capsys):
    payload = phantom.random_spec(3, dims=(10, 16, 16), n_lesions=1).to_json_dict()
    payload["lungs"][0]["radii_mm"] = ["big", 1, 1]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    code = main(["phantom", "--count", "1", "--spec", str(spec_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed phantom spec" in err
    assert "Traceback" not in err


def test_phantom_rejects_bad_count(tmp_path, capsys):
    code = main(["phantom", "--count", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "count" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_equals_manual_composition(tmp_path):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=8, n_lesions=3, dims=(12, 20, 20))
    out_base = tmp_path / "pre"
    code = main([
        "preprocess",
        "--volume", str(case_dir / "volume"),
        "--lobes", str(case_dir / "lobes"),
        "--out", str(out_base),
        "--box", "8,16,16",
    ])
    assert code == 0

    v = read_volume(case_dir / "volume")
    m = read_mask(case_dir / "lobes")
    v_res = resample(v, RESAMPLE_SPACING_MM, mode="trilinear")
    m_res = resample_mask(m, RESAMPLE_SPACING_MM)
    center = lung_center(m_res)
    cropped = crop_box(v_res, center, (8, 16, 16), pad_value=AIR_HU)
    expected = clip_normalize(cropped).data.astype(np.float32)

    got = read_volume(out_base)
    assert got.data.dtype == np.float32
    assert got.spacing_mm == RESAMPLE_SPACING_MM
    np.testing.assert_array_equal(got.data, expected)
    assert got.data.min() >= 0.0
    assert got.data.max() <= 1.0


def test_preprocess_constant_window_center_maps_to_half(tmp_path):
    data = np.full((8, 16, 16), -600.0, dtype=np.float32)
    write_volume(Volume(data, (3.0, 1.0, 1.0)), tmp_path / "vol")
    labels = np.zeros((8, 16, 16), dtype=np.int16)
    labels[2:6, 4:12, 4:12] = 1
    write_volume(LabelMask(labels, (3.0, 1.0, 1.0)), tmp_path / "lob")
    out_base = tmp_path / "pre"
    code = main([
        "preprocess",
        "--volume", str(tmp_path / "vol"),
        "--lobes", str(tmp_path / "lob"),
        "--out", str(out_base),
        "--box", "4,8,8",
    ])
    assert code == 0
    got = read_volume(out_base)
    assert got.dims == (4, 8, 8)
    assert np.all(got.data == np.float32(0.5))


def test_preprocess_empty_lung_exits_2(tmp_path, capsys):
    data = np.full((8, 16, 16), -600.0, dtype=np.float32)
    write_volume(Volume(data, (3.0, 1.0, 1.0)), tmp_path / "vol")
    labels = np.zeros((8, 16, 16), dtype=np.int16)
    write_volume(LabelMask(labels, (3.0, 1.0, 1.0)), tmp_path / "lob")
    code = main([
        "preprocess",
        "--volume", str(tmp_path / "vol"),
        "--lobes", str(tmp_path / "lob"),
        "--out", str(tmp_path / "pre"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def make_train_config(tmp_path, data_dir, seed=0):
    return {
        "data_dir": str(data_dir),
        "epochs": 1,
        "seed": seed,
        "out_checkpoint": str(tmp_path / "ckpt"),
        "out_loss_csv": str(tmp_path / "loss.csv"),
        "stem_channels": 4,
        "growth_rate": 2,
        "layers_per_block": 1,
        "num_dense_blocks": 2,
        "downsample_strides": [[1, 2, 2], [2, 2, 2]],
    }


def test_train_toy_runs_and_is_reproducible(tmp_path):
    data_dir = tmp_path / "cases"
    assert main(["phantom", "--count", "10", "--seed", "1", "--dims", "8,16,16",
                 "--out", str(data_dir)]) == 0
    config = make_train_config(tmp_path, data_dir)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(config_path)]) == 0

    assert (tmp_path / "ckpt.json").exists()
    assert (tmp_path / "ckpt.raw").exists()
    with open(tmp_path / "loss.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iteration", "train_loss", "val_loss"]
    assert len(rows) == 1 + 9  # 10 cases, 1 held out, 1 epoch
    assert rows[-1][2] != ""

    first_csv = (tmp_path / "loss.csv").read_bytes()
    first_ckpt = (tmp_path / "ckpt.raw").read_bytes()
    assert main(["train-toy", "--config", str(config_path)]) == 0
    assert (tmp_path / "loss.csv").read_bytes() == first_csv
    assert (tmp_path / "ckpt.raw").read_bytes() == first_ckpt


def test_train_toy_missing_field_names_it(tmp_path, capsys):
    config = {"data_dir": str(tmp_path), "seed": 0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["train-toy", "--config", str(config_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "epochs" in err
    assert "out_checkpoint" in err


def test_train_toy_unreadable_config_exits_2(tmp_path):
    assert main(["train-toy", "--config", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# dispatch and plumbing
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["not-a-command"]) == 2
    assert main(["quantify"]) == 2
    assert main(["preprocess", "--volume", "v", "--lobes", "l", "--out", "o",
                 "--box", "bad"]) == 2
    capsys.readouterr()
    assert main(["evaluate", "--gt", "g", "--pred", "p", "--workers", "1"]) == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["quantify", "--volume", "v", "--lobes", "l", "--abnorm", "a",
          "--threshold-hu", "nan"], "threshold"),
        (["evaluate", "--gt", "g", "--pred", "p", "--jitter-pct", "-1"], "jitter"),
    ],
)
def test_out_of_range_numeric_flags_exit_2(argv, flag, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "quantify" in capsys.readouterr().out


def test_unexpected_failure_exits_3(tmp_path, monkeypatch, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=5)
    import lungsev.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "compute_report", boom)
    assert run_quantify(case_dir, tmp_path / "r.json") == 3
    assert "internal error" in capsys.readouterr().err


def test_log_level_parsing():
    assert _log_level_from_env("DEBUG") == logging.DEBUG
    assert _log_level_from_env("info") == logging.INFO
    assert _log_level_from_env(None) == logging.WARNING
    assert _log_level_from_env("garbage") == logging.WARNING
