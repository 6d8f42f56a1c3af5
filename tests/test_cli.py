import csv
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lungsev
from lungsev import phantom
from lungsev.cli import _log_level_from_env, _train_run, main
from lungsev.errors import InputError
from lungsev.toynet import NetConfig
from lungsev.toynet.network import CUMULATIVE_STRIDE
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


def test_quantify_writes_the_one_threshold_last_and_takes_no_flag_for_it(tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=6, n_lesions=4)
    out = tmp_path / "r.json"
    assert run_quantify(case_dir, out) == 0
    payload = json.loads(out.read_text())
    assert list(payload)[-2:] == ["threshold_hu", "wall_time_s"] and payload["threshold_hu"] == -200.0
    out.unlink()
    capsys.readouterr()
    assert run_quantify(case_dir, out, extra=["--threshold-hu", "-400"]) == 2
    assert "unrecognized arguments: --threshold-hu -400" in capsys.readouterr().err
    assert not out.exists()


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


def _set_header_field(field, value):
    def mutate(case_dir, grid):
        header_path = case_dir / f"{grid}.json"
        header = json.loads(header_path.read_text())
        header[field] = value
        header_path.write_text(json.dumps(header))
    return mutate


def _put_label_7(case_dir, grid):
    raw_path = case_dir / f"{grid}.raw"
    data = np.frombuffer(raw_path.read_bytes(), dtype=np.uint8).copy()
    data[0] = 7
    raw_path.write_bytes(data.tobytes())


@pytest.mark.parametrize(
    "grid, mutate, expected",
    [
        ("volume", _set_header_field("spacing_mm", [1.5, 1.0, "1.0mm"]), "spacing_mm"),
        ("volume", _set_header_field("spacing_mm", [1.5, 1.0]), "spacing_mm"),
        ("lobes", _put_label_7, "labels [7]"),
    ],
    ids=["non_numeric_spacing", "two_entry_spacing", "lobe_label_7"],
)
def test_quantify_malformed_header_exits_2(grid, mutate, expected, tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
    mutate(case_dir, grid)
    out = tmp_path / "r.json"
    assert run_quantify(case_dir, out) == 2
    err = capsys.readouterr().err
    assert f"{case_dir / grid}.json: " in err and expected in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["quantify", "preprocess"])
def test_non_finite_hu_exits_2_naming_the_volume(command, tmp_path, capsys):
    case_dir, case = write_phantom_case(tmp_path, "c0", seed=3, dims=(8, 32, 32))
    hu = case.volume.data.copy()
    hu.flat[np.flatnonzero(case.lobes.data)[:100]] = np.nan
    (case_dir / "volume.raw").write_bytes(hu.astype("<f4").tobytes())  # write_volume refuses NaN
    out = tmp_path / "out"
    if command == "quantify":
        code = run_quantify(case_dir, out)
    else:
        code = main(["preprocess", "--volume", str(case_dir / "volume"), "--lobes", str(case_dir / "lobes"),
                     "--out", str(out), "--box", "8,32,32"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{case_dir / 'volume.json'}: " in err and "non-finite" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_quantify_spacing_whose_grid_volume_overflows_exits_2(tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
    for grid in ("volume", "lobes", "abnorm"):
        _set_header_field("spacing_mm", [1e300, 1e300, 1e300])(case_dir, grid)
    out = tmp_path / "r.json"
    assert run_quantify(case_dir, out) == 2
    err = capsys.readouterr().err
    assert f"{case_dir / 'volume.json'}: spacing_mm " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["quantify", "preprocess"])
@pytest.mark.parametrize("mismatch", ["dims", "spacing"])
def test_geometry_mismatch_names_both_files(command, mismatch, tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=1, dims=(20, 40, 40))
    volume, lobes = case_dir / "volume", case_dir / "lobes"
    if mismatch == "dims":
        other_dir, _ = write_phantom_case(tmp_path, "c1", seed=2, dims=(16, 28, 28))
        lobes = other_dir / "lobes"
    else:
        _set_header_field("spacing_mm", [1.5, 1.0, 7.0])(case_dir, "volume")
    out = tmp_path / "out"
    argv = [command, "--volume", str(volume), "--lobes", str(lobes), "--out", str(out)]
    if command == "quantify":
        argv += ["--abnorm", str(case_dir / "abnorm")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{volume}: dims " in err and f"{lobes}: dims " in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["quantify_volume", "preprocess_out"])
def test_empty_grid_path_exits_2(command, tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
    if command == "quantify_volume":
        argv = ["quantify", "--volume", "", "--lobes", str(case_dir / "lobes"),
                "--abnorm", str(case_dir / "abnorm"), "--out", str(tmp_path / "r.json")]
    else:
        argv = ["preprocess", "--volume", str(case_dir / "volume"),
                "--lobes", str(case_dir / "lobes"), "--out", "", "--box", "4,8,8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "has no file name" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", ["volume", "lobes", "abnorm"])
@pytest.mark.parametrize("suffix", [".json", ".raw"])
def test_quantify_refuses_an_out_that_is_one_of_its_input_files(grid, suffix, tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=4)
    target = case_dir / f"{grid}{suffix}"
    before = target.read_bytes()
    assert run_quantify(case_dir, target) == 2
    assert capsys.readouterr().err == f"error: --out {target} is the same file as --{grid} {target}\n"
    assert target.read_bytes() == before


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


def test_evaluate_refuses_a_report_at_another_threshold_naming_its_file(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=4)
    path = pred_dir / "case_002.json"
    report = json.loads(path.read_text())
    report["threshold_hu"] = -400.0
    path.write_text(json.dumps(report))
    out = tmp_path / "summary.json"
    assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: threshold_hu: expected -200.0, got -400.0\n"
    assert not out.exists()


def test_evaluate_refuses_a_scatter_path_that_is_its_out_before_reading_reports(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    out, scatter = tmp_path / "new" / "s.json", tmp_path / "new" / ".." / "new" / "s.json"
    for gt in (gt_dir, tmp_path / "missing"):  # refused before the report directories are read
        argv = ["evaluate", "--gt", str(gt), "--pred", str(pred_dir), "--out", str(out), "--scatter", str(scatter)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --scatter {scatter} is the same file as --out {out}\n"
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("flag", ["--gt", "--pred", "--positive-list"])
def test_evaluate_refuses_an_output_that_is_one_of_its_inputs(flag, tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    listing = tmp_path / "positives.txt"
    listing.write_text("case_000\ncase_001\n")
    summary = tmp_path / "s.json"
    base = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--positive-list", str(listing)]
    by_another_path = gt_dir / ".." / "pred" / "case_000.json"
    target, outputs = {
        "--gt": (gt_dir / "case_002.json", ["--out", gt_dir / "case_002.json"]),
        "--pred": (pred_dir / "case_000.json", ["--out", summary, "--scatter", by_another_path]),
        "--positive-list": (listing, ["--out", listing]),
    }[flag]
    before = target.read_bytes()
    assert main(base + [str(arg) for arg in outputs]) == 2
    clash = f"{outputs[-2]} {outputs[-1]}"
    assert capsys.readouterr().err == f"error: {clash} is the same file as {flag} {target}\n"
    assert target.read_bytes() == before
    assert not summary.exists()
    # --gt and --pred may name one directory: inputs are not compared with each other
    assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(gt_dir), "--out", str(summary)]) == 0


def _tree(root):
    """Every path under `root`, with the bytes of each file (None for a directory)."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("flag, directory, name", [
    ("--out", "gt", "summary.json"),
    ("--scatter", "pred", "new/../points.json"),
])
def test_evaluate_refuses_an_output_its_report_glob_would_list(flag, directory, name, tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    target = tmp_path / directory / name
    outputs = {"--out": tmp_path / "s.json", flag: target}
    argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir)]
    before = _tree(tmp_path)
    assert main(argv + [str(arg) for item in outputs.items() for arg in item]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} {target} would be read as a report of --{directory} {tmp_path / directory}\n")
    assert _tree(tmp_path) == before
    assert main(argv + ["--out", str(tmp_path / "s.json"), "--scatter", str(gt_dir / "points.csv")]) == 0


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


def test_evaluate_malformed_report_names_the_file(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    (pred_dir / "case_001.json").write_text(json.dumps({"po": 1}))
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "case_001.json" in err
    assert "per_lobe" in err


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("per_lobe", lambda report: report.update(per_lobe=report["per_lobe"][:2])),
        ("lss", lambda report: report.update(lss=99)),
        ("po", lambda report: report.update(po=float("nan"))),
        ("per_lobe: lobe_score", lambda report: report["per_lobe"][0].update(lobe_score=1.0)),
        ("po, pho", lambda report: report.update(pho=report["po"] + 1.0)),
    ],
    ids=["two_lobe_records", "lss_not_the_sum", "nan_po", "float_lobe_score", "pho_above_po"],
)
def test_evaluate_rejects_report_breaking_an_invariant(field, mutate, tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    bad = pred_dir / "case_001.json"
    report = json.loads(bad.read_text())
    mutate(report)
    bad.write_text(json.dumps(report))
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}: {field}: " in err
    assert not (tmp_path / "s.json").exists()


def test_evaluate_positive_list_that_is_not_text_exits_2(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    listing = tmp_path / "positives.bin"
    listing.write_bytes(b"case_000\n\xff\xfe\n")
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                 "--out", str(tmp_path / "s.json"), "--positive-list", str(listing)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {listing}: line 2: unknown case id '\\\\xff\\\\xfe'\n"


def test_evaluate_positive_list_saved_with_a_byte_order_mark_reads_as_without_one(tmp_path):
    gt_dir, pred_dir = build_report_dirs(tmp_path)
    summaries = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        listing = tmp_path / f"{name}.txt"
        listing.write_bytes("case_002\ncase_000\ncase_004\n".encode(encoding))
        out = tmp_path / f"{name}.json"
        assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out),
                     "--positive-list", str(listing)]) == 0
        summaries.append(out.read_bytes())
    assert listing.read_bytes().startswith(b"\xef\xbb\xbf")
    assert summaries[0] == summaries[1] and json.loads(summaries[1])["n_positive"] == 3


def test_evaluate_positive_list_with_a_repeated_id_exits_2(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path)
    listing = tmp_path / "positives.txt"
    listing.write_text("case_000\n\ncase_001\n case_000 \ncase_002\n")  # the blank line counts
    out = tmp_path / "s.json"
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                 "--out", str(out), "--positive-list", str(listing)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {listing}: line 4: duplicate case id 'case_000'\n"
    assert not out.exists()


def test_evaluate_positive_list_naming_an_unknown_case_exits_2(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path)
    listing = tmp_path / "positives.txt"
    listing.write_text("case_000\ncase_001\n\ncase_002\n0\n")  # the blank line counts
    out = tmp_path / "s.json"
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                 "--out", str(out), "--positive-list", str(listing)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {listing}: line 5: unknown case id '0'\n"
    assert not out.exists()


def test_evaluate_positive_list_error_quotes_at_most_60_characters_of_a_line(tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    listing = tmp_path / "positives.txt"
    out = tmp_path / "s.json"
    argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out),
            "--positive-list", str(listing)]
    listing.write_text("case_000\n" + "[" * 100000 + "\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {listing}: line 2: unknown case id '{'[' * 60}'...\n"
    listing.write_text("x" * 60 + "\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {listing}: line 1: unknown case id '{'x' * 60}'\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--gt", "--pred"])
def test_evaluate_report_dir_that_is_a_file_exits_2(flag, tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    out = tmp_path / "s.json"
    for bad, reason in (("case_000.json", "not a directory"), ("no_such_dir", "no such directory")):
        dirs = {"--gt": gt_dir, "--pred": pred_dir}
        dirs[flag] = dirs[flag] / bad
        code = main(["evaluate", "--gt", str(dirs["--gt"]), "--pred", str(dirs["--pred"]), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {dirs[flag]}: {reason}\n"
        assert not out.exists()


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
    spec = json.loads((case_dir / "spec.json").read_text())
    assert list(spec) == ["dims", "spacing_mm", "lungs", "lesions", "noise_sigma_hu", "seed"]
    assert (spec["dims"], spec["spacing_mm"], spec["seed"]) == ([10, 16, 16], [1.5, 1.0, 1.0], 2)


def test_phantom_count_bumps_the_seed_per_case(tmp_path):
    assert main(["phantom", "--count", "2", "--seed", "5", "--dims", "10,16,16", "--out", str(tmp_path / "out")]) == 0
    s0, s1 = (json.loads((tmp_path / "out" / case / "spec.json").read_text()) for case in ("case_000", "case_001"))
    assert (s0["seed"], s1["seed"]) == (5, 6)
    assert s0 == json.loads(json.dumps(phantom.random_spec(5, dims=(10, 16, 16)).to_json_dict()))
    assert s1 == json.loads(json.dumps(phantom.random_spec(6, dims=(10, 16, 16)).to_json_dict()))


@pytest.mark.parametrize("flag, value, key, recorded", [
    ("--dims", "12,18,20", "dims", [12, 18, 20]),
    ("--noise-sigma", "7.5", "noise_sigma_hu", 7.5),
])
def test_phantom_records_a_flag_it_was_given_in_spec_json(flag, value, key, recorded, tmp_path):
    assert main(["phantom", "--count", "1", flag, value, "--out", str(tmp_path / "out")]) == 0
    spec = json.loads((tmp_path / "out" / "case_000" / "spec.json").read_text())
    assert spec[key] == recorded


def test_phantom_dims_below_the_minimum_are_refused_as_a_usage_error_before_anything_is_made(tmp_path, capsys):
    # The flag and PhantomSpec share one minimum, so the flag refuses what
    # the spec would refuse after --out was made.
    low = phantom.MIN_DIM - 1
    out = tmp_path / "x"
    assert main(["phantom", "--out", str(out), "--count", "2", "--dims", f"{low},32,32"]) == 2
    assert f"argument --dims: expected an integer >= {phantom.MIN_DIM}, got {low}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(InputError, match=f"^dims: expected an integer >= {phantom.MIN_DIM}, got {low}$"):
        phantom.random_spec(0, dims=(low, 32, 32))


def test_phantom_takes_no_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(phantom.random_spec(3, dims=(10, 16, 16)).to_json_dict()))
    out = tmp_path / "out"
    assert main(["phantom", "--count", "1", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"unrecognized arguments: --spec {spec}" in capsys.readouterr().err
    assert not out.exists()


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
    v_res = resample(v)
    m_res = resample_mask(m)
    center = lung_center(m_res)
    cropped = crop_box(v_res, center, (8, 16, 16), pad_value=AIR_HU)
    expected = clip_normalize(cropped).data

    got = read_volume(out_base)
    assert got.data.dtype == np.float32
    assert got.spacing_mm == RESAMPLE_SPACING_MM
    np.testing.assert_array_equal(got.data, expected)
    assert got.data.min() >= 0.0
    assert got.data.max() <= 1.0


def test_preprocess_peak_memory_stays_within_the_inputs_two_resampled_grids_and_the_box(tmp_path):
    """numpy reports its buffers to tracemalloc; the box pads the resampled
    grid in z, so the windowed-air pad is written too."""
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3, dims=(48, 128, 128))
    box = (32, 96, 96)
    resampled_dims = resample_mask(read_mask(case_dir / "lobes")).dims
    assert resampled_dims[0] < box[0]
    resampled_voxels = int(np.prod(resampled_dims))
    out_base = tmp_path / "pre"
    tracemalloc.start()
    try:
        code = main(["preprocess", "--volume", str(case_dir / "volume"), "--lobes", str(case_dir / "lobes"),
                     "--out", str(out_base), "--box", ",".join(map(str, box))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    inputs = (case_dir / "volume.raw").stat().st_size + (case_dir / "lobes.raw").stat().st_size
    assert peak <= inputs + 2 * resampled_voxels * 8 + (tmp_path / "pre.raw").stat().st_size


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


def test_preprocess_keeps_an_output_suffix_other_than_json_or_raw(tmp_path):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=8, n_lesions=1)
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    (out_dir / "case.json").write_text("a report that must survive\n")
    code = main(["preprocess", "--volume", str(case_dir / "volume"), "--lobes",
                 str(case_dir / "lobes"), "--out", str(out_dir / "case.pre"), "--box", "4,8,8"])
    assert code == 0
    assert (out_dir / "case.json").read_text() == "a report that must survive\n"
    assert not (out_dir / "case.raw").exists()
    assert read_volume(out_dir / "case.pre").dims == (4, 8, 8)
    assert {p.name for p in out_dir.iterdir()} == {"case.json", "case.pre.json", "case.pre.raw"}


@pytest.mark.parametrize("grid", ["volume", "lobes"])
def test_preprocess_refuses_an_out_that_is_one_of_its_input_grids(grid, tmp_path, capsys):
    case_dir, _ = write_phantom_case(tmp_path, "c0", seed=8, n_lesions=1)
    files = [case_dir / f"{grid}{suffix}" for suffix in (".json", ".raw")]
    before = [path.read_bytes() for path in files]
    code = main(["preprocess", "--volume", str(case_dir / "volume"), "--lobes", str(case_dir / "lobes"),
                 "--out", str(case_dir / grid), "--box", "4,8,8"])
    assert code == 2
    assert capsys.readouterr().err == f"error: --out {files[0]} is the same file as --{grid} {files[0]}\n"
    assert [path.read_bytes() for path in files] == before


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


def _quantify_argv(case_dir):
    return ["quantify", "--volume", str(case_dir / "volume"), "--lobes", str(case_dir / "lobes"),
            "--abnorm", str(case_dir / "abnorm"), "--out", str(case_dir.parent / "out.json")]


def _refused_case(fault, tmp_path):
    """(argv, the start of its one-line error) for a case with `fault`."""
    case_dir, case = write_phantom_case(tmp_path, "c0", seed=3)
    volume, lobes = case_dir / "volume", case_dir / "lobes"
    if fault in ("quantify_empty_lung", "preprocess_empty_lung"):
        write_volume(LabelMask(np.zeros_like(case.lobes.data), case.lobes.spacing_mm), lobes)
        if fault == "preprocess_empty_lung":
            argv = ["preprocess", "--volume", str(volume), "--lobes", str(lobes), "--out", str(tmp_path / "out")]
            return argv, f"error: --lobes {lobes}: cannot compute center of an empty mask\n"
        return _quantify_argv(case_dir), f"error: --lobes {lobes}: lung mask is empty\n"
    if fault == "quantify_unsigned_volume":
        write_volume(Volume(np.zeros(case.volume.dims, np.uint8), case.volume.spacing_mm), volume)
        return _quantify_argv(case_dir), f"error: --volume {volume}: volume dtype uint8 is unsigned; "
    if fault == "quantify_windowed_volume":
        write_volume(clip_normalize(case.volume), volume)
        return _quantify_argv(case_dir), f"error: --volume {volume}: volume values all lie in [0,1]; "
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    assert run_quantify(case_dir, tmp_path / "report.json") == 0
    gt_ids, pred_ids = {"evaluate_too_few_positives": (3, 3), "evaluate_case_id_mismatch": (3, 4),
                        "evaluate_too_few_pairs": (2, 2)}[fault]
    for directory, n in ((gt_dir, gt_ids), (pred_dir, pred_ids)):
        directory.mkdir(exist_ok=True)
        for i in range(n):
            shutil.copyfile(tmp_path / "report.json", directory / f"c{i}.json")
    argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(tmp_path / "out.json")]
    pair = f"error: --gt {gt_dir} and --pred {pred_dir}: "
    if fault == "evaluate_too_few_positives":
        listing = tmp_path / "positives.txt"
        listing.write_text("c0\nc2\n")
        return (argv + ["--positive-list", str(listing)],
                f"error: --positive-list {listing}: need at least 3 positive cases for correlations, got 2\n")
    if fault == "evaluate_case_id_mismatch":
        return argv, pair + "case id mismatch: missing ground truth for c3\n"
    return argv, pair + "need at least 3 paired cases, got 2\n"


@pytest.mark.parametrize("fault", [
    "quantify_empty_lung", "quantify_unsigned_volume", "quantify_windowed_volume", "preprocess_empty_lung",
    "evaluate_too_few_positives", "evaluate_case_id_mismatch", "evaluate_too_few_pairs",
])
def test_a_refused_input_is_named_by_its_flag_and_path(fault, tmp_path, capsys):
    argv, expected = _refused_case(fault, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(expected)
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("out*"))


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
    }


def test_train_toy_runs_and_is_reproducible(tmp_path):
    data_dir = tmp_path / "cases"
    assert main(["phantom", "--count", "10", "--seed", "1", "--dims", "8,32,32",
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


def test_readme_train_config_is_one_train_toy_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.DOTALL)
    run = _train_run(json.loads(block.group(1)))
    assert run["config"] == NetConfig(seed=0)
    assert f"multiples of {'x'.join(map(str, CUMULATIVE_STRIDE))}" in readme  # the stride README's text gives


def test_train_toy_missing_field_names_it(tmp_path, capsys):
    config = {"data_dir": str(tmp_path), "seed": 0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["train-toy", "--config", str(config_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "epochs" in err
    assert "out_checkpoint" in err


@pytest.mark.parametrize("field, value", [("epochs", "two"), ("seed", "4"), ("out_loss_csv", 5)])
def test_train_toy_wrongly_typed_field_names_it(field, value, tmp_path, capsys):
    config = make_train_config(tmp_path, tmp_path)
    config[field] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{config_path}: {field}:" in err
    assert "Traceback" not in err


def test_train_toy_unreadable_config_exits_2(tmp_path):
    assert main(["train-toy", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("kind", ["missing", "file", "empty"])
def test_train_toy_names_the_config_for_a_bad_data_dir(kind, tmp_path, capsys):
    data_dir = tmp_path / "cases"
    if kind == "file":
        data_dir.write_text("")
    elif kind == "empty":
        data_dir.mkdir()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_train_config(tmp_path, data_dir)))
    assert main(["train-toy", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: data_dir: ")
    assert str(data_dir) in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "loss.csv").exists()


def test_train_toy_with_too_few_cases_names_its_config_and_writes_nothing(tmp_path, capsys):
    data_dir = tmp_path / "cases"
    assert main(["phantom", "--count", "3", "--dims", "8,32,32", "--out", str(data_dir)]) == 0
    config = make_train_config(tmp_path, data_dir)
    config["out_checkpoint"] = str(tmp_path / "out" / "ckpt")
    config["out_loss_csv"] = str(tmp_path / "out" / "loss.csv")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["train-toy", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config_path}: data_dir: need at least 10 case directories in {data_dir}, got 3\n")
    assert not (tmp_path / "out").exists()


def test_train_toy_names_the_case_the_network_cannot_take(tmp_path, capsys):
    data_dir = tmp_path / "cases"
    write_phantom_case(data_dir, "case_000", seed=1, dims=(8, 32, 32))
    write_phantom_case(data_dir, "case_001", seed=2, dims=(8, 16, 32))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_train_config(tmp_path, data_dir)))
    assert main(["train-toy", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_dir / 'case_001' / 'volume.json'}: dims (8, 16, 32)")
    assert "cumulative stride (8, 32, 32)" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mismatch", ["dims", "spacing"])
def test_train_toy_names_the_case_whose_grids_disagree(mismatch, tmp_path, capsys):
    data_dir = tmp_path / "cases"
    write_phantom_case(data_dir, "case_000", seed=1, dims=(8, 32, 32))
    case_dir, _ = write_phantom_case(data_dir, "case_001", seed=2, dims=(8, 32, 32))
    if mismatch == "dims":
        other_dir, _ = write_phantom_case(tmp_path, "other", seed=3, dims=(16, 32, 32))
        for suffix in (".json", ".raw"):
            shutil.copy(other_dir / f"lobes{suffix}", case_dir / f"lobes{suffix}")
        lobes = "dims (16, 32, 32) spacing (1.5, 1.0, 1.0)"
    else:
        _set_header_field("spacing_mm", [1.5, 1.0, 7.0])(case_dir, "lobes")
        lobes = "dims (8, 32, 32) spacing (1.5, 1.0, 7.0)"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_train_config(tmp_path, data_dir)))
    assert main(["train-toy", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: geometry mismatch: {case_dir / 'volume'}: dims (8, 32, 32) spacing (1.5, 1.0, 1.0) "
                   f"vs {case_dir / 'lobes'}: {lobes}\n")
    assert not (tmp_path / "loss.csv").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [("stem_chanels", 2, "unknown field(s): stem_chanels"),
     # the learning rate, the stage count and the norm switch are fixed by the network
     ("initial_lr", -5.0, "unknown field(s): initial_lr"),
     ("initial_lr", 0, "unknown field(s): initial_lr"),
     ("num_dense_blocks", 2, "unknown field(s): num_dense_blocks"),
     ("norm_enabled", True, "unknown field(s): norm_enabled"),
     # the network has one architecture: even its own values are unknown fields
     ("stem_channels", 8, "unknown field(s): stem_channels"),
     ("growth_rate", 4, "unknown field(s): growth_rate"),
     ("layers_per_block", 2, "unknown field(s): layers_per_block"),
     ("downsample_strides", [[1, 2, 2], [2, 2, 2]], "unknown field(s): downsample_strides")],
    ids=["unknown_field", "negative_lr", "zero_lr", "num_dense_blocks", "norm_enabled",
         "stem_channels", "growth_rate", "layers_per_block", "downsample_strides"],
)
def test_train_toy_rejects_a_field_it_would_misread(field, value, message, tmp_path, capsys):
    config = make_train_config(tmp_path / "out", tmp_path)
    config[field] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("loss_csv", ["ckpt.json", "ckpt.raw", "sub/../ckpt.json"])
def test_train_toy_refuses_a_loss_csv_that_is_a_checkpoint_file(loss_csv, tmp_path, capsys):
    data_dir = tmp_path / "cases"
    assert main(["phantom", "--count", "10", "--dims", "8,32,32", "--out", str(data_dir)]) == 0
    config = make_train_config(tmp_path / "out", data_dir)
    config["out_loss_csv"] = str(tmp_path / "out" / loss_csv)
    suffix = loss_csv.rsplit(".", 1)[1]
    kind = {"json": "manifest", "raw": "payload"}[suffix]
    for data in (data_dir, tmp_path / "missing"):  # refused before any case is read
        config["data_dir"] = str(data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["train-toy", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: out_loss_csv {config['out_loss_csv']} is the same file as "
            f"out_checkpoint {kind} {tmp_path / 'out' / f'ckpt.{suffix}'}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("clash", ["config", "case grid"])
def test_train_toy_refuses_an_output_that_is_one_of_its_inputs(clash, tmp_path, capsys):
    data_dir = tmp_path / "cases"
    assert main(["phantom", "--count", "10", "--dims", "8,32,32", "--out", str(data_dir)]) == 0
    config_path = tmp_path / "config.json"
    config = make_train_config(tmp_path / "out", data_dir)
    if clash == "config":
        config["out_loss_csv"] = str(config_path)
        message = f"out_loss_csv {config_path} is the same file as --config {config_path}"
    else:
        config["out_checkpoint"] = str(data_dir / "case_004" / "lobes")
        lobes = data_dir / "case_004" / "lobes.json"
        message = f"out_checkpoint manifest {lobes} is the same file as data_dir {lobes}"
    config_path.write_text(json.dumps(config))
    before = _tree(tmp_path)
    assert main(["train-toy", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _tree(tmp_path) == before
    assert not (tmp_path / "out").exists()


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
    assert main(["evaluate", "--gt", "g", "--pred", "p", "--jitter-pct", "1"]) == 2
    assert "unrecognized arguments: --jitter-pct 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--count", ["phantom", "--count", "0"]),
        ("--noise-sigma", ["phantom", "--count", "1", "--noise-sigma", "nan"]),
        ("--dims", ["phantom", "--count", "1", "--dims", "8,32"]),
        ("--box", ["preprocess", "--volume", "v", "--lobes", "l", "--box", "0,8,8"]),
        ("--box", ["preprocess", "--volume", "v", "--lobes", "l", "--box", "8,8"]),
    ],
)
def test_flag_outside_its_range_is_a_usage_error_naming_it(flag, argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "phantom"])
def test_negative_seed_exits_2(command, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "evaluate":
        gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
        argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out),
                "--scatter", str(tmp_path / "s.csv"), "--seed", "-1"]
    else:
        argv = ["phantom", "--count", "1", "--dims", "8,12,12", "--out", str(out), "--seed", "-1"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--seed: expected an integer >= 0, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["quantify_out", "evaluate_out", "evaluate_scatter", "phantom_out"])
def test_unwritable_output_path_exits_2(command, tmp_path, capsys):
    gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
    target = tmp_path / "taken"
    case_dir = tmp_path / "case_0"
    evaluate = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir)]
    if command == "phantom_out":
        target.write_text("an existing file\n")
        code = main(["phantom", "--count", "1", "--dims", "8,12,12", "--out", str(target)])
    else:
        target.mkdir()
        if command == "quantify_out":
            code = run_quantify(case_dir, target)
        elif command == "evaluate_out":
            code = main(evaluate + ["--out", str(target)])
        else:
            code = main(evaluate + ["--out", str(tmp_path / "s.json"), "--scatter", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["preprocess", "evaluate_scatter", "train_toy"])
def test_output_parent_directories_are_created(command, tmp_path):
    new_dir = tmp_path / "new" / "dir"
    if command == "preprocess":
        case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
        argv = ["preprocess", "--volume", str(case_dir / "volume"), "--lobes",
                str(case_dir / "lobes"), "--out", str(new_dir / "case_000"), "--box", "4,8,8"]
        outputs = [new_dir / "case_000.json", new_dir / "case_000.raw"]
    elif command == "evaluate_scatter":
        gt_dir, pred_dir = build_report_dirs(tmp_path, n_cases=3)
        argv = ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                "--out", str(tmp_path / "s.json"), "--scatter", str(new_dir / "s.csv")]
        outputs = [new_dir / "s.csv"]
    else:
        data_dir = tmp_path / "cases"
        assert main(["phantom", "--count", "10", "--dims", "8,32,32", "--out", str(data_dir)]) == 0
        config = make_train_config(tmp_path, data_dir)
        config["out_checkpoint"] = str(new_dir / "ckpt")
        config["out_loss_csv"] = str(tmp_path / "other" / "loss.csv")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["train-toy", "--config", str(config_path)]
        outputs = [new_dir / "ckpt.json", new_dir / "ckpt.raw", tmp_path / "other" / "loss.csv"]
    assert main(argv) == 0
    for path in outputs:
        assert path.is_file()


# Both grids exceed the 128 TiB user address space, so the allocation fails at once.
@pytest.mark.parametrize("command", ["preprocess", "phantom"])
def test_grid_too_large_for_memory_exits_2(command, tmp_path, capsys):
    if command == "preprocess":
        case_dir, _ = write_phantom_case(tmp_path, "c0", seed=3)
        argv = ["preprocess", "--volume", str(case_dir / "volume"), "--lobes",
                str(case_dir / "lobes"), "--out", str(tmp_path / "pre"),
                "--box", "100000,100000,100000"]
    else:
        argv = ["phantom", "--out", str(tmp_path / "big"), "--count", "1",
                "--dims", "10000000,10000000,10000000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: ")
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "quantify" in capsys.readouterr().out


# Linux gives a child the peak resident size of the process it was forked
# from as its starting ru_maxrss, so children whose peak a test reads are
# started by a small launcher process, not by the test process itself.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def _child(code, *argv):
    """The stdout of `python -c code argv...` run on this package's source."""
    env = dict(os.environ, PYTHONPATH=str(Path(lungsev.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, "-c", code, *map(str, argv)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_cli_loads_no_training_statistics_or_phantom_code():
    loaded = _child("import sys, lungsev.cli; print(*sorted(sys.modules))").split()
    heavy = ("lungsev.toynet", "lungsev.evaluate", "lungsev.phantom", "lungsev.stats", "lungsev.special")
    assert [m for m in loaded if m.startswith(heavy)] == []
    assert "lungsev.severity" in loaded and "lungsev.volume" in loaded


def test_quantify_memory_does_not_grow_with_the_grid(tmp_path):
    # A 64x512x512 case of 84 MB: quantify holds one plane of each grid at a
    # time and drops it before the next read, so its peak stays within a
    # sixteenth of that (5.2 MB) above the interpreter with lungsev.cli
    # imported: about 2 MB on a 2-core VM, where holding the previous slab
    # triple through each read of 4-plane slabs took 14 MB.
    dims = (64, 512, 512)
    lobes = np.zeros(dims, dtype=np.int16)
    for label, x0 in zip(LOBE_LABELS, range(20, 500, 96)):
        lobes[4:60, 100:400, x0:x0 + 80] = label
    write_volume(LabelMask(lobes, (1.0, 0.7, 0.7)), tmp_path / "lobes")
    abnorm = np.zeros(dims, dtype=np.uint8)
    abnorm[10:50, 150:300, 50:250] = 1
    write_volume(LabelMask(abnorm, (1.0, 0.7, 0.7), allowed_labels=(1,)), tmp_path / "abnorm")
    volume = np.where(lobes > 0, -850, 40).astype(np.int16)
    volume[abnorm > 0] = -100
    write_volume(Volume(volume, (1.0, 0.7, 0.7)), tmp_path / "volume")
    input_bytes = lobes.nbytes + abnorm.nbytes + volume.nbytes
    del lobes, abnorm, volume
    peak = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)"
    base = int(_child(f"import lungsev.cli; {peak}"))
    out = tmp_path / "report.json"
    quantify = int(_child(
        f"import sys; from lungsev.cli import main; assert main(sys.argv[1:]) == 0; {peak}",
        "quantify", "--volume", tmp_path / "volume", "--lobes", tmp_path / "lobes",
        "--abnorm", tmp_path / "abnorm", "--out", out).split()[-1])
    assert json.loads(out.read_text())["lss"] > 0
    assert quantify - base < input_bytes / 16


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
