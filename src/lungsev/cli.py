"""Command line entry points for quantification, evaluation, and training."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import phantom as phantom_mod
from .errors import InputError, LungSevError
from .evaluate import evaluate_reports, scatter_rows, write_scatter_csv
from .severity import DEFAULT_THRESHOLD_HU, SeverityReport, compute_report
from .toynet import NetConfig, save_checkpoint, train, write_loss_csv
from .toynet.train import Sample
from .volume import (
    AIR_HU,
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

log = logging.getLogger("lungsev.cli")

DEFAULT_BOX = (384, 384, 384)

# z-y-x target spacing for the standard preprocessing chain.
RESAMPLE_SPACING_MM = (3.0, 1.0, 1.0)


def _box_arg(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected Z,Y,X integers, got {text!r}")
    try:
        box = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected Z,Y,X integers, got {text!r}") from None
    if any(b <= 0 for b in box):
        raise argparse.ArgumentTypeError(f"box entries must be positive, got {text!r}")
    return box


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# quantify
# ---------------------------------------------------------------------------

def cmd_quantify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    volume = read_volume(args.volume)
    lobes = read_mask(args.lobes)
    abnorm = read_mask(args.abnorm, allowed_labels=(1,))
    report = compute_report(volume, lobes, abnorm, threshold=args.threshold_hu)
    elapsed = time.perf_counter() - t0

    payload = report.to_json_dict()
    payload["wall_time_s"] = elapsed
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{args.volume}: po={report.po:.4f} pho={report.pho:.4f} "
        f"lss={report.lss} lhos={report.lhos} ({elapsed:.2f}s) -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _load_report(path: Path) -> tuple[str, SeverityReport]:
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return path.stem, SeverityReport.from_json_dict(payload)


def _read_report_dir(directory: str) -> dict[str, SeverityReport]:
    root = Path(directory)
    if not root.is_dir():
        raise InputError(f"report directory not found: {directory}")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise InputError(f"no report JSON files in {directory}")
    return dict(sorted(_load_report(p) for p in paths))


def _read_id_list(path: str) -> list[str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read positive list {path}: {exc}") from exc
    ids = [line.strip() for line in text.splitlines() if line.strip()]
    if not ids:
        raise InputError(f"positive list {path} is empty")
    return ids


def cmd_evaluate(args: argparse.Namespace) -> int:
    gt = _read_report_dir(args.gt)
    pred = _read_report_dir(args.pred)
    positives = _read_id_list(args.positive_list) if args.positive_list else None
    summary = evaluate_reports(gt, pred, positives)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary.to_json_dict(), indent=2) + "\n")
    if args.scatter:
        rows = scatter_rows(summary, jitter_pct=args.jitter_pct, seed=args.seed)
        write_scatter_csv(rows, args.scatter)
    print(f"evaluated {summary.n_cases} cases ({summary.n_positive} positive) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------

def cmd_phantom(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InputError(f"count must be positive, got {args.count}")
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    base_spec = None
    if args.spec:
        try:
            payload = json.loads(Path(args.spec).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read spec {args.spec}: {exc}") from exc
        base_spec = phantom_mod.PhantomSpec.from_json_dict(payload)

    for index in range(args.count):
        case_seed = args.seed + index
        if base_spec is not None:
            spec = replace(base_spec, seed=case_seed)
        else:
            spec = phantom_mod.random_spec(
                case_seed, dims=args.dims, noise_sigma_hu=args.noise_sigma
            )
        case = phantom_mod.generate(spec)
        case_dir = out_root / f"case_{index:03d}"
        phantom_mod.write_case(case, case_dir)
        (case_dir / "spec.json").write_text(json.dumps(spec.to_json_dict(), indent=2) + "\n")
    print(f"wrote {args.count} cases to {out_root}")
    return 0


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def cmd_preprocess(args: argparse.Namespace) -> int:
    volume = read_volume(args.volume)
    lobes = read_mask(args.lobes)
    v_res = resample(volume, RESAMPLE_SPACING_MM, mode="trilinear")
    m_res = resample_mask(lobes, RESAMPLE_SPACING_MM)
    center = lung_center(m_res)
    cropped = crop_box(v_res, center, args.box, pad_value=AIR_HU)
    normed = clip_normalize(cropped)
    out_volume = Volume(normed.data.astype(np.float32), normed.spacing_mm)
    write_volume(out_volume, args.out)
    print(f"preprocessed {args.volume} -> {args.out} dims={out_volume.dims}")
    return 0


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

REQUIRED_TRAIN_FIELDS = ("data_dir", "epochs", "out_checkpoint", "out_loss_csv", "seed")
OPTIONAL_NET_FIELDS = (
    "stem_channels",
    "growth_rate",
    "layers_per_block",
    "num_dense_blocks",
    "norm_enabled",
)


def _load_samples(data_dir: str) -> list[Sample]:
    root = Path(data_dir)
    if not root.is_dir():
        raise InputError(f"data directory not found: {data_dir}")
    case_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not case_dirs:
        raise InputError(f"no case directories in {data_dir}")
    samples = []
    for case_dir in case_dirs:
        volume = read_volume(case_dir / "volume")
        lobes = read_mask(case_dir / "lobes")
        abnorm = read_mask(case_dir / "abnorm", allowed_labels=(1,))
        samples.append(
            Sample(
                image=volume.data.astype(np.float64),
                target=(abnorm.data > 0),
                lung=(lobes.data > 0),
            )
        )
    return samples


def cmd_train_toy(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("config must be a JSON object")
    missing = [field for field in REQUIRED_TRAIN_FIELDS if field not in payload]
    if missing:
        raise InputError("missing config field(s): " + ", ".join(missing))

    net_kwargs = {k: payload[k] for k in OPTIONAL_NET_FIELDS if k in payload}
    if "downsample_strides" in payload:
        net_kwargs["downsample_strides"] = tuple(
            tuple(int(v) for v in stride) for stride in payload["downsample_strides"]
        )
    config = NetConfig(seed=int(payload["seed"]), **net_kwargs)

    samples = _load_samples(payload["data_dir"])
    result = train(
        config,
        samples,
        epochs=int(payload["epochs"]),
        initial_lr=float(payload.get("initial_lr", 0.001)),
    )
    save_checkpoint(result.params, payload["out_checkpoint"])
    write_loss_csv(result.history, payload["out_loss_csv"])
    print(
        f"trained {len(result.history)} iterations; best validation loss "
        f"{result.best_val_loss:.6f} at iteration {result.best_iteration}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lungsev",
        description="Volumetric severity quantification for lung CT grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quant = sub.add_parser("quantify", help="compute a severity report for one case")
    p_quant.add_argument("--volume", required=True, help="HU volume file base path")
    p_quant.add_argument("--lobes", required=True, help="lobe label mask file base path")
    p_quant.add_argument("--abnorm", required=True, help="binary abnormality mask file base path")
    p_quant.add_argument("--threshold-hu", type=_finite_float, default=DEFAULT_THRESHOLD_HU)
    p_quant.add_argument("--out", default="report.json")
    p_quant.set_defaults(func=cmd_quantify)

    p_eval = sub.add_parser("evaluate", help="compare predicted and ground truth reports")
    p_eval.add_argument("--gt", required=True, help="directory of ground truth report JSON files")
    p_eval.add_argument("--pred", required=True, help="directory of predicted report JSON files")
    p_eval.add_argument("--out", default="summary.json")
    p_eval.add_argument("--scatter", default=None, help="optional scatter CSV output path")
    p_eval.add_argument("--jitter-pct", type=_nonnegative_float, default=0.2)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument(
        "--positive-list",
        default=None,
        dest="positive_list",
        help="file with one positive case id per line; correlations restrict to these",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_phantom = sub.add_parser("phantom", help="generate synthetic cases with known reports")
    p_phantom.add_argument("--out", required=True)
    p_phantom.add_argument("--count", type=int, required=True)
    p_phantom.add_argument("--seed", type=int, default=0)
    p_phantom.add_argument("--dims", type=_box_arg, default=(16, 28, 28))
    p_phantom.add_argument("--noise-sigma", type=float, default=0.0, dest="noise_sigma")
    p_phantom.add_argument("--spec", default=None, help="spec JSON to reuse for every case")
    p_phantom.set_defaults(func=cmd_phantom)

    p_pre = sub.add_parser("preprocess", help="resample, crop, and window a volume")
    p_pre.add_argument("--volume", required=True)
    p_pre.add_argument("--lobes", required=True)
    p_pre.add_argument("--out", required=True)
    p_pre.add_argument("--box", type=_box_arg, default=DEFAULT_BOX)
    p_pre.set_defaults(func=cmd_preprocess)

    p_train = sub.add_parser("train-toy", help="train the small segmentation network")
    p_train.add_argument("--config", required=True, help="JSON run configuration")
    p_train.set_defaults(func=cmd_train_toy)

    return parser


def _log_level_from_env(value: str | None) -> int:
    name = (value or "WARNING").upper()
    level = getattr(logging, name, None)
    return level if isinstance(level, int) else logging.WARNING


def _configure_logging() -> None:
    level = _log_level_from_env(os.environ.get("LUNGSEV_LOG"))
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("lungsev").setLevel(level)


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LungSevError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - anything unexpected is an internal failure
        log.exception("unhandled failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
