"""Command line entry points for quantification, evaluation, and training."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Sequence

# phantom, evaluate and toynet are imported inside the commands that run
# them, so that a quantify or preprocess process does not load them.
from .errors import EmptyMaskError, HeaderError, InputError, LungSevError, at_least, entries, exactly
from .errors import nonnegative, only_fields, read_field, read_json
from .severity import SeverityReport, compute_report
from .volume import (
    WINDOWED_AIR,
    LabelMask,
    Volume,
    _paths_for,
    check_same_geometry,
    clip_normalize,
    crop_box,
    lung_center,
    open_mask,
    open_volume,
    read_mask,
    read_volume,
    resample,
    resample_mask,
    write_volume,
)

log = logging.getLogger("lungsev.cli")

DEFAULT_BOX = (384, 384, 384)


def _flag(check, parse=float):
    """An argparse type that parses a flag's text and passes it through an
    errors check; a value either rejects is a usage error naming the flag."""
    def convert(text: str):
        try:
            return check(parse(text))
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _phantom_dims(dims) -> tuple[int, int, int]:
    from .phantom import MIN_DIM  # loaded only when a phantom's --dims is parsed

    return entries(at_least(MIN_DIM), 3)(dims)


def _output(path):
    """`path`, once the directory that holds it exists."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return path


def _file_id(path) -> tuple[int, int] | None:
    """The (device, inode) of the file at `path`, or None if there is none."""
    try:
        stat = os.stat(path)
    except (OSError, ValueError):
        return None
    return stat.st_dev, stat.st_ino


def _distinct(outputs: list, inputs=()) -> None:
    """Refuse a (name, path) output of one command that is the same file as
    another of its outputs, where the later write would overwrite the earlier,
    or as one of its (name, path) inputs. Outputs need not exist yet, so they
    are compared with each other by resolved path; an output that is an input
    exists already, and is found by device and inode, which also finds a link.
    Inputs are not compared with each other: two inputs may be one file."""
    for index, (name, path) in enumerate(outputs):
        for earlier, earlier_path in outputs[:index]:
            if os.path.realpath(path) == os.path.realpath(earlier_path):
                raise InputError(f"{name} {path} is the same file as {earlier} {earlier_path}")
    existing = {_file_id(path): f"{name} {path}" for name, path in outputs}
    existing.pop(None, None)
    for name, path in inputs if existing else ():
        clash = existing.get(_file_id(path))
        if clash:
            raise InputError(f"{clash} is the same file as {name} {path}")


def _grid_files(*grids) -> list[tuple[str, Path]]:
    """(flag, path) for the header and the payload file of each (flag, GridFile)."""
    return [(flag, path) for flag, grid in grids for path in (grid.header_path, grid.raw_path)]


# ---------------------------------------------------------------------------
# quantify
# ---------------------------------------------------------------------------

def cmd_quantify(args: argparse.Namespace) -> int:
    """Check the three headers, their geometry and that --out is none of their
    files, then count the payloads z-slab by z-slab; no grid is held whole."""
    t0 = time.perf_counter()
    volume = open_volume(args.volume)
    lobes = open_mask(args.lobes)
    abnorm = open_mask(args.abnorm, allowed_labels=(1,))
    check_same_geometry((args.volume, volume), (args.lobes, lobes), (args.abnorm, abnorm))
    _distinct([("--out", args.out)],
              _grid_files(("--volume", volume), ("--lobes", lobes), ("--abnorm", abnorm)))
    try:
        report = compute_report(volume, lobes, abnorm)
    except HeaderError:  # a payload fault, which names its file already
        raise
    except EmptyMaskError as exc:
        raise EmptyMaskError(f"--lobes {args.lobes}: {exc}") from exc
    except InputError as exc:  # the raw-HU checks
        raise InputError(f"--volume {args.volume}: {exc}") from exc
    elapsed = time.perf_counter() - t0

    payload = report.to_json_dict()
    payload["wall_time_s"] = elapsed
    out = _output(Path(args.out))
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    print(
        f"{args.volume}: po={report.po:.4f} pho={report.pho:.4f} "
        f"lss={report.lss} lhos={report.lhos} ({elapsed:.2f}s) -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

# evaluate reads every file in --gt and --pred whose name matches this.
REPORT_GLOB = "*.json"


def _unlisted(outputs: list, directories: list) -> None:
    """Refuse a (name, path) output that a later read of one of the (flag,
    directory) report directories would list as a report: a REPORT_GLOB name
    in that directory. The file need not exist yet, so only its resolved
    directory and its name are compared."""
    for name, path in outputs:
        if Path(path).match(REPORT_GLOB):
            parent = os.path.realpath(Path(path).parent)
            for flag, directory in directories:
                if parent == os.path.realpath(directory):
                    raise InputError(f"{name} {path} would be read as a report of {flag} {directory}")


def _read_report_dir(directory: str, paths: list[Path]) -> dict[str, SeverityReport]:
    """The reports at `paths`, the report files listed in `directory`."""
    path = Path(directory)
    if not path.is_dir():
        raise InputError(f"{directory}: {'not a directory' if path.exists() else 'no such directory'}")
    if not paths:
        raise InputError(f"{directory}: no report JSON files")
    return {p.stem: read_json(p, SeverityReport.from_json_dict) for p in paths}


# An error quotes at most this many characters of a line it refuses.
QUOTE_CHARS = 60


def _quoted(text: str) -> str:
    """repr of `text`, or of its first QUOTE_CHARS characters followed by ..."""
    return repr(text) if len(text) <= QUOTE_CHARS else repr(text[:QUOTE_CHARS]) + "..."


def _read_id_list(path: str, known: dict[str, SeverityReport], min_cases: int) -> list[str]:
    # A byte order mark is not part of the first id; undecodable bytes name no case.
    text = Path(path).read_text(encoding="utf-8-sig", errors="backslashreplace")
    ids = {}
    for number, line in enumerate(text.splitlines(), 1):
        case_id = line.strip()
        if not case_id:
            continue
        if case_id in ids:
            raise InputError(f"{path}: line {number}: duplicate case id {_quoted(case_id)}")
        if case_id not in known:
            raise InputError(f"{path}: line {number}: unknown case id {_quoted(case_id)}")
        ids[case_id] = None
    if len(ids) < min_cases:
        raise InputError(
            f"--positive-list {path}: need at least {min_cases} positive cases for correlations, got {len(ids)}")
    return list(ids)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluate import MIN_CASES, evaluate_reports, scatter_rows, write_scatter_csv

    # A directory that is missing lists no file here; its reader names it.
    directories = [("--gt", args.gt), ("--pred", args.pred)]
    reports = {flag: sorted(Path(directory).glob(REPORT_GLOB)) for flag, directory in directories}
    outputs = [("--out", args.out)] + ([("--scatter", args.scatter)] if args.scatter else [])
    inputs = [(flag, path) for flag, paths in reports.items() for path in paths]
    if args.positive_list:
        inputs.append(("--positive-list", args.positive_list))
    _distinct(outputs, inputs)
    _unlisted(outputs, directories)
    gt = _read_report_dir(args.gt, reports["--gt"])
    pred = _read_report_dir(args.pred, reports["--pred"])
    positives = _read_id_list(args.positive_list, gt, MIN_CASES) if args.positive_list else None
    try:
        summary = evaluate_reports(gt, pred, positives)
    except InputError as exc:  # the positive list is checked, so the two directories do not pair
        raise InputError(f"--gt {args.gt} and --pred {args.pred}: {exc}") from exc

    out = _output(Path(args.out))
    out.write_text(json.dumps(summary.to_json_dict(), indent=2, allow_nan=False) + "\n")
    if args.scatter:
        rows = scatter_rows(summary, seed=args.seed)
        write_scatter_csv(rows, _output(args.scatter))
    print(f"evaluated {summary.n_cases} cases ({summary.n_positive} positive) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------

def cmd_phantom(args: argparse.Namespace) -> int:
    from . import phantom as phantom_mod

    given = {"dims": args.dims, "noise_sigma_hu": args.noise_sigma}
    given = {key: value for key, value in given.items() if value is not None}  # random_spec has the defaults
    out_root = Path(args.out)  # write_case makes it, with the first case
    for index in range(args.count):
        spec = phantom_mod.random_spec(args.seed + index, **given)
        case = phantom_mod.generate(spec)
        case_dir = out_root / f"case_{index:03d}"
        phantom_mod.write_case(case, case_dir)
        (case_dir / "spec.json").write_text(json.dumps(spec.to_json_dict(), indent=2, allow_nan=False) + "\n")
    print(f"wrote {args.count} cases to {out_root}")
    return 0


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def cmd_preprocess(args: argparse.Namespace) -> int:
    """Resample, window, then crop. The two headers and their geometry are
    checked first; the lobe mask is read, reduced to its centre and dropped
    before the volume is read, and each full-size grid is dropped as soon as
    the next step has its result, so the peak stays near one input and the
    output box."""
    volume_file, lobes_file = open_volume(args.volume), open_mask(args.lobes)
    check_same_geometry((args.volume, volume_file), (args.lobes, lobes_file))
    _distinct([("--out", path) for path in _paths_for(args.out)],
              _grid_files(("--volume", volume_file), ("--lobes", lobes_file)))
    try:
        center = lung_center(resample_mask(read_mask(args.lobes)))
    except EmptyMaskError as exc:
        raise EmptyMaskError(f"--lobes {args.lobes}: {exc}") from exc
    image = clip_normalize(resample(read_volume(args.volume)))
    out_volume = crop_box(image, center, args.box, pad_value=WINDOWED_AIR)
    write_volume(out_volume, _output(args.out))
    print(f"preprocessed {args.volume} -> {args.out} dims={out_volume.dims}")
    return 0


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

TRAIN_FIELDS = ("data_dir", "epochs", "out_checkpoint", "out_loss_csv", "seed")

def _load_cases(source, data_dir: str) -> tuple[list[tuple[Volume, LabelMask, LabelMask]], list]:
    """Each case under data_dir, a field of the config file `source`, and the
    ("data_dir", path) of every file read for them; a case whose three grids
    differ in dims or spacing, or whose dims are not multiples of the network's
    cumulative stride, stops the read with an error naming it, and so do fewer
    than MIN_TRAIN_CASES cases."""
    from .toynet.network import CUMULATIVE_STRIDE as stride
    from .toynet.train import MIN_TRAIN_CASES

    try:
        case_dirs = sorted(p for p in Path(data_dir).iterdir() if p.is_dir())
    except OSError as exc:
        raise InputError(f"{source}: data_dir: {exc}") from exc
    cases = []
    for case_dir in case_dirs:
        volume = read_volume(case_dir / "volume")
        if any(d % s for d, s in zip(volume.dims, stride)):
            raise InputError(
                f"{case_dir / 'volume.json'}: dims {volume.dims} must be multiples "
                f"of the network's cumulative stride {stride}"
            )
        lobes = read_mask(case_dir / "lobes")
        abnorm = read_mask(case_dir / "abnorm", allowed_labels=(1,))
        check_same_geometry(
            (case_dir / "volume", volume), (case_dir / "lobes", lobes), (case_dir / "abnorm", abnorm))
        cases.append((volume, lobes, abnorm))
    if len(cases) < MIN_TRAIN_CASES:
        raise InputError(
            f"{source}: data_dir: need at least {MIN_TRAIN_CASES} case directories in {data_dir}, got {len(cases)}")
    files = [("data_dir", path) for case_dir in case_dirs for grid in ("volume", "lobes", "abnorm")
             for path in _paths_for(case_dir / grid)]
    return cases, files


def _train_outputs(run: dict) -> list:
    """(name, path) of each file a train-toy run writes."""
    manifest, payload = _paths_for(run["out_checkpoint"])
    return [("out_checkpoint manifest", manifest), ("out_checkpoint payload", payload),
            ("out_loss_csv", run["out_loss_csv"])]


def _train_run(doc: dict) -> dict:
    """The checked train-toy config: a NetConfig plus the run's other settings;
    a loss CSV that would overwrite a checkpoint file is refused."""
    from .toynet import NetConfig

    missing = [field for field in TRAIN_FIELDS if field not in doc]
    if missing:
        raise InputError("missing field(s): " + ", ".join(missing))
    only_fields(doc, TRAIN_FIELDS)
    run = {
        "config": NetConfig(seed=doc["seed"]),
        "epochs": read_field(doc, "epochs", at_least(1)),
        **{f: read_field(doc, f, exactly(str)) for f in ("data_dir", "out_checkpoint", "out_loss_csv")},
    }
    _distinct(_train_outputs(run))
    return run


def cmd_train_toy(args: argparse.Namespace) -> int:
    from .toynet import save_checkpoint, train, write_loss_csv

    run = read_json(args.config, _train_run)
    cases, case_files = _load_cases(args.config, run["data_dir"])
    _distinct(_train_outputs(run), [("--config", args.config), *case_files])
    checkpoint, loss_csv = _output(run["out_checkpoint"]), _output(run["out_loss_csv"])
    result = train(run["config"], cases, run["epochs"])
    save_checkpoint(result.params, checkpoint)
    write_loss_csv(result.history, loss_csv)
    print(
        f"trained {len(result.history)} iterations; best validation loss "
        f"{result.best_val_loss:.6f} at iteration {result.best_iteration}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lungsev argument parser, built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="lungsev",
        description="Volumetric severity quantification for lung CT grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quant = sub.add_parser("quantify", help="compute a severity report for one case")
    p_quant.add_argument("--volume", required=True, help="HU volume file base path")
    p_quant.add_argument("--lobes", required=True, help="lobe label mask file base path")
    p_quant.add_argument("--abnorm", required=True, help="binary abnormality mask file base path")
    p_quant.add_argument("--out", default="report.json")
    p_quant.set_defaults(func=cmd_quantify)

    p_eval = sub.add_parser("evaluate", help="compare predicted and ground truth reports")
    p_eval.add_argument("--gt", required=True, help="directory of ground truth report JSON files")
    p_eval.add_argument("--pred", required=True, help="directory of predicted report JSON files")
    p_eval.add_argument("--out", default="summary.json")
    p_eval.add_argument("--scatter", default=None, help="optional scatter CSV output path")
    p_eval.add_argument("--seed", type=_flag(at_least(0), int), default=0)
    p_eval.add_argument(
        "--positive-list",
        default=None,
        dest="positive_list",
        help="file with one positive case id per line; correlations restrict to these",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_phantom = sub.add_parser("phantom", help="generate synthetic cases with known reports")
    p_phantom.add_argument("--out", required=True)
    p_phantom.add_argument("--count", type=_flag(at_least(1), int), required=True)
    p_phantom.add_argument("--seed", type=_flag(at_least(0), int), default=0)
    p_phantom.add_argument("--dims", type=_flag(_phantom_dims, _ints))
    p_phantom.add_argument("--noise-sigma", type=_flag(nonnegative), dest="noise_sigma")
    p_phantom.set_defaults(func=cmd_phantom)

    p_pre = sub.add_parser("preprocess", help="resample, window, and crop a volume")
    p_pre.add_argument("--volume", required=True)
    p_pre.add_argument("--lobes", required=True)
    p_pre.add_argument("--out", required=True)
    p_pre.add_argument("--box", type=_flag(entries(at_least(1), 3), _ints), default=DEFAULT_BOX)
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
    except (InputError, OSError) as exc:  # a bad input file or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a requested grid larger than memory
        print(f"error: not enough memory: {exc}", file=sys.stderr)
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
