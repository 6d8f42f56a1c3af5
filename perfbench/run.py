#!/usr/bin/env python3
"""End-to-end and per-module benchmark for lungsev.

    python3 perfbench/run.py --workload fullsize|cohort|train --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: commands run as
`python -m lungsev.cli` with `src` on PYTHONPATH, and in-process calls go
through `lungsev.cli.main`. The workload's inputs are made from --seed, then
whole rounds of the workload's operations repeat until --seconds have
passed; every output is checked against values computed apart from the
program. With --trace 1 one more round runs with spans around lungsev's
public functions (see tracing.py) and the per-layer metrics are printed
instead of the end-to-end ones. The last line of stdout is the JSON result;
the line before it holds the machine facts and details. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import chest
import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("fullsize", "cohort", "train")

PREPROCESS_SAMPLES = 20000

# cohort: small cases at the CLI's default size; one in COHORT_BAD_EVERY has a
# volume header whose spacing_mm holds a non-numeric entry.
COHORT_SIZE = 800
COHORT_DIMS = (16, 28, 28)
COHORT_BAD_EVERY = 40
COHORT_SHARDS = 8
COHORT_TRACED_SETUP = 40
SMALL_BOX = (8, 32, 32)

# small set: the training data of `train`, and the inputs other workloads
# use for the commands their own inputs do not cover.
SMALL_COUNT = 10
SMALL_DIMS = "8,32,32"
SMALL_NOISE_HU = "10"
TRAIN_EPOCHS = 4
SMALL_SETUP_REPEATS = 3
# Per round: small-case children and cohort evaluates are interleaved, and
# so are the small-set passes, so that each metric's samples are spread
# over the round instead of taken in one stretch of a noisy machine.
CHILD_CASES = 6
COHORT_EVALUATES = 12
SMALL_EVALUATES = 2
FULLSIZE_SMALL_PASSES = 3
OP_REPLAYS = 3


class Bench:
    """Runs one pass of operations and collects samples, checks and digests."""

    def __init__(self, work: Path, seed: int, sink, spawner, tracer: tracing.Tracer | None = None):
        from lungsev import cli

        self.cli = cli
        self.spawner = spawner
        self.work = work
        self.seed = seed
        self.sink = sink
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.op_seconds = 0.0
        self.first_outputs: dict[str, object] = {}
        self.notes: list[str] = []
        self.replay: dict[tuple[str, str], float] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    # -- operations ---------------------------------------------------------

    def child(self, argv: list, scope: str = "main", counted: bool = True):
        """One `lungsev` command in its own process: (seconds, peak MB, exit code).

        Set-up commands are not counted, so that attempted and failed cover
        whole rounds only and the failed share is the same in every run.
        """
        argv = [str(a) for a in argv]
        self.attempted += counted
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lungsev.cli", *argv]
        else:
            spans_path = self.work / "spans.json"
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *argv]
        err_path = self.work / "child_stderr.txt"
        request = {"cmd": cmd, "env": self.env, "cwd": str(ROOT), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        seconds, code = reply["seconds"], reply["code"]
        self.op_seconds += seconds
        if code != 0:
            self.failed += counted
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.note(f"{argv[0]} exited {code}: {tail}")
        elif self.tracer is not None:
            self.tracer.extend(json.loads(spans_path.read_text()), scope)
        return seconds, reply["maxrss_kb"] / 1024.0, code

    def call(self, argv: list, scope: str = "main"):
        """One in-process `lungsev.cli.main` call: (seconds, exit code)."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        with redirect_stdout(self.sink), redirect_stderr(self.sink):
            if self.tracer is None:
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                seconds = time.perf_counter() - t0
            else:
                self.tracer.scope = scope
                t0 = time.perf_counter()
                with self.tracer.span("cli." + argv[0]):
                    code = self.cli.main(argv)
                seconds = time.perf_counter() - t0
        self.op_seconds += seconds
        return seconds, code

    def note(self, text: str) -> None:
        """Keep the first few messages of failed operations for the details line."""
        if len(self.notes) < 20:
            self.notes.append(text)

    def check(self, what: str, errors: list[str]) -> None:
        self.errors += [f"{what}: {e}" for e in errors[:5]]

    def digest(self, key: str, data: bytes) -> None:
        """Record an output's hash; the same output must not change between rounds."""
        value = hashlib.sha256(data).hexdigest()
        previous = self.digests.setdefault(key, value)
        if previous != value:
            self.errors.append(f"{key}: output changed between rounds")


def report_digest(text: str) -> bytes:
    """A quantify report without its wall_time_s, the one field that is a timing."""
    payload = json.loads(text)
    payload.pop("wall_time_s", None)
    return json.dumps(payload, indent=2).encode()


def grid_digest(base: Path) -> bytes:
    h = hashlib.sha256(base.with_suffix(".json").read_bytes())
    with open(base.with_suffix(".raw"), "rb") as fh:
        for block in iter(lambda: fh.read(1 << 24), b""):
            h.update(block)
    return h.digest()


def tree_digest(root: Path) -> bytes:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.digest()


# ---------------------------------------------------------------------------
# shared operations
# ---------------------------------------------------------------------------

def quantify_child(b: Bench, case: Path, out: Path, counts: dict, scope="main") -> None:
    seconds, peak, code = b.child(
        ["quantify", "--volume", case / "volume", "--lobes", case / "lobes",
         "--abnorm", case / "abnorm", "--out", out], scope)
    if code != 0:
        return
    b.samples["quantify_case_s"].append(seconds)
    b.samples["quantify_peak_rss_mb"].append(peak)
    text = out.read_text()
    report = json.loads(text)
    spacing = json.loads((case / "volume.json").read_text())["spacing_mm"]
    b.check(f"quantify {case.name}", checks.check_report(report, counts, spacing))
    b.first_outputs.setdefault("report", (report, counts, spacing))
    b.digest(f"report:{out.name}", report_digest(text))


def preprocess_child(b: Bench, case: Path, out: Path, box=None, scope="main") -> None:
    argv = ["preprocess", "--volume", case / "volume", "--lobes", case / "lobes", "--out", out]
    if box is not None:
        argv += ["--box", ",".join(map(str, box))]
    seconds, peak, code = b.child(argv, scope)
    if code != 0:
        return
    b.samples["preprocess_case_s"].append(seconds)
    b.samples["preprocess_peak_rss_mb"].append(peak)
    errors, got, want = checks.preprocess_samples(
        out, case, box or (384, 384, 384), PREPROCESS_SAMPLES, b.seed)
    b.check(f"preprocess {case.name}", errors + checks.compare_samples(got, want))
    b.first_outputs.setdefault("samples", (got, want))
    b.digest(f"preprocess:{out.name}", grid_digest(out))
    out.with_suffix(".raw").unlink()


class ReferenceCounts:
    """Independent per-lobe counts of a small case's files, computed once."""

    def __init__(self):
        self.counts = {}

    def __call__(self, case: Path, mask: str) -> dict:
        key = (case, mask)
        if key not in self.counts:
            volume, _ = checks.read_raw(case / "volume")
            lobes, _ = checks.read_raw(case / "lobes")
            abnorm, _ = checks.read_raw(case / mask)
            self.counts[key] = checks.reference_counts(volume, lobes, abnorm)
        return self.counts[key]


class SmallSet:
    """`lungsev phantom` cases at 8x32x32 plus a noisy predicted mask for each."""

    def __init__(self, root: Path):
        self.root = root
        self.cases = sorted(p for p in root.iterdir() if p.is_dir())
        self.oracles = {c.name: json.loads((c / "oracle.json").read_text()) for c in self.cases}
        self.positives = {n for n, o in self.oracles.items() if o["abnormal_volume_mm3"] > 0}
        self.reference = ReferenceCounts()


def make_small_set(b: Bench, root: Path, scope="main") -> float:
    """Write the small set with one `lungsev phantom` child; return its set-up time.

    The predicted masks come from phantom.make_noisy_prediction; the grids
    are read with checks.read_raw so that no traced reader runs here.
    """
    from lungsev import phantom, severity, volume

    t0 = time.perf_counter()
    _, _, code = b.child(
        ["phantom", "--out", root, "--count", SMALL_COUNT, "--seed", b.seed,
         "--dims", SMALL_DIMS, "--noise-sigma", SMALL_NOISE_HU], scope, counted=False)
    if code != 0:
        raise RuntimeError("could not write the small set")
    for i, case_dir in enumerate(sorted(p for p in root.iterdir() if p.is_dir())):
        grids = {name: checks.read_raw(case_dir / name) for name in ("volume", "lobes", "abnorm")}
        case = phantom.PhantomCase(
            volume=volume.Volume(*grids["volume"]),
            lobes=volume.LabelMask(*grids["lobes"]),
            abnorm_gt=volume.LabelMask(*grids["abnorm"], allowed_labels=(1,)),
            oracle=severity.SeverityReport.from_json_dict(
                json.loads((case_dir / "oracle.json").read_text())),
        )
        pred = phantom.make_noisy_prediction(case, dilate_vox=i % 2, erode_vox=1 - i % 2, seed=b.seed + i)
        volume.write_volume(pred, case_dir / "abnorm_pred")
    seconds = time.perf_counter() - t0
    b.digest(f"{scope}:small_set", tree_digest(root))
    return seconds


def quantify_calls(b: Bench, cases, out: Path, reference, oracles=None, bad=frozenset(), scope="main"):
    """In-process quantify of every case, on its ground-truth and predicted masks."""
    for case in cases:
        for mask, sub in (("abnorm", "gt"), ("abnorm_pred", "pred")):
            report_path = out / sub / f"{case.name}.json"
            seconds, code = b.call(
                ["quantify", "--volume", case / "volume", "--lobes", case / "lobes",
                 "--abnorm", case / mask, "--out", report_path], scope)
            b.samples["inproc_quantify_s"].append(seconds)
            if case.name in bad:
                # The header is malformed: the right outcome is exit 2, no report.
                if code == 3:
                    b.failed += 1
                elif code != 2 or report_path.exists():
                    b.errors.append(f"{case.name}: malformed header gave exit {code}")
                continue
            if code != 0:
                b.failed += 1
                b.note(f"in-process quantify {case.name} exited {code}")
                continue
            text = report_path.read_text()
            report = json.loads(text)
            counts = reference(case, mask)
            spacing = json.loads((case / "lobes.json").read_text())["spacing_mm"]
            b.check(f"report {sub}/{case.name}", checks.check_report(report, counts, spacing))
            if oracles is not None and sub == "gt":
                b.check(f"oracle {case.name}", checks.check_against_oracle(report, oracles[case.name]))
            b.digest(f"{scope}:{sub}:{case.name}", report_digest(text))


def evaluate_calls(b: Bench, out: Path, positives: set[str], scope="main", repeats=1) -> None:
    gt_dir, pred_dir = out / "gt", out / "pred"
    pos_path = out / "positives.txt"
    pos_path.write_text("".join(f"{p}\n" for p in sorted(positives)))
    summary_path, scatter_path = out / "summary.json", out / "scatter.csv"
    for _ in range(repeats):
        if b.tracer is not None:
            load_reports_traced(b, (gt_dir, pred_dir), scope)
        seconds, code = b.call(
            ["evaluate", "--gt", gt_dir, "--pred", pred_dir, "--out", summary_path,
             "--scatter", scatter_path, "--positive-list", pos_path, "--seed", b.seed], scope)
        if code != 0:
            b.failed += 1
            b.note(f"evaluate exited {code}")
            continue
        b.samples["evaluate_s"].append(seconds)
        summary_text = summary_path.read_text()
        scatter_text = scatter_path.read_text()
        unseen = f"{scope}:summary" not in b.digests  # later outputs must be identical
        b.digest(f"{scope}:summary", summary_text.encode())
        b.digest(f"{scope}:scatter", scatter_text.encode())
        if unseen:
            summary = json.loads(summary_text)
            gt = {p.stem: json.loads(p.read_text()) for p in gt_dir.glob("*.json")}
            pred = {p.stem: json.loads(p.read_text()) for p in pred_dir.glob("*.json")}
            b.check("evaluate summary", checks.check_summary(summary, gt, pred, positives))
            b.check("scatter CSV", checks.check_scatter(scatter_text, summary))
            b.first_outputs.setdefault("evaluation", (summary, gt, pred, positives, scatter_text))


def load_reports_traced(b: Bench, dirs, scope: str) -> None:
    """What `evaluate` does before any statistic: parse every report JSON."""
    from lungsev.severity import SeverityReport

    b.tracer.scope = scope
    with b.tracer.span("cli.report_load"):
        for directory in dirs:
            for path in sorted(directory.glob("*.json")):
                SeverityReport.from_json_dict(json.loads(path.read_text()))


def train_child(b: Bench, small: SmallSet, out: Path, scope="main") -> None:
    from lungsev.toynet import NetConfig, init_params, load_checkpoint

    out.mkdir(parents=True, exist_ok=True)
    config = {
        "data_dir": str(small.root),
        "epochs": TRAIN_EPOCHS,
        "out_checkpoint": str(out / "ckpt"),
        "out_loss_csv": str(out / "loss.csv"),
        "seed": b.seed,
    }
    config_path = out / "train.json"
    config_path.write_text(json.dumps(config))
    seconds, peak, code = b.child(["train-toy", "--config", config_path], scope)
    if code != 0:
        return
    n_val = max(1, round(0.1 * len(small.cases)))
    per_epoch = len(small.cases) - n_val
    b.samples["train_iter_s"].append(seconds / (TRAIN_EPOCHS * per_epoch))
    b.samples["train_peak_rss_mb"].append(peak)
    loss_csv = (out / "loss.csv").read_text()
    b.check("training", checks.check_training(loss_csv, TRAIN_EPOCHS, per_epoch))
    expected = init_params(NetConfig(seed=b.seed))
    b.check("checkpoint", checks.check_checkpoint(load_checkpoint(out / "ckpt"), expected))
    b.first_outputs.setdefault("training", (loss_csv, TRAIN_EPOCHS, per_epoch))
    b.digest(f"{scope}:loss.csv", loss_csv.encode())
    b.digest(f"{scope}:checkpoint", (out / "ckpt.raw").read_bytes() + (out / "ckpt.json").read_bytes())


def small_children(b: Bench, case: Path, reference, out: Path, scope="main") -> None:
    """A `quantify` and a `preprocess --box 8,32,32` child on one small case."""
    out.mkdir(parents=True, exist_ok=True)
    quantify_child(b, case, out / f"{case.name}.json", reference(case, "abnorm"), scope)
    preprocess_child(b, case, out / f"{case.name}_pre", SMALL_BOX, scope)


def small_pass(b: Bench, small: SmallSet, out: Path, scope="main") -> None:
    """In-process quantify of every small case on both masks, then evaluate."""
    quantify_calls(b, small.cases, out, small.reference, small.oracles, scope=scope)
    evaluate_calls(b, out, small.positives, scope, repeats=SMALL_EVALUATES)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Fullsize:
    """Full-size chest CTs through `quantify` and `preprocess` child processes."""

    def setup(self, b: Bench, inputs: Path) -> list[float]:
        self.cases, self.refs, times = [], [], []
        for i, kind in enumerate(chest.CASE_KINDS):
            t0 = time.perf_counter()
            ref = chest.write_case(kind, b.seed * 100 + i, inputs / f"chest_{i}_{kind.name}")
            times.append(time.perf_counter() - t0)
            self.cases.append(inputs / f"chest_{i}_{kind.name}")
            self.refs.append(ref)
        make_small_set(b, inputs / "small", scope="aux")
        self.small = SmallSet(inputs / "small")
        return times

    def round(self, b: Bench, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        # The small-set calls are spread between the cases, so that their
        # samples are not all taken in one stretch of the round.
        for case, ref in zip(self.cases, self.refs):
            quantify_child(b, case, out / f"{case.name}.json", ref)
            preprocess_child(b, case, out / f"{case.name}_pre")
            for _ in range(FULLSIZE_SMALL_PASSES):
                small_pass(b, self.small, out / "small", scope="aux")
        train_child(b, self.small, out / "train", scope="aux")

    def traced_extras(self, b: Bench, out: Path) -> None:
        make_small_set(b, out / "small_set", scope="aux")
        mask_validate(b, self.cases)
        op_replay(b, self.small, "aux")

    def describe(self) -> dict:
        return {
            "cases": [
                {"case": c.name, "lung_box_share": round(r["lung_box_share"], 3),
                 "lesions": r["lesions"]}
                for c, r in zip(self.cases, self.refs)
            ]
        }


class Cohort:
    """Many small cases quantified in process, then `evaluate` on the reports."""

    def _write(self, b: Bench, index: int, case_dir: Path) -> None:
        from lungsev import phantom, volume

        case_seed = b.seed * 100000 + index
        spec = phantom.random_spec(case_seed, dims=COHORT_DIMS, noise_sigma_hu=10.0)
        case = phantom.generate(spec)
        phantom.write_case(case, case_dir)
        pred = phantom.make_noisy_prediction(
            case, dilate_vox=index % 3, erode_vox=(index // 3) % 2, seed=case_seed)
        volume.write_volume(pred, case_dir / "abnorm_pred")
        if index % COHORT_BAD_EVERY == COHORT_BAD_EVERY // 2:
            header_path = case_dir / "volume.json"
            header = json.loads(header_path.read_text())
            header["spacing_mm"][2] = "1.0mm"
            header_path.write_text(json.dumps(header) + "\n")

    def setup(self, b: Bench, inputs: Path) -> list[float]:
        root = inputs / "cohort"
        times = []
        per_shard = COHORT_SIZE // COHORT_SHARDS
        for shard in range(COHORT_SHARDS):
            t0 = time.perf_counter()
            for index in range(shard * per_shard, (shard + 1) * per_shard):
                self._write(b, index, root / f"case_{index:04d}")
            times.append(time.perf_counter() - t0)
        for index in range(COHORT_TRACED_SETUP):  # compared with the traced set-up
            b.digest(f"cohort_case_{index}", tree_digest(root / f"case_{index:04d}"))
        self.cases = sorted(root.iterdir())
        self.bad = {c.name for i, c in enumerate(self.cases)
                    if i % COHORT_BAD_EVERY == COHORT_BAD_EVERY // 2}
        self.good = [c for c in self.cases if c.name not in self.bad]
        self.oracles = {c.name: json.loads((c / "oracle.json").read_text()) for c in self.good}
        self.positives = {n for n, o in self.oracles.items() if o["abnormal_volume_mm3"] > 0}
        self.reference = ReferenceCounts()
        make_small_set(b, inputs / "small", scope="aux")
        self.small = SmallSet(inputs / "small")
        return times

    def round(self, b: Bench, out: Path) -> None:
        quantify_calls(b, self.cases, out, self.reference, self.oracles, self.bad)
        for k in range(COHORT_EVALUATES):
            evaluate_calls(b, out, self.positives)
            if k % 2 == 0:
                small_children(b, self.good[k // 2], self.reference, out / "children")
        train_child(b, self.small, out / "train", scope="aux")

    def traced_extras(self, b: Bench, out: Path) -> None:
        regen = out / "cohort_regen"
        b.tracer.scope = "main"
        for index in range(COHORT_TRACED_SETUP):
            self._write(b, index, regen / f"case_{index:04d}")
            b.digest(f"cohort_case_{index}", tree_digest(regen / f"case_{index:04d}"))
        make_small_set(b, out / "small_set", scope="aux")
        mask_validate(b, self.good[:COHORT_TRACED_SETUP])
        op_replay(b, self.small, "aux")

    def describe(self) -> dict:
        return {"cases": len(self.cases), "malformed": len(self.bad),
                "lesion_bearing": len(self.positives)}


class Train:
    """`lungsev phantom` writes the training set; `lungsev train-toy` trains on it."""

    def setup(self, b: Bench, inputs: Path) -> list[float]:
        # Set up several times and keep the first copy; the digests must agree.
        times = [make_small_set(b, inputs / f"small_{r}") for r in range(SMALL_SETUP_REPEATS)]
        for r in range(1, SMALL_SETUP_REPEATS):
            shutil.rmtree(inputs / f"small_{r}")
        self.small = SmallSet(inputs / "small_0")
        return times

    def round(self, b: Bench, out: Path) -> None:
        train_child(b, self.small, out / "train")
        for case in self.small.cases[:CHILD_CASES]:
            small_children(b, case, self.small.reference, out / "children")
            small_pass(b, self.small, out / "small")

    def traced_extras(self, b: Bench, out: Path) -> None:
        make_small_set(b, out / "small_set")
        mask_validate(b, self.small.cases)
        op_replay(b, self.small, "main")

    def describe(self) -> dict:
        return {"training_cases": len(self.small.cases), "epochs": TRAIN_EPOCHS,
                "lesion_bearing": len(self.small.positives)}


# ---------------------------------------------------------------------------
# traced-pass replays
# ---------------------------------------------------------------------------

def mask_validate(b: Bench, cases) -> None:
    """Time LabelMask construction on lobe arrays already in memory."""
    from lungsev.volume import LabelMask

    b.tracer.scope = "main"
    for case in cases:
        lobes, spacing = checks.read_raw(case / "lobes")
        with b.tracer.span("volume.mask_validate"):
            LabelMask(lobes, spacing)
        del lobes


def op_replay(b: Bench, small: SmallSet, scope: str) -> None:
    """Per-op forward and backward times at the shapes the default network uses.

    One forward pass of the default network on a training sample records
    the arguments of every conv3d, transpose_conv3d and channel_norm call;
    each call is then replayed on fresh tensors, forward and then backward
    through a sum, and the median of OP_REPLAYS replays is summed per kind.
    """
    from lungsev import toynet
    from lungsev.toynet import network

    config = toynet.NetConfig(seed=b.seed)
    params = toynet.init_params(config)
    volume, _ = checks.read_raw(small.cases[0] / "volume")
    abnorm, _ = checks.read_raw(small.cases[0] / "abnorm")
    lobes, _ = checks.read_raw(small.cases[0] / "lobes")
    x = np.clip((volume.astype(np.float64) + 1350.0) / 1500.0, 0.0, 1.0)[None, None]
    calls = []

    def recorder(kind, fn):
        def record(*args, **kwargs):
            calls.append((kind, fn, args, kwargs))
            return fn(*args, **kwargs)
        return record

    originals = {n: getattr(network, n) for n in ("conv3d", "transpose_conv3d", "channel_norm")}
    try:
        for name, fn in originals.items():
            setattr(network, name, recorder(name, fn))
        probs = toynet.net_forward(toynet.Tensor(x), params, config)
    finally:
        for name, fn in originals.items():
            setattr(network, name, fn)

    rng = np.random.default_rng(b.seed)

    def fresh(t):
        return toynet.Tensor(rng.standard_normal(t.data.shape), requires_grad=True)

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    totals = defaultdict(float)
    flops = 0.0
    for kind, fn, args, kwargs in calls:
        fwd, bwd = [], []
        for _ in range(OP_REPLAYS):
            tensors = [fresh(a) if isinstance(a, toynet.Tensor) else a for a in args]
            seconds, out = timed(lambda: fn(*tensors, **kwargs))
            fwd.append(seconds)
            root = toynet.tsum(out)
            bwd.append(timed(root.backward)[0])
        label = {"conv3d": "conv3d", "transpose_conv3d": "tconv3d", "channel_norm": "norm"}[kind]
        if label == "norm":
            totals["norm"] += median(fwd) + median(bwd)
        else:
            totals[label + "_fwd"] += median(fwd)
            totals[label + "_bwd"] += median(bwd)
            # A conv's weights meet every output voxel, a transpose conv's every
            # input voxel; backward costs twice the forward (weight and input).
            grid = out.data.shape if label == "conv3d" else args[0].data.shape
            voxels = grid[0] * int(np.prod(grid[2:]))
            flops += 3 * 2.0 * args[1].data.size * voxels
    loss_times = []
    for _ in range(OP_REPLAYS):
        p = toynet.Tensor(probs.data.copy(), requires_grad=True)
        seconds, loss = timed(lambda: toynet.jaccard_loss(
            toynet.take_channel(p, 1), (abnorm > 0)[None, None], (lobes > 0)[None, None]))
        loss_times.append(seconds + timed(loss.backward)[0])
    totals["loss"] = median(loss_times)
    for key, value in totals.items():
        b.replay[(scope, f"toynet.{key}_s")] = value
    b.replay[(scope, "toynet.gflop_per_iter")] = flops / 1e9


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(b: Bench, setup_times: list[float]) -> dict:
    s = b.samples
    values = {
        "setup_s": median(setup_times),
        "quantify_case_s": median(s["quantify_case_s"]),
        "quantify_peak_rss_mb": median(s["quantify_peak_rss_mb"]),
        "preprocess_case_s": median(s["preprocess_case_s"]),
        "preprocess_peak_rss_mb": median(s["preprocess_peak_rss_mb"]),
        "cohort_quantify_per_s": 1.0 / median(s["inproc_quantify_s"]),
        "evaluate_s": median(s["evaluate_s"]),
        "train_iter_s": median(s["train_iter_s"]),
        "train_peak_rss_mb": median(s["train_peak_rss_mb"]),
    }
    return with_units(values, "end_to_end")


PER_LAYER_SPANS = {
    # metric: (span name, how) -- "self": median self time per call,
    # "total": median duration per call, "per_op": median over the
    # outermost operations of the summed self time.
    "volume.read_volume_s": ("volume.read_volume", "self"),
    "volume.read_mask_s": ("volume.read_mask", "self"),
    "volume.mask_validate_s": ("volume.mask_validate", "self"),
    "volume.resample_trilinear_s": ("volume.resample_trilinear", "self"),
    "volume.resample_mask_s": ("volume.resample_mask", "self"),
    "volume.lung_center_s": ("volume.lung_center", "self"),
    "volume.crop_box_s": ("volume.crop_box", "self"),
    "volume.clip_normalize_s": ("volume.clip_normalize", "self"),
    "volume.write_volume_s": ("volume.write_volume", "self"),
    "severity.compute_report_s": ("severity.compute_report", "self"),
    "cli.quantify_call_s": ("cli.quantify", "total"),
    "cli.quantify_other_s": ("cli.quantify", "self"),
    "cli.report_load_s": ("cli.report_load", "self"),
    "evaluate.evaluate_reports_s": ("evaluate.evaluate_reports", "self"),
    "evaluate.scatter_s": ("evaluate.scatter", "per_op"),
    "stats.pearson_s": ("stats.pearson", "per_op"),
    "stats.kendall_tau_s": ("stats.kendall_tau", "per_op"),
    "stats.chi2_s": ("stats.chi2", "per_op"),
    "stats.linfit_s": ("stats.linfit", "per_op"),
    "phantom.generate_s": ("phantom.generate", "self"),
    "phantom.oracle_report_s": ("phantom.oracle_report", "self"),
    "phantom.write_case_s": ("phantom.write_case", "self"),
    "toynet.forward_s": ("toynet.forward", "self"),
    "toynet.backward_s": ("toynet.backward", "self"),
    "toynet.optimizer_step_s": ("toynet.optimizer_step", "self"),
    "toynet.checkpoint_write_s": ("toynet.checkpoint_write", "self"),
}
PER_LAYER_REPLAY = (
    "toynet.conv3d_fwd_s", "toynet.conv3d_bwd_s", "toynet.tconv3d_fwd_s",
    "toynet.tconv3d_bwd_s", "toynet.norm_s", "toynet.loss_s", "toynet.gflop_per_iter",
)


def per_layer(b: Bench, overhead_pct: float) -> dict:
    spans = b.tracer.spans
    selfs = tracing.self_times(spans)
    outer = tracing.roots(spans)

    def rows(name):
        found = [i for i, s in enumerate(spans) if s["name"] == name and not s.get("failed")]
        main = [i for i in found if spans[i]["scope"] == "main"]
        if not (main or found):
            raise RuntimeError(f"traced pass recorded no {name} span")
        return main or found

    values = {}
    for metric, (name, how) in PER_LAYER_SPANS.items():
        idx = rows(name)
        if how == "self":
            values[metric] = median(selfs[i] for i in idx)
        elif how == "total":
            values[metric] = median(spans[i]["end"] - spans[i]["start"] for i in idx)
        else:
            per_op = defaultdict(float)
            for i in idx:
                per_op[outer[i]] += selfs[i]
            values[metric] = median(per_op.values())
    values["volume.read_mb"] = median(spans[i]["mb"] for i in rows("volume.read_volume"))
    values["severity.mvox_per_s"] = median(
        spans[i]["voxels"] / selfs[i] / 1e6 for i in rows("severity.compute_report"))
    values["stats.pairs"] = median(spans[i]["pairs"] for i in rows("stats.pearson"))
    for metric in PER_LAYER_REPLAY:
        values[metric] = b.replay.get(("main", metric), b.replay.get(("aux", metric)))
    values["trace.overhead_pct"] = overhead_pct
    return with_units(values, "per_layer")


def with_units(values: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the metric sets must match."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def sample_summary(values: list[float]) -> dict:
    """Sample count, median and quartiles of one timing or memory series."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}


def machine_facts() -> dict:
    blas_threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    blas_threads = fn()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def clear_stale_work() -> None:
    if not WORK_ROOT.is_dir():
        return
    for entry in WORK_ROOT.iterdir():
        try:
            pid = int(entry.name.rsplit("-", 1)[1])
            os.kill(pid, 0)
        except (IndexError, ValueError, ProcessLookupError):
            shutil.rmtree(entry, ignore_errors=True)
        except PermissionError:
            pass


def run(args) -> dict:
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    clear_stale_work()
    inputs, plain, traced = work / "inputs", work / "plain", work / "traced"
    for d in (inputs, plain, traced):
        d.mkdir(parents=True)
    workload = {"fullsize": Fullsize, "cohort": Cohort, "train": Train}[args.workload]()
    sink = open(os.devnull, "w")
    spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT, text=True,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        b = Bench(work, args.seed, sink, spawner)
        setup_times = workload.setup(b, inputs)
        os.sync()  # write the inputs out now, not while operations are timed
        t0 = time.perf_counter()
        rounds, round_seconds = 0, []
        while True:
            before = b.op_seconds
            workload.round(b, plain)
            round_seconds.append(b.op_seconds - before)
            rounds += 1
            if time.perf_counter() - t0 >= args.seconds:
                break
        missed = checks.self_test(
            *b.first_outputs["report"],
            b.first_outputs.get("samples"),
            b.first_outputs.get("evaluation"),
            b.first_outputs.get("training"),
        )
        b.errors += missed
        attempted, failed = b.attempted, b.failed
        detail = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                  "round_op_seconds": round_seconds, **machine_facts(), **workload.describe(),
                  "samples": {k: sample_summary(v) for k, v in sorted(b.samples.items())}}
        if not args.trace:
            metrics = end_to_end(b, setup_times)
            errors = b.errors
        else:
            t = Bench(work, args.seed, sink, spawner, tracing.Tracer())
            in_process = [target for command in ("quantify", "evaluate", "phantom")
                          for target in tracing.TARGETS[command]]
            with tracing.installed(t.tracer, in_process):
                workload.round(t, traced)
                traced_seconds = t.op_seconds
                workload.traced_extras(t, traced)
            untraced_seconds = median(round_seconds)
            overhead = 100.0 * (traced_seconds - untraced_seconds) / untraced_seconds
            metrics = per_layer(t, overhead)
            errors = b.errors + t.errors
            for key, value in t.digests.items():
                if b.digests.get(key) != value:
                    errors.append(f"{key}: traced and untraced runs differ")
            attempted += t.attempted
            failed += t.failed
            detail["traced_op_seconds"] = traced_seconds
            detail["spans"] = tracing.span_table(t.tracer.spans)
        detail["errors"] = errors[:20]
        detail["notes"] = b.notes + (t.notes if args.trace else [])
        print(json.dumps(detail))
        return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()
        sink.close()
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lungsev" / "cli.py").is_file():
        print(f"error: no lungsev sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
