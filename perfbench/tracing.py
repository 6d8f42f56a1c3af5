"""Span tracing for the benchmark's traced pass, applied from outside lungsev.

The program has no timers of its own, so the traced pass rebinds a fixed
list of lungsev's public functions to wrappers that record a span around
each call: every module attribute that holds the original function object
is swapped, and swapped back when the `installed` block ends. The untraced
pass never installs anything.

A span is a dict with its name, start and end (`time.perf_counter`), the
index of the span that was open when it began, a scope tag, and a few
counts (megabytes read, voxels, series length); a call that raised is
marked `failed`. Self time is a span's duration minus the durations of its
direct children.

Run as a script, this module is the traced form of one `lungsev` command:

    python3 perfbench/tracing.py SPANS.json quantify --volume ... --out ...

installs the wrappers for that command, runs `lungsev.cli.main(argv)`
inside a `child.<command>` span, writes the spans to SPANS.json and exits
with the command's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self, scope: str = "main"):
        self.scope = scope
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "scope": self.scope,
            **counts,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, annotate=None):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            with self.span(span_name) as record:
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    record["failed"] = True
                    raise
                if annotate is not None:
                    record.update(annotate(args, kwargs, result))
                return result

        return traced

    def extend(self, spans: list[dict], scope: str) -> None:
        """Append spans recorded by another process, re-based and re-scoped."""
        base = len(self.spans)
        for record in spans:
            record = dict(record, scope=scope)
            if record["parent"] is not None:
                record["parent"] += base
            self.spans.append(record)


def _trilinear_only(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "trilinear")
    # resample_mask calls resample(mode="nearest"); that time stays in its span.
    return "volume.resample_trilinear" if mode == "trilinear" else None


def _mb_read(args, kwargs, result):
    return {"mb": result.data.nbytes / 1e6}


def _voxels(args, kwargs, result):
    return {"voxels": int(args[0].data.size)}


def _pairs(args, kwargs, result):
    return {"pairs": int(args[0].n)}


# Targets per lungsev command: (module, attribute, span name, annotation).
# Only public names that the roadmap keeps appear here.
_VOLUME_READS = [
    ("lungsev.volume", "read_volume", "volume.read_volume", _mb_read),
    ("lungsev.volume", "read_mask", "volume.read_mask", _mb_read),
]
TARGETS = {
    "quantify": _VOLUME_READS
    + [("lungsev.severity", "compute_report", "severity.compute_report", _voxels)],
    "preprocess": _VOLUME_READS
    + [
        ("lungsev.volume", "resample", _trilinear_only, None),
        ("lungsev.volume", "resample_mask", "volume.resample_mask", None),
        ("lungsev.volume", "lung_center", "volume.lung_center", None),
        ("lungsev.volume", "crop_box", "volume.crop_box", None),
        ("lungsev.volume", "clip_normalize", "volume.clip_normalize", None),
        ("lungsev.volume", "write_volume", "volume.write_volume", None),
    ],
    "evaluate": [
        ("lungsev.evaluate", "evaluate_reports", "evaluate.evaluate_reports", None),
        ("lungsev.evaluate", "scatter_rows", "evaluate.scatter", None),
        ("lungsev.evaluate", "write_scatter_csv", "evaluate.scatter", None),
        ("lungsev.stats", "pearson", "stats.pearson", _pairs),
        ("lungsev.stats", "kendall_tau", "stats.kendall_tau", _pairs),
        ("lungsev.stats", "chi2_contingency", "stats.chi2", None),
        ("lungsev.stats", "linfit", "stats.linfit", _pairs),
    ],
    "phantom": [
        ("lungsev.phantom", "generate", "phantom.generate", None),
        ("lungsev.phantom", "oracle_report", "phantom.oracle_report", None),
        ("lungsev.phantom", "write_case", "phantom.write_case", None),
    ],
    "train-toy": [
        ("lungsev.toynet.network", "net_forward", "toynet.forward", None),
        ("lungsev.toynet.tensor", "Tensor.backward", "toynet.backward", None),
        ("lungsev.toynet.optim", "optimizer_step", "toynet.optimizer_step", None),
        ("lungsev.toynet.train", "save_checkpoint", "toynet.checkpoint_write", None),
    ],
}


@contextmanager
def installed(tracer: Tracer, targets):
    """Rebind every lungsev module attribute holding a target to its wrapper."""
    import lungsev.cli  # noqa: F401  (loads every module that may hold a binding)

    patches = []
    try:
        for module_name, attr, name, annotate in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: patch the class attribute
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, method)
                patches.append((cls, method, original))
                setattr(cls, method, tracer.wrap(original, name, annotate))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, name, annotate)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "lungsev" and not mod_name.startswith("lungsev."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def self_times(spans: list[dict]) -> list[float]:
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    return [r["end"] - r["start"] - c for r, c in zip(spans, child_time)]


def roots(spans: list[dict]) -> list[int]:
    """Index of the outermost enclosing span of each span."""
    out = []
    for i, record in enumerate(spans):
        parent = record["parent"]
        out.append(i if parent is None else out[parent])
    return out


def span_table(spans: list[dict]) -> dict:
    """Per span name and scope: count, total and median self time."""
    selfs = self_times(spans)
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for record, own in zip(spans, selfs):
        key = (record["name"], record["scope"])
        groups.setdefault(key, []).append((record["end"] - record["start"], own))
    return {
        f"{name}@{scope}": {
            "count": len(rows),
            "total_s": sum(r[0] for r in rows),
            "self_s": sum(r[1] for r in rows),
            "median_self_s": median(r[1] for r in rows),
        }
        for (name, scope), rows in sorted(groups.items())
    }


def main(argv: list[str]) -> int:
    spans_path, command = Path(argv[0]), argv[1]
    from lungsev import cli

    tracer = Tracer()
    with installed(tracer, TARGETS[command]):
        with tracer.span("child." + command):
            code = cli.main(argv[1:])
    spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
