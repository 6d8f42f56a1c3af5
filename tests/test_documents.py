"""Property test of the parse boundary over the four kinds of JSON document.

Each example mutates one valid document (grid header, severity report,
train config, checkpoint manifest) at one place: it drops a
key, changes a type, inserts NaN or an infinity, negates a number, makes a
list too long or too short, nests a value one level too deep, or puts a
value nested deeper than the JSON decoder can follow in its place. A document
that its reader rejects on its own must make the command exit 2 with the
file's path in the one-line message; one that it accepts must be used as
usual. Nothing may exit 3.
"""

import contextlib
import copy
import functools
import io
import json
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungsev import phantom
from lungsev.cli import _train_run, main
from lungsev.errors import HeaderError, InputError, read_json
from lungsev.severity import SeverityReport
from lungsev.toynet import NetConfig, init_params, load_checkpoint, save_checkpoint
from lungsev.volume import read_mask, read_volume

EXAMPLES = settings(max_examples=40, deadline=None)

# A value nested deeper than json.load can recurse; json.dumps cannot write
# one, so a placeholder string stands for it until the text is written.
DEEP = "[" * 100000 + "]" * 100000
DEEP_PLACEHOLDER = "\x00deep"

MUTATIONS = st.sampled_from(["drop", "negate", "lengthen", "shorten", "in_list", "in_object",
                             "deep"]) | st.sampled_from(
    ["text", 7, 2.5, True, None, [], {}, math.nan, math.inf, -math.inf]
).map(lambda value: ("replace", value))


def _paths(node, prefix=()):
    """The path to every node under `node` in a JSON tree."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _changed(value, change):
    if change == "negate":
        return -value if type(value) in (int, float) and value else -1
    if change == "lengthen":
        return value + [value[-1] if value else 0] if type(value) is list else [value, value]
    if change == "shorten":
        return value[:-1] if type(value) is list else []
    if change == "in_list":
        return [value]
    if change == "in_object":
        return {"value": value}
    if change == "deep":
        return DEEP_PLACEHOLDER
    return change[1]


def mutated(data, doc):
    """`doc` with one change, drawn from `data`, at one of its nodes or its root."""
    path = data.draw(st.sampled_from([()] + list(_paths(doc))))
    change = data.draw(MUTATIONS)
    doc = copy.deepcopy(doc)
    if not path:
        return {} if change == "drop" else _changed(doc, change)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if change == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _changed(parent[path[-1]], change)
    return doc


@contextlib.contextmanager
def replaced(path, doc):
    """Hold `doc` as the JSON text of `path`, then put the original text back."""
    original = path.read_text()
    path.write_text(json.dumps(doc).replace(json.dumps(DEEP_PLACEHOLDER), DEEP))
    try:
        yield
    finally:
        path.write_text(original)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def reject_message(read, path):
    """The message `read(path)` raises for the file on its own, or None if it reads."""
    try:
        read(path)
    except InputError as exc:
        return str(exc)
    return None


def check_outcome(code, err, path, rejected, accepted_codes=(0,)):
    assert "Traceback" not in err
    if rejected is not None:
        assert rejected.startswith(str(path))
        assert code == 2
        assert f"error: {path}" in err and len(err.strip().splitlines()) == 1
    else:
        assert code in accepted_codes, err


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    for i in range(3):
        case = phantom.generate(phantom.random_spec(40 + i, dims=(10, 16, 16), n_lesions=2))
        phantom.write_case(case, root / f"case_{i}")
    for sub in ("gt", "pred"):
        for i in range(3):
            case_dir = root / f"case_{i}"
            assert run(["quantify", "--volume", case_dir / "volume", "--lobes", case_dir / "lobes",
                        "--abnorm", case_dir / "abnorm", "--out", root / sub / f"case_{i}.json"])[0] == 0
    return root


GRID_READERS = {
    "volume": read_volume,
    "lobes": read_mask,
    "abnorm": functools.partial(read_mask, allowed_labels=(1,)),
}


@EXAMPLES
@given(data=st.data(), grid=st.sampled_from(sorted(GRID_READERS)))
def test_mutated_grid_header(cases, data, grid):
    case_dir = cases / "case_0"
    header = case_dir / f"{grid}.json"
    with replaced(header, mutated(data, json.loads(header.read_text()))):
        rejected = reject_message(GRID_READERS[grid], case_dir / grid)
        code, err = run(["quantify", "--volume", case_dir / "volume", "--lobes", case_dir / "lobes",
                         "--abnorm", case_dir / "abnorm", "--out", cases / "report.json"])
    check_outcome(code, err, header, rejected, accepted_codes=(0, 2))
    if rejected is None and code == 2:
        # A header that reads on its own can still disagree with the other
        # grids; that message gives both geometries and names both files.
        assert "error: geometry mismatch" in err
        assert f"{case_dir / grid}: dims " in err


@EXAMPLES
@given(data=st.data())
def test_mutated_report(cases, data):
    report = cases / "pred" / "case_1.json"
    with replaced(report, mutated(data, json.loads(report.read_text()))):
        rejected = reject_message(functools.partial(read_json, build=SeverityReport.from_json_dict), report)
        code, err = run(["evaluate", "--gt", cases / "gt", "--pred", cases / "pred",
                         "--out", cases / "summary.json"])
    check_outcome(code, err, report, rejected)


@EXAMPLES
@given(data=st.data())
def test_mutated_train_config(cases, data):
    # One case is too few to train on, so a config that reads fails fast, with exit 2.
    data_dir = cases / "one_case"
    if not data_dir.exists():
        phantom.write_case(phantom.generate(phantom.random_spec(40, dims=(8, 32, 32))), data_dir / "case_0")
    config = cases / "train.json"
    config.write_text(json.dumps({
        "data_dir": str(data_dir), "epochs": 1, "seed": 0,
        "out_checkpoint": str(cases / "ckpt"), "out_loss_csv": str(cases / "loss.csv"),
    }))
    with replaced(config, mutated(data, json.loads(config.read_text()))):
        rejected = reject_message(functools.partial(read_json, build=_train_run), config)
        code, err = run(["train-toy", "--config", config])
    check_outcome(code, err, config, rejected, accepted_codes=(2,))
    assert not (cases / "loss.csv").exists()


@EXAMPLES
@given(data=st.data())
def test_mutated_checkpoint_manifest(cases, data):
    base = cases / "ckpt_base"
    if not base.with_suffix(".raw").exists():
        save_checkpoint(init_params(NetConfig()), base)
    manifest = base.with_suffix(".json")
    with replaced(manifest, mutated(data, json.loads(manifest.read_text()))):
        try:
            params = load_checkpoint(base)
        except HeaderError as exc:
            assert str(exc).startswith(f"{manifest}: ")
        else:  # a manifest that still describes the payload, e.g. without a size-1 axis
            assert sum(t.data.size for t in params.values()) * 8 == base.with_suffix(".raw").stat().st_size


@pytest.mark.parametrize("kind", ["grid_header", "report", "train_config", "checkpoint_manifest"])
def test_deeply_nested_document_exits_2(cases, kind, tmp_path):
    """A document nested deeper than the JSON decoder can follow is ill-formed
    JSON, not a broken invariant."""
    case_dir = cases / "case_0"
    path, argv = {
        "grid_header": (case_dir / "lobes.json", [
            "quantify", "--volume", case_dir / "volume", "--lobes", case_dir / "lobes",
            "--abnorm", case_dir / "abnorm", "--out", tmp_path / "report.json"]),
        "report": (cases / "pred" / "case_1.json", [
            "evaluate", "--gt", cases / "gt", "--pred", cases / "pred", "--out", tmp_path / "s.json"]),
        "train_config": (tmp_path / "train.json", ["train-toy", "--config", tmp_path / "train.json"]),
        "checkpoint_manifest": (tmp_path / "ckpt.json", None),  # no command reads a checkpoint
    }[kind]
    if kind == "checkpoint_manifest":
        save_checkpoint(init_params(NetConfig()), tmp_path / "ckpt")
    path.touch()
    message = f"{path}: ill-formed JSON: nested too deeply"
    with replaced(path, DEEP_PLACEHOLDER):
        if argv is None:
            assert reject_message(load_checkpoint, tmp_path / "ckpt") == message
        else:
            assert run(argv) == (2, f"error: {message}\n")
