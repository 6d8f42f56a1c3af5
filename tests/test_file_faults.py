"""Every input file each subcommand reads, broken one way at a time.

Each fault must make `lungsev <command>` exit 2 with one line on stderr that
names the broken file; none may exit 3, the code of an internal error. The
faults are the ways a file is damaged on disk or given in the wrong place:
one byte short of its content, one byte too long, empty, a directory, JSON
nested too deeply to parse, and bytes that are not UTF-8. A file the process
may not read is not among them: the suite may run as root, whom no permission
bit stops, so such a test could pass without testing anything.
"""

import json
import shutil

import pytest

from lungsev.cli import main

GRIDS = ("volume", "lobes", "abnorm")
CASE = "cases/case_000"


def _rewrite(change):
    """A fault that replaces a file's bytes with change(its bytes)."""
    return lambda path: path.write_bytes(change(path.read_bytes()))


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


# Each fault, applied to the path of one file.
RAW_FAULTS = {
    "truncate": _rewrite(lambda data: data[:-1]),
    "extend": _rewrite(lambda data: data + b"\0"),
    "empty": _rewrite(lambda data: b""),
    "directory": _replace_with_directory,
}
TEXT_FAULTS = {
    **RAW_FAULTS,
    "truncate": _rewrite(lambda data: data.rstrip()[:-1]),  # a trailing newline is not content
    "deep_nesting": _rewrite(lambda data: b"[" * 100_000 + b"]" * 100_000),
    "undecodable": _rewrite(lambda data: b"\xff\xfe" + data),
}

ARGV = {
    "quantify": ["quantify", "--volume", f"{CASE}/volume", "--lobes", f"{CASE}/lobes",
                 "--abnorm", f"{CASE}/abnorm", "--out", "out/report.json"],
    "preprocess": ["preprocess", "--volume", f"{CASE}/volume", "--lobes", f"{CASE}/lobes",
                   "--out", "out/pre", "--box", "4,8,8"],
    "evaluate": ["evaluate", "--gt", "gt", "--pred", "pred", "--positive-list", "positives.txt",
                 "--out", "out/summary.json"],
    "phantom": ["phantom", "--spec", f"{CASE}/spec.json", "--count", "1", "--out", "out/phantom"],
    "train-toy": ["train-toy", "--config", "train.json"],
}


def _grid_files(grids):
    return [f"{CASE}/{grid}{suffix}" for grid in grids for suffix in (".json", ".raw")]


# Each input file a command reads, relative to the directory it runs in.
READS = {
    "quantify": _grid_files(GRIDS),
    "preprocess": _grid_files(GRIDS[:2]),
    "evaluate": ["gt/case_000.json", "pred/case_000.json", "positives.txt"],
    "phantom": [f"{CASE}/spec.json"],
    "train-toy": ["train.json", *_grid_files(GRIDS)],
}

CASES = [
    pytest.param(command, name, damage, id=f"{command}-{name}-{fault}")
    for command, names in READS.items()
    for name in names
    for fault, damage in (RAW_FAULTS if name.endswith(".raw") else TEXT_FAULTS).items()
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Ten phantom cases, a quantify report of each in gt/ and pred/, a positive
    list naming them all and a small train-toy config, all under one directory
    and named by paths relative to it."""
    root = tmp_path_factory.mktemp("inputs")
    cases = root / "cases"
    assert main(["phantom", "--count", "10", "--seed", "1", "--dims", "8,16,16", "--out", str(cases)]) == 0
    for case in sorted(cases.iterdir()):
        for reports in ("gt", "pred"):
            assert main(["quantify", "--volume", str(case / "volume"), "--lobes", str(case / "lobes"),
                         "--abnorm", str(case / "abnorm"), "--out", str(root / reports / f"{case.name}.json")]) == 0
    (root / "positives.txt").write_text("".join(f"{case.name}\n" for case in sorted(cases.iterdir())))
    (root / "train.json").write_text(json.dumps({
        "data_dir": "cases", "epochs": 1, "seed": 0, "out_checkpoint": "out/ckpt", "out_loss_csv": "out/loss.csv",
        "stem_channels": 2, "growth_rate": 1, "layers_per_block": 1, "downsample_strides": [[1, 2, 2]],
    }) + "\n")
    return root


def _run_in_copy(inputs, tmp_path, monkeypatch, argv, name=None, fault=None):
    """main(argv) in a fresh copy of the inputs, with `fault` applied to the file `name` first."""
    work = tmp_path / "work"
    shutil.copytree(inputs, work)
    monkeypatch.chdir(work)
    if fault is not None:
        fault(work / name)
    return main(argv)


@pytest.mark.parametrize("command", list(ARGV))
def test_every_command_runs_on_the_unbroken_inputs(command, inputs, tmp_path, monkeypatch):
    assert _run_in_copy(inputs, tmp_path, monkeypatch, ARGV[command]) == 0


@pytest.mark.parametrize("command, name, fault", CASES)
def test_a_broken_input_file_exits_2_naming_it(command, name, fault, inputs, tmp_path, monkeypatch, capsys):
    capsys.readouterr()
    code = _run_in_copy(inputs, tmp_path, monkeypatch, ARGV[command], name, fault)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    assert name in err


def _claim_4e15_bytes(path):
    """A grid header whose dims claim about 4e15 bytes of payload."""
    header = json.loads(path.read_text())
    header["dims"] = [100000, 100000, 400000 // {"int16": 2, "float32": 4, "uint8": 1}[header["dtype"]]]
    path.write_text(json.dumps(header))


GRID_HEADERS = [
    pytest.param(command, name, id=f"{command}-{name}")
    for command, names in READS.items()
    for name in names
    if name.endswith(".json") and name.split("/")[-1][:-len(".json")] in GRIDS
]


@pytest.mark.parametrize("command, name", GRID_HEADERS)
def test_a_header_whose_dims_claim_4e15_bytes_exits_2_naming_it(command, name, inputs, tmp_path, monkeypatch, capsys):
    capsys.readouterr()
    code = _run_in_copy(inputs, tmp_path, monkeypatch, ARGV[command], name, _claim_4e15_bytes)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {name}: payload length mismatch") and len(err.strip().splitlines()) == 1, err
