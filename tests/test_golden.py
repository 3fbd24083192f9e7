"""`tools/golden.py diff` on small hand-made records; no capture is run."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = {
    "mrdist --version": {"code": 0, "stdout": "mrdist 0.1.0\n", "stderr": ""},
    "mrdist analyze ce.csv": {"code": 0, "stdout": "pass: True\nn: 3\n", "stderr": ""},
    "lu_solve singular": {"raises": "SingularMatrixError: pivot 0"},
}


def _diff(golden, tmp_path, capsys, before, after):
    paths = []
    for name, record in (("before.json", before), ("after.json", after)):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        paths.append(str(path))
    code = golden.main(["diff", *paths])
    return code, capsys.readouterr().out


def test_identical_records_exit_zero(golden, tmp_path, capsys):
    code, out = _diff(golden, tmp_path, capsys, RECORD, dict(RECORD))
    assert code == 0
    assert "===" not in out
    assert out.endswith("3 identical, 0 differ\n")


def test_changed_case_is_named(golden, tmp_path, capsys):
    after = dict(RECORD)
    after["mrdist analyze ce.csv"] = {"code": 2, "stdout": "pass: False\nn: 3\n", "stderr": ""}
    code, out = _diff(golden, tmp_path, capsys, RECORD, after)
    assert code == 1
    assert "=== mrdist analyze ce.csv\n" in out
    assert "    code: 0 -> 2\n" in out
    assert "-pass: True" in out and "+pass: False" in out
    assert out.count("===") == 1
    assert out.endswith("2 identical, 1 differ\n")


@pytest.mark.parametrize("side", ["before", "after"])
def test_case_in_one_record_only_is_named(golden, tmp_path, capsys, side):
    smaller = {k: v for k, v in RECORD.items() if k != "lu_solve singular"}
    before, after = (smaller, RECORD) if side == "after" else (RECORD, smaller)
    code, out = _diff(golden, tmp_path, capsys, before, after)
    assert code == 1
    assert f"=== lu_solve singular\n    only in {side}\n" in out
    assert out.endswith("2 identical, 1 differ\n")


def test_diff_into_a_closed_pipe_exits_one_without_traceback(tmp_path):
    # far more output than a pipe buffers, so diff is still printing when the
    # reader goes away, as under `golden.py diff a.json b.json | head -3`
    stdout = "".join(f"line {i}\n" for i in range(12))
    before = {f"mrdist case {i}": {"code": 0, "stdout": stdout} for i in range(3000)}
    after = {key: {"code": 2, "stdout": stdout.upper()} for key in before}
    paths = []
    for name, record in (("before.json", before), ("after.json", after)):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        paths.append(str(path))
    proc = subprocess.Popen([sys.executable, str(GOLDEN), "diff", *paths],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"=== mrdist case 0\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
