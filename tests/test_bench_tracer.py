"""The benchmark tracer wraps mrdist functions by name, so each name it
lists must still be a function of its module: a deleted or renamed one
would only show when a traced benchmark run fails. Each name must also be
called by the reports the benchmark runs, or its per-layer metric reads 0."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED_NAMES = [(layer, name) for layer, names in _traced().items() for name in names]


def test_tracer_lists_names():
    assert len(TRACED_NAMES) >= 10


@pytest.mark.parametrize("layer, name", TRACED_NAMES, ids=map(".".join, TRACED_NAMES))
def test_traced_name_is_a_callable_of_its_layer(layer, name):
    module = importlib.import_module(f"mrdist.{layer}")
    assert callable(getattr(module, name, None)), f"mrdist.{layer}.{name}"


# Runs in a child process so that no traced wrapper outlives the test: it
# installs the tracer, runs one report of each kind the benchmark runs and
# prints the calls recorded per span name.
_REACH_SCRIPT = r"""
import contextlib, io, json, os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from mrdist import cli
from tracer import Tracer

os.chdir(sys.argv[3])
tracer = Tracer()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["generate", "4", "doubly_stochastic", "c.json", "--seed", "0"])
    tracer.install()
    codes = [
        cli.main(["analyze", "c.json", "--format", "json"]),
        cli.main(["sumrule", "c.json", "--trials", "3"]),
        cli.main(["forest-verify", "c.json"]),
        cli.main(["simulate", "c.json", "--pairs", "1,2", "--replicas", "200"]),
    ]
calls = {name: t["calls"] for name, t in tracer.totals().items()}
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_every_traced_name_is_reached_by_the_reports(tmp_path):
    src = TRACER.parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _REACH_SCRIPT, str(src), str(TRACER.parent), str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    calls = result["calls"]
    assert [name for name in map(".".join, TRACED_NAMES) if not calls.get(name)] == []
    # the analysis record builds Omega once per analysis, through the traced route
    assert calls["resistance.omega_from_fundamental"] == calls["chain.analyze"] == 4
