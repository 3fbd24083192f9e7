"""Tests of the benchmark's checker: it must reject slightly wrong reports.

Run with ``python3 -m pytest bench/test_check.py``.
"""

import contextlib
import copy
import io
import json
import os
import sys

import pytest

import checker
import reference
import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from mrdist import cli  # noqa: E402


def _report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def ce_ref():
    return reference.reference(workloads.COUNTEREXAMPLE)


@pytest.fixture(scope="module")
def ce_report():
    return _report(["counterexample", "--format", "json"])


def _reference_problems(verdict):
    return [p for p in verdict.problems if "against the reference" in p]


def test_reference_matches_closed_form(ce_ref):
    assert float(ce_ref.omega[0][2]) == pytest.approx(20.0, rel=1e-15)
    assert float(ce_ref.pi[1]) == pytest.approx(1.0 / 11.0, rel=1e-15)
    assert float(ce_ref.t_av) == pytest.approx(120.0 / 11.0, rel=1e-15)


def test_accepts_the_real_report(ce_ref, ce_report):
    code, doc = ce_report
    verdict = checker.check_report("counterexample", doc, code, ce_ref, known_fault=False)
    assert code == 0
    assert verdict.problems == []
    assert verdict.digits > 13


def test_rejects_omega_perturbed_by_1e6_relative(ce_ref, ce_report):
    code, doc = ce_report
    doc = copy.deepcopy(doc)
    omega = doc["omega"]["fundamental"]
    omega[0][2] *= 1 + 1e-6
    omega[2][0] = omega[0][2]
    verdict = checker.check_report("counterexample", doc, code, ce_ref, known_fault=False)
    assert _reference_problems(verdict)
    assert verdict.digits == pytest.approx(6.0, abs=0.1)


def test_rejects_monte_carlo_estimate_outside_the_band(ce_ref, tmp_path):
    path = str(tmp_path / "ce.json")
    workloads.write_counterexample(path)
    code, doc = _report(["simulate", path, "--pairs", "1,3", "--replicas", "1000",
                         "--seed", "1", "--format", "json"])
    assert checker.check_report("simulate", doc, code, ce_ref, known_fault=False).problems == []
    row = doc["simulation"]["pairs"][0]
    row["estimate"] = row["check"]["rhs"] + 5 * row["std_error"]
    verdict = checker.check_report("simulate", doc, code, ce_ref, known_fault=False)
    assert any("sigma off" in p for p in verdict.problems)


def test_failure_outside_the_named_fault_is_rejected(ce_ref, ce_report):
    code, doc = ce_report
    doc = copy.deepcopy(doc)
    doc["checks"]["hitting_time_oracle"]["pass"] = False
    assert checker.check_report("counterexample", doc, 2, ce_ref, known_fault=True).problems == []
    doc["checks"]["stationary_residual"]["pass"] = False
    verdict = checker.check_report("counterexample", doc, 2, ce_ref, known_fault=True)
    assert any("exit code 2" in p for p in verdict.problems)


@pytest.fixture(scope="module")
def birth_death(tmp_path_factory):
    """The n = 32 birth-death chain of seed 0, which exits 2 through the named fault."""
    path = str(tmp_path_factory.mktemp("bd") / "bd32.json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["generate", "32", "birth_death", path, "--seed", "0"]) == 0
    ref = reference.reference(reference.read_chain_file(path))
    code, doc = _report(["analyze", path, "--format", "json"])
    return ref, code, doc


def test_accepts_the_named_fault(birth_death):
    ref, code, doc = birth_death
    assert code == 2 and not doc["checks"]["hitting_time_oracle"]["pass"]
    assert checker.check_report("analyze", doc, code, ref, known_fault=True).problems == []
    verdict = checker.check_report("analyze", doc, code, ref, known_fault=False)
    assert any("exit code 2" in p for p in verdict.problems)


@pytest.mark.parametrize("name, size", [
    ("hitting_time_oracle", lambda ref: checker.max_abs(ref.H)),
    ("group_inverse_axioms", lambda ref: checker.max_abs(ref.F)),
])
def test_rejects_a_large_error_in_the_named_fault(birth_death, name, size):
    ref, code, doc = birth_death
    doc = copy.deepcopy(doc)
    err = 1e-3 * size(ref)
    doc["checks"][name].update(lhs=err, abs_err=err, **{"pass": False})
    verdict = checker.check_report("analyze", doc, code, ref, known_fault=True)
    assert any("exit code 2" in p for p in verdict.problems)
