"""The tolerance record: one scaled bound for every identity check."""

import json
import pathlib
import re

import numpy as np
import pytest

from mrdist import chain, cli
from mrdist.cli import EXIT_CHECK_FAILED, EXIT_OK
from mrdist.tolerances import DEFAULT, Tolerances

SRC = pathlib.Path(cli.__file__).parent


def run_json(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_bound_is_relative_above_one():
    assert DEFAULT.bound(0.0) == DEFAULT.bound(-0.5) == DEFAULT.identity_relative
    assert DEFAULT.bound(-1e4) == DEFAULT.identity_relative * 1e4
    assert Tolerances(identity_relative=1e-6).bound(20.0) == pytest.approx(2e-5)


@pytest.mark.parametrize("name", Tolerances.field_names())
def test_every_field_is_read(name):
    # a field nothing reads is a knob that changes no verdict
    text = "\n".join(p.read_text() for p in SRC.glob("*.py"))
    assert re.search(rf"\b(tol|self)\.{name}\b", text)


def test_counterexample_bounds_follow_their_scales(capsys):
    code, rep = run_json(capsys, "counterexample")
    assert code == EXIT_OK
    analysis = chain.analyze(cli.counterexample_chain())
    n, t_av = 3, analysis.t_av
    max_f, max_d = np.abs(analysis.F).max(), np.abs(analysis.D).max()
    max_omega = np.max(rep["omega"]["fundamental"])
    checks = rep["checks"]
    scales = {
        "stationary_residual": 1.0,
        "forest_stationary": 1.0,
        "fundamental_residual": max_f,
        "fundamental_row_sums": max_f,
        "stationary_projection": max_f,
        "multiplicative_kirchhoff": max_f,
        "group_inverse_row_sums": max_d,
        "group_inverse_axioms": max_d,
        "random_target_spread": t_av,
        "representation_group_inverse": max_omega,
        "representation_hitting_time": max_omega,
        "forest_omega": max_omega,
        "omega_endpoints": max_omega,
        "omega_via_middle": max_omega,
        "triangle_violation_margin": max_omega,
        "forest_hitting": analysis.H.max(),
        "kirchhoff_vs_kemeny": 2 * n * t_av,
        "additive_lower_bound": checks["additive_lower_bound"]["rhs"],
        "additive_upper_bound": checks["additive_upper_bound"]["rhs"],
    }
    for name in ("sum_rule_stationary_pair", "foster_trace_m1", "foster_trace_m2",
                 "foster_trace_m3"):
        scales[name] = max(abs(checks[name]["lhs"]), abs(checks[name]["rhs"]))
    for name, scale in scales.items():
        assert checks[name]["tolerance"] == pytest.approx(DEFAULT.bound(scale), rel=1e-12), name
    assert checks["kemeny_vs_eigentime"]["tolerance"] == pytest.approx(DEFAULT.eigentime * t_av)
    assert checks["kirchhoff_vs_eigentime"]["tolerance"] == pytest.approx(
        DEFAULT.eigentime * 2 * n * t_av
    )
    assert checks["hitting_time_oracle"]["tolerance"] == DEFAULT.hitting_agreement
    assert checks["pi_middle_state"]["tolerance"] == 1e-12
    unscaled = {"kemeny_vs_eigentime", "kirchhoff_vs_eigentime", "hitting_time_oracle",
                "pi_middle_state"}
    assert set(checks) == set(scales) | unscaled


def test_group_inverse_axioms_scale_the_quadratic_residual(capsys, tmp_path):
    # two blocks coupled at 1e-8: max|D| = 2.5e7, and D(I - P)D - D alone
    # exceeds bound(max|D|) by rounding that grows with max|D|^2
    path = tmp_path / "two_block.csv"
    path.write_text("0.5,0.49999999,1e-8,0\n0.5,0.5,0,0\n0,0,0.5,0.5\n1e-8,0,0.5,0.49999999\n")
    _, rep = run_json(capsys, "analyze", str(path))
    mat = cli.load_chain(str(path))
    D, ip = chain.analyze(mat).D, np.eye(4) - mat.P
    max_d = np.abs(D).max()
    quadratic = np.abs(D @ ip @ D - D).max()
    linear = max(np.abs(ip @ D @ ip - ip).max(), np.abs(ip @ D - D @ ip).max())
    record = rep["checks"]["group_inverse_axioms"]
    assert max_d > 1e7 and quadratic > DEFAULT.bound(max_d)
    assert record["lhs"] == max(linear, quadratic / max_d)
    assert record["tolerance"] == DEFAULT.bound(max_d)
    assert record["pass"]


def test_doubly_stochastic_bounds_follow_their_scales(capsys, tmp_path):
    path = tmp_path / "cycle.csv"
    path.write_text("0.5,0.25,0.25\n0.25,0.5,0.25\n0.25,0.25,0.5\n")
    code, rep = run_json(capsys, "analyze", str(path))
    assert code == EXIT_OK
    checks = rep["checks"]
    max_omega = np.max(rep["omega"]["fundamental"])
    assert checks["representation_commute_scaled"]["tolerance"] == pytest.approx(
        DEFAULT.bound(max_omega), rel=1e-12
    )
    assert checks["foster_first_formula"]["tolerance"] == DEFAULT.bound(2 * (3 - 1))
    assert checks["triangle_inequality"]["tolerance"] == pytest.approx(
        DEFAULT.bound(max_omega), rel=1e-12
    )


@pytest.fixture
def ce_path(tmp_path):
    path = tmp_path / "ce.csv"
    path.write_text("0.9,0.1,0\n0.5,0,0.5\n0,0.1,0.9\n")
    return str(path)


def test_sumrule_bounds_follow_their_scales(capsys, ce_path):
    # a birth-death chain is reversible, so the power pairs are checked too
    code, rep = run_json(capsys, "sumrule", ce_path, "--trials", "20", "--seed", "3")
    assert code == EXIT_OK
    checks = rep["checks"]
    assert list(checks) == ["canonical_stationary_pair", "canonical_power_pair_m1",
                            "canonical_power_pair_m2", "canonical_power_pair_m3",
                            "random_pairs_worst"]
    for name, check in checks.items():
        scale = max(abs(check["lhs"]), abs(check["rhs"]))
        assert check["tolerance"] == DEFAULT.bound(scale), name


def test_forest_verify_bounds_follow_their_scales(capsys, ce_path):
    code, rep = run_json(capsys, "forest-verify", ce_path)
    assert code == EXIT_OK
    analysis = chain.analyze(cli.load_chain(ce_path))
    checks = rep["checks"]
    assert list(checks) == ["forest_stationary", "forest_hitting", "forest_omega"]
    assert checks["forest_stationary"]["tolerance"] == DEFAULT.bound(1.0)
    assert checks["forest_hitting"]["tolerance"] == DEFAULT.bound(analysis.H.max())
    assert checks["forest_omega"]["tolerance"] == DEFAULT.bound(analysis.omega.max())


@pytest.mark.parametrize("band", [DEFAULT.sigma_band, 2.0])
def test_simulate_bounds_are_sigma_band_standard_errors(capsys, ce_path, band):
    code, rep = run_json(capsys, "simulate", ce_path, "--replicas", "400", "--seed", "1",
                         "--tolerance", f"sigma_band={band}")
    omega = chain.analyze(cli.load_chain(ce_path)).omega
    rows = rep["simulation"]["pairs"]
    assert [row["pair"] for row in rows] == [["1", "2"], ["1", "3"], ["2", "3"]]
    for row, (i, j) in zip(rows, [(0, 1), (0, 2), (1, 2)]):
        check = row["check"]
        assert check["rhs"] == omega[i, j]
        assert check["lhs"] == row["estimate"]
        assert check["tolerance"] == band * row["std_error"] > 0
    assert code == (EXIT_OK if all(row["check"]["pass"] for row in rows) else EXIT_CHECK_FAILED)


def test_simulate_leg_at_the_step_cap_fails_with_zero_bound(capsys, ce_path):
    code, rep = run_json(capsys, "simulate", ce_path, "--pairs", "1,3", "--replicas", "100",
                         "--max-steps", "2")
    assert code == EXIT_CHECK_FAILED
    (row,) = rep["simulation"]["pairs"]
    assert "error" in row and "estimate" not in row
    omega = chain.analyze(cli.load_chain(ce_path)).omega
    assert row["check"] == {"lhs": 0.0, "rhs": omega[0, 2], "abs_err": omega[0, 2],
                            "tolerance": 0.0, "pass": False}


# Valid slow-mixing chains whose rounding is small for the size of what the
# checks compare: each exited 2 under per-check absolute tolerances.

def test_two_state_chain_at_1e_4_passes(capsys, tmp_path):
    # forest_hitting had abs_err 1.08e-9 on hitting times near 1e4
    path = tmp_path / "two_state.csv"
    path.write_text("0.9999,0.0001\n0.0001,0.9999\n")
    code, rep = run_json(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert rep["checks"]["forest_hitting"]["pass"] is True


def test_slow_path_chain_keeps_the_triangle_inequality(capsys, tmp_path):
    # doubly stochastic, so Omega is a metric; the worst violation, 3.6e-9,
    # is rounding on Omega up to 1.5e4 and failed an absolute 1e-10
    n, p = 16, 1e-3
    P = np.diag(np.full(n - 1, p), 1) + np.diag(np.full(n - 1, p), -1)
    P += np.diag(1.0 - P.sum(axis=1))
    path = tmp_path / "path.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in P.tolist()))
    _, rep = run_json(capsys, "analyze", str(path))
    assert rep["ergodicity"]["is_doubly_stochastic"] is True
    assert rep["metric"]["triangle_holds"] is True
    assert rep["checks"]["triangle_inequality"]["pass"] is True
    assert rep["metric"]["worst_violation"] > 1e-10


@pytest.fixture
def birth_death(capsys, tmp_path):
    def make(n):
        path = str(tmp_path / f"bd{n}.json")
        assert cli.main(["generate", str(n), "birth_death", path, "--seed", "0"]) == EXIT_OK
        capsys.readouterr()
        return path
    return make


def test_birth_death_16_forest_verify_passes(capsys, birth_death):
    # forest_hitting had abs_err 3.75e-8 on hitting times up to 3.2e4
    code, rep = run_json(capsys, "forest-verify", birth_death(16), "--cap", "16")
    assert code == EXIT_OK
    assert all(check["pass"] for check in rep["checks"].values())


def test_birth_death_64_fails_only_the_hitting_oracle(capsys, birth_death):
    # hitting_time_oracle keeps its absolute bound, hitting_agreement
    code, rep = run_json(capsys, "analyze", birth_death(64))
    assert code == EXIT_CHECK_FAILED
    failing = [name for name, check in rep["checks"].items() if not check["pass"]]
    assert failing == ["hitting_time_oracle"]
