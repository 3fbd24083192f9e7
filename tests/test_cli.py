import json

import numpy as np
import pytest

from mrdist import chain, cli
from mrdist.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK
from mrdist.errors import SingularMatrixError
from mrdist.tolerances import DEFAULT

from conftest import CE_PI

COUNTEREXAMPLE_CSV = "0.9,0.1,0\n0.5,0,0.5\n0,0.1,0.9\n"


@pytest.fixture
def ce_file(tmp_path):
    path = tmp_path / "ce.csv"
    path.write_text(COUNTEREXAMPLE_CSV)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def walk_checks(node):
    """Yield every five-field identity check object in a report."""
    if isinstance(node, dict):
        if set(node) == {"lhs", "rhs", "abs_err", "tolerance", "pass"}:
            yield node
        else:
            for value in node.values():
                yield from walk_checks(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_checks(value)


_FOLDED_TOLERANCES = [
    "stationary_residual", "fundamental_residual", "group_inverse_axioms", "random_target",
    "representation_agreement", "kirchhoff", "multiplicative_kirchhoff", "additive_slack",
    "foster", "forest_pi", "forest_hitting", "forest_omega", "sum_rule_relative", "triangle",
]


class TestAnalyze:
    def test_counterexample_file(self, capsys, ce_file):
        code, rep = run_json(capsys, "analyze", ce_file)
        assert code == EXIT_OK
        assert rep["pass"] is True
        assert abs(rep["omega"]["fundamental"][0][2] - 20.0) < 1e-9
        assert rep["metric"]["triangle_holds"] is False
        assert rep["metric"]["worst_triple"] == ["1", "2", "3"]
        np.testing.assert_allclose(rep["pi"], CE_PI, atol=1e-12)

    def test_uniform_four_state(self, capsys, tmp_path):
        path = tmp_path / "uniform.csv"
        path.write_text("\n".join(",".join(["0.25"] * 4) for _ in range(4)) + "\n")
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_OK
        np.testing.assert_allclose(rep["pi"], [0.25] * 4, atol=1e-12)
        assert rep["metric"]["triangle_holds"] is True
        assert rep["ergodicity"]["is_doubly_stochastic"] is True
        assert "commute_scaled" in rep["omega"]
        assert "foster_first_formula" in rep["checks"]

    def test_reducible_input_exits_one(self, capsys, tmp_path):
        path = tmp_path / "reducible.csv"
        path.write_text("1,0\n0,1\n")
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_INPUT_ERROR
        assert rep["error"]["type"] == "NotErgodicError"

    def test_json_input_with_labels(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        doc = {"states": ["sun", "rain"], "P": [[0.8, 0.2], [0.4, 0.6]]}
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_OK
        assert rep["states"] == ["sun", "rain"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        two = [[0.5, 0.5], [0.5, 0.5]]
        for text in (
            "{not json",
            # labels must be an array, and distinct so --pairs can name them
            json.dumps({"states": 5, "P": two}),
            json.dumps({"states": "ab", "P": two}),
            json.dumps({"states": ["a", "a"], "P": two}),
            # entries of P must be JSON numbers, not booleans or strings
            json.dumps({"P": [[0.5, 0.5], [True, False]]}),
            json.dumps({"P": [["0.5", "0.5"], ["0.5", "0.5"]]}),
        ):
            path.write_text(text)
            code, rep = run_json(capsys, "analyze", str(path))
            assert code == EXIT_INPUT_ERROR
            assert rep["error"]["type"] == "ParseError"

    def test_json_input_with_numeric_labels(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"states": [3, 7.5], "P": [[0.8, 0.2], [0.4, 0.6]]}))
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_OK
        assert rep["states"] == ["3", "7.5"]

    def test_missing_file(self, capsys):
        code, rep = run_json(capsys, "analyze", "/nonexistent/chain.csv")
        assert code == EXIT_INPUT_ERROR

    def test_row_sum_message_prints_a_plain_float(self, capsys, tmp_path):
        path = tmp_path / "row_sum.csv"
        path.write_text("0.5,0.6\n0.5,0.5\n")
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_INPUT_ERROR
        assert rep["error"] == {
            "type": "RowSumOutOfToleranceError",
            "message": "row 0 sums to 1.1, off by more than 1.0e-06",
        }

    def test_nonsquare_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n")
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_INPUT_ERROR

    def test_check_schema_is_stable(self, capsys, ce_file):
        code, rep = run_json(capsys, "analyze", ce_file)
        checks = list(walk_checks(rep))
        assert len(checks) >= 15
        for check in checks:
            assert set(check) == {"lhs", "rhs", "abs_err", "tolerance", "pass"}

    def test_tolerance_override_forces_failure(self, capsys, ce_file):
        # a zero band cannot hold a Monte Carlo estimate, forcing the failure path
        code, rep = run_json(
            capsys, "analyze", ce_file, "--simulate", "--pairs", "1,3",
            "--replicas", "500", "--tolerance", "sigma_band=0",
        )
        assert code == EXIT_CHECK_FAILED
        assert rep["pass"] is False
        assert all(check["pass"] for check in rep["checks"].values())
        assert rep["simulation"]["pairs"][0]["check"]["pass"] is False

    def test_random_target_spread_fails_in_a_full_report(self, capsys, tmp_path):
        # the rows of H @ pi spread by about 1e-15, past a bound of 4e-20; the
        # report's check is the one judge of the random-target lemma
        path = tmp_path / "nr.json"
        cli.main(["generate", "5", "ergodic", str(path), "--seed", "0"])
        capsys.readouterr()
        code, rep = run_json(
            capsys, "analyze", str(path), "--tolerance", "identity_relative=1e-20"
        )
        assert code == EXIT_CHECK_FAILED
        assert "error" not in rep
        assert rep["ergodicity"]["is_reversible"] is False
        assert rep["checks"]["random_target_spread"]["pass"] is False

    def test_foster_identity_fails_in_a_full_report(self, capsys, tmp_path):
        # detailed balance holds by construction; the foster_trace_m* checks
        # are the one judge of the trace identity, even at a bound of 1e-20
        path = tmp_path / "rev.json"
        cli.main(["generate", "5", "reversible", str(path), "--seed", "0"])
        capsys.readouterr()
        code, rep = run_json(
            capsys, "analyze", str(path), "--tolerance", "identity_relative=1e-20"
        )
        assert code == EXIT_CHECK_FAILED
        assert "error" not in rep
        assert rep["ergodicity"]["is_reversible"] is True
        assert {"foster_trace_m1", "foster_trace_m2", "foster_trace_m3"} <= set(rep["checks"])

    def test_eigentime_imag_is_not_a_tolerance(self, capsys, ce_file):
        # the imaginary residue of the eigentime sum is summation rounding
        # that no verdict reads
        code = cli.main(["analyze", ce_file, "--tolerance", "eigentime_imag=1e-30"])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == "mrdist: error: unknown tolerance 'eigentime_imag'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("analyze", "--tolerance", "nope=1"), id="unknown_name"),
            pytest.param(("analyze", "--tolerance", "row_sum_reject=nan"), id="nan"),
            pytest.param(("analyze", "--tolerance", "identity_relative=-1"), id="negative"),
            pytest.param(("sumrule", "--trials", "-3"), id="negative_trials"),
            pytest.param(("analyze", "--tolerance", "solve_residual=1"), id="solve_residual"),
            # generator parameters, not tolerances
            pytest.param(("analyze", "--tolerance", "sinkhorn=1e-12"), id="sinkhorn"),
            pytest.param(("analyze", "--tolerance", "sinkhorn_max_sweeps=5"),
                         id="sinkhorn_max_sweeps"),
        ],
    )
    def test_unknown_tolerance_rejected(self, capsys, ce_file, argv):
        code = cli.main([argv[0], ce_file, *argv[1:]])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("mrdist: error: ")

    @pytest.mark.parametrize("name", _FOLDED_TOLERANCES)
    def test_folded_tolerance_name_rejected(self, capsys, ce_file, name):
        # these absolute bounds became tol.bound(scale) of identity_relative
        code = cli.main(["analyze", ce_file, "--tolerance", f"{name}=1e-6"])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == f"mrdist: error: unknown tolerance {name!r}\n"

    def test_eigentime_off(self, capsys, ce_file):
        code, rep = run_json(capsys, "analyze", ce_file, "--eigentime", "off")
        assert code == EXIT_OK
        assert "eigenvalues" not in rep
        assert "kemeny_vs_eigentime" not in rep["checks"]

    def test_nearly_decomposable_chain_skips_eigentime(self, capsys, tmp_path):
        # two blocks coupled at 1e-8: graph-ergodic, but two eigenvalues lie
        # within unit_eigenvalue of 1, so eigentime is skipped, not an input error
        path = tmp_path / "two_block.csv"
        path.write_text(
            "0.5,0.49999999,1e-8,0\n0.5,0.5,0,0\n0,0,0.5,0.5\n1e-8,0,0.5,0.49999999\n"
        )
        code, rep = run_json(capsys, "analyze", str(path))
        assert code != EXIT_INPUT_ERROR
        assert "error" not in rep
        assert rep["ergodicity"]["strongly_connected"] is True
        assert "unit_eigenvalue = 1e-08" in rep["skipped"]["eigentime"]
        assert len(rep["eigenvalues"]) == 4
        assert "kemeny_vs_eigentime" not in rep["checks"]
        assert "kirchhoff_vs_eigentime" not in rep["checks"]

    def test_forest_cap_skip(self, capsys, ce_file):
        code, rep = run_json(capsys, "analyze", ce_file, "--forest-cap", "2")
        assert code == EXIT_OK
        assert "forest" not in rep
        assert "forest" in rep["skipped"]

    def test_dense_eight_state_runs_forest_oracle(self, capsys, tmp_path):
        # the default forest cap admits n = 8, once a 14 s report
        path = tmp_path / "d8.json"
        cli.main(["generate", "8", "ergodic", str(path), "--seed", "0"])
        capsys.readouterr()
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_OK
        assert "forest" in rep
        assert "forest" not in rep.get("skipped", {})

    def test_human_format(self, capsys, ce_file):
        code, out = run(capsys, "analyze", ce_file)
        assert code == EXIT_OK
        assert "triangle_holds: False" in out
        assert "PASS" in out

    def test_with_simulation(self, capsys, ce_file):
        code, rep = run_json(
            capsys, "analyze", ce_file, "--simulate",
            "--pairs", "1,3", "--replicas", "2000", "--seed", "1",
        )
        assert code == EXIT_OK
        pair = rep["simulation"]["pairs"][0]
        assert pair["pair"] == ["1", "3"]
        assert pair["check"]["pass"] is True


class TestSumrule:
    def test_counterexample(self, capsys, ce_file):
        code, rep = run_json(capsys, "sumrule", ce_file, "--trials", "50", "--seed", "3")
        assert code == EXIT_OK
        assert rep["random_pairs"]["trials"] == 50
        worst = rep["checks"]["random_pairs_worst"]
        assert worst["abs_err"] <= worst["tolerance"]
        # reversible birth-death chain gets the transition-power pairs
        assert "canonical_power_pair_m2" in rep["checks"]

    def test_zero_trials_only_canonical(self, capsys, ce_file):
        code, rep = run_json(capsys, "sumrule", ce_file, "--trials", "0")
        assert code == EXIT_OK
        assert "random_pairs_worst" not in rep["checks"]
        assert "canonical_stationary_pair" in rep["checks"]

    def test_pivot_above_one_stops_in_the_chain_solve(self, capsys, monkeypatch, ce_file):
        # the first pivot of the stationary solve is exactly 1, so a threshold
        # above 1 stops the analysis before any random pair is drawn
        def no_pairs(*args, **kwargs):
            raise AssertionError("a random pair was drawn")

        monkeypatch.setattr(cli.resistance, "make_sum_rule_pair", no_pairs)
        tol = DEFAULT.override(pivot=1.5)
        with pytest.raises(SingularMatrixError) as expected:
            chain.stationary(cli.load_chain(ce_file), tol=tol)
        code, rep = run_json(capsys, "sumrule", ce_file, "--tolerance", "pivot=1.5")
        assert code == EXIT_INPUT_ERROR
        assert rep["error"] == {"type": "SingularMatrixError", "message": str(expected.value)}

    def test_non_reversible_skips_power_pairs(self, capsys, tmp_path):
        path = tmp_path / "nr.json"
        cli.main(["generate", "5", "ergodic", str(path), "--seed", "8"])
        capsys.readouterr()
        code, rep = run_json(capsys, "sumrule", str(path), "--trials", "10")
        assert code == EXIT_OK
        assert "canonical_power_pair_m1" not in rep["checks"]
        assert "power_pairs" in rep["skipped"]


class TestForestVerify:
    def test_counterexample(self, capsys, ce_file):
        code, rep = run_json(capsys, "forest-verify", ce_file)
        assert code == EXIT_OK
        for check in rep["checks"].values():
            assert check["abs_err"] < 1e-9
        np.testing.assert_allclose(rep["q_roots"], [0.05, 0.01, 0.05], atol=1e-16)

    def test_two_state_roots_printed(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0.7,0.3\n0.4,0.6\n")
        code, rep = run_json(capsys, "forest-verify", str(path))
        assert code == EXIT_OK
        np.testing.assert_allclose(rep["q_roots"], [0.4, 0.3], atol=1e-16)

    def test_cap_enforced(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        cli.main(["generate", "10", "ergodic", str(path), "--seed", "0"])
        capsys.readouterr()
        code, rep = run_json(capsys, "forest-verify", str(path), "--cap", "8")
        assert code == EXIT_INPUT_ERROR
        assert rep["error"]["type"] == "TooLargeError"


class TestSimulateCommand:
    def test_single_pair(self, capsys, ce_file):
        args = ("simulate", ce_file, "--pairs", "1,3", "--replicas", "2000", "--seed", "1")
        code, rep = run_json(capsys, *args)
        assert code == EXIT_OK
        pair = rep["simulation"]["pairs"][0]
        assert abs(pair["check"]["rhs"] - 20.0) < 1e-9
        assert pair["check"]["pass"] is True

    def test_repeat_is_byte_identical(self, capsys, ce_file):
        args = ("simulate", ce_file, "--pairs", "1,3;2,3", "--replicas", "500", "--seed", "9")
        code_a, out_a = run(capsys, *args, "--format", "json")
        code_b, out_b = run(capsys, *args, "--format", "json")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_same_state_pair_is_a_usage_error(self, capsys, ce_file):
        # Omega[i, i] = 0 exactly, so such a pair would only add a vacuous check
        for argv in (["simulate"], ["analyze", "--simulate"]):
            code = cli.main([argv[0], ce_file, *argv[1:], "--pairs", "1,3;2,2"])
            out, err = capsys.readouterr()
            assert code == EXIT_INPUT_ERROR
            assert out == ""
            assert err.startswith("mrdist: error: ") and "'2,2'" in err

    @pytest.mark.parametrize("replicas", ["9223372036854775808", "10000000000000000000"])
    def test_replicas_past_int64_is_an_input_error(self, capsys, ce_file, replicas):
        for argv in (["simulate"], ["analyze", "--simulate"]):
            code, rep = run_json(capsys, argv[0], ce_file, *argv[1:], "--pairs", "1,3",
                                 "--replicas", replicas)
            assert code == EXIT_INPUT_ERROR
            assert rep["error"] == {
                "type": "ValueError",
                "message": f"replicas must be <= 9223372036854775807, got {replicas}",
            }

    def test_unknown_label(self, capsys, ce_file):
        code = cli.main(["simulate", ce_file, "--pairs", "1,9"])
        assert code == EXIT_INPUT_ERROR

    def test_all_pairs(self, capsys, ce_file):
        code, rep = run_json(
            capsys, "simulate", ce_file, "--pairs", "all", "--replicas", "500", "--seed", "2"
        )
        assert code == EXIT_OK
        assert len(rep["simulation"]["pairs"]) == 3


class TestOneStateChain:
    @pytest.fixture
    def one_state(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"P": [[1.0]]}')
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "forest-verify"])
    def test_passes_with_empty_stderr(self, capfd, one_state, command):
        # capfd, not capsys: LAPACK writes its argument errors to fd 2
        code = cli.main([command, one_state, "--format", "json"])
        out, err = capfd.readouterr()
        assert code == EXIT_OK
        assert err == ""
        rep = json.loads(out)
        assert rep["pass"] is True
        assert all(check["pass"] for check in walk_checks(rep))

    def test_simulate_all_pairs_is_a_usage_error(self, capfd, one_state):
        # zero pairs would make a report of zero checks that passes
        code = cli.main(["simulate", one_state])
        out, err = capfd.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("mrdist: error: no pairs")

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--simulate"], ["sumrule"], ["sumrule", "--trials", "0"]],
        ids=["analyze_simulate", "sumrule", "sumrule_zero_trials"],
    )
    def test_vacuous_commands_are_usage_errors(self, capfd, one_state, argv):
        # no simulated pair, and every sum rule of one state reads 0 = 0
        code = cli.main([argv[0], one_state, *argv[1:], "--format", "json"])
        out, err = capfd.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("mrdist: error: ")


class TestCounterexampleCommand:
    def test_values(self, capsys):
        code, rep = run_json(capsys, "counterexample")
        assert code == EXIT_OK
        assert abs(rep["pi"][1] - 1.0 / 11.0) < 1e-12
        margin = rep["checks"]["triangle_violation_margin"]
        assert abs(margin["lhs"] - 80.0 / 11.0) < 1e-9
        assert rep["counterexample"]["triangle_breaks"] is True
        assert rep["counterexample"]["worst_triple"] == ["1", "2", "3"]

    def test_repeat_identical(self, capsys):
        code_a, out_a = run(capsys, "counterexample", "--format", "json")
        code_b, out_b = run(capsys, "counterexample", "--format", "json")
        assert out_a == out_b


class TestGenerate:
    @pytest.mark.parametrize("kind", ["ergodic", "reversible", "doubly_stochastic", "birth_death"])
    def test_roundtrip_analyze(self, capsys, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        code, rep = run_json(capsys, "generate", "6", kind, str(path), "--seed", "5")
        assert code == EXIT_OK
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "name,fmt",
        [("chain.txt", "csv"), ("chain", "csv"), ("chain.JSON", "csv"), ("chain.json", "json")],
    )
    def test_one_format_rule_for_writing_and_reading(self, capsys, tmp_path, name, fmt):
        # a .json name is JSON and any other name is CSV, for generate and analyze alike
        path = tmp_path / name
        code, rep = run_json(capsys, "generate", "4", "ergodic", str(path), "--seed", "0")
        assert code == EXIT_OK
        assert rep["format"] == fmt
        assert path.read_text().startswith("{") == (fmt == "json")
        code, rep = run_json(capsys, "analyze", str(path))
        assert code == EXIT_OK

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "generate", "5", "ergodic", str(a), "--seed", "11")
        run(capsys, "generate", "5", "ergodic", str(b), "--seed", "11")
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_is_an_input_error(self, capsys):
        code = cli.main(["generate", "3", "ergodic", "/nonexistent/dir/x.json"])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert err == ""
        assert "type: ParseError" in out
        assert "message: cannot write /nonexistent/dir/x.json: " in out

    def test_doubly_stochastic_columns(self, capsys, tmp_path):
        path = tmp_path / "ds.csv"
        run(capsys, "generate", "8", "doubly_stochastic", str(path), "--seed", "3")
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()]
        arr = np.array(rows)
        assert np.abs(arr.sum(axis=0) - 1.0).max() < 1e-9

    def test_birth_death_tridiagonal(self, capsys, tmp_path):
        path = tmp_path / "bd.json"
        run(capsys, "generate", "6", "birth_death", str(path), "--seed", "2")
        doc = json.loads(path.read_text())
        arr = np.array(doc["P"])
        assert (arr[np.abs(np.subtract.outer(range(6), range(6))) > 1] == 0).all()


class TestSeedHandling:
    def test_mr_seed_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MR_SEED", "31")
        path = tmp_path / "env.json"
        code, rep = run_json(capsys, "generate", "4", "ergodic", str(path))
        assert rep["seed"] == 31

    def test_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MR_SEED", "31")
        path = tmp_path / "flag.json"
        code, rep = run_json(capsys, "generate", "4", "ergodic", str(path), "--seed", "7")
        assert rep["seed"] == 7

    def test_bad_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MR_SEED", "not-a-number")
        code = cli.main(["generate", "4", "ergodic", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT_ERROR


class TestUsage:
    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == EXIT_INPUT_ERROR

    def test_missing_argument(self):
        assert cli.main(["analyze"]) == EXIT_INPUT_ERROR

    def test_json_serializer_float_format(self):
        text = cli.dumps_json({"x": 1.0, "y": 0.1, "n": 3, "flag": True})
        doc = json.loads(text)
        assert doc == {"x": 1.0, "y": 0.1, "n": 3, "flag": True}
        assert "1.0" in text  # floats keep a decimal point


# ordered check names of each command; a simulated pair counts as one check
_CORE = [
    "stationary_residual", "fundamental_residual", "fundamental_row_sums",
    "group_inverse_row_sums", "group_inverse_axioms", "stationary_projection",
    "random_target_spread", "hitting_time_oracle", "representation_group_inverse",
    "representation_hitting_time",
]
_KIRCHHOFF = ["kirchhoff_vs_kemeny", "kemeny_vs_eigentime", "kirchhoff_vs_eigentime"]
_BOUNDS = [
    "multiplicative_kirchhoff", "additive_lower_bound", "additive_upper_bound",
    "sum_rule_stationary_pair",
]
_FOSTER = ["foster_trace_m1", "foster_trace_m2", "foster_trace_m3"]
_FOREST = ["forest_stationary", "forest_hitting", "forest_omega"]
_COUNTEREXAMPLE = [
    "pi_middle_state", "omega_endpoints", "omega_via_middle", "triangle_violation_margin",
]
_POWER_PAIRS = [f"canonical_power_pair_m{m}" for m in (1, 2, 3)]


@pytest.mark.parametrize(
    "argv, checks, skipped",
    [
        pytest.param(
            ("counterexample",),
            _CORE + _KIRCHHOFF + _BOUNDS + _FOSTER + _FOREST + _COUNTEREXAMPLE, [],
            id="counterexample",
        ),
        pytest.param(
            ("analyze", "ergodic:3"), _CORE + _KIRCHHOFF + _BOUNDS + _FOREST, ["foster"],
            id="analyze_ergodic",
        ),
        pytest.param(
            ("analyze", "reversible:3"), _CORE + _KIRCHHOFF + _BOUNDS + _FOSTER + _FOREST, [],
            id="analyze_reversible",
        ),
        pytest.param(
            ("analyze", "doubly_stochastic:3"),
            _CORE + ["representation_commute_scaled", "triangle_inequality"]
            + _KIRCHHOFF + _BOUNDS + _FOREST,
            ["foster"],
            id="analyze_doubly_stochastic",
        ),
        pytest.param(
            ("analyze", "ergodic:9"), _CORE + _KIRCHHOFF + _BOUNDS, ["foster", "forest"],
            id="analyze_above_forest_cap",
        ),
        pytest.param(
            ("analyze", "ce", "--eigentime", "off"),
            _CORE + ["kirchhoff_vs_kemeny"] + _BOUNDS + _FOSTER + _FOREST, [],
            id="analyze_eigentime_off",
        ),
        pytest.param(
            ("sumrule", "ergodic:4", "--trials", "5"),
            ["canonical_stationary_pair", "random_pairs_worst"], ["power_pairs"],
            id="sumrule_ergodic",
        ),
        pytest.param(
            ("sumrule", "reversible:4", "--trials", "5"),
            ["canonical_stationary_pair"] + _POWER_PAIRS + ["random_pairs_worst"], [],
            id="sumrule_reversible",
        ),
        pytest.param(("forest-verify", "ce"), _FOREST, [], id="forest_verify"),
        pytest.param(
            ("simulate", "ce", "--pairs", "1,2", "--replicas", "1000"), ["pair 1,2"], [],
            id="simulate",
        ),
    ],
)
def test_check_manifest(capsys, tmp_path, ce_file, argv, checks, skipped):
    """Each command states the same checks, in the same order, as before."""
    command, *rest = argv
    if rest and rest[0] == "ce":
        rest[0] = ce_file
    elif rest:
        kind, n = rest[0].split(":")
        rest[0] = str(tmp_path / f"{kind}.json")
        run(capsys, "generate", n, kind, rest[0], "--seed", "0")
    code, rep = run_json(capsys, command, *rest)
    names = list(rep.get("checks", {})) + [
        "pair " + ",".join(row["pair"]) for row in rep.get("simulation", {}).get("pairs", [])
    ]
    assert code == EXIT_OK
    assert names == checks
    assert list(rep.get("skipped", {})) == skipped


@pytest.mark.parametrize(
    "argv",
    [("analyze",), ("simulate", "--pairs", "all", "--replicas", "1000")],
    ids=["analyze", "simulate_all_pairs"],
)
def test_ergodicity_graph_search_runs_once(capsys, monkeypatch, ce_file, argv):
    walks = []
    bfs_levels = chain._bfs_levels
    monkeypatch.setattr(
        chain, "_bfs_levels", lambda *args: walks.append(args) or bfs_levels(*args)
    )
    assert cli.main([argv[0], ce_file, *argv[1:]]) == EXIT_OK
    # one verdict walks the arcs forward and then backward from state 0
    assert len(walks) == 2
    forward, backward = (arcs for arcs, _ in walks)
    assert np.array_equal(forward.T, backward)


@pytest.mark.parametrize(
    "rows",
    ["0,1\n1,0\n", "0,1,0\n0,0,1\n1,0,0\n", "1,0\n0,1\n"],
    ids=["period_2", "period_3", "reducible"],
)
def test_not_ergodic_message_is_shared(capsys, tmp_path, rows):
    path = tmp_path / "chain.csv"
    path.write_text(rows)
    errors = []
    for argv in (["analyze"], ["sumrule"], ["forest-verify"], ["simulate"]):
        code, rep = run_json(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_INPUT_ERROR
        assert rep["error"]["type"] == "NotErgodicError"
        errors.append(rep["error"]["message"])
    assert errors[0].startswith("chain is not ergodic (strongly_connected=")
    assert errors == errors[:1] * 4
