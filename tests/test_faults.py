"""Fault-injection record: which checks of an `analyze` report see a wrong
F, pi, H or Omega.

One function of the analysis at a time is wrapped to scale each entry of its
result by (1 + 1e-6 u), u uniform on [-1, 1] from a fixed seed, and the test
pins the set of checks that still pass. A check in that set is blind to the
fault: it never reads the faulty value, it compares two quantities that are
both built from it, or it is an inequality with more room than the fault. A
wrong pi gives no report at all: the stationary pair's K = Pi no longer has
unit row sums, so the sum rule's hypothesis check raises first. A change
that makes a check see a fault, or blinds one that saw it, moves this record
and says so in CHANGES.md.
"""

import numpy as np
import pytest

from mrdist import chain, cli, resistance
from mrdist.errors import HypothesisViolatedError

RELATIVE_FAULT = 1e-6

# the wrapped function of each fault
FAULTS = {
    "F": (chain, "fundamental_matrix"),
    "pi": (chain, "_stationary_solve"),
    "H": (chain, "hitting_times"),
    "Omega": (resistance, "omega_from_fundamental"),
}

# checks that read none of F, H and Omega
NO_F = {"stationary_residual", "forest_stationary"}
# inequalities between Omega and t_av, with far more room than 1e-6
SLACK = {"additive_lower_bound", "additive_upper_bound"}
# checks whose two sides both come from F, so the fault cancels
SAME_F = {"representation_group_inverse", "representation_hitting_time",
          "sum_rule_stationary_pair"}
BLIND = NO_F | SLACK | SAME_F
# on a doubly stochastic chain, Omega from commute times, (H + H^T) / n, is
# built from F's H too, and a fault of 1e-6 leaves Omega a metric
DOUBLY = {"representation_commute_scaled", "triangle_inequality"}
# checks of F and D = F - Pi alone
F_AND_D = {"fundamental_residual", "fundamental_row_sums", "group_inverse_row_sums",
           "group_inverse_axioms", "stationary_projection"}
# checks of the F route's Omega against F, D, the spectrum or the forest oracle
OMEGA_OF_F = {"representation_group_inverse", "multiplicative_kirchhoff",
              "kirchhoff_vs_eigentime", "sum_rule_stationary_pair", "forest_omega"}
# checks of H or t_av = pi H[0] against an oracle or the spectrum
H_AND_T_AV = {"hitting_time_oracle", "random_target_spread", "kemeny_vs_eigentime",
              "forest_hitting"}
# Foster's trace identity reads Omega and pi, not H
FOSTER = {"foster_trace_m1", "foster_trace_m2", "foster_trace_m3"}
REVERSIBLE = ("counterexample", "reversible_5", "birth_death_8")

# per fault, the checks that still pass on every chain and on some chains
BLIND_TO = {
    "F": (BLIND, {"doubly_stochastic_5": DOUBLY}),
    "H": (NO_F | SLACK | F_AND_D | OMEGA_OF_F,
          {"doubly_stochastic_5": {"triangle_inequality"},
           **dict.fromkeys(REVERSIBLE, FOSTER)}),
    # on birth_death_8 the faults in the m = 3 trace sum cancel to 7.6e-10,
    # inside its bound of 2.8e-9
    "Omega": (NO_F | SLACK | F_AND_D | H_AND_T_AV,
              {"doubly_stochastic_5": {"triangle_inequality"},
               "birth_death_8": {"foster_trace_m3"}}),
}

CHAINS = {
    "counterexample": None,
    "ergodic_5": (5, "ergodic"),
    "reversible_5": (5, "reversible"),
    "doubly_stochastic_5": (5, "doubly_stochastic"),
    "birth_death_8": (8, "birth_death"),
}


def _chain(spec):
    return cli.counterexample_chain() if spec is None else chain.generate_random_chain(*spec, 0)


def _clean_chain(name):
    mat = _chain(CHAINS[name])
    clean = cli.analyze_report(mat)
    assert all(check["pass"] for check in clean["checks"].values())
    return mat, clean


def _inject(fault, monkeypatch):
    module, attr = FAULTS[fault]
    exact = getattr(module, attr)

    def faulty(*args, **kwargs):
        x = exact(*args, **kwargs)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, x.shape)
        return x * (1.0 + RELATIVE_FAULT * u)

    monkeypatch.setattr(module, attr, faulty)


def _assert_blind(fault, name, monkeypatch):
    mat, clean = _clean_chain(name)
    _inject(fault, monkeypatch)
    report = cli.analyze_report(mat)
    assert report["checks"].keys() == clean["checks"].keys()
    passing = {key for key, check in report["checks"].items() if check["pass"]}
    everywhere, some = BLIND_TO[fault]
    assert passing == everywhere | some.get(name, set())


@pytest.mark.parametrize("name", CHAINS)
def test_checks_blind_to_a_relative_fault_in_f(name, monkeypatch):
    _assert_blind("F", name, monkeypatch)


@pytest.mark.parametrize("name", CHAINS)
def test_checks_blind_to_a_relative_fault_in_h(name, monkeypatch):
    _assert_blind("H", name, monkeypatch)


@pytest.mark.parametrize("name", CHAINS)
def test_checks_blind_to_a_relative_fault_in_omega(name, monkeypatch):
    _assert_blind("Omega", name, monkeypatch)


@pytest.mark.parametrize("name", CHAINS)
def test_relative_fault_in_pi_stops_the_report(name, monkeypatch):
    mat, _ = _clean_chain(name)
    _inject("pi", monkeypatch)
    with pytest.raises(HypothesisViolatedError, match="K row sums deviate from 1"):
        cli.analyze_report(mat)
