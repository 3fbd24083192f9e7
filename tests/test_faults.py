"""Fault-injection record: which checks of an `analyze` report see a wrong F.

`chain.fundamental_matrix` is wrapped to scale each entry of F by
(1 + 1e-6 u), u uniform on [-1, 1] from a fixed seed, and the test pins the
set of checks that still pass. A check in that set is blind to the fault:
it never reads F, it compares two quantities that are both built from F, or
it is an inequality with more room than the fault. A change that makes a
check see the fault, or blinds one that saw it, moves this record and says
so in CHANGES.md.
"""

import numpy as np
import pytest

from mrdist import chain, cli

RELATIVE_FAULT = 1e-6

# checks that never read F
NO_F = {"stationary_residual", "forest_stationary"}
# inequalities between Omega and t_av from F, with far more room than 1e-6
SLACK = {"additive_lower_bound", "additive_upper_bound"}
# checks whose two sides both come from F, so the fault cancels
SAME_F = {"representation_group_inverse", "representation_hitting_time",
          "sum_rule_stationary_pair"}
BLIND = NO_F | SLACK | SAME_F
# on a doubly stochastic chain, Omega from commute times, (H + H^T) / n, is
# built from F's H too, and a fault of 1e-6 leaves Omega a metric
DOUBLY = {"representation_commute_scaled", "triangle_inequality"}

CHAINS = {
    "counterexample": (None, BLIND),
    "ergodic_5": ((5, "ergodic"), BLIND),
    "reversible_5": ((5, "reversible"), BLIND),
    "doubly_stochastic_5": ((5, "doubly_stochastic"), BLIND | DOUBLY),
    "birth_death_8": ((8, "birth_death"), BLIND),
}


def _chain(spec):
    return cli.counterexample_chain() if spec is None else chain.generate_random_chain(*spec, 0)


@pytest.mark.parametrize("name", CHAINS)
def test_checks_blind_to_a_relative_fault_in_f(name, monkeypatch):
    spec, blind = CHAINS[name]
    mat = _chain(spec)
    clean = cli.analyze_report(mat)
    assert all(check["pass"] for check in clean["checks"].values())

    exact = chain.fundamental_matrix

    def faulty(*args, **kwargs):
        F = exact(*args, **kwargs)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, F.shape)
        return F * (1.0 + RELATIVE_FAULT * u)

    monkeypatch.setattr(chain, "fundamental_matrix", faulty)
    report = cli.analyze_report(mat)
    assert report["checks"].keys() == clean["checks"].keys()
    passing = {key for key, check in report["checks"].items() if check["pass"]}
    assert passing == blind
