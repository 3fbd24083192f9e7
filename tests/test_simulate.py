import numpy as np
import pytest

from mrdist import chain, simulate
from mrdist.errors import MaxStepsExceededError, NotErgodicError


class TestSimConfig:
    def test_defaults(self):
        cfg = simulate.SimConfig(seed=0)
        assert cfg.replicas == 100_000
        assert cfg.max_steps_per_replica == 10_000_000

    def test_too_few_replicas(self):
        with pytest.raises(ValueError):
            simulate.SimConfig(seed=0, replicas=50)

    def test_bad_step_cap(self):
        with pytest.raises(ValueError):
            simulate.SimConfig(seed=0, max_steps_per_replica=0)


class TestSimulateHitting:
    def test_start_equals_target(self, ce):
        cfg = simulate.SimConfig(seed=0, replicas=100)
        est = simulate.simulate_hitting(ce.chain, 1, 1, cfg)
        assert est.mean == 0.0
        assert est.std_error == 0.0
        assert est.replicas_used == 100

    def test_symmetric_two_state_geometric(self, two_state):
        cfg = simulate.SimConfig(seed=1, replicas=20_000)
        est = simulate.simulate_hitting(two_state(0.5, 0.5), 0, 1, cfg)
        assert abs(est.mean - 2.0) <= 3.0 * est.std_error
        assert est.std_error == pytest.approx(
            np.sqrt(2.0 / 20_000), rel=0.1
        )  # geometric(1/2) variance is 2

    def test_counterexample_long_leg(self, ce):
        cfg = simulate.SimConfig(seed=1, replicas=20_000)
        est = simulate.simulate_hitting(ce.chain, 0, 2, cfg)
        assert abs(est.mean - ce.H[0, 2]) <= 3.0 * est.std_error

    def test_deterministic_bit_for_bit(self, ce):
        cfg = simulate.SimConfig(seed=42, replicas=500)
        first = simulate.simulate_hitting(ce.chain, 0, 2, cfg)
        second = simulate.simulate_hitting(ce.chain, 0, 2, cfg)
        assert first == second

    def test_different_seeds_differ(self, ce):
        a = simulate.simulate_hitting(ce.chain, 0, 2, simulate.SimConfig(seed=0, replicas=500))
        b = simulate.simulate_hitting(ce.chain, 0, 2, simulate.SimConfig(seed=1, replicas=500))
        assert a.mean != b.mean

    def test_max_steps_exceeded(self, ce):
        cfg = simulate.SimConfig(seed=0, replicas=100, max_steps_per_replica=3)
        with pytest.raises(MaxStepsExceededError):
            simulate.simulate_hitting(ce.chain, 0, 2, cfg)

    # from state 2 the chain moves 2 -> 1 -> 0 surely: tau_0 is exactly 2
    CAP_CHAIN = [[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_step_cap_reached_exactly(self):
        mat = chain.validate(self.CAP_CHAIN)
        cfg = simulate.SimConfig(seed=0, replicas=100, max_steps_per_replica=2)
        est = simulate.simulate_hitting(mat, 2, 0, cfg)
        assert est.mean == 2.0
        assert est.std_error == 0.0

    def test_step_cap_one_short(self):
        mat = chain.validate(self.CAP_CHAIN)
        cfg = simulate.SimConfig(seed=0, replicas=100, max_steps_per_replica=1)
        with pytest.raises(MaxStepsExceededError, match="100 replicas still running"):
            simulate.simulate_hitting(mat, 2, 0, cfg)

    def test_requires_ergodic(self):
        swap = chain.validate([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotErgodicError):
            simulate.simulate_hitting(swap, 0, 1, simulate.SimConfig(seed=0, replicas=100))

    def test_state_bounds(self, ce):
        with pytest.raises(ValueError):
            simulate.simulate_hitting(ce.chain, 0, 3, simulate.SimConfig(seed=0, replicas=100))


class TestEstimateOmega:
    def test_counterexample_endpoints(self, ce):
        pi = chain.stationary(ce.chain)
        cfg = simulate.SimConfig(seed=1, replicas=20_000)
        est = simulate.estimate_omega(ce.chain, 0, 2, pi, cfg)
        assert abs(est.mean - 20.0) <= 3.0 * est.std_error

    def test_symmetric_two_state(self, two_state):
        mat = two_state(0.5, 0.5)
        pi = chain.stationary(mat)
        est = simulate.estimate_omega(mat, 0, 1, pi, simulate.SimConfig(seed=1, replicas=20_000))
        assert abs(est.mean - 2.0) <= 3.0 * est.std_error

    def test_argument_order_irrelevant(self, ce):
        # each leg draws from its own stream, so (i, j) and (j, i) agree
        pi = chain.stationary(ce.chain)
        cfg = simulate.SimConfig(seed=7, replicas=500)
        assert simulate.estimate_omega(ce.chain, 0, 2, pi, cfg) == simulate.estimate_omega(
            ce.chain, 2, 0, pi, cfg
        )

    def test_same_state_rejected(self, ce):
        pi = chain.stationary(ce.chain)
        with pytest.raises(ValueError):
            simulate.estimate_omega(ce.chain, 1, 1, pi, simulate.SimConfig(seed=0, replicas=100))

    def test_band_over_twenty_seeds(self, ce):
        # 4 sigma band captures the analytic value in at least 19 of 20 runs
        pi = chain.stationary(ce.chain)
        hits = 0
        for seed in range(20):
            cfg = simulate.SimConfig(seed=seed, replicas=2_000)
            est = simulate.estimate_omega(ce.chain, 0, 2, pi, cfg)
            hits += abs(est.mean - 20.0) <= 4.0 * est.std_error
        assert hits >= 19
