import contextlib
import hashlib
import io

import numpy as np
import pytest
from scipy import stats

from mrdist import chain, cli, simulate
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

    def test_replicas_up_to_int64_max(self):
        # the state counts are int64, so 2**63 replicas cannot be counted
        assert simulate.SimConfig(seed=0, replicas=2**63 - 1).replicas == 2**63 - 1
        for replicas in (2**63, 10**19):
            with pytest.raises(ValueError, match="replicas must be <= 9223372036854775807"):
                simulate.SimConfig(seed=0, replicas=replicas)


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

    UNNORMALISED = [
        # row 0's first two entries sum past 1 + 1e-12, which multinomial
        # rejects; the cut at 1 leaves 0 -> 2 at zero
        [[0.5, 0.5 + 1e-9, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
        # row 1 falls 1e-9 short of 1, and the last state takes the gap
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5 - 1e-9], [0.5, 0.0, 0.5]],
    ]

    @pytest.mark.parametrize("rows", UNNORMALISED, ids=["past_one", "short_of_one"])
    def test_unnormalised_rows_simulate(self, rows):
        # built without validate(), so no row is renormalised; read as
        # (1/2, 1/2, 0), (0, 1/2, 1/2), (1/2, 0, 1/2) the chain has E_0(tau_2) = 4
        mat = chain.StochasticMatrix(np.array(rows))
        est = simulate.simulate_hitting(mat, 0, 2, simulate.SimConfig(seed=3, replicas=20_000))
        assert abs(est.mean - 4.0) <= 4.0 * est.std_error

    @pytest.mark.parametrize("replicas", [10**18, 2**63 - 1])
    def test_replica_count_near_int64_max(self, ce, replicas):
        # sum(steps * hits) is about 20 * replicas, far past 2**63
        pi = chain.stationary(ce.chain)
        est = simulate.estimate_omega(ce.chain, 0, 2, pi, simulate.SimConfig(seed=0, replicas=replicas))
        assert est.replicas_used == replicas
        assert abs(est.mean - 20.0) <= 4.0 * est.std_error
        assert 0.0 < est.std_error < 1e-7

    def test_requires_ergodic(self):
        swap = chain.validate([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotErgodicError):
            simulate.simulate_hitting(swap, 0, 1, simulate.SimConfig(seed=0, replicas=100))

    def test_state_bounds(self, ce):
        with pytest.raises(ValueError):
            simulate.simulate_hitting(ce.chain, 0, 3, simulate.SimConfig(seed=0, replicas=100))


class TestFirstPassageLaw:
    """The counterexample leg 1 -> 3 at 10^6 replicas against its exact law."""

    START, TARGET, REPLICAS = 0, 2, 1_000_000

    @pytest.fixture(scope="class")
    def leg(self):
        mat = cli.counterexample_chain()
        cfg = simulate.SimConfig(seed=20_260_808, replicas=self.REPLICAS)
        steps, hits = simulate._first_passage_counts(mat.P, self.START, self.TARGET, cfg)
        return mat, cfg, steps, hits

    def test_hit_counts_follow_first_passage_pmf(self, leg):
        mat, _, steps, sparse_hits = leg
        hits = np.zeros(steps[-1], dtype=np.int64)
        hits[steps - 1] = sparse_hits
        keep = [s for s in range(mat.n) if s != self.TARGET]
        Q = mat.P[np.ix_(keep, keep)]
        # pmf[t - 1] = P(tau = t) = (Q^{t-1} r)[start]
        v = mat.P[keep, self.TARGET]
        pmf = np.empty(hits.size)
        for t in range(hits.size):
            pmf[t] = v[keep.index(self.START)]
            v = Q @ v
        expected = self.REPLICAS * pmf
        binned = expected >= 5.0
        rest_obs = self.REPLICAS - hits[binned].sum()
        rest_exp = self.REPLICAS - expected[binned].sum()
        chi_sq = float(((hits[binned] - expected[binned]) ** 2 / expected[binned]).sum())
        chi_sq += (rest_obs - rest_exp) ** 2 / rest_exp
        dof = int(binned.sum())  # binned bins plus the pooled rest, less one
        assert chi_sq < stats.chi2.ppf(0.999, dof)

    def test_estimate_matches_expanded_sample(self, leg):
        mat, cfg, steps, hits = leg
        est = simulate.simulate_hitting(mat, self.START, self.TARGET, cfg)
        sample = np.repeat(steps, hits)
        assert sample.size == self.REPLICAS
        np.testing.assert_array_max_ulp(est.mean, sample.mean(), maxulp=4)
        np.testing.assert_array_max_ulp(
            est.std_error, sample.std(ddof=1) / np.sqrt(self.REPLICAS), maxulp=4
        )


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


class TestDrawForms:
    """Per-row and stacked draws give every leg the same (steps, hits)."""

    @staticmethod
    def leg(monkeypatch, switch, P, start, target, cfg):
        monkeypatch.setattr(simulate, "ROW_DRAW_MAX_OCCUPIED", switch)
        try:
            steps, hits = simulate._first_passage_counts(P, start, target, cfg)
        except MaxStepsExceededError as exc:
            return str(exc)
        assert steps.dtype == hits.dtype == np.int64
        return steps.tolist(), hits.tolist()

    def same_by_both_forms(self, monkeypatch, P, start, target, cfg):
        stacked = self.leg(monkeypatch, 0, P, start, target, cfg)
        by_row = self.leg(monkeypatch, len(P), P, start, target, cfg)
        assert stacked == by_row
        return stacked

    @pytest.mark.parametrize("n", [3, 8, 16, 33])
    @pytest.mark.parametrize("kind", ["ergodic", "reversible", "doubly_stochastic", "birth_death"])
    def test_generated_chains(self, monkeypatch, kind, n):
        for seed in range(3):
            P = chain.generate_random_chain(n, kind, seed).P
            # a leg cut at 400 steps, finished or not
            cfg = simulate.SimConfig(seed=seed, replicas=1_000, max_steps_per_replica=400)
            self.same_by_both_forms(monkeypatch, P, 0, n - 1, cfg)
            # a leg that surely hits the cap, with up to n rows occupied
            cfg = simulate.SimConfig(seed=seed, replicas=10**6, max_steps_per_replica=6)
            error = self.same_by_both_forms(monkeypatch, P, n - 1, 0, cfg)
            assert error.endswith("replicas still running at the 6-step cap")

    @pytest.mark.parametrize("rows", TestSimulateHitting.UNNORMALISED, ids=["past_one", "short_of_one"])
    def test_unnormalised_rows(self, monkeypatch, rows):
        for seed in range(3):
            cfg = simulate.SimConfig(seed=seed, replicas=20_000)
            self.same_by_both_forms(monkeypatch, np.array(rows), 0, 2, cfg)

    # sha256 of steps then hits as little-endian int64, recorded when every
    # step was one stacked draw: any change of draw order fails here
    PINNED = {
        "counterexample 2->3": "d562cfcdbb4304661adf6d89c78f744a9f1ae7cf27210cdf03457f22d17fe956",
        "generate 8 ergodic --seed 3, 3->6":
            "0c5c111c1eeec3a5e9e4cdf8f906be0b44ba909b10d701782d43cf7a58b9427e",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_legs(self, tmp_path, name):
        if name.startswith("counterexample"):
            mat, start, target = cli.counterexample_chain(), 1, 2
        else:
            path = str(tmp_path / "g8.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["generate", "8", "ergodic", path, "--seed", "3"]) == 0
            mat, start, target = cli.load_chain(path), 2, 5
        cfg = simulate.SimConfig(seed=20_260_808, replicas=100_000)
        steps, hits = simulate._first_passage_counts(mat.P, start, target, cfg)
        digest = hashlib.sha256(np.concatenate([steps, hits]).astype("<i8").tobytes())
        assert digest.hexdigest() == self.PINNED[name]
