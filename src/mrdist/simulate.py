r"""Seeded Monte Carlo trajectory oracle for hitting times and resistance.

Each leg E_start(tau_target) draws from one Philox stream, keyed by
(seed, start, target) through ``SeedSequence``, so its estimate is
bit-for-bit reproducible and does not depend on which other legs run.
Replicas are independent and identically distributed, so a leg tracks how
many of them sit in each state, not where each one is: a step moves the
count of each occupied state by a multinomial draw over its row, and the
count that lands on the target is recorded and removed. While few states are
occupied each row is drawn by its own call, in ascending state order;
otherwise one call draws the stacked rows, which numpy does row by row in the
same order, so both forms give the same draws from the same stream. The
per-step hit counts have the law of the histogram of the replicas' hitting
times, so the mean and standard error are those of the per-replica sample.
A step costs O(occupied * n), at most O(n^2), whatever the replica count.

The combined resistance estimator follows the mean-hitting-time form

    Omega[i, j] = pi[j] E_i(tau_j) + pi[i] E_j(tau_i),

with the two legs simulated independently and their standard errors
combined in quadrature.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .chain import StochasticMatrix
from .errors import MaxStepsExceededError

MIN_REPLICAS = 100  # below this no statistical assertion is meaningful
MAX_REPLICAS = 2**63 - 1  # the state counts are int64

# A step with at most this many occupied rows is drawn by one 1-D multinomial
# call per row, otherwise by one call over the stacked rows. Both consume the
# Philox stream alike: numpy draws a 2-D multinomial row by row, with the same
# binomial routine. A stacked call costs 15-25 us even for one row, a 1-D call
# 2-9 us. Per step, the row form wins through 5 occupied rows on dense and
# birth-death chains at n = 8-64 and ties the stacked one at 6-8 (timeit, 2-vCPU
# Xeon VM); the benchmark's Monte Carlo legs run fastest switching at 5.
ROW_DRAW_MAX_OCCUPIED = 5


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; replicas must lie in [100, 2**63 - 1]."""

    seed: int
    replicas: int = 100_000
    max_steps_per_replica: int = 10_000_000

    def __post_init__(self):
        if self.replicas < MIN_REPLICAS:
            raise ValueError(f"replicas must be >= {MIN_REPLICAS}, got {self.replicas}")
        if self.replicas > MAX_REPLICAS:
            raise ValueError(f"replicas must be <= {MAX_REPLICAS}, got {self.replicas}")
        if self.max_steps_per_replica < 1:
            raise ValueError("max_steps_per_replica must be positive")


@dataclass(frozen=True)
class HittingEstimate:
    """Sample mean, standard error (sample std / sqrt(replicas)) and the
    replica count, which no report prints and the bench tracer reads."""

    mean: float
    std_error: float
    replicas_used: int


def _leg_key(seed: int, start: int, target: int) -> np.ndarray:
    entropy = int(seed) & (2**64 - 1)
    ss = np.random.SeedSequence(entropy, spawn_key=(start, target))
    return ss.generate_state(2, np.uint64)


def _check_state(chain: StochasticMatrix, s: int, name: str) -> int:
    if not 0 <= s < chain.n:
        raise ValueError(f"{name} state {s} out of range for n = {chain.n}")
    return int(s)


def simulate_hitting(
    chain: StochasticMatrix,
    start: int,
    target: int,
    cfg: SimConfig,
) -> HittingEstimate:
    """Estimate E_start(tau_target) from independent replicas.

    The hitting time counts steps from time 0, so start == target returns a
    zero estimate without simulating. Raises MaxStepsExceededError if any
    replica is still running at the step cap, which signals
    near-reducibility of the input.
    """
    start = _check_state(chain, start, "start")
    target = _check_state(chain, target, "target")
    chain.require_ergodic()
    if start == target:
        return HittingEstimate(0.0, 0.0, cfg.replicas)

    steps, hits = _first_passage_counts(chain.P, start, target, cfg)
    n_rep = cfg.replicas
    # sum(steps * hits) passes 2**63 at 1e18 replicas: sum it in Python ints
    mean = sum(map(operator.mul, steps.tolist(), hits.tolist())) / n_rep
    dev = steps - mean
    std = math.sqrt(float(hits @ (dev * dev)) / (n_rep - 1))
    return HittingEstimate(mean, std / math.sqrt(n_rep), n_rep)


def _first_passage_counts(
    P: np.ndarray, start: int, target: int, cfg: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(steps, hits): hits[k] replicas first reach target at step steps[k].

    Only steps with at least one hit are kept, so memory grows with
    min(steps, replicas), not with the length of the leg.
    """
    # Rows are not renormalised: a StochasticMatrix built without validate()
    # can hold a row whose first n - 1 entries sum above 1 + 1e-12, which
    # multinomial rejects. So each row's cumulative probabilities are cut at
    # 1, and multinomial gives the last state whatever rounding gap is left.
    pvals = np.diff(np.minimum(np.cumsum(P, axis=1), 1.0), axis=1, prepend=0.0)
    multinomial = np.random.Generator(
        np.random.Philox(key=_leg_key(cfg.seed, start, target))
    ).multinomial
    counts = np.zeros(len(P), dtype=np.int64)
    counts[start] = cfg.replicas
    occupied = np.array([start])
    steps, hits = [], []
    step = 0
    while occupied.size:
        if step >= cfg.max_steps_per_replica:
            raise MaxStepsExceededError(
                f"{counts.sum()} replicas still running at the "
                f"{cfg.max_steps_per_replica}-step cap"
            )
        if occupied.size <= ROW_DRAW_MAX_OCCUPIED:
            first, *rest = occupied.tolist()
            row_counts = counts.tolist()
            counts = multinomial(row_counts[first], pvals[first])
            for s in rest:
                counts += multinomial(row_counts[s], pvals[s])
        else:
            counts = multinomial(counts[occupied], pvals[occupied]).sum(axis=0)
        step += 1
        if counts[target]:
            steps.append(step)
            hits.append(int(counts[target]))
            counts[target] = 0
        occupied = counts.nonzero()[0]
    return np.array(steps, dtype=np.int64), np.array(hits, dtype=np.int64)


def estimate_omega(
    chain: StochasticMatrix,
    i: int,
    j: int,
    pi: np.ndarray,
    cfg: SimConfig,
) -> HittingEstimate:
    """Estimate Omega[i, j] by combining the two hitting-time legs."""
    i = _check_state(chain, i, "i")
    j = _check_state(chain, j, "j")
    if i == j:
        raise ValueError("estimate_omega needs two distinct states")
    pi = np.asarray(pi, dtype=float)
    leg_ij = simulate_hitting(chain, i, j, cfg)
    leg_ji = simulate_hitting(chain, j, i, cfg)
    mean = pi[j] * leg_ij.mean + pi[i] * leg_ji.mean
    std_error = math.hypot(pi[j] * leg_ij.std_error, pi[i] * leg_ji.std_error)
    return HittingEstimate(float(mean), float(std_error), cfg.replicas)
