r"""Seeded Monte Carlo trajectory oracle for hitting times and resistance.

Trajectories step by inverse-CDF sampling of precomputed cumulative rows.
Randomness comes from the counter-based Philox generator: the leg key is
derived from (seed, start, target) via ``SeedSequence``, and lockstep step t
of all replicas draws from the counter block t << 128. Replica r therefore
consumes the fixed substream u(r, t) = block_t[r], so the result is
bit-for-bit reproducible and independent of how replicas would be
partitioned across workers.

The combined resistance estimator follows the mean-hitting-time form

    Omega[i, j] = pi[j] E_i(tau_j) + pi[i] E_j(tau_i),

with the two legs simulated independently and their standard errors
combined in quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import StochasticMatrix
from .errors import MaxStepsExceededError, NotErgodicError
from .tolerances import DEFAULT, Tolerances

MIN_REPLICAS = 100  # below this no statistical assertion is meaningful


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; replicas must be at least 100."""

    seed: int
    replicas: int = 100_000
    max_steps_per_replica: int = 10_000_000

    def __post_init__(self):
        if self.replicas < MIN_REPLICAS:
            raise ValueError(f"replicas must be >= {MIN_REPLICAS}, got {self.replicas}")
        if self.max_steps_per_replica < 1:
            raise ValueError("max_steps_per_replica must be positive")


@dataclass(frozen=True)
class HittingEstimate:
    """Sample mean and standard error (sample std / sqrt(replicas))."""

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
    *,
    tol: Tolerances = DEFAULT,
) -> HittingEstimate:
    """Estimate E_start(tau_target) from independent replicas.

    The hitting time counts steps from time 0, so start == target returns a
    zero estimate without simulating. Raises MaxStepsExceededError if any
    replica is still running at the step cap, which signals
    near-reducibility of the input.
    """
    start = _check_state(chain, start, "start")
    target = _check_state(chain, target, "target")
    if not chain.is_ergodic:
        raise NotErgodicError("simulation requires an ergodic chain")
    if start == target:
        return HittingEstimate(0.0, 0.0, cfg.replicas)

    cum = np.cumsum(chain.P, axis=1)
    cum[:, -1] = 1.0  # close the rounding gap so u < 1 always lands
    key = _leg_key(cfg.seed, start, target)
    n_rep = cfg.replicas
    state = np.full(n_rep, start, dtype=np.int64)
    times = np.zeros(n_rep, dtype=np.int64)
    alive = np.arange(n_rep)

    step = 0
    while alive.size:
        if step >= cfg.max_steps_per_replica:
            raise MaxStepsExceededError(
                f"{alive.size} replicas still running at the "
                f"{cfg.max_steps_per_replica}-step cap"
            )
        block = np.random.Generator(np.random.Philox(key=key, counter=step << 128))
        u = block.random(n_rep)
        current = state[alive]
        nxt = (u[alive][:, None] >= cum[current]).sum(axis=1)
        state[alive] = nxt
        hit = nxt == target
        times[alive[hit]] = step + 1
        alive = alive[~hit]
        step += 1

    mean = float(times.mean())
    std_error = float(times.std(ddof=1) / math.sqrt(n_rep))
    return HittingEstimate(mean, std_error, n_rep)


def estimate_omega(
    chain: StochasticMatrix,
    i: int,
    j: int,
    pi: np.ndarray,
    cfg: SimConfig,
    *,
    tol: Tolerances = DEFAULT,
) -> HittingEstimate:
    """Estimate Omega[i, j] by combining the two hitting-time legs."""
    i = _check_state(chain, i, "i")
    j = _check_state(chain, j, "j")
    if i == j:
        raise ValueError("estimate_omega needs two distinct states")
    pi = np.asarray(pi, dtype=float)
    leg_ij = simulate_hitting(chain, i, j, cfg, tol=tol)
    leg_ji = simulate_hitting(chain, j, i, cfg, tol=tol)
    mean = pi[j] * leg_ij.mean + pi[i] * leg_ji.mean
    std_error = math.hypot(pi[j] * leg_ij.std_error, pi[i] * leg_ji.std_error)
    return HittingEstimate(float(mean), float(std_error), cfg.replicas)
