#!/usr/bin/env python3
"""Cross-check the closed-form resistance distance against seeded Monte
Carlo hitting-time estimates."""

import numpy as np

from mrdist import SimConfig, analyze, estimate_omega, simulate_hitting
from mrdist.cli import counterexample_chain

np.set_printoptions(precision=6, suppress=True)

mat = counterexample_chain()
analysis = analyze(mat)
om = analysis.omega

cfg = SimConfig(seed=7, replicas=50_000)
print(f"replicas per leg: {cfg.replicas}, seed {cfg.seed}")

# one leg: the mean hitting time from state 1 to state 3 (22 analytically)
leg = simulate_hitting(mat, 0, 2, cfg)
print(f"\nE_1(tau_3): analytic {analysis.H[0, 2]:.4f}, "
      f"simulated {leg.mean:.4f} +- {leg.std_error:.4f}")

# the resistance estimator combines both legs with stationary weights
print("\npair   analytic   estimate     std_err      z")
for i in range(mat.n):
    for j in range(i + 1, mat.n):
        est = estimate_omega(mat, i, j, analysis.pi, cfg)
        z = (est.mean - om[i, j]) / est.std_error
        print(f"({i + 1},{j + 1})  {om[i, j]:9.4f}  {est.mean:9.4f}  "
              f"{est.std_error:9.4f}  {z:+6.2f}")

# same seed, same answer: each leg draws from its own stream, keyed by
# (seed, start, target)
again = estimate_omega(mat, 0, 2, analysis.pi, cfg)
first = estimate_omega(mat, 0, 2, analysis.pi, cfg)
print("\nbit-for-bit reproducible:", again == first)
