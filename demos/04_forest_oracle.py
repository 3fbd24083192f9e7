#!/usr/bin/env python3
"""Recover pi, hitting times and the resistance matrix from spanning
in-forest weights, computed exactly in integer arithmetic by the matrix-tree
theorem, with no floating point before the final rounding."""

import numpy as np

from mrdist import (
    analyze,
    enumerate_forests,
    generate_random_chain,
    hitting_from_forest,
    omega_from_forest,
    stationary_from_forest,
    validate,
)

np.set_printoptions(precision=6, suppress=True)

# --- a 2-state chain is small enough to list its forests by hand ----------
mat = validate([[0.7, 0.3], [0.4, 0.6]])
fw = enumerate_forests(mat)
print("2-state chain, a = 0.3, b = 0.4")
print("  q_roots:", fw.q_roots, " (the single in-trees 2->1 and 1->2)")
print("  f:\n", fw.f, " (the empty two-singleton forest, weight 1)")
print("  pi from forests:   ", stationary_from_forest(fw))
print("  Omega[1,2] = 2/(a+b):", omega_from_forest(fw)[0, 1])

# --- a random 6-state chain against the linear-algebra pipeline -----------
mat = generate_random_chain(6, "ergodic", seed=12)
analysis = analyze(mat)
fw = enumerate_forests(mat)

pi_gap = np.abs(stationary_from_forest(fw) - analysis.pi).max()
h_gap = np.abs(hitting_from_forest(fw) - analysis.H).max()
om_gap = np.abs(omega_from_forest(fw) - analysis.omega).max()

print("\n6-state random chain, forest weights vs floating-point linear algebra:")
print(f"  stationary distribution gap: {pi_gap:.3e}")
print(f"  hitting time gap:            {h_gap:.3e}")
print(f"  resistance gap:              {om_gap:.3e}")
print(f"  total in-tree weight q:      {fw.q_total:.6f}")

# weight bookkeeping: in a forest each state either roots a tree or picks one
# outgoing arc, with no cycle; one-root forests feed q_roots and two-root
# forests feed f. The matrix-tree theorem sums them all in the adjugate of
# one Laplacian bordered in its last column, which fraction-free
# elimination evaluates exactly; the ratios then reproduce the chain
