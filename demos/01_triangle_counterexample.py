#!/usr/bin/env python3
"""Walk through the built-in 3-state birth-death chain whose resistance
distance breaks the triangle inequality."""

import numpy as np

from mrdist import analyze, metric_check
from mrdist.cli import counterexample_chain

np.set_printoptions(precision=6, suppress=True)

mat = counterexample_chain()
print("transition matrix P:")
print(mat.P)

# The middle state is left quickly (no self-loop) and entered rarely
# (probability 0.1 from either neighbour), so it carries little stationary
# mass. That lightness is exactly what breaks the triangle inequality.
analysis = analyze(mat)
print("\nstationary distribution pi:", analysis.pi)
print("as fractions of 1/11:", analysis.pi * 11)

print("\nmean hitting times H[i, j] = E_i(tau_j):")
print(analysis.H)

om = analysis.omega  # from F: F[i,i] + F[j,j] - F[i,j] - F[j,i]
print("\nresistance distance Omega:")
print(om)

direct = om[0, 2]
via_middle = om[0, 1] + om[1, 2]
print(f"\nOmega[1, 3]                 = {direct:.6f}")
print(f"Omega[1, 2] + Omega[2, 3]   = {via_middle:.6f}")
print(f"violation                   = {direct - via_middle:.6f}  (= 80/11)")

report = metric_check(om)
print("\nmetric report:")
print("  nonnegative:   ", report.nonnegative)
print("  triangle_holds:", report.triangle_holds)
print("  worst triple:  ", report.worst_triple, "(0-based indices)")

# The violation has a closed form for any 3-state birth-death chain:
# (pi_3 - pi_2) E_1(tau_2) + (pi_1 - pi_2) E_3(tau_2), positive whenever the
# middle state is lighter than both neighbours.
pi, H = analysis.pi, analysis.H
closed_form = (pi[2] - pi[1]) * H[0, 1] + (pi[0] - pi[1]) * H[2, 1]
print(f"\nclosed-form violation check: {closed_form:.6f}")
