#!/usr/bin/env python3
"""Compute the same resistance matrix four ways: from the fundamental
matrix, the group inverse, mean hitting times, and (for a doubly stochastic
chain) scaled commute times."""

import numpy as np

from mrdist import (
    analyze,
    check_ergodicity,
    generate_random_chain,
    omega_from_commute,
    omega_from_fundamental,
    omega_from_group_inverse,
    omega_from_hitting,
)

np.set_printoptions(precision=6, suppress=True)

# a Sinkhorn-balanced chain: row AND column sums are 1, so pi is uniform
mat = generate_random_chain(5, "doubly_stochastic", seed=42)
report = check_ergodicity(mat)
print("doubly stochastic:", report.is_doubly_stochastic)
print("column sums:      ", mat.P.sum(axis=0))

analysis = analyze(mat)
print("pi (uniform):     ", analysis.pi)

om_f = omega_from_fundamental(analysis.F)
om_d = omega_from_group_inverse(analysis.D)
om_h = omega_from_hitting(analysis.H, analysis.pi)
om_c = omega_from_commute(analysis.H, report)

print("\nOmega via the fundamental matrix:")
print(om_f)

for route, om in (("group_inverse", om_d), ("hitting_time", om_h), ("commute_scaled", om_c)):
    gap = np.abs(om - om_f).max()
    print(f"max disagreement, {route:>15s} route: {gap:.3e}")

# the group-inverse route is the fundamental route shifted by Pi, which
# cancels in the four-term combination; the hitting-time route rescales
# rows of H by pi; the commute route divides commute times by n
print("\nall four constructions agree entrywise")
