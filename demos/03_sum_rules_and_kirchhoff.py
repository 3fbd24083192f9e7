#!/usr/bin/env python3
"""Exercise the generalized sum rule and the Kirchhoff index family it
implies, plus the Foster edge sum for a reversible doubly stochastic
chain."""

import numpy as np

from mrdist import (
    analyze,
    eigenvalues,
    eigentime_constant,
    foster_first_formula,
    foster_sum,
    generate_random_chain,
    kirchhoff_indices,
    make_sum_rule_pair,
    sum_rule,
    validate,
)

np.set_printoptions(precision=6, suppress=True)

mat = generate_random_chain(7, "reversible", seed=3)
analysis = analyze(mat)
om = analysis.omega
n = mat.n

# --- the generalized sum rule -------------------------------------------
# any (M, K) with K 1 = 1 and M(K - I) symmetric satisfies
#   sum_{i,j} (M(K-I))_{ij} Omega_{ij} = 2 Tr(M(I-K)F)
# pairs come as (k, n, n) stacks M and K, and both sides as (k,) arrays
print("random sum-rule pairs:")
seeds = range(5)
M, K = make_sum_rule_pair(n, seeds)
lhs, rhs = sum_rule(M, K, om, analysis.F)
for seed, left, right in zip(seeds, lhs, rhs):
    print(f"  seed {seed}: lhs = {left:+.12f}   rhs = {right:+.12f}   "
          f"gap = {abs(left - right):.2e}")

# the stationary pair M = diag(pi), K = Pi, a stack of one, recovers the
# multiplicative index
lhs, rhs = sum_rule(np.diag(analysis.pi)[None], analysis.Pi[None], om, analysis.F)
print(f"stationary pair: lhs = {lhs[0]:.12f} (multiplicative Kirchhoff index)")

# --- Kirchhoff indices ----------------------------------------------------
report = kirchhoff_indices(om, analysis.pi, analysis.t_av)
print(f"\nKemeny constant t_av:        {analysis.t_av:.6f}")
print(f"Kirchhoff index sum(Omega):  {report.kirchhoff:.6f}")
print(f"2 n t_av:                    {2 * n * analysis.t_av:.6f}")

et = eigentime_constant(eigenvalues(mat.P))
print(f"eigentime sum 1/(1-lambda):  {et:.6f}  (equals t_av)")

print(f"multiplicative index:        {report.multiplicative:.6f}")
print(f"additive index:              {report.additive:.6f}")
print(f"   bounds [{report.additive_lower:.6f}, {report.additive_upper:.6f}]")

# --- Foster analogue ------------------------------------------------------
# both sides for P, P^2 and P^3 come as (3,) arrays from one running product
lhs, rhs = foster_sum(mat, om, 3, analysis)
for m, left, right in zip((1, 2, 3), lhs, rhs):
    print(f"trace identity m={m}: lhs = {left:.12f}   rhs = {right:.12f}")

# reversible + doubly stochastic: the plain edge sum collapses to 2(n - 1)
base = generate_random_chain(6, "doubly_stochastic", seed=1)
sym = validate(0.5 * (base.P + base.P.T))
edge_sum = foster_first_formula(sym, analyze(sym).omega)
print(f"\nFoster edge sum on a symmetric doubly stochastic chain: "
      f"{edge_sum:.12f}  (2(n-1) = {2 * (sym.n - 1)})")
