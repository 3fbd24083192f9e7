"""Central numerical tolerance configuration.

Every threshold that a solve, a validation or a verdict depends on lives in
one frozen record so that the CLI, the tests and library callers agree on a
single set of defaults. Functions that read a threshold take a ``tol``
keyword defaulting to :data:`DEFAULT`. The Sinkhorn settings of the
doubly stochastic chain generator are parameters of that generator, not
tolerances, and stay beside it in ``chain.py``.

The paper's identities hold exactly, so an identity check only asks whether
the rounding is small for the size of what it compares. Each such check is
bounded by ``tol.bound(scale) = identity_relative * max(1, |scale|)``:

    check                                                    scale
    stationary_residual, forest_stationary                   1
    fundamental_residual, fundamental_row_sums,
      stationary_projection, multiplicative_kirchhoff        max |F|
    group_inverse_row_sums, group_inverse_axioms             max |D|
      (the axioms' quadratic residual D(I - P)D - D is divided by max(1, max |D|))
    random_target_spread                                     t_av
    representation_*, forest_omega, counterexample Omegas,
      triangle_inequality, metric_check's triangle_holds     max Omega
    forest_hitting                                           max H
    kirchhoff_vs_kemeny                                      2 n t_av
    additive_lower_bound, additive_upper_bound               the bound
    sum rules, foster_trace_m*                               max(|lhs|, |rhs|)
    foster_first_formula                                     2 (n - 1)

The eigentime checks take a spectral route, a different accuracy class:
``eigentime`` relative to t_av (2 n t_av for kirchhoff_vs_eigentime).
``hitting_time_oracle`` keeps the absolute ``hitting_agreement``. The
counterexample's ``pi_middle_state`` is bounded by an absolute 1e-12, which
is safe because pi <= 1. A Monte Carlo check (``simulate``, ``analyze
--simulate``) is bounded by ``sigma_band`` standard errors of its estimate,
or by 0 when its leg hits the step cap and has no estimate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # dense kernel
    pivot: float = 1e-13             # LU pivot magnitude that declares singularity
    unit_eigenvalue: float = 1e-8    # |lambda - 1| for the Perron root

    # stochastic matrix validation and structure flags
    row_sum_reject: float = 1e-6     # row-sum deviation that fails validation
    stochastic_check: float = 1e-9   # doubly stochastic and detailed balance flags
    hitting_agreement: float = 1e-8

    # identity checks, relative to the scale of what they compare
    identity_relative: float = 1e-9  # the factor of bound(scale)
    eigentime: float = 1e-8          # relative to t_av

    # sum-rule hypotheses, absolute
    pair_hypothesis: float = 1e-10

    # Monte Carlo acceptance band, in units of the standard error
    sigma_band: float = 4.0

    def bound(self, scale: float) -> float:
        """Tolerance of an identity check comparing numbers of size ``scale``."""
        return self.identity_relative * max(1.0, abs(float(scale)))

    def override(self, **changes) -> "Tolerances":
        """Return a copy with the named fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


DEFAULT = Tolerances()
