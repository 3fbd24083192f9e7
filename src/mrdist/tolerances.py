"""Central numerical tolerance configuration.

Every hard-coded threshold used by the library lives in one frozen record so
that the CLI, the tests and library callers agree on a single set of
defaults. Functions that read a threshold take a ``tol`` keyword
defaulting to :data:`DEFAULT`.
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
    stochastic_check: float = 1e-9   # column sums, detailed balance, F/D row sums
    stationary_residual: float = 1e-10
    fundamental_residual: float = 1e-9
    group_inverse_axioms: float = 1e-8
    random_target: float = 1e-8
    hitting_agreement: float = 1e-8
    sinkhorn: float = 1e-10
    sinkhorn_max_sweeps: int = 10_000

    # resistance identities
    representation_agreement: float = 1e-9
    triangle: float = 1e-10
    pair_hypothesis: float = 1e-10
    sum_rule_relative: float = 1e-8
    kirchhoff: float = 1e-8
    multiplicative_kirchhoff: float = 1e-9
    additive_slack: float = 1e-9
    eigentime: float = 1e-6
    eigentime_imag: float = 1e-8
    foster: float = 1e-8

    # forest oracle cross-checks
    forest_pi: float = 1e-10
    forest_hitting: float = 1e-9
    forest_omega: float = 1e-9

    # Monte Carlo acceptance band, in units of the standard error
    sigma_band: float = 4.0

    def override(self, **changes) -> "Tolerances":
        """Return a copy with the named fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


DEFAULT = Tolerances()
