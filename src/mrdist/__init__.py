"""Resistance distance, sum rules and Kirchhoff indices for ergodic Markov chains."""

from .chain import (
    CHAIN_KINDS,
    ChainAnalysis,
    ErgodicityReport,
    StochasticMatrix,
    analyze,
    check_ergodicity,
    eigentime_constant,
    fundamental_matrix,
    generate_random_chain,
    group_inverse,
    hitting_times,
    hitting_times_oracle,
    kemeny_constant,
    pi_matrix,
    stationary,
    validate,
)
from .errors import (
    HypothesisViolatedError,
    MaxStepsExceededError,
    MRDistError,
    NegativeEntryError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotDoublyStochasticError,
    NotErgodicError,
    NotReversibleError,
    NotSquareError,
    ParseError,
    RowSumOutOfToleranceError,
    SingularMatrixError,
    SinkhornNoConvergenceError,
    TooLargeError,
)
from .forest import (
    ForestWeights,
    enumerate_forests,
    hitting_from_forest,
    omega_from_forest,
    stationary_from_forest,
)
from .linalg import eigenvalues, inverse, lu_solve
from .resistance import (
    KirchhoffReport,
    MetricReport,
    foster_first_formula,
    foster_sum,
    kirchhoff_indices,
    make_sum_rule_pair,
    metric_check,
    omega_from_commute,
    omega_from_fundamental,
    omega_from_group_inverse,
    omega_from_hitting,
    sum_rule,
)
from .simulate import HittingEstimate, SimConfig, estimate_omega, simulate_hitting
from .tolerances import DEFAULT as DEFAULT_TOLERANCES
from .tolerances import Tolerances

__version__ = "0.1.0"
