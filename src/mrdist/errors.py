"""Exception hierarchy shared by all mrdist modules."""


class MRDistError(Exception):
    """Base class for every error raised by this package."""


class NotSquareError(MRDistError):
    """Input matrix is not two-dimensional square."""


class NonFiniteEntryError(MRDistError):
    """Input contains NaN or infinite entries."""


class NegativeEntryError(MRDistError):
    """Transition matrix has a negative entry."""


class RowSumOutOfToleranceError(MRDistError):
    """A row sum deviates from 1 by more than the validation tolerance."""


class SingularMatrixError(MRDistError):
    """LU factorization produced a pivot below the singularity threshold."""


class NoConvergenceError(MRDistError):
    """Eigenvalue iteration did not converge."""


class TooLargeError(MRDistError):
    """Problem size exceeds the supported cap."""


class NotErgodicError(MRDistError):
    """Chain is reducible or periodic where ergodicity is required."""


class SinkhornNoConvergenceError(MRDistError):
    """Sinkhorn balancing did not reach tolerance within the sweep cap."""


class NotDoublyStochasticError(MRDistError):
    """Operation requires a doubly stochastic transition matrix."""


class NotReversibleError(MRDistError):
    """Operation requires detailed balance to hold."""


class HypothesisViolatedError(MRDistError):
    """A sum-rule pair (M, K) fails its row-sum or symmetry hypothesis."""


class MaxStepsExceededError(MRDistError):
    """A simulated trajectory exceeded the per-replica step cap."""


class ParseError(MRDistError):
    """Chain file could not be read, parsed or written."""
