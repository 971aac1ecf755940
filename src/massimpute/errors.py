"""Exception hierarchy shared across the package.

Two base classes split failures into data-validation problems (bad files,
bad schemas, bad design metadata) and numerical problems (singular systems,
non-convergent solvers); a third marks malformed command-line settings.  The
CLI maps these to distinct exit codes.
"""

from __future__ import annotations


def _rebuild(cls, args, state):
    exc = Exception.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class _Error(Exception):
    # Pickled by its state, not by calling __init__ again with the message,
    # which most subclasses' signatures reject, so an error raised in a worker
    # process reaches the parent whole.
    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class ValidationError(_Error):
    """Input data or configuration violates a precondition."""


class NumericalError(_Error):
    """A numerical procedure failed (singularity, divergence, overflow)."""


class UsageError(_Error):
    """A flag or config file value is malformed, or flags conflict."""


# -- data / schema -----------------------------------------------------------

class MissingColumn(ValidationError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column!r} not found")


class NonNumericValue(ValidationError):
    problem = "non-numeric"

    def __init__(self, column: str, row: int, value: str):
        self.column = column
        self.row = row
        super().__init__(
            f"{self.problem} value {value!r} in column {column!r}, row {row}"
        )


class NonFiniteValue(NonNumericValue):
    problem = "non-finite"


class NonPositiveWeight(ValidationError):
    def __init__(self, row: int, value: float):
        self.row = row
        super().__init__(f"non-positive weight {value} in row {row}")


class EmptyFile(ValidationError):
    def __init__(self, path: str):
        super().__init__(f"no data rows in {path}")


class MissingValue(ValidationError):
    def __init__(self, column: str, row: int):
        self.column = column
        self.row = row
        super().__init__(f"missing value in column {column!r}, row {row}")


class RaggedRow(ValidationError):
    def __init__(self, row: int, cells: int, expected: int):
        self.row = row
        super().__init__(f"row {row} has {cells} cells but the header has {expected}")


class UnknownCovariate(ValidationError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"covariate {name!r} not present in sample")


class ColumnMismatch(ValidationError):
    def __init__(self, expected, got):
        super().__init__(f"column mismatch: expected {list(expected)}, got {list(got)}")


class DimensionMismatch(ValidationError):
    def __init__(self, msg: str = "vector lengths differ"):
        super().__init__(msg)


class UnsupportedDesign(ValidationError):
    pass


class MissingJointProbabilities(ValidationError):
    pass


class SampleTooLarge(ValidationError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"requested sample size {n} exceeds available {limit}")


class StratumExhausted(ValidationError):
    def __init__(self, stratum: str, requested: int, available: int):
        super().__init__(
            f"stratum {stratum}: requested {requested} units, only {available} available"
        )


class IOFailure(ValidationError):
    pass


# -- numerics ----------------------------------------------------------------

class RankDeficient(NumericalError):
    def __init__(self, msg: str = "design matrix is rank deficient"):
        super().__init__(msg)


class SingularSystem(NumericalError):
    def __init__(self, msg: str = "linear system is singular"):
        super().__init__(msg)


class NoConvergence(NumericalError):
    def __init__(self, iterations: int, score_norm: float, last=None):
        self.iterations = iterations
        self.score_norm = score_norm
        self.last = last
        super().__init__(
            f"no convergence after {iterations} iterations (score norm {score_norm:.3e})"
        )


class Separation(NumericalError):
    def __init__(self):
        super().__init__(
            "perfect separation detected: coefficients diverging with fitted "
            "probabilities pinned at 0/1"
        )


class ZeroPropensity(NumericalError):
    def __init__(self):
        super().__init__("fitted propensity too close to zero: the IPW mean overflows")


class OverflowGuardWarning(RuntimeWarning):
    """Raised when an exp argument was saturated to avoid overflow."""
