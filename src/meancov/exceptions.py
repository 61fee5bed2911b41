"""Exception hierarchy shared by all estimation modules."""


class MeanCovError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVectorError(MeanCovError):
    """A direction vector with (numerically) zero norm was supplied."""


class NonUnitVectorError(MeanCovError):
    """A vector expected to be unit length is not, and renormalization is off."""


class DimensionMismatchError(MeanCovError):
    """Array shapes are inconsistent with each other or with the data."""


class NonPositiveEigenvalueError(MeanCovError):
    """An eigenvalue that must be strictly positive is not."""


class DegenerateDataError(MeanCovError):
    """The data lie in a proper subspace, so the estimator is undefined."""


class ZeroMeanError(MeanCovError):
    """A nonzero mean vector is required but the supplied one is (near) zero."""


class EmptyChainError(MeanCovError):
    """A posterior chain with at least one state is required."""


class ParseError(MeanCovError):
    """A CSV cell could not be parsed; the message names row and column."""


class TooFewRowsError(MeanCovError):
    """At least two data rows are required."""


class RangeError(MeanCovError):
    """A latitude/longitude value lies outside the accepted range."""
