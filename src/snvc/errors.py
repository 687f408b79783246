"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: config/usage problems exit 2, data
problems exit 3, numerical failures exit 4.
"""


class SnvcError(Exception):
    """Base class for all package errors."""


# --- configuration / usage ------------------------------------------------

class ConfigInvalid(SnvcError):
    """A configuration value violates its documented bounds."""


# --- data ingestion -------------------------------------------------------

class DataError(SnvcError):
    """Base class for tabular-data problems."""


class MissingColumn(DataError):
    def __init__(self, column):
        super().__init__(f"designated column not found: {column!r}")
        self.column = column


class ParseError(DataError):
    """A cell ``token`` that is not a number, or, with ``token`` None, an unreadable record or header."""

    def __init__(self, row, column, token, problem=None):
        what = f"cannot parse {token!r}" if token is not None else problem
        super().__init__(f"{what} at row {row}, column {column!r}")
        self.row = row
        self.column = column
        self.token = token


class EmptyAfterFiltering(DataError):
    """No rows remain once missing/non-finite designated values are dropped."""


class SiteLimitExceeded(DataError, ValueError):
    """More sites than the dense N x N eigendecomposition is allowed."""


class CoordinateRangeTooLarge(DataError, ValueError):
    """The coordinates span so wide a range that squared distances overflow."""


class CrossproductOverflow(DataError, ValueError):
    """The covariates or the response are so large that the design's crossproducts overflow."""


# --- geometry and bases ---------------------------------------------------

class AllSitesCoincident(SnvcError):
    """Every pairwise distance is zero; no spanning-tree range or fixed GWR bandwidth exists."""


class NonPositiveRange(SnvcError):
    """Proximity range must be strictly positive."""


class EmptySpatialBasis(SnvcError):
    """The spatial basis has no retained eigenvector: an SVC term needs one."""


class ConstantVector(SnvcError):
    """Moran coefficient undefined for a constant vector (z'Mz = 0)."""


class TooFewDistinctValues(SnvcError):
    """Covariate has too few distinct values, or knots too nearly tied, for the requested spline; a constant has one."""


class DimensionMismatch(SnvcError):
    pass


# --- model assembly and estimation ----------------------------------------

class SingularFixedBlock(SnvcError):
    """X'X is rank-deficient; fixed effects are not identifiable."""


class NumericalBreakdown(SnvcError):
    """Factorization failed or a degenerate variance was encountered."""


class SingularLocalFit(SnvcError):
    """A site's weighted moment matrix is rank-deficient."""


class DegreesExhausted(SnvcError):
    """tr(S) >= N - 2, so the corrected AIC is undefined."""


class NoFeasibleBandwidth(SnvcError):
    """Every candidate bandwidth failed."""
