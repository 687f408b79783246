"""Centered spline bases for non-spatially varying coefficients.

A coefficient that changes with its own covariate is modeled as a linear
combination of smooth basis functions of that covariate.  Two families are
provided: natural cubic splines (linear beyond the boundary knots) and 1-D
thin-plate radial splines ``|x - knot|**3``.  Columns are centered to mean
zero for identifiability against the constant coefficient, and rescaled to
unit standard deviation so the variance parameter is comparable across
covariates of any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantCovariate, TooFewDistinctValues

FAMILIES = ("natural_cubic", "thin_plate_1d")

# Inclusive bounds on the requested number of basis functions.
N_BASIS_RANGE = (3, 50)

# Columns whose spread is below this fraction of the covariate scale carry
# no usable signal and are dropped.
_NEAR_CONSTANT_REL = 1e-10


@dataclass(frozen=True)
class NvcBasis:
    """Centered spline basis matrix for one covariate."""

    values: np.ndarray  # (N, L), column means zero, unit column sd
    knots: np.ndarray  # strictly increasing

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


def _natural_cubic_columns(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    # Truncated-power natural cubic basis: linear term plus K-2 curvature
    # terms, each with zero second derivative beyond the boundary knots.
    K = len(knots)
    last, second_last = knots[-1], knots[-2]

    def d(j):
        return (
            np.maximum(x - knots[j], 0.0) ** 3 - np.maximum(x - last, 0.0) ** 3
        ) / (last - knots[j])

    d_ref = d(K - 2) if K >= 2 else None
    cols = [x.astype(float)]
    for j in range(K - 2):
        cols.append(d(j) - d_ref)
    return np.column_stack(cols)


def _thin_plate_columns(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    return np.abs(x[:, None] - knots[None, :]) ** 3


def spline_basis(x: np.ndarray, n_basis: int = 10, family: str = "natural_cubic") -> NvcBasis:
    """Build a centered spline basis from a covariate vector.

    Knots sit at equally spaced quantiles of ``x`` with the boundary knots at
    its min and max; tied quantiles are deduplicated and the basis shrinks
    accordingly.  Near-constant columns are dropped.

    Raises
    ------
    ConstantCovariate
        ``x`` takes a single value (e.g. an intercept column).
    TooFewDistinctValues
        ``x`` has fewer than ``n_basis + 2`` distinct values, or ties
        collapse too many knots.
    """
    x = np.asarray(x, dtype=float).ravel()
    lo, hi = N_BASIS_RANGE
    if not lo <= n_basis <= hi:
        raise ValueError(f"n_basis must lie in [{lo}, {hi}]")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")

    distinct = np.unique(x)
    if distinct.size == 1:
        raise ConstantCovariate("covariate is constant; disable its NVC term")
    if distinct.size < n_basis + 2:
        raise TooFewDistinctValues(
            f"covariate has {distinct.size} distinct values; need >= {n_basis + 2}"
        )

    n_knots = n_basis + 1 if family == "natural_cubic" else n_basis
    n_interior = n_knots - 2
    knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_knots)))
    if len(knots) - 2 < min(3, n_interior):
        raise TooFewDistinctValues(
            f"tied quantiles leave only {max(len(knots) - 2, 0)} interior knots"
        )

    if family == "natural_cubic":
        cols = _natural_cubic_columns(x, knots)
    else:
        cols = _thin_plate_columns(x, knots)

    cols = cols - cols.mean(axis=0)
    x_scale = max(float(np.std(x, ddof=1)), np.finfo(float).tiny)
    sds = cols.std(axis=0, ddof=1)
    keep = sds > _NEAR_CONSTANT_REL * x_scale
    cols = cols[:, keep] / sds[keep]

    return NvcBasis(values=cols, knots=knots)

