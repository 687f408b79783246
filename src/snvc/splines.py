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

import numpy as np

from .errors import TooFewDistinctValues

FAMILIES = ("natural_cubic", "thin_plate_1d")

# Inclusive bounds on the requested number of basis functions.
N_BASIS_RANGE = (3, 50)

# A column's sd below this comes from a variance that underflowed past the
# normal range of doubles, so its scaling to unit sd would be inexact.  On
# x rescaled into (-1, 1) only knots tied in all but their last bits do that.
_SD_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _natural_cubic_columns(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    # Truncated-power natural cubic basis: linear term plus K-2 curvature
    # terms, each with zero second derivative beyond the boundary knots.
    K = len(knots)
    last = knots[-1]

    def d(j):
        return (
            np.maximum(x - knots[j], 0.0) ** 3 - np.maximum(x - last, 0.0) ** 3
        ) / (last - knots[j])

    d_ref = d(K - 2)
    cols = [x]
    for j in range(K - 2):
        cols.append(d(j) - d_ref)
    return np.column_stack(cols)


def _thin_plate_columns(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    return np.abs(x[:, None] - knots[None, :]) ** 3


def spline_basis(x: np.ndarray, n_basis: int = 10, family: str = "natural_cubic") -> np.ndarray:
    """Build the centered spline basis of a covariate vector: an (N, L) array.

    Knots sit at equally spaced quantiles of ``x`` with the boundary knots at
    its min and max; tied quantiles are deduplicated and the basis shrinks
    accordingly.  No column is dropped: every column of the family is kept,
    centered and scaled to unit sd.  ``x`` is first scaled by a power of two
    into (-1, 1), which is exact and commutes with every later step, so the
    basis is bit for bit the same in any power-of-two units and no column
    can overflow.  The array is Fortran-ordered.

    Raises
    ------
    ValueError
        ``x`` is not finite.
    TooFewDistinctValues
        ``x`` has fewer than ``n_basis + 2`` distinct values (one, if it is
        constant), or ties collapse too many knots, or knots tied in all but
        their last bits leave a column without spread.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ValueError("covariate values must be finite")
    lo, hi = N_BASIS_RANGE
    if not lo <= n_basis <= hi:
        raise ValueError(f"n_basis must lie in [{lo}, {hi}]")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")

    distinct = np.unique(x)
    if distinct.size < n_basis + 2:
        raise TooFewDistinctValues(
            f"covariate has {distinct.size} distinct values; need >= {n_basis + 2}"
        )
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])

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
    sds = cols.std(axis=0, ddof=1)
    if not np.all(sds >= _SD_FLOOR):
        raise TooFewDistinctValues(
            f"covariate spans {distinct[0]:.6g} to {distinct[-1]:.6g}: its knots are tied in all but "
            "their last bits, so a spline column has no spread"
        )
    # Fortran order: products with the basis, such as the scenario generator's
    # basis @ z, round by its memory order.
    return np.divide(cols, sds, order="F")
