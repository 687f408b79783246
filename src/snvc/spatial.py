"""Moran eigenvector spatial basis.

Builds the exponential proximity matrix ``c_ij = exp(-d_ij / r)`` with the
range ``r`` taken from the longest edge of a Euclidean minimum spanning tree,
eigendecomposes the doubly-centered matrix ``M C M`` (``M = I - 11'/N``), and
keeps the eigenvectors belonging to positive eigenvalues, or only the leading
ones up to a cap, which are then all that is computed.  Those columns are
the map patterns with positive spatial autocorrelation; their eigenvalues,
raised to a power ``alpha``, control the spatial scale of a simulated or
fitted coefficient surface.  ``moran_basis`` does all of this in one
N x N buffer.

All functions here are pure; returned objects are immutable in practice and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AllSitesCoincident,
    ConstantVector,
    EmptySpatialBasis,
    NonPositiveRange,
    SiteLimitExceeded,
)

# Exact dense eigendecomposition only; refuse sizes where that is no longer
# a desk-scale operation.
DEFAULT_MAX_SITES = 10_000

# Relative threshold deciding which eigenvalues count as positive.
DEFAULT_EIGEN_CUTOFF = 1e-8

# How far a lower bound on lambda_1 must exceed 1, the size of the -1
# eigenvalue floor, before lambda_1 is taken as max|lambda|.  Computed
# eigenvalues and Rayleigh quotients of M C M lie within about N eps N of the
# exact ones (||M C M|| <= N): under 2.3e-8 at the site limit, 40 times less.
_FLOOR_MARGIN = 1e-6


@dataclass(frozen=True)
class SiteSet:
    """Planar sample sites with Euclidean geometry."""

    coords: np.ndarray  # (N, 2)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an N x 2 array")
        if coords.shape[0] < 2:
            raise ValueError("need at least 2 sites")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def n_sites(self) -> int:
        return self.coords.shape[0]

    def distances(self) -> np.ndarray:
        """Full N x N Euclidean distance matrix, exactly symmetric.

        ``sqrt(dx^2 + dy^2)``, the arithmetic of scipy's ``cdist``, so the
        same bits.  Rows are computed in panels of about 16k entries, dx^2 in
        the result's own rows and dy^2 in one reused panel, so the peak is
        the result, one panel and numpy's ufunc buffer.
        """
        n = self.n_sites
        x, y = self.coords.T.copy()
        out = np.empty((n, n))
        rows = max(1, 16384 // n)
        dy_panel = np.empty_like(out[:rows])
        for i in range(0, n, rows):
            dx = out[i : i + rows]
            dy = dy_panel[: len(dx)]
            np.subtract(x[i : i + rows, None], x, out=dx)
            np.subtract(y[i : i + rows, None], y, out=dy)
            dx *= dx
            dy *= dy
            dx += dy
            np.sqrt(dx, out=dx)
        return out


@dataclass(frozen=True)
class SpatialBasis:
    """Positive-eigenvalue eigenpairs of M C M, eigenvalues sorted descending."""

    eigvecs: np.ndarray  # (N, L), orthonormal, column means zero
    eigvals: np.ndarray  # (L,), strictly positive, descending
    range_r: float

    @property
    def n_components(self) -> int:
        return self.eigvals.shape[0]

    @property
    def n_sites(self) -> int:
        return self.eigvecs.shape[0]


def mst_range(sites: SiteSet) -> float:
    """Maximum edge length of a Euclidean minimum spanning tree over the sites.

    Prim's algorithm on the dense distance matrix.  Duplicate sites give
    zero-length edges, which are valid tree edges.

    Raises
    ------
    AllSitesCoincident
        If every pairwise distance is zero.
    """
    return _mst_max_edge(sites.distances())


def build_proximity(sites: SiteSet, range_r: float) -> np.ndarray:
    """Exponential proximity matrix C, ``exp(-d_ij / range_r)`` with a zero diagonal, N x N."""
    if not range_r > 0.0:
        raise NonPositiveRange(f"range must be positive, got {range_r}")
    return _proximity(sites.distances(), range_r)


def moran_basis(sites: SiteSet, max_components: int | None = None) -> SpatialBasis:
    """Leading positive-eigenvalue eigenpairs of M C M, in one N x N buffer.

    The distance matrix is computed once, gives the range r (``mst_range``),
    and is turned into C (``build_proximity(sites, r)``) and then M C M in
    place; the eigensolver overwrites it.  An eigenpair is kept when
    ``lambda > DEFAULT_EIGEN_CUTOFF * max|lambda|`` over the whole spectrum,
    which guards against floating-point zeros masquerading as positive
    eigenvalues.  Both module constants are read at call time.

    ``max_components`` keeps at most that many pairs, the largest.  When it
    is at most N/4 only those pairs are computed.  ``exp(-d/r)`` is a
    positive-semidefinite kernel in the plane (Matern, nu = 1/2), so no
    eigenvalue of M C M is below -1: ``max|lambda| = lambda_1`` once the
    Rayleigh quotient of a centred coordinate exceeds 1, and otherwise the
    whole spectrum is computed.  The kept set is the uncapped one cut to its
    leading pairs; a cut inside a tied eigenvalue keeps an arbitrary
    rotation of the tied pairs.  ``None`` keeps every positive pair.

    Returns
    -------
    SpatialBasis
        May be empty (L = 0) when the spectrum has no positive eigenvalue,
        e.g. N = 2 or an equilateral triangle.

    Raises
    ------
    SiteLimitExceeded
        If N exceeds ``DEFAULT_MAX_SITES``, checked before any N x N work;
        it is also a ``ValueError``.
    AllSitesCoincident
        If every pairwise distance is zero.
    """
    n = sites.n_sites
    if n > DEFAULT_MAX_SITES:
        raise SiteLimitExceeded(
            f"N = {n} exceeds the dense-decomposition limit {DEFAULT_MAX_SITES}; "
            "approximate eigen methods are out of scope"
        )
    k = n if max_components is None else max_components
    if k < 1:
        raise ValueError(f"max_components must be at least 1, got {max_components}")
    cutoff = DEFAULT_EIGEN_CUTOFF

    c = sites.distances()
    range_r = _mst_max_edge(c)
    _proximity(c, range_r)
    # The grand mean of C itself: the mean of the row means rounds
    # differently, and that moves some fits to another local maximum.
    _center(c, c.mean(axis=1), c.mean())
    # The subset solve (MRRR) beats divide and conquer over the whole
    # spectrum only while k is at most about N/4 (1 BLAS thread, k = 200:
    # 0.047 s against 0.019 s at N = 400, 0.57 s against 0.78 s at N = 1600).
    # M fixes the centred coordinates u, so u'(M C M)u / u'u <= lambda_1.
    u = sites.coords - sites.coords.mean(axis=0)
    if 4 * k <= n and np.any((u * (c @ u)).sum(axis=0) > (1 + _FLOOR_MARGIN) * (u * u).sum(axis=0)):
        eigvals, eigvecs = scipy.linalg.eigh(
            c.T,
            subset_by_index=[n - k, n - 1],
            driver="evr",
            overwrite_a=True,
            check_finite=False,
        )
        # No eigenvalue is below -1, so lambda_1 > 1 is max|lambda|.
        threshold = cutoff * float(eigvals[-1])
    else:
        eigvals, eigvecs = scipy.linalg.eigh(c.T, driver="evd", overwrite_a=True, check_finite=False)
        # The cutoff is relative to the spectral magnitude so that spectra
        # whose largest eigenvalue is a floating-point zero (e.g. an
        # equilateral triangle) come back empty instead of keeping noise.
        threshold = cutoff * float(np.abs(eigvals).max())
    del c  # evr writes the eigenvectors elsewhere: free the N x N buffer before copying them

    # eigh returns ascending eigenvalues: the kept ones are the last m.
    m = min(int((eigvals > threshold).sum()), k)
    order = eigvals.size - 1 - np.arange(m)
    return SpatialBasis(eigvecs=eigvecs[:, order], eigvals=eigvals[order], range_r=range_r)


# --- in-place stages ------------------------------------------------------


def _mst_max_edge(d: np.ndarray) -> float:
    """Longest edge of a minimum spanning tree (Prim) on distances ``d``."""
    n = d.shape[0]
    # inf on the sites in the tree, 0 elsewhere: d[j] + closed keeps ``best``
    # at inf on the tree in two plain passes with no temporary (a masked
    # np.minimum is slower than an np.where temporary at N = 1600).
    closed = np.zeros(n)
    closed[0] = np.inf
    best = d[0] + closed  # each site's distance to the tree
    row = np.empty(n)
    max_edge = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(best))
        max_edge = max(max_edge, float(best[j]))
        closed[j] = best[j] = np.inf
        np.add(d[j], closed, out=row)
        np.minimum(best, row, out=best)
    # A tree of zero-length edges joins sites that all coincide.
    if max_edge == 0.0:
        raise AllSitesCoincident("all pairwise distances are zero")
    return max_edge


def _proximity(d: np.ndarray, range_r: float) -> np.ndarray:
    """``exp(-d / range_r)`` with a zero diagonal, in place in ``d``."""
    d /= -range_r
    np.exp(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _center(c: np.ndarray, row_means: np.ndarray, grand_mean: float) -> None:
    """M C M as ``(c_ij - r_i) - r_j + g``, in place in the C-ordered ``c``.

    The result is symmetric only up to rounding; LAPACK reads one triangle,
    so it needs no symmetrizing copy.  C is exactly symmetric, so the
    transpose of the C-ordered buffer is the Fortran-ordered matrix.
    """
    c -= row_means[:, None]
    c -= row_means[None, :]
    c += grand_mean


def scale_eigenvalues(basis: SpatialBasis, alpha: float) -> np.ndarray:
    """Weights ``(lambda_l / lambda_1)**alpha`` for the retained eigenvalues.

    Normalizing by the leading eigenvalue keeps the weights in (0, 1] for
    alpha > 0; the absorbed overall scale moves into the matching tau^2.
    """
    if basis.n_components == 0:
        raise EmptySpatialBasis("cannot scale an empty basis")
    return (basis.eigvals / basis.eigvals[0]) ** alpha


def moran_coefficient(z: np.ndarray, C: np.ndarray) -> float:
    """Moran coefficient  N (z'MCMz) / ((1'C1)(z'Mz))  of a vector ``z``.

    Raises
    ------
    ConstantVector
        If z is constant (z'Mz = 0), which leaves the statistic undefined.
    """
    z = np.asarray(z, dtype=float)
    n = C.shape[0]
    if z.shape != (n,):
        raise ValueError(f"z must have length {n}")
    zc = z - z.mean()
    denom = float(zc @ zc)
    if denom <= 0.0:
        raise ConstantVector("z is constant; z'Mz = 0")
    num = float(zc @ C @ zc)
    return n * num / (float(C.sum()) * denom)
