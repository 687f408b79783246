"""Geographically weighted regression comparators.

Local weighted least squares at every site with an exponential
distance-decay kernel, either with one fixed bandwidth or with each site's
kernel rescaled by its m-th nearest-neighbor distance (adaptive).  The
bandwidth (or neighbor count) is chosen by minimizing the corrected AIC

    AICc = 2 N ln(sigma_hat) + N ln(2 pi) + N (N + tr(S)) / (N - 2 - tr(S)),

with sigma_hat^2 = RSS / N and S the hat matrix of the local fits.  A search
computes the distances (for the adaptive kernel, sorted row by row) and the
moments x_j x_j' and x_j y_j once.  A candidate forms all N local systems
X' diag(w_i) X b = X' diag(w_i) y as one product of its weights with those
moments; the adaptive scan fits chunks of candidates, and one vectorized
Cholesky factorization solves all of a chunk's site systems.  tr(S), the RSS
and the check that every local system is positive definite are then each
one reduction over the chunk's stacked sites, and only the AICc and the
GwrFit are formed per candidate.  A local system counts as singular when a
pivot of its factorization is within rounding of zero (``_PIVOT_TOL``), as
at a site whose kernel weighs fewer distinct sites than coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllSitesCoincident, DegreesExhausted, DimensionMismatch, NoFeasibleBandwidth, SingularLocalFit
from .spatial import SiteSet

KERNELS = ("exponential_fixed", "exponential_adaptive")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BW_REL_TOL = 1e-3

# An adaptive search scans an even grid of this many neighbor counts, which
# lists every count when there are no more; over more, it then refines
# around the grid winner.
_MAX_EXHAUSTIVE = 256

# A chunk of candidates stacks about 4 K^2 + 8 K doubles per site and
# candidate.  At most this many site systems per chunk bound that by 1 MB at
# K = 3 (2.3 MB at K = 5), the size of one candidate's N x N weights at N = 360.
_STACK_SITES = 2048

# A pivot of the L D L' factorization at or below this many eps times its
# diagonal entry a_jj counts as zero.  The factorization perturbs a pivot by
# about (K + 1) eps a_jj, and the weighted sums that form a by about
# sqrt(N) eps a_jj in practice, so a local system that is singular in exact
# arithmetic ends well inside 1000 eps a_jj.  Since a pivot is at least
# a_jj over the condition number of the diagonally scaled system, only
# systems with that condition number above 1 / (1000 eps), about 4.5e12, are
# rejected; the accepted systems of 30 N = 150 scenario draws and of four
# N = 1600 toy grids all had pivots above 1.8e-4 a_jj.
_PIVOT_TOL = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class GwrFit:
    local_coefs: np.ndarray  # (N, K)
    bandwidth: float | int
    aicc: float
    trace_S: float
    fitted: np.ndarray  # (N,)
    rss: float


@dataclass(frozen=True)
class _Problem:  # what every candidate of one search shares
    X: np.ndarray  # (N, K), intercept included
    y: np.ndarray  # (N,)
    d: np.ndarray  # (N, N) distances
    d_sorted: np.ndarray | None  # rows of d sorted ascending, adaptive kernel only
    kernel: str
    moments: np.ndarray  # (K (K + 1), N): row (a, b) is x_ja x_jb, row (a, K) is x_ja y_j


def _problem(sites: SiteSet, X, y, kernel: str, include_intercept: bool) -> _Problem:
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float).ravel()
    if X.shape[0] != sites.n_sites or y.shape[0] != sites.n_sites:
        raise DimensionMismatch(f"X and y must have one row per site ({sites.n_sites})")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    ones = [np.ones(sites.n_sites)] if include_intercept else []
    X = np.column_stack(ones + [X])  # a 1-D X is one column
    moments = (X.T[:, None] * np.column_stack([X, y]).T).reshape(-1, sites.n_sites)
    d = sites.distances()
    d_sorted = np.sort(d, axis=1) if kernel == "exponential_adaptive" else None
    return _Problem(X, y, d, d_sorted, kernel, moments)


def _weights(d: np.ndarray, kernel: str, bw, d_sorted: np.ndarray | None) -> np.ndarray:
    """Kernel weights from the distances ``d``; the adaptive kernel reads its
    radii from ``d_sorted``, the rows of ``d`` sorted ascending."""
    if kernel == "exponential_fixed":
        if not bw > 0:
            raise ValueError("fixed bandwidth must be positive")
        scale = float(bw)
    else:
        # Adaptive: per-row range set by the m-th nearest neighbor (self excluded).
        m = int(bw)
        if m != bw:
            raise ValueError("neighbor count must be an integer")
        if not 1 <= m <= d.shape[0] - 1:
            raise ValueError(f"neighbor count must lie in [1, {d.shape[0] - 1}]")
        scale = np.maximum(d_sorted[:, m], np.finfo(float).tiny)[:, None]  # column 0 is self
    with np.errstate(over="ignore"):  # a zero radius (coincident sites) scales by the tiny floor
        w = d / -scale  # exp(-d / scale) in one N x N buffer
    return np.exp(w, out=w)


def _solve_spd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions (K, R, S) of the systems a[:, :, s] x = b[:, :, s] stacked on
    the last axis, and whether each system is positive definite (S,), by a
    square-root-free Cholesky factorization a = L D L' in vector operations
    over the stack.  Only the lower triangle of ``a`` is read.  A system is
    positive definite when every pivot is above ``_PIVOT_TOL`` times its
    diagonal entry of ``a``.  That test also fails a NaN, and an infinite
    pivot, which needs an infinite diagonal entry or an earlier pivot that
    failed: the updates only subtract l_jq^2 d_q from a finite entry."""
    k = a.shape[0]
    low = np.empty_like(a)  # L below its unit diagonal
    low_d = np.empty_like(a)  # L D on and below the diagonal, so D on it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k):
            col = a[j:, j].copy()
            for q in range(j):
                col -= low_d[j:, q] * low[j, q]
            low_d[j:, j] = col
            low[j + 1 :, j] = col[1:] / col[0]
        piv = np.diagonal(low_d).T
        ok = (piv > _PIVOT_TOL * np.diagonal(a).T).all(axis=0)
        x = b.copy()
        for j in range(k):
            for q in range(j):
                x[j] -= low[j, q] * x[q]
        x /= piv[:, None]
        for j in reversed(range(k)):
            for q in range(j + 1, k):
                x[j] -= low[q, j] * x[q]
    return x, ok


def gwr_fit_at(
    sites: SiteSet,
    X: np.ndarray,
    y: np.ndarray,
    kernel: str = "exponential_fixed",
    bw=1.0,
    include_intercept: bool = True,
) -> GwrFit:
    """Local WLS at every site for one bandwidth / neighbor count.

    Raises
    ------
    DimensionMismatch
        X or y does not have one row per site.
    ValueError
        X or y is not finite.
    SingularLocalFit
        Some site's weighted moment matrix is not positive definite.
    DegreesExhausted
        tr(S) >= N - 2, leaving AICc undefined.
    """
    (fit,) = _fit_candidates(_problem(sites, X, y, kernel, include_intercept), [bw])
    if not isinstance(fit, GwrFit):
        raise fit
    return fit


def _fit_candidates(p: _Problem, bws) -> list:
    """Each bandwidth or neighbor count's GwrFit, or the SingularLocalFit or
    DegreesExhausted it raises.  All candidates' site systems are solved as
    one stack, and tr(S), the RSS and the positive-definite check are each
    one reduction over the candidates' rows of sites; a candidate's result
    is the same bit for bit in any list."""
    n, k = p.X.shape
    m = len(bws)
    g = np.empty((p.moments.shape[0], m * n))
    for j, bw in enumerate(bws):
        np.matmul(p.moments, _weights(p.d, p.kernel, bw, p.d_sorted).T, out=g[:, j * n : (j + 1) * n])
    g = g.reshape(k, k + 1, -1)  # [:, :K, i] is A_i = X' diag(w_i) X, [:, K, i] is X' diag(w_i) y
    x = np.tile(p.X.T, m)
    sol, ok = _solve_spd(g[:, :k], np.stack([g[:, k], x], axis=1))  # beta_i and A_i^{-1} x_i
    with np.errstate(invalid="ignore", over="ignore"):
        fitted = (x * sol[:, 0]).sum(axis=0).reshape(m, n)
        # S_ii = w_ii x_i' A_i^{-1} x_i with w_ii = 1 for both kernels.
        trace_s = (x * sol[:, 1]).sum(axis=0).reshape(m, n).sum(axis=1)
        rss = ((p.y - fitted) ** 2).sum(axis=1)
    positive = ok.reshape(m, n).all(axis=1)

    out = []
    for j, (bw, pos, tr, ss) in enumerate(zip(bws, positive.tolist(), trace_s.tolist(), rss.tolist())):
        if not (pos and math.isfinite(tr)):
            out.append(SingularLocalFit("a site's weighted moment matrix is singular"))
        elif tr >= n - 2:
            out.append(DegreesExhausted(f"tr(S) = {tr:.2f} >= N - 2 = {n - 2}"))
        else:
            sigma2 = max(ss / n, 1e-300)
            aicc = n * math.log(sigma2) + n * math.log(2.0 * math.pi) + n * (n + tr) / (n - 2.0 - tr)
            coefs = sol[:, 0, j * n : (j + 1) * n].T.copy()
            out.append(GwrFit(local_coefs=coefs, bandwidth=bw, aicc=aicc, trace_S=tr, fitted=fitted[j].copy(), rss=ss))
    return out


def _best_of(p: _Problem, candidates: list, best: GwrFit | None) -> GwrFit | None:
    """The lowest-AICc fit of ``best`` and the candidates, fit by chunks; a later one wins by over 1e-12."""
    chunk = max(1, _STACK_SITES // p.X.shape[0])
    for start in range(0, len(candidates), chunk):
        for fit in _fit_candidates(p, candidates[start : start + chunk]):
            if isinstance(fit, GwrFit) and (best is None or fit.aicc < best.aicc - 1e-12):
                best = fit
    return best


def select_bandwidth(
    sites: SiteSet,
    X: np.ndarray,
    y: np.ndarray,
    kernel: str = "exponential_fixed",
    include_intercept: bool = True,
) -> GwrFit:
    """AICc-minimizing bandwidth: golden-section over distance for the fixed
    kernel, integer scan over neighbor counts for the adaptive one.

    Candidates whose local fits fail are skipped; if every candidate fails,
    NoFeasibleBandwidth is raised.  The fixed kernel raises
    AllSitesCoincident when every site coincides, which leaves no positive
    distance to search; the adaptive kernel then fits every site with unit
    weights.  X and y are checked as ``gwr_fit_at`` checks them.
    """
    p = _problem(sites, X, y, kernel, include_intercept)
    n, k = p.X.shape
    if n < k + 5:
        raise ValueError(f"need N >= K + 5 = {k + 5} sites, got {n}")

    if kernel == "exponential_adaptive":
        lo, hi = k + 2, n - 1
        grid = _adaptive_candidates(lo, hi)
        best = _best_of(p, grid, None)
        if best is not None and hi - lo + 1 > len(grid):
            # Refine around the coarse winner, over the counts the grid skipped.
            m0 = int(best.bandwidth)
            near = sorted(set(range(max(lo, m0 - 8), min(hi, m0 + 8) + 1)) - set(grid))
            best = _best_of(p, near, best)
        if best is None:
            raise NoFeasibleBandwidth("all neighbor counts failed")
        return best

    maxdist = float(p.d.max())
    if maxdist == 0.0:
        raise AllSitesCoincident("all pairwise distances are zero: no fixed bandwidth to search")
    return _golden_section(p, 0.01 * maxdist, maxdist)


def _adaptive_candidates(lo: int, hi: int) -> list[int]:
    grid = np.unique(np.linspace(lo, hi, _MAX_EXHAUSTIVE).round().astype(int))
    return [int(m) for m in grid]


def _golden_section(p: _Problem, a: float, b: float) -> GwrFit:
    """AICc golden-section over [a, b]; ties resolve toward larger bandwidths."""

    def score(bw):
        (fit,) = _fit_candidates(p, [bw])
        return (fit.aicc, fit) if isinstance(fit, GwrFit) else (math.inf, None)

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fit_c = score(c)
    fd, fit_d = score(d)
    while (b - a) > _BW_REL_TOL * max(abs(b), 1e-300):
        if fc < fd:  # minimum in [a, d]; on ties prefer the larger-bw side
            b, d, fd, fit_d = d, c, fc, fit_c
            c = b - _GOLDEN * (b - a)
            fc, fit_c = score(c)
        else:
            a, c, fc, fit_c = c, d, fd, fit_d
            d = a + _GOLDEN * (b - a)
            fd, fit_d = score(d)
    f_final, fit_final = score(0.5 * (a + b))
    for f, fit in ((fc, fit_c), (fd, fit_d)):
        if fit is not None and f < f_final:
            f_final, fit_final = f, fit
    if fit_final is None:
        raise NoFeasibleBandwidth("every candidate bandwidth failed")
    return fit_final
