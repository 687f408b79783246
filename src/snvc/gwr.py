"""Geographically weighted regression comparators.

Local weighted least squares at every site with an exponential
distance-decay kernel, either with one fixed bandwidth or with each site's
kernel rescaled by its m-th nearest-neighbor distance (adaptive).  The
bandwidth (or neighbor count) is chosen by minimizing the corrected AIC

    AICc = 2 N ln(sigma_hat) + N ln(2 pi) + N (N + tr(S)) / (N - 2 - tr(S)),

with sigma_hat^2 = RSS / N and S the hat matrix of the local fits.  A search
computes the distances once (and, for the adaptive kernel, sorts each row
once, so a neighbor count's radii are one column); each candidate forms all
N local moment matrices X' diag(w_i) X as one product of the weight matrix
with the per-site outer products x_j x_j'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreesExhausted, NoFeasibleBandwidth, SingularLocalFit
from .spatial import SiteSet

KERNELS = ("exponential_fixed", "exponential_adaptive")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BW_REL_TOL = 1e-3

# Adaptive searches over more neighbor counts than this scan an even grid of
# this many counts, then refine around the grid winner.
_MAX_EXHAUSTIVE = 256


@dataclass(frozen=True)
class GwrFit:
    local_coefs: np.ndarray  # (N, K)
    bandwidth: float | int
    aicc: float
    trace_S: float
    fitted: np.ndarray  # (N,)
    rss: float


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
        if not 1 <= m <= d.shape[0] - 1:
            raise ValueError(f"neighbor count must lie in [1, {d.shape[0] - 1}]")
        scale = np.maximum(d_sorted[:, m], np.finfo(float).tiny)[:, None]  # column 0 is self
    w = d / -scale  # exp(-d / scale) in one N x N buffer
    return np.exp(w, out=w)


def _design(X: np.ndarray, n: int, include_intercept: bool) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.column_stack([np.ones(n), X]) if include_intercept else X


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
    SingularLocalFit
        Some site's weighted moment matrix is rank-deficient.
    DegreesExhausted
        tr(S) >= N - 2, leaving AICc undefined.
    """
    X = _design(X, sites.n_sites, include_intercept)
    y = np.asarray(y, dtype=float).ravel()
    d = sites.distances()
    d_sorted = np.sort(d, axis=1) if kernel == "exponential_adaptive" else None
    return _fit_at(X, y, d, d_sorted, kernel, bw)


def _fit_at(
    X: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    d_sorted: np.ndarray | None,
    kernel: str,
    bw,
) -> GwrFit:
    """``gwr_fit_at`` on a prepared design (intercept included) and geometry."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    n, k = X.shape
    w = _weights(d, kernel, bw, d_sorted)

    # A_i = X' diag(w_i) X and c_i = X' diag(w_i) y for every site at once.
    a = (w @ (X[:, :, None] * X[:, None, :]).reshape(n, k * k)).reshape(n, k, k)
    c = w @ (X * y[:, None])
    try:
        betas = np.linalg.solve(a, c[:, :, None])[:, :, 0]
        ainv_x = np.linalg.solve(a, X[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularLocalFit("a site's weighted moment matrix is rank-deficient") from exc

    fitted = np.einsum("ik,ik->i", X, betas)
    # S_ii = w_ii x_i' A_i^{-1} x_i with w_ii = 1 for both kernels.
    trace_s = float(np.einsum("ik,ik->i", X, ainv_x).sum())
    if not np.isfinite(trace_s):
        raise SingularLocalFit("hat-matrix trace is not finite")
    if trace_s >= n - 2:
        raise DegreesExhausted(f"tr(S) = {trace_s:.2f} >= N - 2 = {n - 2}")

    rss = float(((y - fitted) ** 2).sum())
    sigma2 = max(rss / n, 1e-300)
    aicc = n * math.log(sigma2) + n * math.log(2.0 * math.pi) + n * (n + trace_s) / (n - 2.0 - trace_s)
    return GwrFit(local_coefs=betas, bandwidth=bw, aicc=aicc, trace_S=trace_s, fitted=fitted, rss=rss)


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
    NoFeasibleBandwidth is raised.
    """
    n = sites.n_sites
    X = _design(X, n, include_intercept)
    y = np.asarray(y, dtype=float).ravel()
    k = X.shape[1]
    if n < k + 5:
        raise ValueError(f"need N >= K + 5 = {k + 5} sites, got {n}")
    # Every candidate shares the distances and, for the adaptive kernel, their sorted rows.
    d = sites.distances()
    d_sorted = np.sort(d, axis=1) if kernel == "exponential_adaptive" else None

    def try_fit(bw):
        try:
            return _fit_at(X, y, d, d_sorted, kernel, bw)
        except (SingularLocalFit, DegreesExhausted):
            return None

    if kernel == "exponential_adaptive":
        lo, hi = k + 2, n - 1
        candidates = _adaptive_candidates(lo, hi)
        best = None
        for m in candidates:
            fit = try_fit(m)
            if fit is not None and (best is None or fit.aicc < best.aicc - 1e-12):
                best = fit
        if best is not None and hi - lo + 1 > len(candidates):
            # Refine around the coarse winner.
            m0 = int(best.bandwidth)
            for m in range(max(lo, m0 - 8), min(hi, m0 + 8) + 1):
                fit = try_fit(m)
                if fit is not None and fit.aicc < best.aicc - 1e-12:
                    best = fit
        if best is None:
            raise NoFeasibleBandwidth("all neighbor counts failed")
        return best

    maxdist = float(d.max())
    a, b = 0.01 * maxdist, maxdist
    return _golden_section(try_fit, a, b)


def _adaptive_candidates(lo: int, hi: int) -> list[int]:
    count = hi - lo + 1
    if count <= _MAX_EXHAUSTIVE:
        return list(range(lo, hi + 1))
    grid = np.unique(np.linspace(lo, hi, _MAX_EXHAUSTIVE).round().astype(int))
    return [int(m) for m in grid]


def _golden_section(try_fit, a: float, b: float) -> GwrFit:
    """AICc golden-section over [a, b]; ties resolve toward larger bandwidths."""

    def score(bw):
        fit = try_fit(bw)
        return (math.inf if fit is None else fit.aicc), fit

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
