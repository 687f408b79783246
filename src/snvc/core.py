"""Mixed-model engine for spatially and non-spatially varying coefficients.

The regression coefficient of covariate k decomposes into a constant mean, a
spatial part spanned by Moran eigenvectors, and a non-spatial part spanned by
a spline basis in the covariate itself.  Stacking those bases row-scaled by
the covariate gives an ordinary linear mixed model; the restricted
log-likelihood of its variance parameters is evaluated here entirely from
precomputed crossproducts, so one evaluation costs the same at N = 100 and
N = 100,000.

Layout convention for the random-effect columns: all spatial blocks in
covariate order, then all non-spatial blocks in covariate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    EmptySpatialBasis,
    NumericalBreakdown,
    SingularFixedBlock,
)
from .spatial import SpatialBasis, scale_eigenvalues
from .splines import NvcBasis, spline_basis

# Profiled residual variances below this are treated as degenerate.
VARIANCE_FLOOR = 1e-12

ALPHA_BOUNDS = (-5.0, 10.0)

# Search bounds on log tau^2; they keep exp() finite.
_LOG_TAU2_BOUNDS = (-46.0, 46.0)

_MAX_EVALS_TOTAL = 2000

# L-BFGS-B also stops when one step lowers the objective by less than this
# fraction of its size.  scipy's default, 2.2e-9, is about 1e-6 on a
# log-likelihood of a few hundred and can stop on a flat ridge with a gradient
# of 1e-2 left; 1e-10 stays above the rounding level of the likelihood.
_FTOL = 1e-10


@dataclass(frozen=True)
class ModelSpec:
    """Per-covariate switches for the coefficient decomposition."""

    covariate_names: tuple[str, ...]
    has_svc: tuple[bool, ...]
    has_nvc: tuple[bool, ...]
    n_basis_nvc: tuple[int, ...] = ()
    spline_family: str = "natural_cubic"

    def __post_init__(self):
        k = len(self.covariate_names)
        if k < 1:
            raise ValueError("need at least one covariate")
        if len(self.has_svc) != k or len(self.has_nvc) != k:
            raise ValueError("per-covariate switch lengths must match covariate_names")
        if not self.n_basis_nvc:
            object.__setattr__(self, "n_basis_nvc", tuple(10 for _ in range(k)))
        elif len(self.n_basis_nvc) != k:
            raise ValueError("n_basis_nvc length must match covariate_names")

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)


@dataclass(frozen=True)
class BlockLayout:
    """Column range of one random-effect block inside the stacked basis."""

    covariate: int
    kind: str  # "svc" | "nvc"
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class DesignMatrix:
    """Fixed-effect block X and row-scaled random-effect blocks."""

    X: np.ndarray  # (N, K)
    blocks: tuple[BlockLayout, ...]
    block_values: tuple[np.ndarray, ...]  # aligned with blocks

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_fixed(self) -> int:
        return self.X.shape[1]

    @property
    def n_random(self) -> int:
        return self.blocks[-1].stop if self.blocks else 0

    def random_effects(self) -> np.ndarray:
        """All random-effect columns as one N x P matrix."""
        if not self.block_values:
            return np.empty((self.n_obs, 0))
        return np.hstack(self.block_values)


@dataclass(frozen=True)
class Crossproducts:
    """Every inner product the restricted likelihood needs; nothing N-sized."""

    XtX: np.ndarray
    XtE: np.ndarray
    EtE: np.ndarray
    Xty: np.ndarray
    Ety: np.ndarray
    yty: float
    n_obs: int
    blocks: tuple[BlockLayout, ...]

    @property
    def n_fixed(self) -> int:
        return self.XtX.shape[0]

    @property
    def n_random(self) -> int:
        return self.EtE.shape[0]


@dataclass(frozen=True)
class VarianceParams:
    """Residual variance plus per-covariate variance/scale parameters.

    ``tau2_s[k]`` and ``tau2_n[k]`` are absolute variances; the likelihood
    only ever consumes the ratios ``tau / sigma``.
    """

    sigma2: float
    tau2_s: np.ndarray
    alpha: np.ndarray
    tau2_n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau2_s", np.asarray(self.tau2_s, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "tau2_n", np.asarray(self.tau2_n, dtype=float))
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if np.any(self.tau2_s < 0) or np.any(self.tau2_n < 0):
            raise ValueError("tau2 values must be nonnegative")
        lo, hi = ALPHA_BOUNDS
        if np.any(self.alpha < lo) or np.any(self.alpha > hi):
            raise ValueError(f"alpha must lie in [{lo}, {hi}]")

    def validate_against(self, spec: ModelSpec) -> None:
        for k in range(spec.n_covariates):
            if not spec.has_svc[k] and self.tau2_s[k] != 0.0:
                raise ValueError(f"tau2_s[{k}] must be 0 when has_svc is false")
            if not spec.has_nvc[k] and self.tau2_n[k] != 0.0:
                raise ValueError(f"tau2_n[{k}] must be 0 when has_nvc is false")


@dataclass(frozen=True)
class LoglikResult:
    loglik: float
    b_hat: np.ndarray
    u_hat: np.ndarray
    sigma2_hat: float


@dataclass(frozen=True)
class FittedModel:
    spec: ModelSpec
    theta: VarianceParams
    b_hat: np.ndarray
    u_hat: np.ndarray
    restricted_loglik: float
    n_loglik_evals: int
    converged: bool
    n_obs: int
    blocks: tuple[BlockLayout, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class CoefficientField:
    """Per-site coefficient decomposition: total = mean + svc + nvc exactly."""

    covariate_names: tuple[str, ...]
    mean: np.ndarray  # (K,)
    svc: np.ndarray  # (N, K)
    nvc: np.ndarray  # (N, K)
    total: np.ndarray  # (N, K)
    sd_svc: np.ndarray  # (K,)
    sd_nvc: np.ndarray  # (K,)
    svc_share: np.ndarray  # (K,) sd_svc / (sd_svc + sd_nvc); 1.0 where constant
    constant_coefficient: np.ndarray  # (K,) bool, no variation at all


def build_design(
    X: np.ndarray,
    spec: ModelSpec,
    spatial: SpatialBasis | None,
    nvc_bases: list[NvcBasis | None],
) -> DesignMatrix:
    """Assemble the stacked design: X, then x_k-scaled spatial and spline blocks.

    Raises
    ------
    EmptySpatialBasis
        An SVC term is requested but the spatial basis has no component.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.n_covariates:
        raise DimensionMismatch("X must be N x K with K matching the model spec")
    n = X.shape[0]

    any_svc = any(spec.has_svc)
    if any_svc:
        if spatial is None or spatial.n_components == 0:
            raise EmptySpatialBasis("SVC requested but the spatial basis is empty")
        if spatial.n_sites != n:
            raise DimensionMismatch("spatial basis rows must match X rows")
    if len(nvc_bases) != spec.n_covariates:
        raise DimensionMismatch("nvc_bases must have one entry per covariate")

    blocks: list[BlockLayout] = []
    values: list[np.ndarray] = []
    offset = 0
    for k in range(spec.n_covariates):
        if spec.has_svc[k]:
            block = X[:, k : k + 1] * spatial.eigvecs
            blocks.append(BlockLayout(k, "svc", offset, offset + block.shape[1]))
            values.append(block)
            offset += block.shape[1]
    for k in range(spec.n_covariates):
        if spec.has_nvc[k]:
            basis = nvc_bases[k]
            if basis is None:
                raise DimensionMismatch(f"covariate {k} has NVC enabled but no basis")
            if basis.values.shape[0] != n:
                raise DimensionMismatch("NVC basis rows must match X rows")
            block = X[:, k : k + 1] * basis.values
            blocks.append(BlockLayout(k, "nvc", offset, offset + block.shape[1]))
            values.append(block)
            offset += block.shape[1]

    return DesignMatrix(X=X, blocks=tuple(blocks), block_values=tuple(values))


def precompute_crossproducts(Z: DesignMatrix, y: np.ndarray) -> Crossproducts:
    """One pass of dense products; everything downstream is N-free."""
    y = np.asarray(y, dtype=float).ravel()
    n = Z.n_obs
    if y.shape[0] != n:
        raise DimensionMismatch("y length must match the design rows")
    if n <= Z.n_fixed:
        raise ValueError("need more observations than fixed effects")
    E = Z.random_effects()
    return Crossproducts(
        XtX=Z.X.T @ Z.X,
        XtE=Z.X.T @ E,
        EtE=E.T @ E,
        Xty=Z.X.T @ y,
        Ety=E.T @ y,
        yty=float(y @ y),
        n_obs=n,
        blocks=Z.blocks,
    )


def _v_diagonal(
    blocks: tuple[BlockLayout, ...],
    theta: VarianceParams,
    scalings: list[np.ndarray | None],
) -> np.ndarray:
    """Diagonal of the random-effect scaling matrix, per block (tau/sigma) units."""
    p = blocks[-1].stop if blocks else 0
    v = np.zeros(p)
    for blk in blocks:
        k = blk.covariate
        if blk.kind == "svc":
            ratio = math.sqrt(theta.tau2_s[k] / theta.sigma2)
            scaling = scalings[k]
            if scaling is None:
                raise ValueError(f"missing eigen scaling for covariate {k}")
            weights = np.sqrt(scaling[: blk.size])
            v[blk.start : blk.stop] = ratio * weights
        else:
            ratio = math.sqrt(theta.tau2_n[k] / theta.sigma2)
            v[blk.start : blk.stop] = ratio
    return v


def _check_fixed_block(XtX: np.ndarray) -> None:
    """Raise ``SingularFixedBlock`` unless X'X is numerically positive definite."""
    fixed_eigs = np.linalg.eigvalsh(XtX)
    if fixed_eigs[0] <= 1e-12 * max(fixed_eigs[-1], np.finfo(float).tiny):
        raise SingularFixedBlock("X'X is rank-deficient")


def _factor_joint(
    cp: Crossproducts, v: np.ndarray, g: np.ndarray
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Assemble the joint system into ``g``, factor it in place and solve it.

    ``g`` is a Fortran-ordered (K+P) x (K+P) buffer.  Returns the restricted
    log-likelihood, the solution (b, u), the profiled variance, and the clean
    lower Cholesky factor, which shares ``g``'s memory.
    """
    n, k, p = cp.n_obs, cp.n_fixed, cp.n_random
    g[:k, :k] = cp.XtX
    g[:k, k:] = cp.XtE * v
    g[k:, :k] = g[:k, k:].T
    np.multiply(v[:, None] * cp.EtE, v[None, :], out=g[k:, k:])
    g[k + np.arange(p), k + np.arange(p)] += 1.0
    rhs = np.concatenate([cp.Xty, v * cp.Ety])

    factor, info = lapack.dpotrf(g, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericalBreakdown("joint system factorization failed")
    sol, _ = lapack.dpotrs(factor, rhs, lower=1)

    quad = cp.yty - float(rhs @ sol)  # residual SS + ||u||^2
    sigma2_hat = quad / (n - k)
    if not sigma2_hat > VARIANCE_FLOOR:
        raise NumericalBreakdown(
            f"profiled variance {sigma2_hat:.3e} is at or below the floor {VARIANCE_FLOOR}"
        )

    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    loglik = -0.5 * logdet - 0.5 * (n - k) * (1.0 + math.log(2.0 * math.pi * sigma2_hat))
    return loglik, sol, sigma2_hat, factor


def restricted_loglik(
    cp: Crossproducts,
    spec: ModelSpec,
    theta: VarianceParams,
    scalings: list[np.ndarray | None],
) -> LoglikResult:
    """Restricted log-likelihood with the residual variance profiled out.

    Builds the symmetric system

        [ X'X      X'E V     ] [b]   [ X'y  ]
        [ V E'X    V E'E V+I ] [u] = [ V E'y]

    from the crossproducts alone, solves it by Cholesky, and evaluates

        -log|system|/2 - (N-K)/2 * (1 + log(2 pi sigma2_hat)),

    where sigma2_hat = (residual SS + ||u||^2) / (N - K) expands through the
    same crossproducts.  ``scalings[k]`` must be ``scale_eigenvalues(basis,
    alpha_k)`` for every covariate with an SVC term.

    Raises
    ------
    SingularFixedBlock
        X'X is not positive definite.
    NumericalBreakdown
        The joint system cannot be factorized, or the profiled variance
        falls below the degeneracy floor.
    """
    theta.validate_against(spec)
    _check_fixed_block(cp.XtX)
    v = _v_diagonal(cp.blocks, theta, scalings)
    size = cp.n_fixed + cp.n_random
    loglik, sol, sigma2_hat, _ = _factor_joint(cp, v, np.empty((size, size), order="F"))
    k = cp.n_fixed
    return LoglikResult(
        loglik=loglik,
        b_hat=sol[:k],
        u_hat=sol[k:],
        sigma2_hat=sigma2_hat,
    )


# ---------------------------------------------------------------------------
# REML optimization
# ---------------------------------------------------------------------------


@dataclass
class _ParamLayout:
    """Mapping between the optimizer vector and VarianceParams.

    Searched parameters are log variance ratios (tau/sigma)^2 and raw alpha;
    alpha is only searched when at least 3 eigenvalues make it identifiable.
    """

    idx_log_tau2_s: dict[int, int]
    idx_alpha: dict[int, int]
    idx_log_tau2_n: dict[int, int]
    fixed_alpha: float = 1.0

    @property
    def size(self) -> int:
        return len(self.idx_log_tau2_s) + len(self.idx_alpha) + len(self.idx_log_tau2_n)

    def bounds(self) -> list[tuple[float, float]]:
        out = [_LOG_TAU2_BOUNDS] * self.size
        for i in self.idx_alpha.values():
            out[i] = ALPHA_BOUNDS
        return out

    def decode(self, t: np.ndarray, n_cov: int) -> VarianceParams:
        tau2_s = np.zeros(n_cov)
        tau2_n = np.zeros(n_cov)
        alpha = np.zeros(n_cov)
        for k, i in self.idx_log_tau2_s.items():
            tau2_s[k] = math.exp(t[i])
            alpha[k] = self.fixed_alpha
        for k, i in self.idx_alpha.items():
            alpha[k] = t[i]
        for k, i in self.idx_log_tau2_n.items():
            tau2_n[k] = math.exp(t[i])
        return VarianceParams(sigma2=1.0, tau2_s=tau2_s, alpha=alpha, tau2_n=tau2_n)


def _build_layout(cp: Crossproducts, spec: ModelSpec, n_eigvals: int) -> _ParamLayout:
    idx_s: dict[int, int] = {}
    idx_a: dict[int, int] = {}
    idx_n: dict[int, int] = {}
    pos = 0
    svc_cov = sorted({b.covariate for b in cp.blocks if b.kind == "svc"})
    nvc_cov = sorted({b.covariate for b in cp.blocks if b.kind == "nvc"})
    for k in svc_cov:
        idx_s[k] = pos
        pos += 1
        if n_eigvals >= 3:  # alpha unidentifiable from fewer eigenvalues
            idx_a[k] = pos
            pos += 1
    for k in nvc_cov:
        idx_n[k] = pos
        pos += 1
    return _ParamLayout(idx_log_tau2_s=idx_s, idx_alpha=idx_a, idx_log_tau2_n=idx_n)


class RemlProblem:
    """The restricted log-likelihood and its gradient over the searched vector.

    Built once per fit: the rank check on X'X, the log eigenvalue ratios
    log(lambda_l / lambda_1) and the map from the searched parameters to the
    log scaling diagonal are the same at every evaluation, and the (K+P)
    square system buffer is reused.  With v the diagonal of V,

        log v = C' t + offset,

    where row j of ``C`` holds d log v / d t_j: 1/2 on the block of each log
    variance ratio and (1/2) log(lambda_l / lambda_1) on the block of alpha.
    ``offset`` carries the fixed alpha of blocks whose alpha is not searched.

    Raises
    ------
    SingularFixedBlock
        X'X is not positive definite.
    """

    def __init__(self, cp: Crossproducts, spec: ModelSpec, spatial: SpatialBasis | None):
        _check_fixed_block(cp.XtX)
        self.cp = cp
        n_eig = spatial.n_components if spatial is not None else 0
        self.layout = layout = _build_layout(cp, spec, n_eig)
        self._C = np.zeros((layout.size, cp.n_random))
        self._offset = np.zeros(cp.n_random)
        if n_eig:
            half_log_ratio = 0.5 * np.log(spatial.eigvals / spatial.eigvals[0])
        for blk in cp.blocks:
            cols = slice(blk.start, blk.stop)
            k = blk.covariate
            if blk.kind == "nvc":
                self._C[layout.idx_log_tau2_n[k], cols] = 0.5
                continue
            self._C[layout.idx_log_tau2_s[k], cols] = 0.5
            if k in layout.idx_alpha:
                self._C[layout.idx_alpha[k], cols] = half_log_ratio[: blk.size]
            else:
                self._offset[cols] = layout.fixed_alpha * half_log_ratio[: blk.size]
        size = cp.n_fixed + cp.n_random
        self._g = np.empty((size, size), order="F")

    def value_and_grad(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """Log-likelihood at ``t`` and its exact gradient, from one factor.

        With (b, u) the solution of the joint system G and sigma2_hat the
        profiled variance,

            d loglik / d log v_i = u_i^2 / sigma2_hat - 1 + (G^-1)_ii

        for random-effect column i, and the chain rule through ``C`` gives
        the gradient in t.  The lower-right P x P block of L^-1 is the
        inverse of the lower-right block of the Cholesky factor L, so
        diag(G^-1) on the random-effect columns is the column sums of
        squares of that inverted block.

        Raises
        ------
        NumericalBreakdown
            As ``restricted_loglik``.
        """
        loglik, sol, sigma2_hat, factor = self.solve(t)
        k = self.cp.n_fixed
        l22_inv, info = lapack.dtrtri(factor[k:, k:], lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalBreakdown("triangular inverse of the joint factor failed")
        u = sol[k:]
        score = u * u / sigma2_hat - 1.0 + np.einsum("ij,ij->j", l22_inv, l22_inv)
        return loglik, self._C @ score

    def solve(self, t: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """``_factor_joint`` at the scaling ``v = exp(C' t + offset)``."""
        return _factor_joint(self.cp, np.exp(t @ self._C + self._offset), self._g)

    def starts(self) -> list[np.ndarray]:
        """Ratio tau/sigma of 0.1 with alpha 1, and ratio 1 with alpha 0."""
        layout = self.layout
        out = []
        for log_ratio2, a0 in ((math.log(0.1**2), 1.0), (0.0, 0.0)):
            t0 = np.zeros(layout.size)
            for i in layout.idx_log_tau2_s.values():
                t0[i] = log_ratio2
            for i in layout.idx_log_tau2_n.values():
                t0[i] = log_ratio2
            for i in layout.idx_alpha.values():
                t0[i] = a0
            out.append(t0)
        return out


def _search(problem: RemlProblem, t0: np.ndarray, maxfun: int) -> scipy.optimize.OptimizeResult:
    """One bounded L-BFGS-B run from ``t0``; ``nfev`` counts value-and-gradient calls.

    A breakdown is reported to L-BFGS-B as an infinite objective, which its
    line search may take as a stop that it calls successful; a run that met
    one is therefore marked unsuccessful.
    """
    broke = False

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal broke
        try:
            value, grad = problem.value_and_grad(t)
        except NumericalBreakdown:
            broke = True
            return math.inf, np.zeros_like(t)
        return -value, -grad

    run = scipy.optimize.minimize(
        objective,
        t0,
        jac=True,
        method="L-BFGS-B",
        bounds=problem.layout.bounds(),
        options={"maxfun": maxfun, "ftol": _FTOL},
    )
    run.success = run.success and not broke
    return run


def fit_reml(
    cp: Crossproducts,
    spec: ModelSpec,
    spatial: SpatialBasis | None,
) -> FittedModel:
    """Maximize the restricted log-likelihood over the variance parameters.

    Bounded L-BFGS-B with the analytic gradient of ``RemlProblem`` searches
    log variance ratios (tau/sigma)^2 and alpha inside ``_LOG_TAU2_BOUNDS``
    and ``ALPHA_BOUNDS``, once from each of two fixed starts (ratio tau/sigma
    of 0.1 with alpha 1, and ratio 1 with alpha 0), each with half of the
    evaluation budget.  One evaluation is one value-and-gradient call, which
    costs one Cholesky factor and one triangular inverse; ``n_loglik_evals``
    counts them plus the final factorisation at the winning point, which
    gives the effects and the profiled variance.  The start with the
    higher likelihood wins, and ``converged`` is its L-BFGS-B stopping test
    (the largest projected-gradient component fell below scipy's default, or
    the relative change of the objective below ``_FTOL``, before the budget
    ran out), unless that start met a ``NumericalBreakdown``: L-BFGS-B can
    stop at such a point and call it success, so a winning start that met one
    is never converged.
    Deterministic given identical inputs.
    """
    problem = RemlProblem(cp, spec, spatial)
    layout = problem.layout
    t_best, n_evals, converged = np.empty(0), 1, True
    if layout.size:
        starts = problem.starts()
        runs = [_search(problem, t0, _MAX_EVALS_TOTAL // len(starts)) for t0 in starts]
        best = min(runs, key=lambda r: r.fun)
        if not math.isfinite(best.fun):
            raise NumericalBreakdown("no admissible variance point was found")
        t_best = best.x
        n_evals += sum(r.nfev for r in runs)
        converged = bool(best.success)

    loglik, sol, s2, _ = problem.solve(t_best)
    # Searched parameters are variance ratios relative to sigma2 = 1; rescale
    # by the profiled sigma2 so the stored tau2 are absolute variances with
    # identical ratios (the likelihood value is unchanged).
    ratio = layout.decode(t_best, spec.n_covariates)
    theta = VarianceParams(sigma2=s2, tau2_s=ratio.tau2_s * s2, alpha=ratio.alpha, tau2_n=ratio.tau2_n * s2)
    k = cp.n_fixed
    return FittedModel(
        spec=spec,
        theta=theta,
        b_hat=sol[:k],
        u_hat=sol[k:],
        restricted_loglik=loglik,
        n_loglik_evals=n_evals,
        converged=converged,
        n_obs=cp.n_obs,
        blocks=cp.blocks,
    )


# ---------------------------------------------------------------------------
# Coefficient prediction
# ---------------------------------------------------------------------------


def predict_coefficients(
    fit: FittedModel,
    spatial: SpatialBasis | None,
    nvc_bases: list[NvcBasis | None],
) -> CoefficientField:
    """Per-site coefficient decomposition from the fitted effects.

    The spatial part of covariate k is (tau_s/sigma) E Lambda^(alpha/2) u_k,
    the non-spatial part (tau_n/sigma) E_k u_k; the total adds the constant
    mean.  Any fit is decomposed, converged or not; callers that need a
    converged fit check ``FittedModel.converged``.
    """
    spec, theta = fit.spec, fit.theta
    scalings = [
        scale_eigenvalues(spatial, float(theta.alpha[k])) if spec.has_svc[k] else None
        for k in range(spec.n_covariates)
    ]
    gamma = _v_diagonal(fit.blocks, theta, scalings) * fit.u_hat
    svc = np.zeros((fit.n_obs, spec.n_covariates))
    nvc = np.zeros((fit.n_obs, spec.n_covariates))
    for blk in fit.blocks:
        k = blk.covariate
        if blk.kind == "svc":
            svc[:, k] = spatial.eigvecs[:, : blk.size] @ gamma[blk.start : blk.stop]
        else:
            nvc[:, k] = nvc_bases[k].values @ gamma[blk.start : blk.stop]

    mean = np.asarray(fit.b_hat, dtype=float)
    total = mean[None, :] + svc + nvc
    sd_svc = svc.std(axis=0, ddof=1)
    sd_nvc = nvc.std(axis=0, ddof=1)
    denom = sd_svc + sd_nvc
    constant = denom == 0.0
    shares = np.where(constant, 1.0, sd_svc / np.where(constant, 1.0, denom))
    return CoefficientField(
        covariate_names=spec.covariate_names,
        mean=mean,
        svc=svc,
        nvc=nvc,
        total=total,
        sd_svc=sd_svc,
        sd_nvc=sd_nvc,
        svc_share=shares,
        constant_coefficient=constant,
    )


def fit_snvc(
    X: np.ndarray,
    y: np.ndarray,
    spec: ModelSpec,
    spatial: SpatialBasis | None,
    nvc_bases: list[NvcBasis | None] | None = None,
) -> tuple[FittedModel, CoefficientField]:
    """Design assembly, crossproducts, REML fit, and coefficient field in one call.

    When ``nvc_bases`` is omitted, spline bases are built from the covariate
    columns flagged in the spec.  The coefficient field is produced even for
    an unconverged fit; check ``FittedModel.converged``.
    """
    X = np.asarray(X, dtype=float)
    if nvc_bases is None:
        nvc_bases = [
            spline_basis(X[:, k], spec.n_basis_nvc[k], spec.spline_family)
            if spec.has_nvc[k]
            else None
            for k in range(spec.n_covariates)
        ]
    design = build_design(X, spec, spatial, nvc_bases)
    cp = precompute_crossproducts(design, y)
    fit = fit_reml(cp, spec, spatial)
    field = predict_coefficients(fit, spatial, nvc_bases)
    return fit, field
