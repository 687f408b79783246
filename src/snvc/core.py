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

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import blas, lapack

from .errors import (
    ConstantCovariate,
    DimensionMismatch,
    EmptySpatialBasis,
    NumericalBreakdown,
    SingularFixedBlock,
    TooFewDistinctValues,
)
from .spatial import SpatialBasis
from .splines import NvcBasis, spline_basis

# Profiled residual variances below this are treated as degenerate.
VARIANCE_FLOOR = 1e-12

ALPHA_BOUNDS = (-5.0, 10.0)

# alpha is searched only when the basis has at least this many eigenvalues;
# from fewer it is unidentifiable and held at _FIXED_ALPHA.
_MIN_ALPHA_EIGVALS = 3
_FIXED_ALPHA = 1.0

# Search bounds on log tau^2; they keep exp() finite.
_LOG_TAU2_BOUNDS = (-46.0, 46.0)

_MAX_EVALS_TOTAL = 2000

# The one-sided score of an inactive SVC block is maximised over this grid.
_ALPHA_GRID = np.linspace(ALPHA_BOUNDS[0], ALPHA_BOUNDS[1], 31)

# The search ends when no inactive block's one-sided score exceeds this
# fraction of |loglik|.
_SCORE_TOL = 1e-6

# An active block whose largest column variance ratio (tau/sigma)^2 w_l falls
# to this leaves the active set and is certified by its score instead.
_COLLAPSED = 1e-8

# Largest column variance ratios tried for a block that enters the active set,
# and the smaller ones tried if none of those raises the likelihood.
_ENTRY_LOG_RATIOS = np.log(10.0 ** np.arange(-4.0, 3.0, 2.0))
_ENTRY_SMALL_LOG_RATIOS = np.log([1e-6, 1e-8])

# L-BFGS-B also stops when one step lowers the objective by less than this
# fraction of its size.  scipy's default, 2.2e-9, is about 1e-6 on a
# log-likelihood of a few hundred and can stop on a flat ridge with a gradient
# of 1e-2 left; 1e-10 stays above the rounding level of the likelihood.
_FTOL = 1e-10

# Screening only chooses the active set, which the polish then searches from
# fixed starts, so its L-BFGS-B runs stop at this looser tolerance.
_SCREEN_FTOL = 1e-4

# L-BFGS-B's memory, projected-gradient tolerance and line search steps, as
# scipy's minimize sets them; and the task codes setulb returns: a finished
# iteration, a request for f and g at x, and convergence.
_LBFGS_MEMORY = 10
_PGTOL = 1e-5
_MAX_LS = 20
_TASK_NEW_X, _TASK_FG, _TASK_CONVERGENCE = 1, 3, 4


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B module, loaded from its file in scipy's
    ``optimize`` directory without running the ``scipy.optimize`` package,
    whose ``__init__`` imports solvers the search never calls.  The
    ``sys.modules`` entry the loader makes is undone, so a later ``import
    scipy.optimize`` loads and binds its own module as usual."""
    name = "scipy.optimize._lbfgsb"
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(os.path.dirname(scipy.__file__), "optimize")])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled {name}; snvc calls its setulb as in scipy 1.17.1")
    kept = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if kept is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = kept
    return module


_lbfgsb = _load_lbfgsb()

# Triangles up to this order are inverted by one dtrtri; larger ones by
# halves.  With one OpenBLAS thread on a 2-vCPU Xeon, halving took the column
# norms of L22^-1 from 0.10 to 0.08 ms at P = 97, 1.6 to 0.70 ms at 300 and
# 8.1 to 3.6 ms at 620, with leaves of 48 to 128 within 15% of one another
# above 150; 96 keeps the N = 150 systems on a single dtrtri.
_TRI_LEAF = 96


@dataclass(frozen=True)
class ModelSpec:
    """Per-covariate switches for the coefficient decomposition."""

    covariate_names: tuple[str, ...]
    has_svc: tuple[bool, ...]
    has_nvc: tuple[bool, ...]
    n_basis_nvc: int = 10  # the spline size of every NVC term
    spline_family: str = "natural_cubic"

    def __post_init__(self):
        k = len(self.covariate_names)
        if k < 1:
            raise ValueError("need at least one covariate")
        if len(self.has_svc) != k or len(self.has_nvc) != k:
            raise ValueError("per-covariate switch lengths must match covariate_names")
        if isinstance(self.n_basis_nvc, bool) or not isinstance(self.n_basis_nvc, (int, np.integer)):
            raise ValueError(f"n_basis_nvc must be one integer for every NVC term, got {self.n_basis_nvc!r}")

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
    """Fixed-effect block X and the row-scaled random-effect columns E."""

    X: np.ndarray  # (N, K)
    E: np.ndarray  # (N, P), the columns of each block at its layout range
    blocks: tuple[BlockLayout, ...]

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_fixed(self) -> int:
        return self.X.shape[1]

    @property
    def n_random(self) -> int:
        return self.E.shape[1]


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


def _columns(blocks: tuple[BlockLayout, ...]) -> np.ndarray:
    """Indices of the random-effect columns of ``blocks``, in order."""
    return np.concatenate([np.arange(b.start, b.stop) for b in blocks] + [np.empty(0, dtype=int)])


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
        if not all(np.isfinite(a).all() for a in (self.sigma2, self.tau2_s, self.alpha, self.tau2_n)):
            raise ValueError("variance parameters must be finite")
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
    gamma: np.ndarray  # V u, the coefficients of the random-effect columns
    sigma2_hat: float


@dataclass(frozen=True)
class FittedModel:
    spec: ModelSpec
    theta: VarianceParams
    b_hat: np.ndarray
    # The coefficients V u of the random-effect columns, on the layout of
    # ``blocks``; exactly 0 on an inactive block.
    gamma: np.ndarray
    restricted_loglik: float
    n_loglik_evals: int
    converged: bool
    n_obs: int
    blocks: tuple[BlockLayout, ...] = field(repr=False, default=())
    # Terms with zero variance, as "name:svc" or "name:nvc", in layout order.
    inactive_terms: tuple[str, ...] = ()


@dataclass(frozen=True)
class CoefficientField:
    """Per-site coefficient decomposition: total = mean + svc + nvc exactly."""

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

    E = np.hstack(values) if values else np.empty((n, 0))
    return DesignMatrix(X=X, E=E, blocks=tuple(blocks))


def precompute_crossproducts(Z: DesignMatrix, y: np.ndarray) -> Crossproducts:
    """One pass of dense products; everything downstream is N-free.

    E'E is stored Fortran-ordered, the memory order of the joint matrix it is
    gathered into once per active set: numpy forms it with syrk, so it is
    exactly symmetric and its transpose is already that matrix in Fortran order.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = Z.n_obs
    if y.shape[0] != n:
        raise DimensionMismatch("y length must match the design rows")
    if n <= Z.n_fixed:
        raise ValueError("need more observations than fixed effects")
    X, E = Z.X, Z.E
    return Crossproducts(
        XtX=X.T @ X,
        XtE=X.T @ E,
        EtE=(E.T @ E).T,
        Xty=X.T @ y,
        Ety=E.T @ y,
        yty=float(y @ y),
        n_obs=n,
        blocks=Z.blocks,
    )


def _check_fixed_block(XtX: np.ndarray) -> None:
    """Raise ``SingularFixedBlock`` unless X'X is numerically positive definite."""
    fixed_eigs = np.linalg.eigvalsh(XtX)
    if fixed_eigs[0] <= 1e-12 * max(fixed_eigs[-1], np.finfo(float).tiny):
        raise SingularFixedBlock("X'X is rank-deficient")


class _JointSystem:
    """The joint system over the fixed effects and some random-effect blocks.

    Gathered once, on the columns of ``blocks`` in order: the Fortran-ordered
    A = [[X'X, X'E], [E'X, E'E]] and b = [X'y; E'y].  With w = [1_K; v],
    ``factor(v)`` assembles the system of ``restricted_loglik``,
    G = (a_ij w_i) w_j plus 1 on the random-effect diagonal and rhs = w b,
    in two passes over A into one buffer that is factored in place.  A
    product with 1 is exact, so every entry has the bits of a block-by-block
    assembly, (e_ij v_i) v_j on V E'E V.
    """

    def __init__(self, cp: Crossproducts, blocks: tuple[BlockLayout, ...]):
        k, cols = cp.n_fixed, _columns(blocks)
        size = k + cols.size
        self.n_obs, self.n_fixed, self.yty = cp.n_obs, k, cp.yty
        self.a = np.empty((size, size), order="F")
        self.a[:k, :k] = cp.XtX
        self.a[:k, k:] = cp.XtE[:, cols]
        self.a[k:, :k] = self.a[:k, k:].T
        # E'E is exactly symmetric, so the transpose of the gathered block
        # is that block in the Fortran order of ``a``.
        self.a[k:, k:] = cp.EtE[np.ix_(cols, cols)].T
        self.b = np.concatenate([cp.Xty, cp.Ety[cols]])
        self._w = np.ones(size)
        self._g = np.empty_like(self.a)
        self._diag = np.einsum("ii->i", self._g)[k:]  # a writeable view

    def factor(self, v: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """Assemble the system at the scaling ``v``, factor it and solve it.

        Returns the restricted log-likelihood, the solution (b, u), the
        profiled variance, and the clean lower Cholesky factor, which shares
        the buffer's memory until the next call.

        Raises
        ------
        NumericalBreakdown
            The system cannot be factorized, or the profiled variance falls
            below the degeneracy floor.
        """
        n, k, g, w = self.n_obs, self.n_fixed, self._g, self._w
        w[k:] = v
        np.multiply(self.a, w[:, None], out=g)
        np.multiply(g, w, out=g)
        self._diag += 1.0
        rhs = w * self.b

        factor, info = lapack.dpotrf(g, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise NumericalBreakdown("joint system factorization failed")
        sol, _ = lapack.dpotrs(factor, rhs, lower=1)

        quad = self.yty - float(rhs @ sol)  # residual SS + ||u||^2
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

    from the crossproducts alone (``_JointSystem``, the assembly every
    evaluation of the search uses), solves it by Cholesky, and evaluates

        -log|system|/2 - (N-K)/2 * (1 + log(2 pi sigma2_hat)),

    where sigma2_hat = (residual SS + ||u||^2) / (N - K) expands through the
    same crossproducts.  V is diagonal: tau_s/sigma sqrt(w_l) on the SVC
    block of covariate k, with ``scalings[k]`` = w = ``scale_eigenvalues(basis,
    alpha_k)`` required for every covariate with an SVC term, and
    tau_n/sigma on its NVC block.  Returns the log-likelihood, b, the
    random-effect coefficients gamma = V u and sigma2_hat.

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
    v = np.zeros(cp.n_random)
    for blk in cp.blocks:
        k = blk.covariate
        if blk.kind == "nvc":
            v[blk.start : blk.stop] = math.sqrt(theta.tau2_n[k] / theta.sigma2)
        elif scalings[k] is None:
            raise ValueError(f"missing eigen scaling for covariate {k}")
        else:
            v[blk.start : blk.stop] = math.sqrt(theta.tau2_s[k] / theta.sigma2) * np.sqrt(scalings[k][: blk.size])
    loglik, sol, sigma2_hat, _ = _JointSystem(cp, cp.blocks).factor(v)
    k = cp.n_fixed
    return LoglikResult(loglik=loglik, b_hat=sol[:k], gamma=v * sol[k:], sigma2_hat=sigma2_hat)


# ---------------------------------------------------------------------------
# REML optimization
# ---------------------------------------------------------------------------


def _lower_inverse(l: np.ndarray, norms_only: bool = False) -> np.ndarray:
    """Inverse of the lower-triangular ``l``, or only its column sums of squares.

    ``l`` must be zero above its diagonal, as a clean Cholesky factor is.  Up
    to ``_TRI_LEAF`` rows this is one dtrtri.  Above, with
    l = [[A, 0], [B, C]],

        l^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]],

    where both inverses come from the halves and the off-diagonal block from
    two triangular multiplications; with ``norms_only`` the blocks' column
    norms are summed and l^-1 itself is never assembled.

    Raises
    ------
    NumericalBreakdown
        A diagonal entry of ``l`` is zero.
    """
    n = l.shape[0]
    if n <= _TRI_LEAF:
        inv, info = lapack.dtrtri(l, lower=1)
        if info != 0:
            raise NumericalBreakdown("triangular inverse of the joint factor failed")
        return np.einsum("ij,ij->j", inv, inv) if norms_only else inv
    h = n // 2
    a_inv = _lower_inverse(l[:h, :h])
    c_inv = _lower_inverse(l[h:, h:])
    off = blas.dtrmm(-1.0, a_inv, l[h:, :h], side=1, lower=1)
    off = blas.dtrmm(1.0, c_inv, off, lower=1, overwrite_b=1)
    if norms_only:
        left = np.einsum("ij,ij->j", a_inv, a_inv) + np.einsum("ij,ij->j", off, off)
        return np.concatenate([left, np.einsum("ij,ij->j", c_inv, c_inv)])
    inv = np.zeros((n, n), order="F")
    inv[:h, :h] = a_inv
    inv[h:, :h] = off
    inv[h:, h:] = c_inv
    return inv


class RemlProblem:
    """The restricted log-likelihood and its gradient over the searched vector t.

    Over the ``blocks`` of ``cp`` (all of them by default), laid out
    contiguously in that order as ``self.blocks``.  t lists each block's
    parameters in that order: its log variance ratio (tau/sigma)^2, then,
    for an SVC block, its alpha if the basis has at least
    ``_MIN_ALPHA_EIGVALS`` eigenvalues (from fewer, alpha is unidentifiable
    and fixed at ``_FIXED_ALPHA``).  ``slices[i]`` is the part of t that
    belongs to ``self.blocks[i]``, and ``bounds`` the search bounds of t.

    Built once per active set: the rank check on X'X, ``search_alpha``, the
    log eigenvalue ratios ``log_eig_ratio`` = log(lambda_l / lambda_1), the
    map from t to the log scaling diagonal and the joint matrix of the
    blocks (``_JointSystem``, one (K+P) square matrix and its assembly
    buffer) are the same at every evaluation.  With v the diagonal of V,

        log v = C' t + offset,

    where row j of ``C`` holds d log v / d t_j: 1/2 on the block of a log
    variance ratio and (1/2) log(lambda_l / lambda_1) on the block of an
    alpha.  ``offset`` carries ``_FIXED_ALPHA`` on the SVC blocks whose
    alpha is not searched.

    The last point factored is kept: ``solve`` at the same t, bit for bit,
    returns its result without refactoring, and ``value_and_grad`` there
    goes straight to the gradient.  A point that breaks down is not kept.

    Raises
    ------
    SingularFixedBlock
        X'X is not positive definite.
    """

    def __init__(
        self, cp: Crossproducts, spatial: SpatialBasis | None, blocks: tuple[BlockLayout, ...] | None = None
    ):
        _check_fixed_block(cp.XtX)
        blocks = cp.blocks if blocks is None else blocks
        self.joint = _JointSystem(cp, blocks)
        n_eig = spatial.n_components if spatial is not None else 0
        self.log_eig_ratio = np.log(spatial.eigvals / spatial.eigvals[0]) if n_eig else np.empty(0)
        self.search_alpha = n_eig >= _MIN_ALPHA_EIGVALS
        n_random = sum(b.size for b in blocks)
        rows: list[np.ndarray] = []  # the rows of C
        self.blocks: list[BlockLayout] = []
        self.slices: list[slice] = []
        self.bounds: list[tuple[float, float]] = []
        self._offset = np.zeros(n_random)
        start = 0
        for blk in blocks:
            self.blocks.append(BlockLayout(blk.covariate, blk.kind, start, start + blk.size))
            cols, first = slice(start, start + blk.size), len(rows)
            start += blk.size
            rows.append(np.zeros(n_random))
            rows[-1][cols] = 0.5
            self.bounds.append(_LOG_TAU2_BOUNDS)
            if blk.kind == "svc" and self.search_alpha:
                rows.append(np.zeros(n_random))
                rows[-1][cols] = 0.5 * self.log_eig_ratio[: blk.size]
                self.bounds.append(ALPHA_BOUNDS)
            elif blk.kind == "svc":
                self._offset[cols] = _FIXED_ALPHA * (0.5 * self.log_eig_ratio[: blk.size])
            self.slices.append(slice(first, len(rows)))
        self._C = np.array(rows).reshape(len(rows), n_random)
        self._last_t: bytes | None = None  # the bytes of the last t factored, and its result
        self._last: tuple[float, np.ndarray, float, np.ndarray] | None = None

    def value_and_grad(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """Log-likelihood at ``t`` and its exact gradient, from one factor.

        With (b, u) the solution of the joint system G and sigma2_hat the
        profiled variance,

            d loglik / d log v_i = u_i^2 / sigma2_hat - 1 + (G^-1)_ii

        for random-effect column i, and the chain rule through ``C`` gives
        the gradient in t.  The lower-right P x P block of L^-1 is the
        inverse of the lower-right block L22 of the Cholesky factor L, so
        diag(G^-1) on the random-effect columns is the column sums of
        squares of L22^-1.  ``_lower_inverse`` forms them by halves, which
        costs the flops of one dtrtri at close to the speed of dpotrf.

        Raises
        ------
        NumericalBreakdown
            As ``restricted_loglik``.
        """
        loglik, sol, sigma2_hat, factor = self.solve(t)
        k = self.joint.n_fixed
        u = sol[k:]
        score = u * u / sigma2_hat - 1.0 + _lower_inverse(factor[k:, k:], norms_only=True)
        return loglik, self._C @ score

    def scaling(self, t: np.ndarray) -> np.ndarray:
        """The scaling diagonal ``v = exp(C' t + offset)``."""
        return np.exp(t @ self._C + self._offset)

    def solve(self, t: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """``_JointSystem.factor`` at the scaling ``v`` of ``t``; the kept
        result if ``t`` is the last point factored."""
        key = t.tobytes()
        if key == self._last_t:
            return self._last
        self._last_t = None  # the factor about to be overwritten is no longer kept
        self._last = self.joint.factor(self.scaling(t))
        self._last_t = key
        return self._last

    def starts(self) -> list[np.ndarray]:
        """Ratio tau/sigma of 0.1 with alpha 1, and ratio 1 with alpha 0."""
        out = []
        for log_ratio2, a0 in ((math.log(0.1**2), 1.0), (0.0, 0.0)):
            t0 = np.full(len(self.bounds), log_ratio2)
            for part in self.slices:
                t0[part][1:] = a0  # a searched alpha follows its block's log ratio
            out.append(t0)
        return out


class _Run(NamedTuple):
    """The end of one ``_search`` run."""

    x: np.ndarray
    fun: float
    success: bool
    status: int
    nfev: int


def _search(problem: RemlProblem, t0: np.ndarray, maxfun: int, ftol: float) -> _Run:
    """One bounded L-BFGS-B run from ``t0``; ``nfev`` counts value-and-gradient calls.

    A loop over scipy's L-BFGS-B routine ``setulb`` and its reverse
    communication, with the settings of ``minimize(method="L-BFGS-B")``:
    ``_LBFGS_MEMORY``, ``_PGTOL``, ``_MAX_LS``, factr = ``ftol`` / eps and
    ``t0`` clipped into the bounds.  Where the routine asks for f and g,
    ``problem.value_and_grad`` is called, except at the point evaluated
    last, which is answered from that call as ``minimize``'s memoizing
    wrapper answers it.  A request past the ``maxfun``-th call ends the run
    on the best point it evaluated, unsuccessful, with status 1; otherwise
    the status is 0 where the routine reports convergence and 2 where it
    stops for another reason, a failed line search.

    A breakdown is reported to the routine as f = inf with g = 0, which its
    line search may take as a stop that it calls successful; a run that met
    one is therefore marked unsuccessful, with status -1.
    """
    lo, hi = np.array(problem.bounds).T.copy()
    n, m = len(lo), _LBFGS_MEMORY
    x = np.clip(t0, lo, hi)
    f, g, at = 0.0, np.zeros(n), None  # the last point evaluated, and f and g there
    nbd = np.full(n, 2, np.int32)  # every variable has both bounds
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    broke, calls, best = False, 0, (math.inf, t0)
    while True:
        # The routine may overwrite g; it is handed the last gradient anew.
        _lbfgsb.setulb(
            m, x, lo, hi, nbd, f, g.copy(), factr, _PGTOL, wa, iwa, task, lsave, isave, dsave, _MAX_LS, ln_task
        )
        if task[0] == _TASK_NEW_X:
            continue
        if task[0] != _TASK_FG:
            break
        if at is not None and (x == at).all():  # np.array_equal, without its checks
            continue
        if calls == maxfun:
            return _Run(x=best[1], fun=best[0], success=False, status=-1 if broke else 1, nfev=calls)
        calls += 1
        at = x.copy()
        try:
            value, grad = problem.value_and_grad(at)
        except NumericalBreakdown:
            broke, f, g = True, math.inf, np.zeros(n)
            continue
        f, g = -value, -grad
        if f < best[0]:
            best = (f, at)
    status = -1 if broke else 0 if task[0] == _TASK_CONVERGENCE else 2
    return _Run(x=x, fun=f, success=status == 0, status=status, nfev=calls)


def _boundary_scores(
    cp: Crossproducts,
    active: tuple[BlockLayout, ...],
    inactive: tuple[BlockLayout, ...],
    v: np.ndarray,
    point: tuple[float, np.ndarray, float, np.ndarray],
    log_eig_ratio: np.ndarray,
    alphas: np.ndarray,
) -> list[np.ndarray]:
    """One-sided scores d loglik / d r_b at r_b = 0 of the ``inactive`` blocks.

    ``point`` is ``RemlProblem.solve``'s result, at scaling ``v``, for the
    model with the ``active`` blocks of ``cp`` only.  Adding block b with
    column variance ratios r_b w_l gives

        d loglik / d r_b = 1/2 sum_l w_l (g_l^2 / sigma2_hat - m_l),

    where g = E_b' P y is E_b' times the residual y - X b - E_a V u, and
    m = diag(E_b' P E_b) is diag(E_b' E_b) less the column sums of squares
    of L^-1 [X' E_b; V E_a' E_b], with L the active joint factor.  w is 1 for
    an NVC block and (lambda_l / lambda_1)^alpha for an SVC block, so one
    triangular solve serves every alpha.  Returns one array per inactive
    block: its score for each of ``alphas`` (SVC), or its single score (NVC).
    """
    _, sol, sigma2_hat, factor = point
    k = cp.n_fixed
    cols_a, cols_i = _columns(active), _columns(inactive)
    cross = cp.EtE[np.ix_(cols_a, cols_i)]
    z, info = lapack.dtrtrs(factor, np.vstack([cp.XtE[:, cols_i], v[:, None] * cross]), lower=1)
    if info != 0:
        raise NumericalBreakdown("triangular solve with the joint factor failed")
    g = cp.Ety[cols_i] - cp.XtE[:, cols_i].T @ sol[:k] - cross.T @ (v * sol[k:])
    half = 0.5 * (g * g / sigma2_hat - cp.EtE[cols_i, cols_i] + np.einsum("ij,ij->j", z, z))
    out, offset = [], 0
    for blk in inactive:
        part = half[offset : offset + blk.size]
        offset += blk.size
        if blk.kind == "nvc":
            out.append(np.array([part.sum()]))
        else:
            out.append(np.exp(np.outer(alphas, log_eig_ratio[: blk.size])) @ part)
    return out


class _ActiveSet:
    """The state of one active-set search.

    ``values[blk]`` holds an active block's part of the searched vector: its
    log variance ratio, then its alpha if ``problem.search_alpha``.  Every
    other block of ``cp`` has variance exactly 0.  ``problem`` is the
    ``RemlProblem`` over the active blocks, rebuilt whenever the set
    changes; its t is the concatenation of ``values`` in block order, and
    ``problem.slices`` cuts it back.
    ``loglik`` is the log-likelihood at ``values``; an entry or a run only
    replaces ``values`` with a higher point.  ``solution`` (on the active
    layout) and ``sigma2_hat`` are those of the last ``assess``'s solve.
    ``n_evals`` counts the value-and-gradient calls and solves the search
    asks for, a reuse of the kept factor included; ``spendable`` is what
    is left of ``_MAX_EVALS_TOTAL`` once the closing score check is set
    aside.
    ``converged`` is the last L-BFGS-B run's stopping test, and ``tight``
    says that run used ``_FTOL`` and nothing has entered since.
    """

    def __init__(self, cp: Crossproducts, spatial: SpatialBasis | None):
        self.cp, self.spatial = cp, spatial
        self.values: dict[BlockLayout, np.ndarray] = {}
        self.entry_alpha: dict[BlockLayout, float] = {}
        self.dropped: set[BlockLayout] = set()  # a block is dropped at most once
        self.n_evals, self.converged, self.tight, self.loglik = 0, True, True, -math.inf
        self._rebuild()
        self.alphas = _ALPHA_GRID if self.problem.search_alpha else np.array([_FIXED_ALPHA])

    def _rebuild(self) -> None:
        self.active = tuple(b for b in self.cp.blocks if b in self.values)
        self.problem = RemlProblem(self.cp, self.spatial, self.active)

    @property
    def spendable(self) -> int:
        return _MAX_EVALS_TOTAL - 1 - self.n_evals

    def _log_top_weight(self, blk: BlockLayout, alpha: np.ndarray | float) -> np.ndarray | float:
        """log max_l w_l of ``blk`` at ``alpha``: its largest column variance ratio per unit ratio."""
        if blk.kind == "nvc":
            return 0.0
        return np.maximum(0.0, alpha * self.problem.log_eig_ratio[blk.size - 1])

    def point(self) -> np.ndarray:
        return np.concatenate([np.empty(0)] + [self.values[b] for b in self.active])

    def assess(self) -> tuple[BlockLayout | None, float]:
        """Log-likelihood at the stored values, and the inactive block with the largest score.

        A score is d loglik / d rho_b at rho_b = 0, with rho_b the block's
        largest column variance ratio: for an SVC block, the score in its
        variance ratio divided by (lambda_1 / lambda_P)^|alpha| when alpha
        < 0, at the alpha of ``_ALPHA_GRID`` that maximises it among those
        ``enter`` can reach, which ``entry_alpha`` keeps.
        """
        t = self.point()
        point = self.problem.solve(t)
        self.n_evals += 1
        self.loglik, self.solution, self.sigma2_hat, _ = point
        inactive = tuple(b for b in self.cp.blocks if b not in self.values)
        scores = _boundary_scores(
            self.cp, self.active, inactive, self.problem.scaling(t), point, self.problem.log_eig_ratio, self.alphas
        )
        best, best_score = None, -math.inf
        for blk, s in zip(inactive, scores):
            if blk.kind == "svc":
                # An alpha at which the smallest entry ratio needs a log
                # ratio below _LOG_TAU2_BOUNDS cannot be entered.
                log_top = self._log_top_weight(blk, self.alphas)
                reachable = log_top <= _ENTRY_SMALL_LOG_RATIOS[-1] - _LOG_TAU2_BOUNDS[0]
                s = np.where(reachable, s / np.exp(log_top), -math.inf)
                self.entry_alpha[blk] = float(self.alphas[np.argmax(s)])
            if s.max() > best_score:
                best, best_score = blk, float(s.max())
        return best, best_score

    def enter(self, blk: BlockLayout) -> bool:
        """Activate ``blk`` at its entry alpha and a ratio that raises the likelihood.

        The block's largest column variance ratio is set to the best of
        ``_ENTRY_LOG_RATIOS`` that beats ``loglik``, or, if none does, of
        ``_ENTRY_SMALL_LOG_RATIOS``.  Returns False, leaving ``blk`` inactive,
        if none of those does either.
        """
        alpha = self.entry_alpha.get(blk, _FIXED_ALPHA)
        self.values[blk] = np.array([0.0, alpha] if blk.kind == "svc" and self.problem.search_alpha else [0.0])
        self._rebuild()
        best, best_loglik = None, self.loglik
        for trials in (_ENTRY_LOG_RATIOS, _ENTRY_SMALL_LOG_RATIOS):
            for log_ratio in trials - self._log_top_weight(blk, alpha):
                if self.spendable < 1:
                    break
                self.values[blk][0] = log_ratio
                self.n_evals += 1
                try:
                    loglik = self.problem.solve(self.point())[0]
                except NumericalBreakdown:
                    continue
                if loglik > best_loglik:
                    best, best_loglik = log_ratio, loglik
            if best is not None:
                break
        if best is None:
            del self.values[blk]
            self._rebuild()
            return False
        self.values[blk][0] = best
        self.loglik, self.tight = best_loglik, False
        return True

    def optimize(self, ftol: float, starts: tuple[np.ndarray, ...] = ()) -> None:
        """L-BFGS-B from the stored values, or from each of ``starts``.

        With ``starts``, the best run replaces the stored values only if it
        ends above ``loglik``.  Then each active block whose largest column
        variance ratio is at most ``_COLLAPSED`` leaves the active set, unless
        it has left it before.
        """
        t0s = starts or (self.point(),)
        share = self.spendable // len(t0s)
        if share < 1:
            self.converged = False
            return
        runs = [_search(self.problem, t0, share, ftol) for t0 in t0s]
        self.n_evals += sum(r.nfev for r in runs)
        run = min(runs, key=lambda r: r.fun)
        if starts and -run.fun <= self.loglik:
            return
        if not math.isfinite(run.fun):
            self.converged, self.tight = False, True
            return
        # A gain within the stopping tolerance is rounding, not progress.
        improved = -run.fun - self.loglik > _FTOL * abs(self.loglik)
        v = self.problem.scaling(run.x)
        gone = []
        for blk, sub, part in zip(self.active, self.problem.blocks, self.problem.slices):
            self.values[blk] = run.x[part]
            if blk not in self.dropped and v[sub.start : sub.stop].max() ** 2 <= _COLLAPSED:
                gone.append(blk)
        self.loglik = -run.fun
        # A run certifies only the set it searched: once blocks leave, the
        # smaller set needs a run of its own.  A run that failed its stopping
        # test but gained is resumed from where it ended; one whose line
        # search found no higher point (status 2) has stalled at the rounding
        # level of the likelihood, which counts as converged.
        self.converged = bool(run.success) or (run.status == 2 and not improved)
        self.tight = ftol == _FTOL and not gone and (self.converged or not improved)
        if gone:
            for blk in gone:
                del self.values[blk]
            self.dropped.update(gone)
            self._rebuild()

    def theta(self, sigma2: float) -> VarianceParams:
        """``values`` as variances: each tau2 is its ratio (tau/sigma)^2 times ``sigma2``, 0 if inactive.

        An active SVC block whose alpha is not searched carries
        ``_FIXED_ALPHA``, an inactive one its entry alpha.
        """
        n = self.cp.n_fixed
        tau2, alpha = {"svc": np.zeros(n), "nvc": np.zeros(n)}, np.zeros(n)
        for blk in self.cp.blocks:
            k = blk.covariate
            if blk in self.values:
                log_ratio, *rest = self.values[blk]
                tau2[blk.kind][k] = math.exp(log_ratio)
                if blk.kind == "svc":
                    alpha[k] = rest[0] if rest else _FIXED_ALPHA
            elif blk.kind == "svc":
                alpha[k] = self.entry_alpha[blk]
        return VarianceParams(sigma2=sigma2, tau2_s=tau2["svc"] * sigma2, alpha=alpha, tau2_n=tau2["nvc"] * sigma2)


def fit_reml(
    cp: Crossproducts,
    spec: ModelSpec,
    spatial: SpatialBasis | None,
) -> FittedModel:
    """Maximize the restricted log-likelihood over the variance parameters.

    An active-set search over the random-effect blocks.  Bounded L-BFGS-B
    with ``RemlProblem``'s analytic gradient searches the log variance
    ratios and alphas of the active blocks only; every inactive block has
    variance exactly 0 and is checked by its one-sided score at 0
    (``_boundary_scores``).  The score is taken in the block's largest
    column variance ratio rho_b = max_l (tau/sigma)^2 w_l, which for an SVC
    block with alpha < 0 is its variance ratio times (lambda_1 /
    lambda_P)^|alpha|, at the alpha of ``_ALPHA_GRID`` that maximises it
    (alphas at which even the smallest entry ratio lies below
    ``_LOG_TAU2_BOUNDS`` are skipped).

    1. Screening, from the model without random effects: the block with the
       largest positive score enters at that alpha, with rho_b at the best
       of ``_ENTRY_LOG_RATIOS`` that raises the likelihood (or, if none
       does, of ``_ENTRY_SMALL_LOG_RATIOS``), then L-BFGS-B
       (``_SCREEN_FTOL``) runs on the new active set from there.
    2. Polish: L-BFGS-B on the screened set from the two fixed starts of
       ``RemlProblem.starts``; the better replaces the screened point if it
       ends above it, and otherwise L-BFGS-B with ``_FTOL`` resumes from the
       screened point.
    3. Any block whose score is still positive enters as in step 1, followed
       by L-BFGS-B with ``_FTOL``.  After every run, a block whose largest
       column variance ratio fell to ``_COLLAPSED`` leaves the set, and
       L-BFGS-B with ``_FTOL`` runs again on the smaller set; a block that
       re-enters is never dropped again.  A run that gained but failed its
       stopping test is resumed from where it ended.

    An entry always raises the likelihood and a run never lowers it, so the
    search only climbs, apart from the rounding-level change of dropping a
    collapsed block.  It ends when no inactive score exceeds ``_SCORE_TOL``
    * |loglik| or all rounds together, the closing score check included,
    have used ``_MAX_EVALS_TOTAL``; an L-BFGS-B run stops at its share of
    what is left and keeps the best point it evaluated.
    ``converged`` means a KKT point in the variance ratios: the last
    L-BFGS-B run on the active set used ``_FTOL`` and passed its own
    stopping test (the largest projected-gradient component fell below
    ``_PGTOL``, or the relative change of the objective below
    ``_FTOL``) or stalled (its line search found no point higher, by more
    than ``_FTOL`` of |loglik|, than the one it started from), and no
    inactive score d loglik / d rho_b exceeds the tolerance.  A run that met
    a ``NumericalBreakdown`` is never converged, because L-BFGS-B can stop
    at such a point and call it success, nor is a search that ran out of
    budget.  ``n_loglik_evals`` counts what the search asks for:
    value-and-gradient calls (L-BFGS-B evaluations) and solves (the entry
    ratios and one per score check).  A request at the point factored last
    reuses ``RemlProblem``'s kept factor, as the score check after a run
    that ended on its last evaluation does, and the first evaluation of a
    run resumed from a score check.  The fit's log-likelihood, effects and
    profiled variance come from the last score check's solve, on the active
    blocks: ``gamma`` is that solve's u times the scaling diagonal it was
    solved at.  ``FittedModel.inactive_terms`` names the inactive blocks; an
    inactive SVC term reports the alpha of its score, which the likelihood
    does not depend on.  Deterministic given identical inputs.
    """
    search = _ActiveSet(cp, spatial)
    best, score = search.assess()
    polished = False
    while search.spendable >= 1:
        if score > _SCORE_TOL * abs(search.loglik):
            if not search.enter(best):
                break
            search.optimize(_FTOL if polished else _SCREEN_FTOL)
        elif search.active and not polished:
            polished = True
            search.optimize(_FTOL, tuple(search.problem.starts()))
        elif search.active and not search.tight:
            search.optimize(_FTOL)
        else:
            break
        best, score = search.assess()
    converged = search.converged and search.tight and score <= _SCORE_TOL * abs(search.loglik)

    k = cp.n_fixed
    gamma = np.zeros(cp.n_random)
    gamma[_columns(search.active)] = search.problem.scaling(search.point()) * search.solution[k:]
    names = spec.covariate_names
    return FittedModel(
        spec=spec,
        theta=search.theta(search.sigma2_hat),
        b_hat=search.solution[:k],
        gamma=gamma,
        restricted_loglik=search.loglik,
        n_loglik_evals=search.n_evals,
        converged=converged,
        n_obs=cp.n_obs,
        blocks=cp.blocks,
        inactive_terms=tuple(f"{names[b.covariate]}:{b.kind}" for b in cp.blocks if b not in search.values),
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

    The spatial part of covariate k is its eigenvectors times its block of
    ``fit.gamma``, the non-spatial part its spline basis times its block; the
    total adds the constant mean.  Any fit is decomposed, converged or not;
    callers that need a converged fit check ``FittedModel.converged``.
    """
    svc = np.zeros((fit.n_obs, fit.spec.n_covariates))
    nvc = np.zeros_like(svc)
    for blk in fit.blocks:
        k = blk.covariate
        if blk.kind == "svc":
            svc[:, k] = spatial.eigvecs[:, : blk.size] @ fit.gamma[blk.start : blk.stop]
        else:
            nvc[:, k] = nvc_bases[k].values @ fit.gamma[blk.start : blk.stop]

    mean = np.asarray(fit.b_hat, dtype=float)
    total = mean[None, :] + svc + nvc
    sd_svc = svc.std(axis=0, ddof=1)
    sd_nvc = nvc.std(axis=0, ddof=1)
    denom = sd_svc + sd_nvc
    constant = denom == 0.0
    shares = np.where(constant, 1.0, sd_svc / np.where(constant, 1.0, denom))
    return CoefficientField(
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
) -> tuple[FittedModel, CoefficientField]:
    """Spline bases, design assembly, crossproducts, REML fit, and coefficient field in one call.

    Each covariate flagged in ``spec.has_nvc`` gets the spline basis of the
    spec's size and family; a column that cannot carry one raises
    ``spline_basis``'s error with the covariate's name in the message.  The
    coefficient field is produced even for an unconverged fit; check
    ``FittedModel.converged``.
    """
    X = np.asarray(X, dtype=float)
    nvc_bases = [None] * spec.n_covariates
    for k, name in enumerate(spec.covariate_names):
        if not spec.has_nvc[k]:
            continue
        try:
            nvc_bases[k] = spline_basis(X[:, k], spec.n_basis_nvc, spec.spline_family)
        except (ConstantCovariate, TooFewDistinctValues) as exc:
            raise type(exc)(f"the NVC term of {name!r}: {exc}") from exc
    # The design, E above all, is freed before the REML search.
    cp = precompute_crossproducts(build_design(X, spec, spatial, nvc_bases), y)
    fit = fit_reml(cp, spec, spatial)
    field = predict_coefficients(fit, spatial, nvc_bases)
    return fit, field
