import dataclasses
import inspect
import math
import re
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from snvc import core
from snvc.core import (
    ALPHA_BOUNDS,
    _ALPHA_GRID,
    _FTOL,
    _LOG_TAU2_BOUNDS,
    _SCORE_TOL,
    _SCREEN_FTOL,
    _TRI_LEAF,
    _ActiveSet,
    _boundary_scores,
    _lower_inverse,
    ModelSpec,
    RemlProblem,
    VarianceParams,
    build_design,
    fit_reml,
    fit_snvc,
    precompute_crossproducts,
    predict_coefficients,
    restricted_loglik,
    FittedModel,
    Crossproducts,
    DesignMatrix,
    BlockLayout,
)
from snvc.errors import DimensionMismatch, EmptySpatialBasis, NumericalBreakdown, SingularFixedBlock
from snvc.simlab import ScenarioConfig, gen_instance, gen_toy
from snvc.spatial import SiteSet, SpatialBasis, moran_basis, scale_eigenvalues
from snvc.splines import NvcBasis, spline_basis


def make_spatial_problem(n, seed, n_eig=None):
    rng = np.random.default_rng(seed)
    sites = SiteSet(rng.uniform(0, 10, (n, 2)))
    basis = moran_basis(sites, max_components=n_eig)
    return rng, sites, basis


def synthetic_basis(n, n_eig, seed):
    """Orthonormal mean-zero columns with decreasing fake eigenvalues."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n_eig))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return SpatialBasis(
        eigvecs=q[:, :n_eig],
        eigvals=np.linspace(2.0, 0.5, n_eig),
        range_r=1.0,
    )


class TestModelSpec:
    def test_one_spline_size_serves_every_nvc_term(self):
        spec = ModelSpec(("intercept", "x"), (True, True), (False, True))
        assert spec.n_basis_nvc == 10

    @pytest.mark.parametrize("size", [(6, 6), 6.0, True], ids=["tuple", "float", "bool"])
    def test_spline_size_other_than_one_integer_is_rejected(self, size):
        with pytest.raises(ValueError, match="n_basis_nvc"):
            ModelSpec(("intercept", "x"), (True, True), (False, True), size)

    @pytest.mark.parametrize(
        "names, has_svc, has_nvc, message",
        [
            ((), (), (), "need at least one covariate"),
            (("intercept", "x"), (True,), (False, True), "switch lengths"),
            (("intercept", "x"), (True, True), (False, True, True), "switch lengths"),
        ],
        ids=["no-covariate", "short-svc", "long-nvc"],
    )
    def test_switches_must_match_the_covariates(self, names, has_svc, has_nvc, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(names, has_svc, has_nvc)


class TestBuildDesign:
    def test_intercept_svc_block_is_the_basis_itself(self):
        _, _, basis = make_spatial_problem(25, seed=0)
        X = np.ones((25, 1))
        spec = ModelSpec(("intercept",), (True,), (False,))
        design = build_design(X, spec, basis, [None])
        blk = design.blocks[0]
        np.testing.assert_array_equal(design.E[:, blk.start : blk.stop], basis.eigvecs)

    def test_zero_covariate_gives_zero_block(self):
        _, _, basis = make_spatial_problem(25, seed=1)
        X = np.column_stack([np.ones(25), np.zeros(25)])
        spec = ModelSpec(("intercept", "z"), (False, True), (False, False))
        design = build_design(X, spec, basis, [None, None])
        blk = design.blocks[0]
        assert np.all(design.E[:, blk.start : blk.stop] == 0.0)

    def test_elementwise_oracle(self):
        rng, _, basis = make_spatial_problem(8, seed=2, n_eig=3)
        X = rng.normal(size=(8, 2))
        xn = rng.uniform(0, 5, 8)
        nvc = spline_basis(np.concatenate([xn, xn]), n_basis=4).values[:8]
        nb = NvcBasis(values=nvc, knots=np.arange(5.0))
        spec = ModelSpec(("a", "b"), (True, True), (False, True), 4)
        design = build_design(X, spec, basis, [None, nb])
        # block order: svc(a), svc(b), nvc(b)
        for bi, (k, src) in enumerate([(0, basis.eigvecs), (1, basis.eigvecs), (1, nb.values)]):
            blk = design.blocks[bi]
            block = design.E[:, blk.start : blk.stop]
            for i in range(8):
                for j in range(block.shape[1]):
                    assert block[i, j] == X[i, k] * src[i, j]

    def test_empty_spatial_basis_rejected(self):
        empty = SpatialBasis(np.empty((10, 0)), np.empty(0), 1.0)
        spec = ModelSpec(("x",), (True,), (False,))
        with pytest.raises(EmptySpatialBasis):
            build_design(np.ones((10, 1)), spec, empty, [None])


class TestCrossproducts:
    def test_zero_response(self):
        _, _, basis = make_spatial_problem(20, seed=3, n_eig=2)
        spec = ModelSpec(("x",), (True,), (False,))
        design = build_design(np.ones((20, 1)), spec, basis, [None])
        cp = precompute_crossproducts(design, np.zeros(20))
        assert cp.yty == 0.0
        assert np.all(cp.Xty == 0.0) and np.all(cp.Ety == 0.0)

    def test_orthonormal_columns_give_identity(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(30, 5)))
        design = DesignMatrix(
            X=q[:, :2],
            E=q[:, 2:5],
            blocks=(BlockLayout(0, "svc", 0, 3),),
        )
        cp = precompute_crossproducts(design, rng.normal(size=30))
        np.testing.assert_allclose(cp.XtX, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cp.EtE, np.eye(3), atol=1e-12)

    def test_matches_dense_products(self):
        rng, _, basis = make_spatial_problem(18, seed=5, n_eig=3)
        X = rng.normal(size=(18, 2))
        spec = ModelSpec(("a", "b"), (True, False), (False, False))
        design = build_design(X, spec, basis, [None, None])
        y = rng.normal(size=18)
        cp = precompute_crossproducts(design, y)
        E = design.E
        assert np.abs(cp.XtX - X.T @ X).max() < 1e-12
        assert np.abs(cp.XtE - X.T @ E).max() < 1e-12
        assert np.abs(cp.EtE - E.T @ E).max() < 1e-12
        assert np.abs(cp.Xty - X.T @ y).max() < 1e-12
        assert np.abs(cp.Ety - E.T @ y).max() < 1e-12
        assert abs(cp.yty - y @ y) < 1e-12

    def test_ete_is_one_fortran_ordered_symmetric_matrix(self):
        # E'E, and the joint matrix [[X'X, X'E], [E'X, E'E]] a search gathers
        # for some of the blocks, are held once, Fortran-ordered, with the
        # bits of the products of X and E.
        X, y, spec, basis = five_covariate_data()
        nbs = [spline_basis(X[:, k], spec.n_basis_nvc) if spec.has_nvc[k] else None for k in range(5)]
        design = build_design(X, spec, basis, nbs)
        cp = precompute_crossproducts(design, y)
        ete, xte = design.E.T @ design.E, X.T @ design.E
        sub_blocks = cp.blocks[1::3]
        cols = np.concatenate([np.arange(b.start, b.stop) for b in sub_blocks])
        joint = np.block([[X.T @ X, xte[:, cols]], [xte[:, cols].T, ete[np.ix_(cols, cols)]]])
        sub = RemlProblem(cp, basis, sub_blocks)
        stops = np.cumsum([b.size for b in sub_blocks])
        assert [(b.covariate, b.kind, b.start, b.stop) for b in sub.blocks] == [
            (b.covariate, b.kind, stop - b.size, stop) for b, stop in zip(sub_blocks, stops)
        ]
        for got, want in ((cp.EtE, ete), (sub.joint.a, joint)):
            assert got.flags.f_contiguous
            np.testing.assert_array_equal(got, got.T)
            np.testing.assert_array_equal(got, want)


# One-covariate specs: no random effect, an SVC term, an NVC term.
SPEC_PLAIN = ModelSpec(("x",), (False,), (False,))
SPEC_SVC = ModelSpec(("x",), (True,), (False,))
SPEC_NVC = ModelSpec(("x",), (False,), (True,))


def svc_crossproducts():
    basis = synthetic_basis(10, 3, seed=0)
    design = build_design(np.ones((10, 1)), SPEC_SVC, basis, [None])
    return precompute_crossproducts(design, np.arange(10.0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_design(np.ones((10, 2)), SPEC_PLAIN, None, [None]),
         DimensionMismatch, "X must be N x K with K matching the model spec"),
        (lambda: build_design(np.ones((10, 1)), SPEC_SVC, synthetic_basis(12, 3, seed=0), [None]),
         DimensionMismatch, "spatial basis rows must match X rows"),
        (lambda: build_design(np.ones((10, 1)), SPEC_PLAIN, None, []),
         DimensionMismatch, "nvc_bases must have one entry per covariate"),
        (lambda: build_design(np.ones((10, 1)), SPEC_NVC, None, [None]),
         DimensionMismatch, "covariate 0 has NVC enabled but no basis"),
        (lambda: build_design(np.ones((10, 1)), SPEC_NVC, None, [NvcBasis(np.zeros((12, 3)), np.arange(5.0))]),
         DimensionMismatch, "NVC basis rows must match X rows"),
        (lambda: precompute_crossproducts(build_design(np.ones((10, 1)), SPEC_PLAIN, None, [None]), np.zeros(9)),
         DimensionMismatch, "y length must match the design rows"),
        (lambda: precompute_crossproducts(DesignMatrix(np.eye(2), np.empty((2, 0)), ()), np.zeros(2)),
         ValueError, "need more observations than fixed effects"),
        (lambda: VarianceParams(0.0, [0.0], [1.0], [0.0]), ValueError, "sigma2 must be positive"),
        (lambda: VarianceParams(1.0, [0.0], [1.0], [-1.0]), ValueError, "tau2 values must be nonnegative"),
        (lambda: VarianceParams(1.0, [0.0], [10.5], [0.0]), ValueError, "alpha must lie in [-5.0, 10.0]"),
        (lambda: VarianceParams(math.inf, [0.0], [1.0], [0.0]), ValueError, "variance parameters must be finite"),
        (lambda: VarianceParams(1.0, [0.0], [math.nan], [0.0]), ValueError, "variance parameters must be finite"),
        (lambda: VarianceParams(1.0, [math.nan], [1.0], [0.0]), ValueError, "variance parameters must be finite"),
        (lambda: VarianceParams(1.0, [1.0], [1.0], [0.0]).validate_against(SPEC_PLAIN),
         ValueError, "tau2_s[0] must be 0 when has_svc is false"),
        (lambda: VarianceParams(1.0, [0.0], [1.0], [1.0]).validate_against(SPEC_PLAIN),
         ValueError, "tau2_n[0] must be 0 when has_nvc is false"),
        (lambda: restricted_loglik(svc_crossproducts(), SPEC_SVC, VarianceParams(1.0, [1.0], [1.0], [0.0]), [None]),
         ValueError, "missing eigen scaling for covariate 0"),
    ],
    ids=[
        "design-X-shape", "design-spatial-rows", "design-nvc-count", "design-nvc-missing", "design-nvc-rows",
        "crossproducts-y-length", "crossproducts-too-few-rows", "theta-sigma2", "theta-tau2", "theta-alpha",
        "theta-sigma2-inf", "theta-alpha-nan", "theta-tau2-nan",
        "theta-svc-off", "theta-nvc-off", "loglik-scaling-missing",
    ],
)  # fmt: skip
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def reml_problem(n=30, seed=7, n_eig=3, n_spline=4):
    """Shared fixture: intercept + one covariate, SVC on the intercept,
    NVC on the covariate."""
    rng = np.random.default_rng(seed)
    sites = SiteSet(rng.uniform(0, 10, (n, 2)))
    basis = moran_basis(sites, max_components=n_eig)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    nb = spline_basis(rng.uniform(0, 5, n), n_basis=n_spline)
    y = rng.normal(size=n)
    spec = ModelSpec(("intercept", "x"), (True, False), (False, True), n_spline)
    design = build_design(X, spec, basis, [None, nb])
    cp = precompute_crossproducts(design, y)
    return spec, basis, X, nb, y, design, cp


def dense_reml_oracle(X, E, v, y):
    """Textbook restricted likelihood from the N x N marginal covariance
    sigma2 (I + E V V' E'), residual variance profiled out."""
    n, k = X.shape
    H = np.eye(n) + (E * v) @ (E * v).T
    Hi = np.linalg.inv(H)
    XtHiX = X.T @ Hi @ X
    b = np.linalg.solve(XtHiX, X.T @ Hi @ y)
    r = y - X @ b
    s2 = (r @ Hi @ r) / (n - k)
    loglik = (
        -0.5 * np.linalg.slogdet(H)[1]
        - 0.5 * np.linalg.slogdet(XtHiX)[1]
        - 0.5 * (n - k) * (1.0 + np.log(2.0 * np.pi * s2))
    )
    return loglik, b, s2


def v_diag_for(basis, nb, theta):
    v = np.zeros(basis.n_components + nb.n_components)
    w = (basis.eigvals / basis.eigvals[0]) ** (theta.alpha[0] / 2.0)
    v[: basis.n_components] = np.sqrt(theta.tau2_s[0] / theta.sigma2) * w
    v[basis.n_components :] = np.sqrt(theta.tau2_n[1] / theta.sigma2)
    return v


class TestRestrictedLoglik:
    def test_agrees_with_dense_oracle_on_theta_grid(self):
        spec, basis, X, nb, y, design, cp = reml_problem()
        E = design.E
        for tau_s in (0.05, 0.7, 3.0):
            for alpha in (0.0, 1.0, 2.5):
                for tau_n in (0.05, 0.7, 3.0):
                    theta = VarianceParams(1.0, [tau_s, 0.0], [alpha, 0.0], [0.0, tau_n])
                    res = restricted_loglik(
                        cp, spec, theta, [scale_eigenvalues(basis, alpha), None]
                    )
                    oracle, b_o, s2_o = dense_reml_oracle(X, E, v_diag_for(basis, nb, theta), y)
                    assert abs(res.loglik - oracle) < 1e-6
                    assert np.abs(res.b_hat - b_o).max() < 1e-8
                    assert abs(res.sigma2_hat - s2_o) < 1e-8

    def test_ols_collapse(self):
        spec, basis, X, nb, y, design, cp = reml_problem()
        n, k = X.shape
        theta = VarianceParams(1.0, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
        res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, 1.0), None])
        b_ols, rss, *_ = np.linalg.lstsq(X, y, rcond=None)
        closed = -0.5 * np.linalg.slogdet(X.T @ X)[1] - 0.5 * (n - k) * (
            1.0 + np.log(2.0 * np.pi * rss[0] / (n - k))
        )
        assert np.all(res.gamma == 0.0)
        assert np.abs(res.b_hat - b_ols).max() < 1e-10
        assert abs(res.loglik - closed) < 1e-10

    def test_perfect_fit_breaks_down(self):
        spec, basis, X, nb, _, design, _ = reml_problem()
        y_exact = X @ np.array([1.0, -2.0])
        cp = precompute_crossproducts(design, y_exact)
        theta = VarianceParams(1.0, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(NumericalBreakdown):
            restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, 1.0), None])

    def test_singular_fixed_block(self):
        spec, basis, X, nb, y, design, cp = reml_problem()
        X_bad = np.column_stack([X[:, 0], X[:, 0]])
        design_bad = build_design(X_bad, spec, basis, [None, nb])
        cp_bad = precompute_crossproducts(design_bad, y)
        theta = VarianceParams(1.0, [0.1, 0.0], [1.0, 0.0], [0.0, 0.1])
        with pytest.raises(SingularFixedBlock):
            restricted_loglik(cp_bad, spec, theta, [scale_eigenvalues(basis, 1.0), None])

    def test_blup_equals_augmented_least_squares(self):
        spec, basis, X, nb, y, design, cp = reml_problem(seed=8)
        E = design.E
        theta = VarianceParams(1.0, [0.8, 0.0], [1.3, 0.0], [0.0, 0.4])
        v = v_diag_for(basis, nb, theta)
        res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, 1.3), None])
        # independent oracle: minimize ||y - Xb - E V u||^2 + ||u||^2 on stacked rows
        p = E.shape[1]
        top = np.hstack([X, E * v])
        bottom = np.hstack([np.zeros((p, X.shape[1])), np.eye(p)])
        sol, *_ = np.linalg.lstsq(np.vstack([top, bottom]), np.concatenate([y, np.zeros(p)]), rcond=None)
        assert np.abs(res.b_hat - sol[: X.shape[1]]).max() < 1e-8
        assert np.abs(res.gamma - v * sol[X.shape[1] :]).max() < 1e-8

    def test_shrunken_effect_norm_nondecreasing_in_tau(self):
        # ||gamma|| = ||V u|| (the fitted random-effect coefficients) grows
        # with tau; ||u|| itself is non-monotone in closed form, see the notes.
        spec, basis, X, nb, y, design, cp = reml_problem(seed=9)
        norms = []
        for tau in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3):
            theta = VarianceParams(1.0, [tau**2, 0.0], [1.0, 0.0], [0.0, 0.0])
            res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, 1.0), None])
            norms.append(np.linalg.norm(res.gamma))
        assert np.all(np.diff(norms) >= -1e-12)

    def test_large_tau_approaches_unpenalized_least_squares(self):
        rng = np.random.default_rng(10)
        n = 100
        basis = synthetic_basis(n, 6, seed=10)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        spec = ModelSpec(("intercept", "x"), (True, False), (False, False))
        design = build_design(X, spec, basis, [None, None])
        y = rng.normal(size=n)
        cp = precompute_crossproducts(design, y)
        theta = VarianceParams(1.0, [1e12, 0.0], [0.0, 0.0], [0.0, 0.0])
        res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, 0.0), None])
        E = design.E
        fitted = X @ res.b_hat + E @ res.gamma
        full = np.hstack([X, E])
        coef, *_ = np.linalg.lstsq(full, y, rcond=None)
        fitted_ls = full @ coef
        denom = np.linalg.norm(fitted_ls)
        assert np.linalg.norm(fitted - fitted_ls) / denom < 1e-3

    def test_signature_is_size_free(self):
        params = list(inspect.signature(restricted_loglik).parameters)
        assert params == ["cp", "spec", "theta", "scalings"]
        assert inspect.signature(restricted_loglik).parameters["cp"].annotation == "Crossproducts"


def five_covariate_data(seed=20):
    """K = 5 with 14 searched parameters: tau2_s and alpha for all five
    covariates, tau2_n for the four non-intercept ones."""
    rng = np.random.default_rng(seed)
    n = 100
    sites = SiteSet(rng.uniform(0, 10, (n, 2)))
    basis = moran_basis(sites)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 4))])
    y = X @ np.array([1.0, 0.5, -0.5, 1.0, 0.0]) + X[:, 1] * basis.eigvecs[:, 0]
    y += rng.normal(size=n)
    spec = ModelSpec(("intercept", "a", "b", "c", "d"), (True,) * 5, (False,) + (True,) * 4, 6)
    return X, y, spec, basis


def reml_problem_k1(spec=ModelSpec(("x",), (True,), (True,), 6)):
    """K = 1 with tau2_s, alpha and tau2_n searched, or the terms ``spec`` has."""
    rng = np.random.default_rng(21)
    n = 80
    sites = SiteSet(rng.uniform(0, 10, (n, 2)))
    basis = moran_basis(sites)
    x = 1.0 + rng.normal(size=n)
    nb = spline_basis(x, n_basis=6)
    y = x * (1.0 + basis.eigvecs[:, 0]) + rng.normal(size=n)
    cp = precompute_crossproducts(build_design(x[:, None], spec, basis, [nb]), y)
    return RemlProblem(cp, basis), cp, spec, basis


def reml_problem_k5():
    X, y, spec, basis = five_covariate_data()
    nbs = [spline_basis(X[:, k], 6) if spec.has_nvc[k] else None for k in range(5)]
    cp = precompute_crossproducts(build_design(X, spec, basis, nbs), y)
    return RemlProblem(cp, basis), cp, spec, basis


def reml_problem_large():
    """K = 3 with an SVC block on every covariate (79 eigenvectors each) and an
    NVC block on both slopes, so P = 249 is above twice ``_TRI_LEAF`` and the
    gradient takes the recursive inverse."""
    rng = np.random.default_rng(23)
    n = 400
    sites = SiteSet(rng.uniform(0, 10, (n, 2)))
    basis = moran_basis(sites, max_components=100)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = X @ np.array([1.0, 0.5, -0.5]) + X[:, 1] * basis.eigvecs[:, 0] + rng.normal(size=n)
    spec = ModelSpec(("intercept", "a", "b"), (True,) * 3, (False, True, True), 6)
    nbs = [None] + [spline_basis(X[:, k], 6) for k in (1, 2)]
    cp = precompute_crossproducts(build_design(X, spec, basis, nbs), y)
    assert cp.n_random > 2 * _TRI_LEAF
    return RemlProblem(cp, basis), cp, spec, basis


def reml_problem_two_eigvecs():
    """Two eigenvectors, too few to identify alpha: SVC on the intercept and
    on x, NVC on x, and only the three log variance ratios searched."""
    rng = np.random.default_rng(25)
    n = 60
    sites = SiteSet(rng.uniform(0, 10, (n, 2)))
    basis = moran_basis(sites, max_components=2)
    X = np.column_stack([np.ones(n), 1.0 + rng.normal(size=n)])
    y = X @ np.array([1.0, 0.5]) + 2.0 * basis.eigvecs[:, 0] + X[:, 1] * np.sin(X[:, 1]) + rng.normal(size=n)
    spec = ModelSpec(("intercept", "x"), (True, True), (False, True), 6)
    nbs = [None, spline_basis(X[:, 1], 6)]
    cp = precompute_crossproducts(build_design(X, spec, basis, nbs), y)
    return RemlProblem(cp, basis), cp, spec, basis


@pytest.fixture(
    scope="module",
    params=[(reml_problem_k1, 3), (reml_problem_k5, 14), (reml_problem_large, 8), (reml_problem_two_eigvecs, 3)],
)
def reml_case(request):
    build, n_params = request.param
    case = build()
    assert len(case[0].bounds) == n_params
    return case


def interior_point(problem, unit):
    """Map a point of the unit cube into a box well inside the search bounds."""
    box = {_LOG_TAU2_BOUNDS: (-6.0, 6.0), ALPHA_BOUNDS: (-3.0, 8.0)}
    lo, hi = np.array([box[b] for b in problem.bounds]).T
    return lo + np.asarray(unit) * (hi - lo)


def theta_at(problem, spec, t):
    """VarianceParams with sigma2 = 1 at the searched vector ``t``: each
    block's slice holds its log variance ratio, then its alpha if searched,
    which is otherwise 1."""
    ratios = {}
    for blk, part in zip(problem.blocks, problem.slices):
        log_ratio, *alpha = t[part]
        ratios[blk] = (math.exp(log_ratio), alpha[0] if alpha else 1.0)
    return ratio_theta(spec, ratios)


def ratio_theta(spec, ratios):
    """VarianceParams with sigma2 = 1 from {block: (variance ratio, alpha)}."""
    tau2_s, alpha, tau2_n = np.zeros((3, spec.n_covariates))
    for blk, (r, a) in ratios.items():
        if blk.kind == "svc":
            tau2_s[blk.covariate], alpha[blk.covariate] = r, a
        else:
            tau2_n[blk.covariate] = r
    return VarianceParams(1.0, tau2_s, alpha, tau2_n)


def loglik_at(cp, spec, basis, ratios):
    theta = ratio_theta(spec, ratios)
    scalings = [scale_eigenvalues(basis, float(a)) if s else None for a, s in zip(theta.alpha, spec.has_svc)]
    return restricted_loglik(cp, spec, theta, scalings).loglik


def boundary_scores_at(cp, spec, basis, ratios, alphas):
    """The ``_boundary_scores`` of the blocks missing from ``ratios``, keyed by
    block, with the blocks in ``ratios`` active at their (variance ratio, alpha)."""
    active = tuple(b for b in cp.blocks if b in ratios)
    inactive = tuple(b for b in cp.blocks if b not in ratios)
    problem = RemlProblem(cp, basis, active)
    parts = [[math.log(ratios[b][0]), ratios[b][1]][: p.stop - p.start] for b, p in zip(active, problem.slices)]
    t = np.concatenate([np.empty(0)] + parts)
    log_eig_ratio = np.log(basis.eigvals / basis.eigvals[0])
    scores = _boundary_scores(cp, active, inactive, problem.scaling(t), problem.solve(t), log_eig_ratio, alphas)
    return dict(zip(inactive, scores))


def fitted_ratios(fit):
    """{active block: (variance ratio, alpha)} of a fit."""
    th = fit.theta
    out = {}
    for blk in fit.blocks:
        k = blk.covariate
        r = (th.tau2_s[k] if blk.kind == "svc" else th.tau2_n[k]) / th.sigma2
        if r > 0:
            out[blk] = (r, th.alpha[k])
    return out


def loglik_scaling(cp, theta, scalings):
    """``restricted_loglik``'s scaling diagonal: (tau_s/sigma) sqrt(w_l) on an
    SVC block, with w = ``scalings[k]``, and tau_n/sigma on an NVC block."""
    v = np.zeros(cp.n_random)
    for blk in cp.blocks:
        k = blk.covariate
        if blk.kind == "svc":
            v[blk.start : blk.stop] = math.sqrt(theta.tau2_s[k] / theta.sigma2) * np.sqrt(scalings[k][: blk.size])
        else:
            v[blk.start : blk.stop] = math.sqrt(theta.tau2_n[k] / theta.sigma2)
    return v


def reference_factor_joint(cp, v):
    """``_JointSystem.factor``'s log-likelihood and solution, assembled another way:
    V E'E V through a C-ordered temporary and the diagonal through index arrays."""
    n, k, p = cp.n_obs, cp.n_fixed, cp.n_random
    g = np.empty((k + p, k + p), order="F")
    g[:k, :k] = cp.XtX
    g[:k, k:] = cp.XtE * v
    g[k:, :k] = g[:k, k:].T
    np.multiply(v[:, None] * cp.EtE, v[None, :], out=g[k:, k:])
    g[k + np.arange(p), k + np.arange(p)] += 1.0
    rhs = np.concatenate([cp.Xty, v * cp.Ety])
    factor, info = scipy.linalg.lapack.dpotrf(g, lower=1, clean=1, overwrite_a=1)
    assert info == 0
    sol, _ = scipy.linalg.lapack.dpotrs(factor, rhs, lower=1)
    sigma2_hat = (cp.yty - float(rhs @ sol)) / (n - k)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    loglik = -0.5 * logdet - 0.5 * (n - k) * (1.0 + math.log(2.0 * math.pi * sigma2_hat))
    return loglik, sol


def lower_factor(n, seed, offset=3):
    """A well-conditioned clean lower Cholesky factor of order ``n``, as the
    lower-right block of a larger Fortran-ordered factor (a strided view)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + offset, 2 * (n + offset))) / math.sqrt(2 * (n + offset))
    factor = scipy.linalg.cholesky(a @ a.T + np.eye(n + offset), lower=True)
    return np.asfortranarray(factor)[offset:, offset:]


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, _TRI_LEAF, _TRI_LEAF + 1, 2 * _TRI_LEAF + 1, 623])
    def test_column_norms_match_one_dtrtri(self, n):
        l = lower_factor(n, seed=n)
        inv, info = scipy.linalg.lapack.dtrtri(l, lower=1)
        assert info == 0
        expected = np.einsum("ij,ij->j", inv, inv)
        norms = _lower_inverse(l, norms_only=True)
        assert np.max(np.abs(norms - expected) / expected) <= 1e-13
        full = _lower_inverse(l)
        assert np.max(np.abs(full - inv)) <= 1e-13 * np.max(np.abs(inv))

    def test_zero_pivot_at_every_level_breaks_down(self):
        # One zero on the diagonal at the first row of the right half on each
        # level of the recursion down the left edge, and at both ends.
        n = 623
        pivots, size = [0, n - 1], n
        while size > _TRI_LEAF:
            size //= 2
            pivots.append(size)
        assert len(pivots) >= 4
        for i in pivots:
            l = lower_factor(n, seed=1)
            l[i, i] = 0.0
            with pytest.raises(NumericalBreakdown):
                _lower_inverse(l, norms_only=True)


class TestRemlProblem:
    def test_assembly_is_bit_for_bit_the_reference(self, reml_case):
        problem, cp, spec, basis = reml_case
        rng = np.random.default_rng(24)
        for _ in range(3):
            t = interior_point(problem, rng.uniform(size=len(problem.bounds)))
            loglik, sol, _, _ = problem.solve(t)
            ref_loglik, ref_sol = reference_factor_joint(cp, problem.scaling(t))
            assert loglik == ref_loglik
            np.testing.assert_array_equal(sol, ref_sol)

            theta = theta_at(problem, spec, t)
            scalings = [
                scale_eigenvalues(basis, float(theta.alpha[k])) if spec.has_svc[k] else None
                for k in range(spec.n_covariates)
            ]
            res = restricted_loglik(cp, spec, theta, scalings)
            v = loglik_scaling(cp, theta, scalings)
            ref_loglik, ref_sol = reference_factor_joint(cp, v)
            assert res.loglik == ref_loglik
            np.testing.assert_array_equal(res.b_hat, ref_sol[: cp.n_fixed])
            np.testing.assert_array_equal(res.gamma, v * ref_sol[cp.n_fixed :])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gradient_matches_central_differences(self, reml_case, data):
        problem = reml_case[0]
        size = len(problem.bounds)
        unit = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        t = interior_point(problem, unit)
        _, grad = problem.value_and_grad(t)
        h = 1e-5
        numeric = np.array(
            [
                (problem.value_and_grad(t + h * e)[0] - problem.value_and_grad(t - h * e)[0]) / (2 * h)
                for e in np.eye(size)
            ]
        )
        assert np.linalg.norm(grad - numeric) <= 1e-5 * np.linalg.norm(numeric)

    def test_value_equals_restricted_loglik(self, reml_case):
        problem, cp, spec, basis = reml_case
        rng = np.random.default_rng(22)
        for _ in range(5):
            t = interior_point(problem, rng.uniform(size=len(problem.bounds)))
            theta = theta_at(problem, spec, t)
            scalings = [
                scale_eigenvalues(basis, float(theta.alpha[k])) if spec.has_svc[k] else None
                for k in range(spec.n_covariates)
            ]
            value, _ = problem.value_and_grad(t)
            assert abs(value - restricted_loglik(cp, spec, theta, scalings).loglik) <= 1e-10

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        c=st.floats(1e-3, 1e3).flatmap(lambda m: st.sampled_from([m, -m])),
    )
    def test_scaling_the_response_shifts_the_value(self, reml_case, data, c):
        # y -> c y multiplies the profiled variance by c^2 and leaves the
        # variance ratios, so the value drops by (N - K) log|c| and the
        # gradient is unchanged.
        problem, cp, spec, basis = reml_case
        size = len(problem.bounds)
        t = interior_point(problem, data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
        cp_c = dataclasses.replace(cp, Xty=c * cp.Xty, Ety=c * cp.Ety, yty=c * c * cp.yty)
        value, grad = problem.value_and_grad(t)
        value_c, grad_c = RemlProblem(cp_c, basis).value_and_grad(t)
        expected = value - (cp.n_obs - cp.n_fixed) * math.log(abs(c))
        assert abs(value_c - expected) <= 1e-10 * abs(expected)
        assert np.linalg.norm(grad_c - grad) <= 1e-10 * np.linalg.norm(grad)

    def test_fit_equals_restricted_loglik_at_its_estimate(self, reml_case):
        # fit_reml's final evaluation goes through RemlProblem; the public
        # function must give the same likelihood, effects and variance.
        _, cp, spec, basis = reml_case
        fit = fit_reml(cp, spec, basis)
        scalings = [
            scale_eigenvalues(basis, float(fit.theta.alpha[k])) if spec.has_svc[k] else None
            for k in range(spec.n_covariates)
        ]
        res = restricted_loglik(cp, spec, fit.theta, scalings)
        assert abs(fit.restricted_loglik - res.loglik) <= 1e-10
        assert fit.theta.sigma2 == pytest.approx(res.sigma2_hat, rel=1e-10)
        np.testing.assert_allclose(
            np.concatenate([fit.b_hat, fit.gamma]),
            np.concatenate([res.b_hat, res.gamma]),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_boundary_score_matches_forward_difference(self, reml_case):
        # Each block in turn inactive, the others at ratio 0.5 and alpha 1:
        # the one-sided score is d loglik / d r_b at r_b = 0.  The step makes
        # the block's largest column term r_b w_l (E'E)_ll equal to 1e-6, so
        # neither the curvature nor the rounding of the likelihood shows.
        _, cp, spec, basis = reml_case
        for blk in cp.blocks:
            others = {b: (0.5, 1.0) for b in cp.blocks if b != blk}
            base = loglik_at(cp, spec, basis, others)
            norms = np.diag(cp.EtE)[blk.start : blk.stop]
            for alpha in (1.0, -2.0) if blk.kind == "svc" else (0.0,):
                w = (basis.eigvals[: blk.size] / basis.eigvals[0]) ** alpha if blk.kind == "svc" else 1.0
                h = 1e-6 / np.max(w * norms)
                score = boundary_scores_at(cp, spec, basis, others, np.array([alpha]))[blk][0]
                numeric = (loglik_at(cp, spec, basis, {**others, blk: (h, alpha)}) - base) / h
                assert abs(score - numeric) <= 1e-4 * abs(numeric), (blk, alpha)

    def test_truly_zero_blocks_stay_inactive_with_nonpositive_score(self):
        # In the K = 5 generator only covariate a varies in space; b and c
        # have no non-spatial variation and d no variation at all.
        _, cp, spec, basis = reml_problem_k5()
        fit = fit_reml(cp, spec, basis)
        assert fit.converged
        assert {"b:nvc", "c:nvc"} <= set(fit.inactive_terms)
        names = spec.covariate_names
        scores = boundary_scores_at(cp, spec, basis, fitted_ratios(fit), _ALPHA_GRID)
        assert sorted(f"{names[b.covariate]}:{b.kind}" for b in scores) == sorted(fit.inactive_terms)
        for blk, s in scores.items():
            assert np.all(s <= 0.0), blk
            k = blk.covariate
            assert (fit.theta.tau2_s[k] if blk.kind == "svc" else fit.theta.tau2_n[k]) == 0.0

    def test_block_with_positive_score_enters_and_fit_converges(self):
        # From the model without random effects, both K = 1 blocks have a
        # positive score (the generator's coefficient varies in space); the
        # fit activates them and ends at a KKT point.
        _, cp, spec, basis = reml_problem_k1()
        scores = boundary_scores_at(cp, spec, basis, {}, _ALPHA_GRID)
        assert all(s.max() > 0.0 for s in scores.values())
        fit = fit_reml(cp, spec, basis)
        assert fit.converged
        assert fit.inactive_terms == ()
        assert fit.theta.tau2_s[0] > 0.0 and fit.theta.tau2_n[0] > 0.0

    def test_alpha_is_one_where_it_is_not_searched(self):
        # Two eigenvectors: every block's slice holds its log ratio alone,
        # and the fit reports alpha = 1 exactly for each active SVC block.
        problem, cp, spec, basis = reml_problem_two_eigvecs()
        assert [p.stop - p.start for p in problem.slices] == [1, 1, 1]
        fit = fit_reml(cp, spec, basis)
        assert fit.converged
        active_svc = [b.covariate for b in cp.blocks if b.kind == "svc" and fit.theta.tau2_s[b.covariate] > 0]
        assert active_svc
        assert all(fit.theta.alpha[k] == 1.0 for k in active_svc)

    def test_singular_fixed_block_raised_at_construction(self):
        spec, basis, X, nb, y, design, cp = reml_problem()
        design_bad = build_design(np.column_stack([X[:, 0], X[:, 0]]), spec, basis, [None, nb])
        with pytest.raises(SingularFixedBlock):
            RemlProblem(precompute_crossproducts(design_bad, y), basis)


def scenario_fit(w_s, iteration, estimator):
    """Fit SVC_M or SNVC_M to one N = 150 scenario draw with seed 3."""
    config = ScenarioConfig(n_sites=150, w_s=w_s, seed=3)
    inst = gen_instance(config, iteration)
    basis = moran_basis(inst.sites, config.max_eigvecs)
    nvc = estimator == "SNVC_M"
    spec = ModelSpec(("intercept", "x2", "x3"), (True,) * 3, (False, nvc, nvc))
    return fit_snvc(inst.X, inst.y, spec, basis)[0]


class TestFitInvariance:
    """A fit does not depend on the order of the sites or of the covariates."""

    @staticmethod
    def fit(inst, order, cols, estimator):
        names, nvc = ("intercept", "x2", "x3"), estimator == "SNVC_M"
        spec = ModelSpec(tuple(names[j] for j in cols), (True,) * 3, (False, nvc, nvc))
        basis = moran_basis(SiteSet(inst.sites.coords[order]), 200)
        return fit_snvc(inst.X[np.ix_(order, cols)], inst.y[order], spec, basis)

    @pytest.mark.parametrize("estimator", ["SVC_M", "SNVC_M"])
    @pytest.mark.parametrize("w_s, iteration", [(0.5, 0), (1.0, 2)])
    @pytest.mark.parametrize("case", ["permuted-sites", "swapped-x2-x3"])
    def test_fit_is_invariant_to_the_order_of_sites_and_covariates(self, case, w_s, iteration, estimator):
        inst = gen_instance(ScenarioConfig(n_sites=150, seed=3, w_s=w_s), iteration)
        identity, cols = np.arange(150), [0, 1, 2]
        fit, fld = self.fit(inst, identity, cols, estimator)
        if case == "permuted-sites":
            order = np.random.default_rng(0).permutation(150)
            other, other_fld = self.fit(inst, order, cols, estimator)
            expected_total = fld.total[order]
        else:
            order, cols = identity, [0, 2, 1]
            other, other_fld = self.fit(inst, order, cols, estimator)
            expected_total = fld.total[:, cols]
        assert fit.converged and other.converged
        # Term names travel with their covariate, so the sets compare directly.
        assert set(other.inactive_terms) == set(fit.inactive_terms)
        assert abs(other.restricted_loglik - fit.restricted_loglik) <= 1e-9 * abs(fit.restricted_loglik)
        assert np.abs(other_fld.total - expected_total).max() <= 1e-4 * np.abs(fld.total).max()


class TestFitReml:
    def test_pure_noise_shrinks_spatial_variance(self):
        # On pure noise the fitted spatial surface must be near-uniform:
        # its variance stays below 5% of Var(y) in at least 90% of replicates.
        # (The variance is measured on the realized field because the stored
        # tau2 lives on the normalized-eigenvalue scale.)
        hits = 0
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            sites = SiteSet(rng.uniform(0, 10, (200, 2)))
            basis = moran_basis(sites)
            X = np.ones((200, 1))
            y = rng.normal(size=200)
            spec = ModelSpec(("intercept",), (True,), (False,))
            design = build_design(X, spec, basis, [None])
            cp = precompute_crossproducts(design, y)
            fit = fit_reml(cp, spec, basis)
            assert fit.converged, rep
            field = predict_coefficients(fit, basis, [None])
            if field.sd_svc[0] ** 2 < 0.05 * y.var(ddof=1):
                hits += 1
        assert hits >= 18

    def test_recovers_known_variances_within_factor_two(self):
        taus_s, alphas, taus_n = [], [], []
        for rep in range(20):
            rng = np.random.default_rng(300 + rep)
            n = 500
            sites = SiteSet(rng.uniform(0, 10, (n, 2)))
            basis = moran_basis(sites)
            x = 1.0 + rng.normal(size=n)
            X = x[:, None]
            nb = spline_basis(x, n_basis=6)
            # generate from the model itself: tau_s = tau_n = sigma = 1, alpha = 1
            w = np.sqrt((basis.eigvals / basis.eigvals[0]) ** 1.0)
            gamma_s = basis.eigvecs @ (w * rng.standard_normal(basis.n_components))
            gamma_n = nb.values @ rng.standard_normal(nb.n_components)
            beta = 1.0 + gamma_s + gamma_n
            y = x * beta + rng.standard_normal(n)
            spec = ModelSpec(("x",), (True,), (True,), 6)
            design = build_design(X, spec, basis, [nb])
            cp = precompute_crossproducts(design, y)
            fit = fit_reml(cp, spec, basis)
            taus_s.append(fit.theta.tau2_s[0])
            alphas.append(fit.theta.alpha[0])
            taus_n.append(fit.theta.tau2_n[0])
        assert 0.5 <= np.median(taus_s) <= 2.0
        assert 0.5 <= np.median(taus_n) <= 2.0
        assert -1.0 <= np.median(alphas) <= 3.0

    def test_no_random_effects_reduces_to_ols(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.normal(size=40)
        spec = ModelSpec(("intercept", "x"), (False, False), (False, False))
        design = build_design(X, spec, None, [None, None])
        cp = precompute_crossproducts(design, y)
        fit = fit_reml(cp, spec, None)
        b_ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.abs(fit.b_hat - b_ols).max() < 1e-10
        assert fit.converged

    def test_deterministic(self):
        spec, basis, X, nb, y, design, cp = reml_problem(n=60, seed=12)
        fit1 = fit_reml(cp, spec, basis)
        fit2 = fit_reml(cp, spec, basis)
        assert fit1.restricted_loglik == fit2.restricted_loglik
        np.testing.assert_array_equal(fit1.gamma, fit2.gamma)
        assert fit1.n_loglik_evals == fit2.n_loglik_evals

    def test_breakdown_during_search_is_not_converged(self, monkeypatch):
        # Every evaluation above a ceiling between the model without random
        # effects, where the search starts, and the optimum breaks down.
        # L-BFGS-B stops at the last finite point and calls it success; the
        # fit must not.  The problem has one interior maximum: a fit at zero
        # variances needs no evaluation, and a second local maximum below
        # the ceiling would be a correct converged answer.
        spec = ModelSpec(("x",), (False,), (True,), 6)
        _, cp, _, basis = reml_problem_k1(spec)
        honest = fit_reml(cp, spec, basis)
        assert honest.converged
        zero = VarianceParams(1.0, [0.0], [1.0], [0.0])
        start_best = restricted_loglik(cp, spec, zero, [None]).loglik
        ceiling = 0.5 * (start_best + honest.restricted_loglik)
        assert start_best < ceiling < honest.restricted_loglik
        original = RemlProblem.solve

        def capped(self, t):
            point = original(self, t)
            if point[0] > ceiling:
                raise NumericalBreakdown("forced breakdown above the ceiling")
            return point

        monkeypatch.setattr(RemlProblem, "solve", capped)
        fit = fit_reml(cp, spec, basis)
        assert fit.restricted_loglik <= ceiling
        assert fit.converged is False

    @pytest.mark.parametrize("gain, resumed", [(0.5, False), (10.0, True)])
    def test_failed_run_is_resumed_only_after_a_real_gain(self, monkeypatch, gain, resumed):
        # A run whose line search fails (status 2) is resumed only if it
        # gained more than _FTOL of |loglik|; a smaller gain is rounding, and
        # the run has stalled at a converged point.  At a gain of 1e-12 an
        # N = 1600 fit used to resume the same run until the budget ran out.
        _, cp, spec, basis = reml_problem_k1()
        search = _ActiveSet(cp, basis)
        best, _ = search.assess()
        search.enter(best)
        search.optimize(_FTOL)
        start = search.loglik
        t = search.point()

        def stalled(problem, t0, maxfun, ftol):
            fun = -(start + gain * _FTOL * abs(start))
            return scipy.optimize.OptimizeResult(x=t.copy(), fun=fun, success=False, status=2, nfev=15)

        monkeypatch.setattr(core, "_search", stalled)
        search.optimize(_FTOL)
        assert search.converged is not resumed
        assert search.tight is not resumed

    # Restricted log-likelihoods the earlier two-start Nelder-Mead search
    # reached (unconverged, about 2000 evaluations each) on N = 150 scenario
    # draws: seed 3, w_s = 0.5, keyed by (iteration, estimator).
    NELDER_MEAD_LOGLIK = {
        (0, "SVC_M"): -407.76769074284977,
        (0, "SNVC_M"): -368.15538404313446,
        (1, "SVC_M"): -425.7814286056232,
        (1, "SNVC_M"): -366.4516638597369,
        (2, "SVC_M"): -426.42100801172,
        (2, "SNVC_M"): -361.9298172990208,
        (3, "SVC_M"): -408.7227221116266,
        (3, "SNVC_M"): -373.31275148152736,
    }

    def test_scenario_corpus_converges_at_least_as_high_as_nelder_mead(self):
        for (iteration, estimator), loglik in self.NELDER_MEAD_LOGLIK.items():
            fit = scenario_fit(0.5, iteration, estimator)
            assert fit.converged, (iteration, estimator)
            assert fit.restricted_loglik >= loglik - 1e-4, (iteration, estimator)

    # Restricted log-likelihoods L-BFGS-B with a finite-difference gradient
    # reached on N = 150 scenario draws with seed 3, keyed by (w_s, iteration,
    # estimator).  Both surfaces have a flat ridge on which a loose
    # relative-reduction test stops 0.35 and 0.04 short.
    FINITE_DIFFERENCE_LOGLIK = {
        (0.0, 1, "SVC_M"): -448.28891520812965,
        (0.0, 4, "SNVC_M"): -326.8706977891288,
    }

    def test_flat_ridge_fits_reach_the_finite_difference_optimum(self):
        for (w_s, iteration, estimator), loglik in self.FINITE_DIFFERENCE_LOGLIK.items():
            fit = scenario_fit(w_s, iteration, estimator)
            assert fit.converged, (w_s, iteration, estimator)
            assert fit.restricted_loglik >= loglik - 1e-4, (w_s, iteration, estimator)

    def test_duplicate_sites_fit(self):
        # 30 of 120 sites repeat earlier coordinates: zero distances enter the
        # MST range, the proximity matrix and the eigenvectors.
        rng = np.random.default_rng(31)
        coords = rng.uniform(0, 10, (90, 2))
        sites = SiteSet(np.vstack([coords, coords[rng.choice(90, 30, replace=False)]]))
        basis = moran_basis(sites)
        x = rng.uniform(0, 5, 120)
        X = np.column_stack([np.ones(120), x])
        y = 1.0 + basis.eigvecs[:, 0] + np.sin(x) * x + rng.normal(size=120)
        spec = ModelSpec(("intercept", "x"), (True, True), (False, True), 6)
        fit, field = fit_snvc(X, y, spec, basis)
        assert fit.converged
        np.testing.assert_array_equal(field.total, field.mean[None, :] + field.svc + field.nvc)

    def test_five_covariates_fourteen_parameters(self):
        X, y, spec, basis = five_covariate_data()
        fit1, field1 = fit_snvc(X, y, spec, basis)
        fit2, field2 = fit_snvc(X, y, spec, basis)
        assert np.isfinite(fit1.restricted_loglik)
        assert fit1.converged
        np.testing.assert_array_equal(field1.total, field1.mean[None, :] + field1.svc + field1.nvc)
        assert fit1.restricted_loglik == fit2.restricted_loglik
        assert fit1.n_loglik_evals == fit2.n_loglik_evals
        np.testing.assert_array_equal(field1.total, field2.total)

    # Restricted log-likelihoods the two-start search over every block
    # reached on five_covariate_data(seed), converged.
    FULL_SET_LOGLIK = {20: -144.740461, 24: -137.230163}

    @pytest.mark.parametrize("seed", sorted(FULL_SET_LOGLIK), ids=lambda s: f"seed{s}")
    def test_five_covariate_fit_reaches_the_full_set_search(self, seed):
        X, y, spec, basis = five_covariate_data(seed)
        nbs = [spline_basis(X[:, k], 6) if spec.has_nvc[k] else None for k in range(5)]
        fit = fit_reml(precompute_crossproducts(build_design(X, spec, basis, nbs), y), spec, basis)
        assert fit.converged
        assert fit.restricted_loglik >= self.FULL_SET_LOGLIK[seed] - 1e-6

    def test_every_entry_raises_the_likelihood(self):
        # Screening on the K = 5 problem, where SVC blocks enter at alpha -5:
        # each entry ratio lies inside the search bounds and ends above the
        # likelihood before it.
        _, cp, spec, basis = reml_problem_k5()
        search = _ActiveSet(cp, basis)
        best, score = search.assess()
        n_entries = 0
        while score > _SCORE_TOL * abs(search.loglik):
            before = search.loglik
            assert search.enter(best)
            n_entries += 1
            assert search.loglik > before
            assert search.loglik == search.problem.solve(search.point())[0]
            assert search.values[best][0] >= _LOG_TAU2_BOUNDS[0]
            search.optimize(_SCREEN_FTOL)
            best, score = search.assess()
        assert n_entries >= 3

    def test_fit_ends_on_the_solve_its_search_certified(self, monkeypatch):
        # The K = 5 fit converges with b:nvc and c:nvc inactive.  Every
        # counted evaluation is one factorization or one reuse of the kept
        # factor, and the last factorization, of the active blocks' system
        # at the end point, gives the fit's numbers: gamma is u times the
        # scaling that factorization was assembled at.
        _, cp, spec, basis = reml_problem_k5()
        orders, scalings, results, reuses = [], [], [], []
        factor, solve = core._JointSystem.factor, RemlProblem.solve

        def recording_factor(self, v):
            orders.append(self.a.shape[0])  # before the call, which may break down
            scalings.append(v.copy())
            results.append(factor(self, v))
            return results[-1]

        def counting_solve(self, t):
            before = len(orders)
            point = solve(self, t)
            if len(orders) == before:
                reuses.append(t)
            return point

        monkeypatch.setattr(core._JointSystem, "factor", recording_factor)
        monkeypatch.setattr(RemlProblem, "solve", counting_solve)
        fit = fit_reml(cp, spec, basis)
        assert fit.converged
        assert {"b:nvc", "c:nvc"} <= set(fit.inactive_terms)
        assert reuses
        assert len(orders) + len(reuses) == fit.n_loglik_evals
        names = spec.covariate_names
        inactive = [b for b in cp.blocks if f"{names[b.covariate]}:{b.kind}" in fit.inactive_terms]
        assert orders[-1] == cp.n_fixed + cp.n_random - sum(b.size for b in inactive)
        loglik, sol, sigma2_hat, _ = results[-1]
        assert loglik == fit.restricted_loglik
        assert fit.theta.sigma2 == sigma2_hat
        np.testing.assert_array_equal(fit.b_hat, sol[: cp.n_fixed])
        active = np.concatenate([np.arange(b.start, b.stop) for b in cp.blocks if b not in inactive])
        np.testing.assert_array_equal(fit.gamma[active], scalings[-1] * sol[cp.n_fixed :])
        for blk in inactive:
            assert np.all(fit.gamma[blk.start : blk.stop] == 0.0)


class TestKeptFactor:
    """``RemlProblem`` keeps the last point it factored, and nothing else."""

    @pytest.fixture
    def dpotrf_calls(self, monkeypatch):
        calls = []
        dpotrf = scipy.linalg.lapack.dpotrf

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(core.lapack, "dpotrf", counting)
        return calls

    def test_a_second_solve_at_one_point_factors_once(self, dpotrf_calls):
        problem = reml_problem_k1()[0]
        t = interior_point(problem, [0.3, 0.6, 0.4])
        first = problem.solve(t)
        second = problem.solve(t.copy())
        assert len(dpotrf_calls) == 1
        assert second[0] == first[0] and second[2] == first[2]
        np.testing.assert_array_equal(second[1], first[1])

    def test_value_and_grad_after_solve_is_a_fresh_evaluation(self, dpotrf_calls):
        problem, cp, _, basis = reml_problem_k1()
        t = interior_point(problem, [0.7, 0.2, 0.5])
        problem.solve(t)
        value, grad = problem.value_and_grad(t)
        assert len(dpotrf_calls) == 1
        fresh_value, fresh_grad = RemlProblem(cp, basis).value_and_grad(t)
        assert value == fresh_value
        np.testing.assert_array_equal(grad, fresh_grad)

    def test_a_breakdown_is_not_kept_and_spoils_no_later_point(self, dpotrf_calls):
        # A NaN in t breaks the assembled system down after it has
        # overwritten the buffer that held the factor of t0.
        problem, cp, _, basis = reml_problem_k1()
        t0 = interior_point(problem, [0.5, 0.5, 0.5])
        bad = t0.copy()
        bad[0] = math.nan
        expected = RemlProblem(cp, basis).solve(t0)
        problem.solve(t0)
        before = len(dpotrf_calls)
        for _ in range(2):
            with pytest.raises(NumericalBreakdown):
                problem.solve(bad)
        assert len(dpotrf_calls) == before + 2
        point = problem.solve(t0)
        assert len(dpotrf_calls) == before + 3
        assert point[0] == expected[0] and point[2] == expected[2]
        np.testing.assert_array_equal(point[1], expected[1])

    def test_no_state_leaks_between_fits(self):
        _, cp, spec, basis = reml_problem_k1()
        _, cp_other, spec_other, basis_other = reml_problem_k5()
        first = fit_reml(cp, spec, basis)
        fit_reml(cp_other, spec_other, basis_other)
        again = fit_reml(cp, spec, basis)
        for name in ("restricted_loglik", "n_loglik_evals", "converged", "inactive_terms"):
            assert getattr(again, name) == getattr(first, name)
        for name in ("b_hat", "gamma"):
            np.testing.assert_array_equal(getattr(again, name), getattr(first, name))
        for f in dataclasses.fields(VarianceParams):
            np.testing.assert_array_equal(getattr(again.theta, f.name), getattr(first.theta, f.name))


@pytest.fixture(scope="module", params=[(3, 185.805), (11, 294.26)], ids=["seed3", "seed11"])
def toy_cli_fit(request):
    """The ``snvc fit`` spec on ``gen_toy(seed)``: intercept, x1 and x2, SVC on
    all three, NVC on x1 and x2, 200 eigenvectors; with the floor its
    log-likelihood must reach."""
    seed, floor = request.param
    inst = gen_toy(seed)
    X = np.column_stack([np.ones(inst.sites.n_sites), inst.X])
    spec = ModelSpec(("intercept", "x1", "x2"), (True,) * 3, (False, True, True))
    return fit_snvc(X, inst.y, spec, moran_basis(inst.sites, 200))[0], floor


def test_evaluation_budget_stops_the_search_unconverged(monkeypatch):
    # The snvc fit spec on a 20 x 20 toy grid with 50 eigenvectors converges
    # in more than 30 evaluations; a budget of 30 stops the search short.
    inst = gen_toy(3, grid=(20, 20))
    X = np.column_stack([np.ones(inst.sites.n_sites), inst.X])
    spec = ModelSpec(("intercept", "x1", "x2"), (True,) * 3, (False, True, True))
    basis = moran_basis(inst.sites, 50)
    full = fit_snvc(X, inst.y, spec, basis)[0]
    assert full.converged and full.n_loglik_evals > 30
    monkeypatch.setattr("snvc.core._MAX_EVALS_TOTAL", 30)
    fit = fit_snvc(X, inst.y, spec, basis)[0]
    assert fit.converged is False
    assert fit.n_loglik_evals <= 30


class TestSearchRobustness:
    """The search's ways out when an entry or a run goes wrong, each forced on
    ``reml_problem_k1``, which converges with both blocks active."""

    @pytest.fixture(scope="class")
    def case(self):
        _, cp, spec, basis = reml_problem_k1()
        return cp, spec, basis, fit_reml(cp, spec, basis)

    def test_entry_trial_that_breaks_down_is_skipped(self, case, monkeypatch):
        cp, spec, basis, honest = case
        enter, solve = _ActiveSet.enter, RemlProblem.solve
        trial, broken = [None], []  # trial: solves since the current entry began

        def entering(self, blk):
            trial[0] = 0
            try:
                return enter(self, blk)
            finally:
                trial[0] = None

        def first_trial_breaks(self, t):
            if trial[0] is not None:
                trial[0] += 1
                if trial[0] == 1:
                    broken.append(t)
                    raise NumericalBreakdown("forced breakdown of an entry's first trial")
            return solve(self, t)

        monkeypatch.setattr(_ActiveSet, "enter", entering)
        monkeypatch.setattr(RemlProblem, "solve", first_trial_breaks)
        fit = fit_reml(cp, spec, basis)
        assert len(broken) == 2  # both blocks entered past a breakdown
        assert fit.converged
        assert fit.inactive_terms == ()
        assert fit.restricted_loglik == pytest.approx(honest.restricted_loglik, rel=1e-10)

    def test_entry_whose_trials_all_lower_the_likelihood_ends_unconverged(self, case, monkeypatch):
        cp, spec, basis, _ = case
        monkeypatch.setattr(core, "_ENTRY_LOG_RATIOS", np.log([1e12]))
        monkeypatch.setattr(core, "_ENTRY_SMALL_LOG_RATIOS", np.log([1e13]))
        fit = fit_reml(cp, spec, basis)
        # One score check, then the two trials of the best block's entry.
        assert fit.n_loglik_evals == 3
        assert fit.converged is False
        assert fit.inactive_terms == ("x:svc", "x:nvc")
        assert np.all(fit.theta.tau2_s == 0.0) and np.all(fit.theta.tau2_n == 0.0)

    def test_budget_spent_inside_an_entry_ends_unconverged(self, case, monkeypatch):
        cp, spec, basis, _ = case
        monkeypatch.setattr(core, "_MAX_EVALS_TOTAL", 3)
        fit = fit_reml(cp, spec, basis)
        # A score check and one entry trial leave only the closing score
        # check, the 3rd, so the run after the entry does not start.
        assert fit.n_loglik_evals == 3
        assert fit.converged is False

    def test_run_stops_at_its_share_on_the_best_point_it_evaluated(self, case, monkeypatch):
        cp, _, basis, _ = case
        problem = RemlProblem(cp, basis)
        seen, value_and_grad = [], RemlProblem.value_and_grad

        def recording(self, t):
            value, grad = value_and_grad(self, t)
            seen.append((value, t.copy()))
            return value, grad

        monkeypatch.setattr(RemlProblem, "value_and_grad", recording)
        run = core._search(problem, problem.starts()[0], 4, _FTOL)
        assert len(seen) == run.nfev == 4
        assert run.status == 1 and not run.success
        best_value, best_t = max(seen, key=lambda s: s[0])
        assert -run.fun == best_value
        np.testing.assert_array_equal(run.x, best_t)

    def test_runs_that_only_break_down_keep_the_stored_point(self, case, monkeypatch):
        cp, spec, basis, honest = case

        def broken(self, t):
            raise NumericalBreakdown("forced breakdown of every gradient evaluation")

        monkeypatch.setattr(RemlProblem, "value_and_grad", broken)
        fit = fit_reml(cp, spec, basis)
        assert fit.converged is False
        # The entries' points stand, and the reported numbers are theirs.
        assert fit.inactive_terms == ()
        assert math.isfinite(fit.restricted_loglik) and fit.restricted_loglik < honest.restricted_loglik
        assert fit.restricted_loglik == pytest.approx(loglik_at(cp, spec, basis, fitted_ratios(fit)), rel=1e-12)


def reference_search(problem, t0, maxfun, ftol):
    """``_search`` written over ``scipy.optimize.minimize``: the oracle of its direct driver."""

    class ShareSpent(Exception):
        pass

    broke, calls, best, last = False, 0, (math.inf, t0), (b"", None)

    def objective(t):
        nonlocal broke, calls, best, last
        if calls == maxfun:
            raise ShareSpent
        calls += 1
        try:
            value, grad = problem.value_and_grad(t)
        except NumericalBreakdown:
            broke = True
            last = (t.tobytes(), np.zeros_like(t))
            return math.inf
        last = (t.tobytes(), -grad)
        if -value < best[0]:
            best = (-value, t.copy())
        return -value

    def gradient(t):
        if t.tobytes() != last[0]:
            objective(t)
        return last[1]

    try:
        run = scipy.optimize.minimize(
            objective, t0, jac=gradient, method="L-BFGS-B", bounds=problem.bounds,
            options={"maxfun": maxfun, "ftol": ftol},
        )  # fmt: skip
    except ShareSpent:
        run = scipy.optimize.OptimizeResult(x=best[1], fun=best[0], success=False, status=1)
    run.nfev = calls
    if broke:
        run.success, run.status = False, -1
    return run


class TestSearchDriver:
    """``_search`` drives scipy's L-BFGS-B routine itself and must end every
    run where ``scipy.optimize.minimize`` would, after as many evaluations."""

    @staticmethod
    def assert_same_run(problem, t0, maxfun, ftol):
        expected = reference_search(problem, t0, maxfun, ftol)
        run = core._search(problem, t0, maxfun, ftol)
        assert run.x.tobytes() == expected.x.tobytes()
        assert (run.fun, run.nfev, run.status, run.success) == (
            expected.fun, expected.nfev, expected.status, expected.success
        )  # fmt: skip
        return run

    @pytest.mark.parametrize("ftol", [_FTOL, _SCREEN_FTOL], ids=["polish", "screen"])
    @pytest.mark.parametrize("start", [0, 1])
    def test_runs_end_as_minimize_ends_them(self, reml_case, start, ftol):
        problem = reml_case[0]
        run = self.assert_same_run(problem, problem.starts()[start], core._MAX_EVALS_TOTAL, ftol)
        assert run.status in (0, 2)

    @pytest.mark.parametrize("start", [0, 1])
    def test_a_run_cut_at_its_share_ends_as_minimize_ends_it(self, start):
        problem = reml_problem_k1()[0]
        run = self.assert_same_run(problem, problem.starts()[start], 4, _FTOL)
        assert run.status == 1 and run.nfev == 4

    @pytest.mark.parametrize("start", [0, 1])
    def test_a_run_that_breaks_down_ends_as_minimize_ends_it(self, start, monkeypatch):
        # Every point above a ceiling halfway up from the start breaks down.
        problem = reml_problem_k1()[0]
        t0 = problem.starts()[start]
        honest = core._search(problem, t0, core._MAX_EVALS_TOTAL, _FTOL)
        ceiling = 0.5 * (problem.value_and_grad(t0)[0] - honest.fun)
        value_and_grad = RemlProblem.value_and_grad

        def capped(self, t):
            value, grad = value_and_grad(self, t)
            if value > ceiling:
                raise NumericalBreakdown("forced breakdown above the ceiling")
            return value, grad

        monkeypatch.setattr(RemlProblem, "value_and_grad", capped)
        run = self.assert_same_run(problem, t0, core._MAX_EVALS_TOTAL, _FTOL)
        assert run.status == -1 and -run.fun <= ceiling

    def test_a_repeated_request_at_one_point_is_not_a_second_evaluation(self, monkeypatch):
        # L-BFGS-B asks twice running for f and g at one point in some runs of
        # the SVC_M fit of this N = 150 scenario draw; the second request is
        # answered from the first evaluation, as minimize answers it.
        config = ScenarioConfig(n_sites=150, w_s=0.5, seed=4)
        inst = gen_instance(config, 0)
        spec = ModelSpec(("intercept", "x2", "x3"), (True,) * 3, (False,) * 3)
        basis = moran_basis(inst.sites, config.max_eigvecs)
        setulb, value_and_grad, search = core._lbfgsb.setulb, RemlProblem.value_and_grad, core._search
        requests, calls, repeats = [], [], []

        def recording_setulb(*args):
            setulb(*args)
            x, task = args[1], args[11]
            if task[0] == core._TASK_FG:
                requests.append(x.copy())

        def counting(self, t):
            calls.append(t.copy())
            return value_and_grad(self, t)

        def one_run(problem, t0, maxfun, ftol):
            requests.clear()
            calls.clear()
            run = search(problem, t0, maxfun, ftol)
            repeated = sum(np.array_equal(a, b) for a, b in zip(requests, requests[1:]))
            assert len(calls) == run.nfev == len(requests) - repeated - (run.status == 1)
            assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
            repeats.append(repeated)
            return run

        monkeypatch.setattr(core, "_lbfgsb", types.SimpleNamespace(setulb=recording_setulb))
        monkeypatch.setattr(RemlProblem, "value_and_grad", counting)
        monkeypatch.setattr(core, "_search", one_run)
        fit = fit_snvc(inst.X, inst.y, spec, basis)[0]
        assert fit.converged
        assert sum(repeats) >= 1


class TestToyFits:
    def test_reaches_the_kkt_point(self, toy_cli_fit):
        # The full-set search stopped converged at 185.7816 and 293.5782 with
        # collapsed SVC blocks whose one-sided score was still positive.
        fit, floor = toy_cli_fit
        assert fit.converged
        assert fit.restricted_loglik >= floor

    def test_inactive_svc_terms_have_zero_variance_and_a_grid_alpha(self, toy_cli_fit):
        fit, _ = toy_cli_fit
        assert "intercept:svc" in fit.inactive_terms
        names = fit.spec.covariate_names
        for k, name in enumerate(names):
            if f"{name}:svc" in fit.inactive_terms:
                assert fit.theta.tau2_s[k] == 0.0
                assert fit.theta.alpha[k] in _ALPHA_GRID


class TestPredictAndShares:
    def test_zero_variances_give_constant_coefficient(self):
        spec, basis, X, nb, y, design, cp = reml_problem(seed=13)
        theta = VarianceParams(1.0, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
        res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, 1.0), None])
        fit = FittedModel(spec, theta, res.b_hat, res.gamma, res.loglik, 1, True, cp.n_obs, cp.blocks)
        field = predict_coefficients(fit, basis, [None, nb])
        assert np.all(field.svc == 0.0) and np.all(field.nvc == 0.0)
        np.testing.assert_array_equal(field.total, np.tile(field.mean, (30, 1)))
        assert np.all(field.constant_coefficient)
        np.testing.assert_array_equal(field.svc_share, [1.0, 1.0])

    def test_share_examples(self):
        # One covariate with both parts; tau scales each part's sd linearly,
        # so unit-tau sds give the tau that hits a target pair of sds.
        rng, _, basis = make_spatial_problem(40, seed=17, n_eig=5)
        nb = spline_basis(rng.uniform(0, 5, 40), n_basis=4)
        spec = ModelSpec(("x",), (True,), (True,), 4)
        design = build_design(np.ones((40, 1)), spec, basis, [nb])
        u = rng.normal(size=design.n_random)
        svc, nvc = design.blocks

        def field_at(tau_s, tau_n):
            theta = VarianceParams(1.0, [tau_s**2], [1.0], [tau_n**2])
            gamma = u.copy()
            gamma[svc.start : svc.stop] *= tau_s * np.sqrt(scale_eigenvalues(basis, 1.0))
            gamma[nvc.start : nvc.stop] *= tau_n
            fit = FittedModel(spec, theta, np.zeros(1), gamma, 0.0, 1, True, design.n_obs, design.blocks)
            return predict_coefficients(fit, basis, [nb])

        unit = field_at(1.0, 1.0)
        sd_s, sd_n = unit.sd_svc[0], unit.sd_nvc[0]
        assert field_at(0.982 / sd_s, 0.018 / sd_n).svc_share[0] == pytest.approx(0.982)
        assert field_at(1.0 / sd_s, 1.0 / sd_n).svc_share[0] == pytest.approx(0.5)
        flat = field_at(0.0, 0.0)
        assert flat.svc_share[0] == 1.0 and flat.constant_coefficient[0]

    def test_svc_only_share_is_one(self):
        rng = np.random.default_rng(14)
        n = 80
        sites = SiteSet(rng.uniform(0, 10, (n, 2)))
        basis = moran_basis(sites)
        X = np.ones((n, 1))
        w = np.sqrt(basis.eigvals / basis.eigvals[0])
        y = 2.0 + basis.eigvecs @ (w * rng.standard_normal(basis.n_components)) + 0.3 * rng.normal(size=n)
        spec = ModelSpec(("intercept",), (True,), (False,))
        fit, field = fit_snvc(X, y, spec, basis)
        assert field.svc_share[0] == 1.0
        assert field.sd_svc[0] > 0

    def test_permuting_the_sites_permutes_the_field(self):
        # At one variance point, permuting the sites, X and y together gives
        # the same likelihood and the permuted coefficient field.
        config = ScenarioConfig(n_sites=150, w_s=0.5, seed=3)
        inst = gen_instance(config, 0)
        spec = ModelSpec(("intercept", "x2", "x3"), (True,) * 3, (False, True, True))
        theta = fit_snvc(inst.X, inst.y, spec, moran_basis(inst.sites, config.max_eigvecs))[0].theta

        def at_theta(order):
            sites, X, y = SiteSet(inst.sites.coords[order]), inst.X[order], inst.y[order]
            basis = moran_basis(sites, config.max_eigvecs)
            nbs = [spline_basis(X[:, k], spec.n_basis_nvc) if spec.has_nvc[k] else None for k in range(3)]
            cp = precompute_crossproducts(build_design(X, spec, basis, nbs), y)
            res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, a) for a in theta.alpha])
            fit = FittedModel(spec, theta, res.b_hat, res.gamma, res.loglik, 1, True, cp.n_obs, cp.blocks)
            return res.loglik, predict_coefficients(fit, basis, nbs).total

        perm = np.random.default_rng(0).permutation(150)
        loglik, total = at_theta(np.arange(150))
        loglik_p, total_p = at_theta(perm)
        assert abs(loglik_p - loglik) <= 1e-10
        assert np.abs(total_p - total[perm]).max() <= 1e-10 * np.abs(total).max()

    def test_capped_basis_gives_the_field_of_the_full_decomposition(self):
        # At one variance point, the leading 20 of 38 pairs computed alone give
        # the coefficient field that the leading 20 of the full spectrum give.
        inst = gen_instance(ScenarioConfig(n_sites=400, w_s=0.5, seed=3), 0)
        full, capped = moran_basis(inst.sites), moran_basis(inst.sites, max_components=20)
        assert full.eigvals[19] - full.eigvals[20] > 1e-6 * full.eigvals[0]
        cut = SpatialBasis(full.eigvecs[:, :20], full.eigvals[:20], full.range_r)
        spec = ModelSpec(("intercept", "x2", "x3"), (True,) * 3, (False, True, True))
        theta = VarianceParams(1.0, [0.5, 1.0, 2.0], [1.0, 0.5, 2.0], [0.0, 0.3, 0.3])
        nbs = [spline_basis(inst.X[:, k], spec.n_basis_nvc) if spec.has_nvc[k] else None for k in range(3)]

        def field(basis):
            cp = precompute_crossproducts(build_design(inst.X, spec, basis, nbs), inst.y)
            res = restricted_loglik(cp, spec, theta, [scale_eigenvalues(basis, a) for a in theta.alpha])
            fit = FittedModel(spec, theta, res.b_hat, res.gamma, res.loglik, 1, True, cp.n_obs, cp.blocks)
            return res.loglik, predict_coefficients(fit, basis, nbs)

        (loglik, ref), (loglik_c, got) = field(cut), field(capped)
        assert abs(loglik_c - loglik) <= 1e-10
        for part in ("svc", "nvc", "total"):
            assert np.abs(getattr(got, part) - getattr(ref, part)).max() <= 1e-10

    def test_the_field_does_not_depend_on_theta(self):
        # The field is the bases times the fit's gamma; the reported variance
        # parameters are not rebuilt into a scaling.
        spec, basis, X, nb, y, design, cp = reml_problem(seed=15)
        fit = fit_reml(cp, spec, basis)
        other = VarianceParams(2.5, [4.0, 0.0], [-2.0, 0.0], [0.0, 0.01])
        assert other.tau2_s[0] != fit.theta.tau2_s[0] and other.alpha[0] != fit.theta.alpha[0]
        field = predict_coefficients(fit, basis, [None, nb])
        moved = predict_coefficients(dataclasses.replace(fit, theta=other), basis, [None, nb])
        for f in dataclasses.fields(field):
            np.testing.assert_array_equal(getattr(moved, f.name), getattr(field, f.name))

    def test_decomposition_exact(self):
        spec, basis, X, nb, y, design, cp = reml_problem(seed=15)
        fit = fit_reml(cp, spec, basis)
        assert fit.converged
        field = predict_coefficients(fit, basis, [None, nb])
        np.testing.assert_array_equal(field.total, field.mean[None, :] + field.svc + field.nvc)
        assert np.abs(field.svc.mean(axis=0)).max() < 1e-8
        assert np.abs(field.nvc.mean(axis=0)).max() < 1e-8

    def test_column_means_near_zero(self):
        spec, basis, X, nb, y, design, cp = reml_problem(n=50, seed=16)
        fit = fit_reml(cp, spec, basis)
        assert fit.converged
        field = predict_coefficients(fit, basis, [None, nb])
        assert np.abs(field.svc[:, 0].mean()) < 1e-8
        assert np.abs(field.nvc[:, 1].mean()) < 1e-8
