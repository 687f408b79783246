import dataclasses
import re
import warnings

import numpy as np
import pytest

from snvc import gwr
from snvc.errors import AllSitesCoincident, DegreesExhausted, NoFeasibleBandwidth, SingularLocalFit
from snvc.gwr import GwrFit, _adaptive_candidates, _problem, _solve_spd, _weights, gwr_fit_at, select_bandwidth
from snvc.spatial import SiteSet


def make_problem(n=25, k=2, seed=0, local=True):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 10, (n, 2))
    X = rng.normal(size=(n, k))
    slope = 1.0 + (0.3 * coords[:, 0] if local else 0.0)
    y = 2.0 + slope * X[:, 0] - 0.5 * X[:, 1] + 0.4 * rng.normal(size=n)
    return SiteSet(coords), X, y


class TestGwrFitAt:
    def test_huge_bandwidth_recovers_global_ols(self):
        sites, X, y = make_problem()
        bw = 1e9 * sites.distances().max()
        fit = gwr_fit_at(sites, X, y, "exponential_fixed", bw, include_intercept=True)
        Xi = np.column_stack([np.ones(25), X])
        b_ols, *_ = np.linalg.lstsq(Xi, y, rcond=None)
        assert np.abs(fit.local_coefs - b_ols[None, :]).max() < 1e-6
        assert abs(fit.trace_S - Xi.shape[1]) < 1e-6

    def test_aicc_formula_at_global_limit(self):
        sites, X, y = make_problem(seed=1)
        n, k = 25, 3  # including intercept
        bw = 1e9 * sites.distances().max()
        fit = gwr_fit_at(sites, X, y, "exponential_fixed", bw, include_intercept=True)
        sigma2 = fit.rss / n
        expected = n * np.log(sigma2) + n * np.log(2 * np.pi) + n * (n + k) / (n - 2 - k)
        assert fit.aicc == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("kernel,bw", [("exponential_fixed", 2.5), ("exponential_adaptive", 7)])
    def test_matches_per_site_wls_oracle(self, kernel, bw):
        sites, X, y = make_problem(seed=2)
        fit = gwr_fit_at(sites, X, y, kernel, bw, include_intercept=True)
        Xi = np.column_stack([np.ones(25), X])
        d = sites.distances()
        for i in range(25):
            if kernel == "exponential_fixed":
                w = np.exp(-d[i] / bw)
            else:
                r = np.sort(d[i])[bw]  # m-th nearest neighbor, self at position 0
                w = np.exp(-d[i] / r)
            beta = np.linalg.solve(Xi.T @ (w[:, None] * Xi), Xi.T @ (w * y))
            assert np.abs(fit.local_coefs[i] - beta).max() < 1e-10

    def test_hat_matrix_consistency(self):
        sites, X, y = make_problem(seed=3)
        fit = gwr_fit_at(sites, X, y, "exponential_fixed", 2.0, include_intercept=True)
        Xi = np.column_stack([np.ones(25), X])
        d = sites.distances()
        S = np.zeros((25, 25))
        for i in range(25):
            w = np.exp(-d[i] / 2.0)
            S[i] = Xi[i] @ np.linalg.solve(Xi.T @ (w[:, None] * Xi), (Xi * w[:, None]).T)
        assert np.abs(fit.fitted - S @ y).max() < 1e-10
        assert abs(fit.trace_S - np.trace(S)) < 1e-10

    def test_self_weight_is_one(self):
        sites, _, _ = make_problem(seed=4)
        d = sites.distances()
        for kernel, bw in (("exponential_fixed", 1.7), ("exponential_adaptive", 5)):
            w = _weights(d, kernel, bw, np.sort(d, axis=1))
            np.testing.assert_allclose(np.diag(w), 1.0, atol=1e-15)
            assert np.all(w > 0)

    def test_adaptive_radius_from_sorted_rows_matches_partition(self):
        # The search sorts each distance row once and reads the m-th neighbor
        # distance as one column; that must be the order statistic
        # np.partition gives, duplicate sites (zero radii) included.
        coords = np.random.default_rng(12).uniform(0, 10, (30, 2))
        coords[[5, 17]] = coords[2]
        coords[20] = coords[9]
        d = SiteSet(coords).distances()
        d_sorted = np.sort(d, axis=1)
        for m in range(1, 30):
            r = np.partition(d, m, axis=1)[:, m]
            assert np.array_equal(d_sorted[:, m], r)
            with np.errstate(over="ignore"):  # zero radii scale by the tiny floor
                expected = np.exp(-d / np.maximum(r, np.finfo(float).tiny)[:, None])
                assert np.array_equal(_weights(d, "exponential_adaptive", m, d_sorted), expected)

    def test_zero_adaptive_radius_raises_no_warning(self):
        # Coincident sites make the m-th neighbor radius 0 at m = 1: the
        # weights divide by the tiny floor, and that overflow is expected.
        coords = np.random.default_rng(12).uniform(0, 10, (40, 2))
        coords[[5, 17]] = coords[2]
        coords[20] = coords[9]
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularLocalFit):  # sites 9 and 20 alone carry weight at site 9
                gwr_fit_at(SiteSet(coords), rng.normal(size=(40, 2)), rng.normal(size=40), "exponential_adaptive", 1)

    def test_rank_deficient_local_system_is_singular(self):
        # Site 20 moved onto site 9: at one neighbor only these two sites
        # weigh at site 9, so its system has rank 2 < K = 3 in exact
        # arithmetic, whatever small positive last pivot rounding leaves.
        sites, X, y = make_problem(n=40, seed=13)
        coords = sites.coords.copy()
        coords[20] = coords[9]
        with pytest.raises(SingularLocalFit):
            gwr_fit_at(SiteSet(coords), X, y, "exponential_adaptive", 1)

    @pytest.mark.parametrize("kernel, bw", [("exponential_fixed", 2.0), ("exponential_adaptive", 10)])
    def test_repeated_covariate_is_singular(self, kernel, bw):
        sites, X, y = make_problem(n=40, seed=11)
        X = np.column_stack([X, X[:, 1]])
        with pytest.raises(SingularLocalFit):
            gwr_fit_at(sites, X, y, kernel, bw)
        with pytest.raises(NoFeasibleBandwidth):
            select_bandwidth(sites, X, y, kernel)

    def test_degrees_exhausted_for_tiny_bandwidth(self):
        sites, X, y = make_problem(seed=5)
        with pytest.raises((DegreesExhausted, SingularLocalFit)):
            gwr_fit_at(sites, X, y, "exponential_fixed", 1e-8, include_intercept=True)

    def test_no_intercept_supported(self):
        sites, X, y = make_problem(seed=6)
        fit = gwr_fit_at(sites, X, y, "exponential_fixed", 3.0, include_intercept=False)
        assert fit.local_coefs.shape == (25, 2)

    @pytest.mark.parametrize(
        "kernel, bw, message",
        [
            ("exponential_fixed", 0.0, "fixed bandwidth must be positive"),
            ("exponential_adaptive", 0, "neighbor count must lie in [1, 24]"),
            ("exponential_adaptive", 25, "neighbor count must lie in [1, 24]"),
            ("exponential_adaptive", 10.7, "neighbor count must be an integer"),
            ("gaussian", 1.0, "kernel must be one of"),
        ],
        ids=["fixed-zero", "adaptive-zero", "adaptive-all", "adaptive-fraction", "unknown-kernel"],
    )
    def test_input_checks(self, kernel, bw, message):
        sites, X, y = make_problem(seed=6)
        with pytest.raises(ValueError, match=re.escape(message)):
            gwr_fit_at(sites, X, y, kernel, bw)


class TestFitCandidates:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_solve_matches_linalg_solve(self, k, r):
        rng = np.random.default_rng(10 * k + r)
        m = rng.normal(size=(200, k, k + 2))
        a = m @ m.transpose(0, 2, 1)  # (S, K, K), symmetric positive definite
        b = rng.normal(size=(200, k, r))
        # Stack on the last axis, as the search lays it out.
        x, ok = _solve_spd(np.moveaxis(a, 0, -1).copy(), np.moveaxis(b, 0, -1).copy())
        expected = np.linalg.solve(a, b)
        np.testing.assert_allclose(np.moveaxis(x, -1, 0), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        assert ok.shape == (200,) and np.all(ok)

    @pytest.mark.parametrize(
        "kernel, bws", [("exponential_fixed", [2.5, 1e-8, 0.9, 6.0]), ("exponential_adaptive", [7, 1, 30, 12])]
    )
    def test_a_candidate_fits_alike_alone_or_in_a_chunk(self, kernel, bws):
        # The second candidate fails: a bandwidth of 1e-8, or one neighbor,
        # where only site 9 and its twin 20, whose covariates are 0, weigh
        # at site 9.  Its neighbors in the chunk must not notice.
        sites, X, y = make_problem(n=40, seed=13)
        coords = sites.coords.copy()
        coords[20] = coords[9]
        X[[9, 20]] = 0.0
        problem = _problem(SiteSet(coords), X, y, kernel, True)
        chunk = gwr._fit_candidates(problem, bws)
        assert isinstance(chunk[1], SingularLocalFit | DegreesExhausted)
        for bw, fit in zip(bws, chunk):
            (alone,) = gwr._fit_candidates(problem, [bw])
            assert type(alone) is type(fit)
            if isinstance(fit, GwrFit):
                assert fit.bandwidth == bw
                for f in dataclasses.fields(GwrFit):
                    np.testing.assert_array_equal(getattr(fit, f.name), getattr(alone, f.name))
                assert fit.local_coefs.flags.owndata and fit.fitted.flags.owndata

    def test_adaptive_refinement_fits_each_count_once(self, monkeypatch):
        fitted = []
        weights = gwr._weights

        def counting(d, kernel, bw, d_sorted):
            fitted.append(bw)
            return weights(d, kernel, bw, d_sorted)

        monkeypatch.setattr(gwr, "_weights", counting)
        sites, X, y = make_problem(n=300, seed=0, local=False)
        select_bandwidth(sites, X, y, "exponential_adaptive")
        assert len(fitted) == len(set(fitted)) > 256


class TestSelectBandwidth:
    def test_requires_enough_sites(self):
        sites, X, y = make_problem(n=6, seed=7)
        with pytest.raises(ValueError, match="N >= K"):
            select_bandwidth(sites, X, y, "exponential_fixed")

    @pytest.mark.parametrize(
        "kernel, error", [("exponential_fixed", SingularLocalFit), ("exponential_adaptive", DegreesExhausted)]
    )
    def test_failed_candidates_are_skipped(self, kernel, error, monkeypatch):
        # Every candidate below twice the free optimum fails, the free
        # optimum included: the search returns the best of the rest.
        sites, X, y = make_problem(n=40, seed=8)
        floor = 2 * select_bandwidth(sites, X, y, kernel).bandwidth
        fit_candidates = gwr._fit_candidates

        def failing_below(problem, bws):
            fits = fit_candidates(problem, bws)
            return [error("forced failure") if bw < floor else fit for bw, fit in zip(bws, fits)]

        monkeypatch.setattr(gwr, "_fit_candidates", failing_below)
        fit = select_bandwidth(sites, X, y, kernel)
        monkeypatch.undo()
        assert fit.bandwidth >= floor
        assert fit.aicc == pytest.approx(gwr_fit_at(sites, X, y, kernel, fit.bandwidth).aicc, rel=1e-12)
        if kernel == "exponential_adaptive":
            feasible = range(int(floor), 40)
        else:
            feasible = np.linspace(fit.bandwidth, sites.distances().max(), 50)
        assert fit.aicc <= min(gwr_fit_at(sites, X, y, kernel, bw).aicc for bw in feasible) + 1e-9

    @pytest.mark.parametrize(
        "kernel, message",
        [("exponential_fixed", "every candidate bandwidth failed"), ("exponential_adaptive", "all neighbor counts failed")],
    )
    def test_no_feasible_candidate_raises(self, kernel, message, monkeypatch):
        def failing(problem, bws):
            return [SingularLocalFit("forced failure") for _ in bws]

        monkeypatch.setattr(gwr, "_fit_candidates", failing)
        sites, X, y = make_problem(n=40, seed=8)
        with pytest.raises(NoFeasibleBandwidth, match=message):
            select_bandwidth(sites, X, y, kernel)

    def test_coincident_sites(self):
        # No distance is positive, so the fixed kernel has no bandwidth to
        # search; the adaptive kernel weighs every site 1 and fits global OLS.
        rng = np.random.default_rng(0)
        sites = SiteSet(np.full((20, 2), 3.0))
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        with pytest.raises(AllSitesCoincident):
            select_bandwidth(sites, X, y, "exponential_fixed")
        fit = select_bandwidth(sites, X, y, "exponential_adaptive")
        ols = np.linalg.lstsq(np.column_stack([np.ones(20), X]), y, rcond=None)[0]
        np.testing.assert_allclose(fit.local_coefs, np.tile(ols, (20, 1)), rtol=1e-10)

    def test_constant_coefficients_prefer_upper_bound(self):
        hits = 0
        for rep in range(20):
            rng = np.random.default_rng(500 + rep)
            coords = rng.uniform(0, 10, (60, 2))
            X = rng.normal(size=(60, 2))
            y = 1.0 + X @ np.array([2.0, -1.0]) + 0.5 * rng.normal(size=60)
            sites = SiteSet(coords)
            fit = select_bandwidth(sites, X, y, "exponential_fixed")
            if fit.bandwidth >= 0.9 * sites.distances().max():
                hits += 1
        assert hits >= 16

    def test_golden_section_matches_grid_scan(self):
        sites, X, y = make_problem(n=40, seed=8, local=True)
        fit = select_bandwidth(sites, X, y, "exponential_fixed")
        maxdist = sites.distances().max()
        grid = np.linspace(0.01 * maxdist, maxdist, 200)
        aiccs = []
        for bw in grid:
            try:
                aiccs.append(gwr_fit_at(sites, X, y, "exponential_fixed", bw).aicc)
            except (DegreesExhausted, SingularLocalFit):
                aiccs.append(np.inf)
        best_grid = grid[int(np.argmin(aiccs))]
        spacing = grid[1] - grid[0]
        assert abs(fit.bandwidth - best_grid) <= spacing + 1e-3 * maxdist
        assert fit.aicc <= min(aiccs) + 1e-6 * abs(min(aiccs))

    @pytest.mark.parametrize("kernel", ["exponential_fixed", "exponential_adaptive"])
    def test_search_answer_matches_gwr_fit_at(self, kernel):
        sites, X, y = make_problem(n=40, seed=10)
        fit = select_bandwidth(sites, X, y, kernel)
        fresh = gwr_fit_at(sites, X, y, kernel, fit.bandwidth)
        np.testing.assert_allclose(fit.local_coefs, fresh.local_coefs, rtol=1e-12, atol=0)
        assert fit.trace_S == pytest.approx(fresh.trace_S, rel=1e-12)
        assert fit.aicc == pytest.approx(fresh.aicc, rel=1e-12)

    def test_adaptive_scan_returns_minimum(self):
        sites, X, y = make_problem(n=30, seed=9)
        fit = select_bandwidth(sites, X, y, "exponential_adaptive")
        m = int(fit.bandwidth)
        assert 3 + 2 <= m <= 29
        for cand in range(5, 30):
            other = gwr_fit_at(sites, X, y, "exponential_adaptive", cand)
            assert fit.aicc <= other.aicc + 1e-9

    def test_adaptive_coarse_grid_then_refinement(self):
        # 295 neighbor counts are more than are scanned one by one: an even
        # grid of 256 is, then every count within 8 of its winner.
        sites, X, y = make_problem(n=300, seed=0, local=False)
        grid = _adaptive_candidates(5, 299)
        assert len(grid) == 256 and grid[0] == 5 and grid[-1] == 299
        assert np.all(np.diff(grid) > 0)
        fit = select_bandwidth(sites, X, y, "exponential_adaptive")

        def aicc(m):
            return gwr_fit_at(sites, X, y, "exponential_adaptive", m).aicc

        on_grid = {m: aicc(m) for m in grid}
        m0 = min(on_grid, key=on_grid.get)
        near = {m: aicc(m) for m in range(max(5, m0 - 8), min(299, m0 + 8) + 1)}
        assert fit.aicc <= min(on_grid.values()) and fit.aicc <= min(near.values())
        fresh = gwr_fit_at(sites, X, y, "exponential_adaptive", fit.bandwidth)
        for f in dataclasses.fields(GwrFit):
            np.testing.assert_array_equal(getattr(fit, f.name), getattr(fresh, f.name))
