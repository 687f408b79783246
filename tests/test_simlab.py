import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from snvc import simlab, spatial
from snvc.errors import ConfigInvalid, EmptySpatialBasis, NumericalBreakdown
from snvc.gwr import select_bandwidth
from snvc.simlab import (
    ScenarioConfig,
    coef_correlations,
    gen_coefficients,
    gen_covariate,
    gen_instance,
    gen_toy,
    predict_estimator,
    rng_for,
    row_standardized_proximity,
    run_scenario,
)
from snvc.spatial import SiteSet, build_proximity, moran_basis, moran_coefficient, mst_range


def grid_sites(n):
    g = np.arange(1, n + 1, dtype=float)
    px, py = np.meshgrid(g, g, indexing="ij")
    return SiteSet(np.column_stack([px.ravel(), py.ravel()]))


class TestRngContract:
    def test_same_triple_same_stream(self):
        a = rng_for(7, 3, "noise").standard_normal(5)
        b = rng_for(7, 3, "noise").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_roles_distinct_streams(self):
        a = rng_for(7, 3, "noise").standard_normal(5)
        b = rng_for(7, 3, "sites").standard_normal(5)
        c = rng_for(7, 4, "noise").standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_row_standardization_rows_sum_to_one():
    rng = np.random.default_rng(0)
    c_bar = row_standardized_proximity(SiteSet(rng.normal(size=(40, 2))))
    np.testing.assert_allclose(c_bar.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(c_bar) == 0.0)


def test_row_standardization_holds_one_n_by_n_buffer():
    sites = SiteSet(np.random.default_rng(1).normal(size=(300, 2)))
    tracemalloc.start()
    try:
        row_standardized_proximity(sites)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 300 * 300 * 8


class TestGenCovariate:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.c_bar = row_standardized_proximity(SiteSet(rng.normal(size=(60, 2))))

    def test_independent_case_exact_moments(self):
        x = gen_covariate(rng_for(1, 0, "cov"), self.c_bar, w_sx=0.0)
        assert abs(x.mean() - 1.0) < 1e-13
        assert abs(x.std(ddof=1) - 1.0) < 1e-13

    def test_spatial_case_positive_moran(self):
        sites = grid_sites(15)
        c_bar = row_standardized_proximity(sites)
        c = build_proximity(sites, mst_range(sites))
        positive = 0
        for i in range(100):
            x = gen_covariate(rng_for(9, i, "cov"), c_bar, w_sx=1.0)
            if moran_coefficient(x - 1.0, c) > 0:
                positive += 1
        assert positive >= 95

    def test_mixture_variance_identity(self):
        rng = rng_for(2, 0, "cov")
        n = self.c_bar.shape[0]
        e = rng.standard_normal(n)
        u = rng.standard_normal(n)
        from snvc.simlab import standardize

        a, b = standardize(self.c_bar @ e), standardize(u)
        x = 1.0 + 0.5 * a + 0.5 * b
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(x.var(ddof=1) - (0.25 + 0.25 + 2 * 0.25 * rho)) < 1e-12

    def test_standardize_rejects_a_constant_vector(self):
        with pytest.raises(ValueError, match="cannot standardize a constant vector"):
            simlab.standardize(np.full(5, 2.0))


class TestGenCoefficients:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.sites = SiteSet(rng.normal(size=(80, 2)))
        self.c_bar = row_standardized_proximity(self.sites)
        self.x3 = gen_covariate(rng_for(3, 0, "covariate-3"), self.c_bar, 0.4)

    def test_pure_spatial_third_coefficient(self):
        betas = gen_coefficients(rng_for(3, 0, "coef"), self.c_bar, 1.0, 1.0, 9.0, self.x3)
        assert abs(betas[:, 2].mean() + 2.0) < 1e-12

    def test_zero_tau2_gives_constant_second_coefficient(self):
        betas = gen_coefficients(rng_for(3, 1, "coef"), self.c_bar, 0.5, 0.0, 9.0, self.x3)
        np.testing.assert_allclose(betas[:, 1], 0.5, atol=1e-14)

    def test_exact_spread_of_varying_parts(self):
        betas = gen_coefficients(rng_for(3, 2, "coef"), self.c_bar, 0.3, 4.0, 9.0, self.x3)
        assert abs(np.std(betas[:, 1] - 0.5, ddof=1) - 2.0) < 1e-12
        assert abs(np.std(betas[:, 2] + 2.0, ddof=1) - 3.0) < 1e-12
        assert abs(np.std(betas[:, 0] - 1.0, ddof=1) - 1.0) < 1e-12


class TestGenToy:
    def test_true_correlation_matches_grid_geometry(self):
        inst = gen_toy(1)
        cc = float(np.corrcoef(inst.true_betas[:, 0], inst.true_betas[:, 1])[0, 1])
        assert abs(cc - 0.088) < 0.02

    def test_center_cell_minimizes_first_covariate(self):
        inst = gen_toy(2)
        i = int(np.argmin(inst.X[:, 0]))
        np.testing.assert_array_equal(inst.sites.coords[i], [20.0, 20.0])

    def test_noise_scale(self):
        sds = []
        for seed in range(10):
            inst = gen_toy(seed)
            eps = inst.y - (inst.X * inst.true_betas).sum(axis=1)
            sds.append(eps.std(ddof=1))
        assert abs(np.mean(sds) - 0.2) < 0.02

    def test_reproducible(self):
        a, b = gen_toy(9), gen_toy(9)
        np.testing.assert_array_equal(a.y, b.y)


class TestCoefCorrelations:
    def test_identical_fields(self):
        f = np.random.default_rng(5).normal(size=(30, 1))
        fields = np.hstack([f, f])
        out = coef_correlations([fields])
        assert out.mean[0, 1] == pytest.approx(1.0)

    def test_negated_fields(self):
        f = np.random.default_rng(6).normal(size=(30, 1))
        out = coef_correlations([np.hstack([f, -f])])
        assert out.mean[0, 1] == pytest.approx(-1.0)

    def test_constant_field_excluded_with_count(self):
        rng = np.random.default_rng(7)
        varying = rng.normal(size=(20, 1))
        const = np.ones((20, 1))
        out = coef_correlations([np.hstack([varying, const]), np.hstack([varying, varying])])
        assert out.counts[0, 1] == 1
        assert np.isfinite(out.mean[0, 1])

    def test_no_iterations_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least one iteration"):
            coef_correlations([])

    def test_toy_spurious_correlation_directions(self):
        # Scaled-down grid: the shared-basis SVC fit shows strong spurious
        # negative correlation, the spline fit stays near the true value.
        inst = gen_toy(5, grid=(20, 20))
        basis = moran_basis(inst.sites, max_components=200)
        svc = predict_estimator("SVC_M", inst, spatial=basis)[0]
        nvc = predict_estimator("NVC_M", inst)[0]
        cc_svc = coef_correlations([svc]).mean[0, 1]
        cc_nvc = coef_correlations([nvc]).mean[0, 1]
        true_cc = float(np.corrcoef(inst.true_betas[:, 0], inst.true_betas[:, 1])[0, 1])
        assert cc_svc < -0.4
        assert abs(cc_nvc - true_cc) < 0.25


class TestScenarioConfig:
    def test_bounds_validated(self):
        with pytest.raises(ConfigInvalid, match=r"w_s must lie in \[0, 1\]"):
            ScenarioConfig(w_s=1.5).validate()
        with pytest.raises(ConfigInvalid, match="estimator"):
            ScenarioConfig(estimators=("XXX",)).validate()
        with pytest.raises(ConfigInvalid, match="n_iters"):
            ScenarioConfig(n_iters=0).validate()
        with pytest.raises(ConfigInvalid, match=re.escape("estimators must be distinct, got ['LM', 'LM']")):
            ScenarioConfig(estimators=("LM", "LM")).validate()
        with pytest.raises(ConfigInvalid, match="estimators must be nonempty"):
            ScenarioConfig(estimators=()).validate()
        with pytest.raises(ConfigInvalid, match="site_layout must be one of"):
            ScenarioConfig(site_layout="hex").validate()
        with pytest.raises(ConfigInvalid, match="n_sites must be >= 20, got 19"):
            ScenarioConfig(n_sites=19).validate()
        with pytest.raises(ConfigInvalid, match="max_eigvecs must be >= 1"):
            ScenarioConfig(max_eigvecs=0).validate()

    def test_site_limit_read_at_call_time(self, monkeypatch):
        with pytest.raises(ConfigInvalid, match="n_sites must be <= 10000, got 10001"):
            ScenarioConfig(n_sites=10_001).validate()
        monkeypatch.setattr(spatial, "DEFAULT_MAX_SITES", 30)
        with pytest.raises(ConfigInvalid, match="n_sites must be <= 30, got 40"):
            ScenarioConfig(n_sites=40).validate()

    def test_grid_layout_requires_full_grid(self):
        with pytest.raises(ConfigInvalid, match="1600"):
            ScenarioConfig(site_layout="grid_40x40", n_sites=100).validate()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"site_layout": "grid_40x40"}, "site_layout grid_40x40 requires n_sites = 1600"),
            ({"tau2_2": -1.0, "n_sites": 30}, "tau2_2 must be finite and positive, got -1.0"),
            ({"site_layout": "hex", "n_sites": 30}, "site_layout must be one of"),
        ],
        ids=["grid-without-1600", "negative-tau2", "unknown-layout"],
    )
    def test_checked_when_built(self, fields, message):
        # gen_instance must never see a config that run_scenario would reject:
        # a grid of 1600 sites under n_sites = 150, NaN coefficients from a
        # negative variance, or gaussian sites for an unknown layout.
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            gen_instance(ScenarioConfig(**fields), 0)


class TestPredictEstimator:
    @pytest.mark.parametrize("kernel", ["exponential_fixed", "exponential_adaptive"])
    def test_gwr_on_the_scenario_design_equals_the_added_intercept(self, kernel):
        # The scenario's X holds its ones column, so fitting X as it stands
        # is the same design as adding an intercept to the covariates.
        inst = gen_instance(ScenarioConfig(n_sites=60, seed=13), 0)
        a = select_bandwidth(inst.sites, inst.X, inst.y, kernel, include_intercept=False)
        b = select_bandwidth(inst.sites, inst.X[:, 1:], inst.y, kernel, include_intercept=True)
        np.testing.assert_array_equal(a.local_coefs, b.local_coefs)
        assert a.aicc == b.aicc

    def test_svc_needs_a_basis_and_nvc_and_lm_do_not(self):
        inst = gen_toy(5, grid=(12, 12))
        with pytest.raises(EmptySpatialBasis):
            predict_estimator("SVC_M", inst)
        for est in ("NVC_M", "LM"):
            field, _ = predict_estimator(est, inst)
            assert field.shape == (144, 2) and np.all(np.isfinite(field))

    def test_nvc_terms_go_on_the_non_constant_columns(self, monkeypatch):
        specs = []

        def fit_snvc(X, y, spec, spatial):
            specs.append(spec)
            raise NumericalBreakdown("spec recorded")

        monkeypatch.setattr(simlab, "fit_snvc", fit_snvc)
        inst = gen_instance(ScenarioConfig(n_sites=40, seed=5), 0)
        for est in ("SVC_M", "NVC_M", "SNVC_M"):
            with pytest.raises(NumericalBreakdown):
                predict_estimator(est, inst, spatial=None, n_basis=7, spline_family="thin_plate_1d")
        assert [s.covariate_names for s in specs] == [("x1", "x2", "x3")] * 3
        assert [s.has_svc for s in specs] == [(True,) * 3, (False,) * 3, (True,) * 3]
        assert [s.has_nvc for s in specs] == [(False,) * 3, (False, True, True), (False, True, True)]
        assert all(s.n_basis_nvc == 7 and s.spline_family == "thin_plate_1d" for s in specs)

    def test_unknown_estimator_is_a_config_error(self):
        with pytest.raises(ConfigInvalid, match="XXX"):
            predict_estimator("XXX", gen_toy(5, grid=(6, 6)))


class TestRunScenario:
    @pytest.mark.parametrize("layout, n_sites, n_calls", [("grid_40x40", 1600, 1), ("gaussian_random", 50, 3)])
    def test_basis_is_built_once_on_the_grid_and_per_iteration_elsewhere(self, monkeypatch, layout, n_sites, n_calls):
        calls = []

        def moran_basis(sites, max_components=None):
            calls.append(sites.n_sites)
            return object()  # never read: every fit fails first

        def fit_snvc(X, y, spec, spatial):
            raise NumericalBreakdown("no fit needed")

        monkeypatch.setattr(simlab, "moran_basis", moran_basis)
        monkeypatch.setattr(simlab, "fit_snvc", fit_snvc)
        cfg = ScenarioConfig(n_sites=n_sites, site_layout=layout, n_iters=3, seed=5, estimators=("SVC_M",))
        rep = run_scenario(cfg)
        assert calls == [n_sites] * n_calls
        assert rep.failures == {"SVC_M": 3} and rep.n_success == {"SVC_M": 0}

    def test_single_iteration_lm(self):
        cfg = ScenarioConfig(n_sites=50, n_iters=1, seed=7, estimators=("LM",))
        rep = run_scenario(cfg)
        assert rep.rmse["LM"].shape == (3,)
        assert np.all(np.isfinite(rep.rmse["LM"]))
        assert rep.n_success["LM"] == 1
        # LM coefficient fields are constant, so their correlations are undefined
        assert np.all(rep.cc_counts["LM"][np.triu_indices(3, 1)] == 0)

    def test_deterministic_given_config(self):
        cfg = ScenarioConfig(n_sites=60, n_iters=2, seed=11, estimators=("LM", "SVC_M"))
        a = run_scenario(cfg).to_payload(include_timing=False)
        b = run_scenario(cfg).to_payload(include_timing=False)
        assert a == b

    def test_instances_reproducible(self):
        cfg = ScenarioConfig(n_sites=40, n_iters=3, seed=5)
        a = gen_instance(cfg, 2)
        b = gen_instance(cfg, 2)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.true_betas, b.true_betas)

    def test_unconverged_fits_are_counted(self, monkeypatch):
        # Mark every SNVC_M fit unconverged: each stays a success and is
        # also counted, in the report and in its deterministic payload.
        original = simlab.fit_snvc

        def fit_snvc(X, y, spec, spatial):
            fit, fld = original(X, y, spec, spatial)
            return dataclasses.replace(fit, converged=not any(spec.has_nvc)), fld

        monkeypatch.setattr(simlab, "fit_snvc", fit_snvc)
        cfg = ScenarioConfig(n_sites=60, n_iters=2, seed=13, estimators=("LM", "SVC_M", "SNVC_M"))
        rep = run_scenario(cfg)
        assert rep.n_success == {"LM": 2, "SVC_M": 2, "SNVC_M": 2}
        assert rep.n_unconverged == {"LM": 0, "SVC_M": 0, "SNVC_M": 2}
        assert rep.to_payload(include_timing=False)["n_unconverged"] == rep.n_unconverged

    def test_estimator_without_a_success_has_undefined_correlations(self, monkeypatch):
        def fit_snvc(X, y, spec, spatial):
            raise NumericalBreakdown("every fit fails")

        monkeypatch.setattr(simlab, "fit_snvc", fit_snvc)
        cfg = ScenarioConfig(n_sites=50, n_iters=2, seed=7, estimators=("LM", "SVC_M"))
        rep = run_scenario(cfg)
        assert rep.failures == {"LM": 0, "SVC_M": 2} and rep.n_success == {"LM": 2, "SVC_M": 0}
        assert np.all(np.isnan(rep.mean_cc["SVC_M"])) and np.all(rep.cc_counts["SVC_M"] == 0)
        assert np.all(rep.cc_counts["LM"][np.triu_indices(3, 1)] == 0) and np.all(rep.true_cc_counts == 2)

    def test_full_estimator_set_smoke(self):
        cfg = ScenarioConfig(n_sites=60, n_iters=2, seed=13)
        rep = run_scenario(cfg)
        for est in cfg.estimators:
            assert rep.n_success[est] + rep.failures[est] == 2
        assert np.isfinite(rep.true_mean_cc[0, 1])
