import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist

import snvc.spatial
from snvc.errors import (
    AllSitesCoincident,
    ConstantVector,
    CoordinateRangeTooLarge,
    DataError,
    NonPositiveRange,
    NumericalBreakdown,
    SiteLimitExceeded,
)
from snvc.spatial import (
    DEFAULT_EIGEN_CUTOFF,
    DEFAULT_MAX_SITES,
    SiteSet,
    build_proximity,
    moran_basis,
    moran_coefficient,
    mst_range,
)


def random_sites(n, seed, scale=10.0):
    rng = np.random.default_rng(seed)
    return SiteSet(rng.uniform(0, scale, (n, 2)))


def gaussian_sites(n, seed=0):
    return SiteSet(np.random.default_rng(seed).standard_normal((n, 2)))


def grid_sites(side):
    g = np.arange(1, side + 1, dtype=float)
    px, py = np.meshgrid(g, g, indexing="ij")
    return SiteSet(np.column_stack([px.ravel(), py.ravel()]))


def sites_with_duplicates(n=30, seed=12):
    coords = np.random.default_rng(seed).uniform(0, 10, (n, 2))
    coords[[5, 17]] = coords[2]
    coords[20] = coords[9]
    return SiteSet(coords)


def cluster_and_outlier(n=80, seed=0):
    """n sites within 0.01 of the origin and one at (100, 100): lambda_1 is about 0.25."""
    cluster = np.random.default_rng(seed).uniform(-0.007, 0.007, (n, 2))
    return SiteSet(np.vstack([cluster, [[100.0, 100.0]]]))


class TestDistances:
    def test_symmetric_zero_diagonal_and_zero_between_duplicates(self):
        d = sites_with_duplicates().distances()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert d[2, 5] == d[2, 17] == d[5, 17] == d[9, 20] == 0.0
        assert np.count_nonzero(d == 0.0) == 30 + 2 * 4

    def test_matches_explicit_pairwise_formula(self):
        sites = sites_with_duplicates()
        d = sites.distances()
        (n, _), c = sites.coords.shape, sites.coords
        for i in range(n):
            for j in range(n):
                ref = np.sqrt((c[i, 0] - c[j, 0]) ** 2 + (c[i, 1] - c[j, 1]) ** 2)
                assert abs(d[i, j] - ref) <= 1e-15 * ref

    @staticmethod
    def assert_cdist_bits(sites):
        d = sites.distances()
        np.testing.assert_array_equal(d, cdist(sites.coords, sites.coords), strict=True)
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    @pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 1e3, 1e5])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_equals_cdist_bit_for_bit(self, scale, offset):
        self.assert_cdist_bits(SiteSet(sites_with_duplicates().coords * scale + offset))

    def test_equals_cdist_on_the_grid(self):
        self.assert_cdist_bits(grid_sites(40))

    # Rows come in panels of 32768 // N: 181^2 cells fit one panel, 182 sites
    # take a second panel of two rows, and 300 sites end on a short panel.
    @pytest.mark.parametrize("n", [2, 181, 182, 300])
    def test_equals_cdist_across_panel_boundaries(self, n):
        self.assert_cdist_bits(gaussian_sites(n, seed=n))


# Distances between these sites reach 1.4e200, whose square overflows.
OVERFLOWING_COORDS = [[0.0, 0.0], [1e200, 1e200], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0]]


class TestCoordinateRange:
    @pytest.mark.parametrize(
        "coords, message",
        [
            (OVERFLOWING_COORDS, "x 0 to 1e+200 and y 0 to 1e+200"),
            ([[-1e308, 0.0], [1e308, 0.0]], "x -1e+308 to 1e+308 and y 0 to 0"),
        ],
        ids=["squared-extent-overflows", "extent-overflows"],
    )
    def test_range_whose_squared_distances_overflow_is_rejected(self, coords, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateRangeTooLarge, match=re.escape(message)) as err:
                SiteSet(coords)
        assert isinstance(err.value, DataError) and isinstance(err.value, ValueError)

    def test_range_whose_squared_distances_are_finite_is_accepted(self):
        sites = SiteSet([[0.0, 0.0], [1e150, 1e150], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0]])
        assert np.all(np.isfinite(sites.distances()))


class TestMstRange:
    def test_unit_square_uses_sides_not_diagonal(self):
        sites = SiteSet([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert mst_range(sites) == pytest.approx(1.0, abs=1e-15)

    def test_two_points(self):
        assert mst_range(SiteSet([[0, 0], [3, 0]])) == pytest.approx(3.0, abs=1e-15)

    def test_collinear(self):
        sites = SiteSet([[0, 0], [0, 1], [0, 5]])
        assert mst_range(sites) == pytest.approx(4.0, abs=1e-15)

    def test_all_coincident(self):
        with pytest.raises(AllSitesCoincident):
            mst_range(SiteSet([[2, 2], [2, 2], [2, 2]]))

    def test_duplicates_allowed_when_not_all_coincident(self):
        sites = SiteSet([[0, 0], [0, 0], [0, 2]])
        assert mst_range(sites) == pytest.approx(2.0)


class TestBuildProximity:
    def test_two_points_at_range_distance(self):
        c = build_proximity(SiteSet([[0, 0], [5, 0]]), range_r=5.0)
        assert c[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert c[0, 0] == 0.0 and c[1, 1] == 0.0

    def test_duplicate_coordinates_give_weight_one(self):
        c = build_proximity(SiteSet([[1, 1], [1, 1], [0, 0]]), range_r=2.0)
        assert c[0, 1] == 1.0

    def test_matches_bruteforce_distance_oracle(self):
        sites = random_sites(10, seed=4)
        r = 3.7
        c = build_proximity(sites, r)
        for i in range(10):
            for j in range(10):
                if i == j:
                    assert c[i, j] == 0.0
                else:
                    d = np.sqrt(
                        (sites.coords[i, 0] - sites.coords[j, 0]) ** 2
                        + (sites.coords[i, 1] - sites.coords[j, 1]) ** 2
                    )
                    assert abs(c[i, j] - np.exp(-d / r)) < 1e-14

    def test_nonpositive_range(self):
        with pytest.raises(NonPositiveRange):
            build_proximity(SiteSet([[0, 0], [1, 0]]), range_r=0.0)

    def test_in_place_exponential_is_bitwise_exact(self):
        sites = random_sites(60, seed=6)
        r = mst_range(sites)
        ref = np.exp(-sites.distances() / r)
        np.fill_diagonal(ref, 0.0)
        assert np.array_equal(build_proximity(sites, r), ref)


def dense_mcm(c_values):
    n = c_values.shape[0]
    m = np.eye(n) - np.ones((n, n)) / n
    return m @ c_values @ m


class TestMoranEigenBasis:
    def test_two_sites_has_no_positive_eigenvalue(self):
        basis = moran_basis(SiteSet([[0, 0], [1, 0]]))
        assert basis.n_components == 0

    def test_equilateral_triangle_has_no_positive_eigenvalue(self):
        s = SiteSet([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        basis = moran_basis(s)
        assert basis.n_components == 0

    def test_four_collinear_points_single_positive_pair(self):
        sites = SiteSet([[0, 0], [1, 0], [2, 0], [3, 0]])
        basis = moran_basis(sites)
        assert basis.n_components == 1
        # independent dense eigen oracle on the explicitly formed M C M
        w = np.linalg.eigvalsh(dense_mcm(build_proximity(sites, basis.range_r)))
        assert abs(basis.eigvals[0] - w[-1]) < 1e-10

    def test_eigvals_sorted_descending_and_positive(self):
        basis = moran_basis(random_sites(40, seed=1))
        assert basis.n_components >= 1
        assert np.all(basis.eigvals > 0)
        assert np.all(np.diff(basis.eigvals) <= 0)

    def test_cap_keeps_leading_columns(self):
        sites = random_sites(50, seed=2)
        basis = moran_basis(sites)
        cut = moran_basis(sites, max_components=2)
        assert cut.n_components == min(2, basis.n_components)
        lam = basis.eigvals[: cut.n_components]
        assert np.abs(cut.eigvals - lam).max() <= 1e-12 * lam[0]

    def test_site_limit_guard(self, monkeypatch):
        # The limit is the module constant as it stands at call time.
        monkeypatch.setattr("snvc.spatial.DEFAULT_MAX_SITES", 10)
        with pytest.raises(ValueError, match="N = 12 exceeds the dense-decomposition limit 10"):
            moran_basis(random_sites(12, seed=0))


def spy_eigensolver(monkeypatch):
    """Record the driver and shape of every eigensolver call of ``moran_basis``."""
    calls = []
    eigh = snvc.spatial._eigh

    def spy(a, driver, top):
        calls.append((driver, a.shape))
        return eigh(a, driver, top)

    monkeypatch.setattr(snvc.spatial, "_eigh", spy)
    return calls


@pytest.fixture(scope="module")
def grid_case():
    sites = grid_sites(40)
    return moran_basis(sites), moran_basis(sites, max_components=200)


@pytest.fixture(scope="module", params=["gaussian900", "gaussian2000", "grid40x40"])
def capped_case(request):
    # 72 and 124 positive pairs on the gaussian sites: the cap of 200 exceeds
    # them, so the capped solve also returns zero and negative eigenvalues.
    # On the 40 x 40 grid (401 positive) it binds.
    if request.param == "grid40x40":
        return request.getfixturevalue("grid_case")
    sites = gaussian_sites(int(request.param.removeprefix("gaussian")))
    return moran_basis(sites), moran_basis(sites, max_components=200)


class TestCappedBasis:
    def test_eigenvalues_match_the_full_decomposition(self, capped_case):
        full, capped = capped_case
        assert capped.n_components == min(200, full.n_components)
        lam = full.eigvals[: capped.n_components]
        assert np.abs(capped.eigvals - lam).max() <= 1e-12 * lam[0]

    def test_kernel_matches_the_full_decomposition(self, capped_case):
        # E diag(lambda) E' does not depend on the signs or the rotation
        # inside tied eigenvalues, which are arbitrary.
        full, capped = capped_case
        e = full.eigvecs[:, : capped.n_components]
        ref = (e * full.eigvals[: capped.n_components]) @ e.T
        got = (capped.eigvecs * capped.eigvals) @ capped.eigvecs.T
        assert np.abs(got - ref).max() <= 1e-10

    def test_orthonormal_and_centered_columns(self, capped_case):
        _, capped = capped_case
        gram = capped.eigvecs.T @ capped.eigvecs
        assert np.abs(gram - np.eye(capped.n_components)).max() < 1e-10
        assert np.abs(capped.eigvecs.sum(axis=0)).max() < 1e-10

    @pytest.mark.parametrize("span", [1e153, 5e153])
    def test_coordinates_near_the_range_limit_take_the_subset_solve(self, span, monkeypatch):
        # At these spans the squared distances are near the overflow limit;
        # the subset solve sees only exp(-d/r), and its size alone picks it.
        sites = random_sites(200, seed=2, scale=span)
        full = moran_basis(sites)
        calls = spy_eigensolver(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            capped = moran_basis(sites, max_components=30)
        assert [driver for driver, _ in calls] == ["evr"]
        lam, e = full.eigvals[:30], full.eigvecs[:, :30]
        assert capped.n_components == 30
        assert np.abs(capped.eigvals - lam).max() <= 1e-12 * lam[0]
        kernel = (capped.eigvecs * capped.eigvals) @ capped.eigvecs.T
        assert np.abs(kernel - (e * lam) @ e.T).max() <= 1e-10

    def test_grid_cap_of_200_falls_in_a_gap(self, grid_case):
        # A cut inside a tied eigenvalue would keep an arbitrary rotation of
        # the tied pairs; 200 is clear of one, 201 is not.
        full, _ = grid_case
        lam = full.eigvals
        assert lam[199] == pytest.approx(0.7751843, abs=1e-7)
        assert lam[200] == pytest.approx(0.7584850, abs=1e-7)
        assert lam[199] - lam[200] > 0.01
        assert lam[200] - lam[201] < 1e-12 * lam[0]

    def test_cutoff_between_the_leading_eigenvalue_and_the_row_sum_bound(self, monkeypatch):
        # cutoff * lambda_1 falls between lambda_22 and lambda_21, and
        # lambda_21 is at most cutoff * B, B = N max_i mean_j c_ij, a looser
        # bound on max|lambda|: the -1 floor decides it from one subset solve.
        sites = random_sites(200, seed=1)
        c = build_proximity(sites, mst_range(sites))
        spectrum, e = np.linalg.eigh(dense_mcm(c))
        lam, e = spectrum[::-1], e[:, ::-1]
        cutoff = (lam[20] + lam[21]) / (2 * lam[0])
        assert lam[21] < cutoff * lam[0] < lam[20] <= cutoff * sites.n_sites * c.mean(axis=1).max()
        monkeypatch.setattr("snvc.spatial.DEFAULT_EIGEN_CUTOFF", cutoff)

        distances, calls = count_distances(monkeypatch), spy_eigensolver(monkeypatch)
        got = moran_basis(sites, max_components=30)
        assert calls == [("evr", (200, 200))] and len(distances) == 1
        assert got.n_components == 21
        assert np.abs(got.eigvals - lam[:21]).max() <= 1e-12 * lam[0]
        kernel = (got.eigvecs * got.eigvals) @ got.eigvecs.T
        assert np.abs(kernel - (e[:, :21] * lam[:21]) @ e[:, :21].T).max() <= 1e-10

    def test_cap_above_a_quarter_of_n_cuts_the_full_decomposition(self):
        # 40 sites on a line have 14 positive pairs; a cap of 12 is above
        # N/4, so the whole spectrum is computed and then cut.
        sites = SiteSet(np.column_stack([np.arange(40.0), np.zeros(40)]))
        base, capped = moran_basis(sites), moran_basis(sites, max_components=12)
        assert base.n_components == 14 and capped.n_components == 12
        np.testing.assert_array_equal(capped.eigvals, base.eigvals[:12])
        np.testing.assert_array_equal(capped.eigvecs, base.eigvecs[:, :12])

    @pytest.mark.parametrize("cap", [40, 41, 1000])
    def test_cap_of_n_or_more_is_the_uncapped_basis(self, cap):
        sites = random_sites(40, seed=1)
        base, capped = moran_basis(sites), moran_basis(sites, max_components=cap)
        np.testing.assert_array_equal(capped.eigvals, base.eigvals)
        np.testing.assert_array_equal(capped.eigvecs, base.eigvecs)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n_cloud=st.integers(4, 40),
        n_cluster=st.sampled_from([0, 3, 12]),
        outlier=st.booleans(),
        n_duplicates=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keep_rule_and_cap_on_mixed_site_sets(self, n_cloud, n_cluster, outlier, n_duplicates, seed):
        # The uncapped basis keeps the pairs above cutoff * max(lambda_1, 1),
        # and every cap k <= N/4 is one subset solve of its leading pairs.
        # A far outlier makes the rest one tight cluster: lambda_1 < 1.
        rng = np.random.default_rng(seed)
        parts = [rng.uniform(0, 10, (n_cloud, 2)), rng.uniform(4.99, 5.01, (n_cluster, 2))]
        if outlier:
            parts.append([[1e4, 1e4]])
        coords = np.vstack(parts)
        sites = SiteSet(np.vstack([coords, coords[rng.integers(0, len(coords), n_duplicates)]]))
        n = sites.n_sites

        full = moran_basis(sites)
        spectrum = np.linalg.eigvalsh(dense_mcm(build_proximity(sites, full.range_r)))[::-1]
        kept = spectrum[spectrum > DEFAULT_EIGEN_CUTOFF * max(spectrum[0], 1.0)]
        assert full.n_components == kept.size
        assert np.abs(full.eigvals - kept).max(initial=0.0) <= 1e-12 * max(spectrum[0], 1.0)

        for k in range(1, n // 4 + 1):
            with pytest.MonkeyPatch.context() as mp:
                distances, calls = count_distances(mp), spy_eigensolver(mp)
                capped = moran_basis(sites, max_components=k)
            assert len(distances) == 1 and [driver for driver, _ in calls] == ["evr"]
            m = min(k, full.n_components)
            assert capped.n_components == m
            if m:
                lam, e = full.eigvals[:m], full.eigvecs[:, :m]
                assert np.abs(capped.eigvals - lam).max() <= 1e-12 * lam[0]
                kernel = (capped.eigvecs * capped.eigvals) @ capped.eigvecs.T
                assert np.abs(kernel - (e * lam) @ e.T).max() <= 1e-10

    @pytest.mark.parametrize("cap", [0, -3, 10.5, True, "50"])
    def test_cap_below_one_raises(self, cap):
        with pytest.raises(ValueError, match="max_components"):
            moran_basis(random_sites(10, seed=1), max_components=cap)


def composed_basis(sites, max_components=None):
    """The basis by the public stages, one step and one copy at a time.

    mst_range, build_proximity, M C M out of place, the eigensolver
    moran_basis picks, and the kept set taken from the whole spectrum.
    """
    c = build_proximity(sites, mst_range(sites))
    row_means = c.mean(axis=1)
    mcm = (c - row_means[:, None]) - row_means[None, :] + c.mean()
    n = sites.n_sites
    k = n if max_components is None else max_components
    spectrum, vecs = scipy.linalg.eigh(mcm.T, driver="evd", check_finite=False)
    lam = spectrum
    if 4 * k <= n:
        lam, vecs = scipy.linalg.eigh(mcm.T, subset_by_index=[n - k, n - 1], driver="evr", check_finite=False)
    m = min(int((spectrum > DEFAULT_EIGEN_CUTOFF * np.abs(spectrum).max()).sum()), k)
    order = lam.size - 1 - np.arange(m)
    return lam[order], vecs[:, order], mst_range(sites)


def count_distances(monkeypatch):
    calls = []
    distances = SiteSet.distances
    monkeypatch.setattr(SiteSet, "distances", lambda self: calls.append(self) or distances(self))
    return calls


class TestMoranBasis:
    """moran_basis against the stage-by-stage composition, a dense reference, and its one buffer."""

    @pytest.mark.parametrize(
        "sites, cap, driver",
        [
            (grid_sites(40), 200, "evr"),  # 4k <= N: only the leading pairs
            (gaussian_sites(900), 200, "evr"),  # the cap exceeds the 72 positive pairs
            (gaussian_sites(600), 200, "evd"),  # 4k > N: the whole spectrum, cut
            (gaussian_sites(400), None, "evd"),
            (sites_with_duplicates(), None, "evd"),
        ],
        ids=["grid40x40-cap200", "gaussian900-cap200", "gaussian600-cap200", "gaussian400", "duplicates"],
    )
    def test_equals_the_composition(self, sites, cap, driver, monkeypatch):
        # Bit for bit: the one buffer rounds as the step-by-step copies do.
        lam, vecs, range_r = composed_basis(sites, cap)
        distances, calls = count_distances(monkeypatch), spy_eigensolver(monkeypatch)
        got = moran_basis(sites, max_components=cap)
        assert np.array_equal(got.eigvals, lam)
        assert np.array_equal(got.eigvecs, vecs)
        assert got.range_r == range_r
        assert len(distances) == 1 and [d for d, _ in calls] == [driver]

    @pytest.mark.parametrize(
        "sites, cap, driver",
        [
            (grid_sites(40), 200, "evr"),  # 4k <= N: only the leading pairs
            (gaussian_sites(900), 200, "evr"),  # the cap exceeds the 72 positive pairs
            (gaussian_sites(600), 200, "evd"),  # 4k > N: the whole spectrum, cut
            (gaussian_sites(150), 200, "evd"),
            (gaussian_sites(400), None, "evd"),
            (sites_with_duplicates(), None, "evd"),
            (cluster_and_outlier(), 20, "evr"),  # 4k <= N, lambda_1 < 1: the threshold is the cutoff
        ],
        ids=[
            "grid40x40-cap200",
            "gaussian900-cap200",
            "gaussian600-cap200",
            "gaussian150-cap200",
            "gaussian400",
            "duplicates",
            "cluster-and-outlier-cap20",
        ],
    )
    def test_matches_a_dense_reference(self, sites, cap, driver, monkeypatch):
        # Built without any stage of the package: pairwise distances by the
        # formula, the range from scipy's spanning tree, M C M as a product.
        # The spanning tree skips zero distances, which leaves its longest
        # edge unchanged when not all sites coincide.
        x = sites.coords
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
        r = minimum_spanning_tree(d).max()
        c = np.exp(-d / r)
        np.fill_diagonal(c, 0.0)
        spectrum, e = np.linalg.eigh(dense_mcm(c))
        kept = spectrum > 1e-8 * np.abs(spectrum).max()
        lam, e = spectrum[kept][::-1][:cap], e[:, kept][:, ::-1][:, :cap]

        distances, calls = count_distances(monkeypatch), spy_eigensolver(monkeypatch)
        got = moran_basis(sites, max_components=cap)
        assert len(distances) == 1 and [drv for drv, _ in calls] == [driver]
        assert got.range_r == pytest.approx(r, rel=1e-14)
        assert got.n_components == lam.size
        assert np.abs(got.eigvals - lam).max() <= 1e-12 * lam[0]
        kernel = (got.eigvecs * got.eigvals) @ got.eigvecs.T
        assert np.abs(kernel - (e * lam) @ e.T).max() <= 1e-10

    @pytest.mark.parametrize(
        "sites, cap", [(random_sites(200, seed=2), 30), (gaussian_sites(150, seed=1), None)], ids=["evr", "evd"]
    )
    def test_centering_rounds_as_documented(self, sites, cap, monkeypatch):
        # The eigensolver gets (c_ij - r_i) - r_j + g with g the grand mean
        # of C, bit for bit.  On these sites the mean of the row means
        # rounds differently, and that moves some fits to another maximum.
        inputs = []
        eigh = snvc.spatial._eigh
        monkeypatch.setattr(snvc.spatial, "_eigh", lambda a, *args: inputs.append(a.T.copy()) or eigh(a, *args))
        moran_basis(sites, max_components=cap)
        c = np.exp(-sites.distances() / mst_range(sites))
        np.fill_diagonal(c, 0.0)
        row_means = c.mean(axis=1)
        assert np.array_equal(inputs[0], (c - row_means[:, None]) - row_means[None, :] + c.mean())

    @pytest.mark.parametrize(
        "sites, cap, driver",
        [(grid_sites(40), 200, "evr"), (gaussian_sites(400), None, "evd")],
        ids=["grid40x40-cap200", "gaussian400"],
    )
    def test_eigenpairs_equal_scipy_eigh(self, sites, cap, driver, monkeypatch):
        # The LAPACK call of scipy's eigh, made directly: the same bits.
        inputs = []
        eigh = snvc.spatial._eigh
        monkeypatch.setattr(
            snvc.spatial, "_eigh", lambda a, *args: inputs.append((args[0], a.copy(order="F"))) or eigh(a, *args)
        )
        got = moran_basis(sites, max_components=cap)
        ((used, a),) = inputs
        assert used == driver
        n = sites.n_sites
        if cap is None:
            lam, vecs = scipy.linalg.eigh(a, driver="evd", overwrite_a=True, check_finite=False)
            m = int((lam > DEFAULT_EIGEN_CUTOFF * np.abs(lam).max()).sum())
        else:
            lam, vecs = scipy.linalg.eigh(
                a, subset_by_index=[n - cap, n - 1], driver="evr", overwrite_a=True, check_finite=False
            )
            m = min(int((lam > DEFAULT_EIGEN_CUTOFF * lam[-1]).sum()), cap)
        order = lam.size - 1 - np.arange(m)
        np.testing.assert_array_equal(got.eigvals, lam[order], strict=True)
        np.testing.assert_array_equal(got.eigvecs, vecs[:, order], strict=True)

    @pytest.mark.parametrize(
        "sites, cap, routine",
        [(grid_sites(20), 50, "dsyevr"), (gaussian_sites(50), None, "dsyevd")],
        ids=["evr", "evd"],
    )
    def test_eigensolver_failure_is_a_numerical_breakdown(self, sites, cap, routine, monkeypatch):
        solve = getattr(snvc.spatial.lapack, routine)

        def failing(a, **kwargs):
            *out, _ = solve(a, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(snvc.spatial.lapack, routine, failing)
        with pytest.raises(NumericalBreakdown, match="info = 1"):
            moran_basis(sites, max_components=cap)

    @pytest.mark.parametrize(
        "sites",
        [SiteSet([[0, 0], [1, 0]]), SiteSet([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])],
        ids=["two-sites", "equilateral-triangle"],
    )
    def test_empty_bases(self, sites):
        got = moran_basis(sites)
        assert got.eigvals.shape == (0,) and got.eigvecs.shape == (sites.n_sites, 0)

    def test_all_sites_coincident(self):
        sites = SiteSet([[2, 2], [2, 2], [2, 2]])
        with pytest.raises(AllSitesCoincident):
            moran_basis(sites)

    def test_site_limit_is_checked_before_any_distance(self, monkeypatch):
        def no_distances(self):
            raise AssertionError("distance matrix built before the site limit was checked")

        monkeypatch.setattr(SiteSet, "distances", no_distances)
        big = SiteSet(np.random.default_rng(0).uniform(0, 10, (DEFAULT_MAX_SITES + 1, 2)))
        with pytest.raises(SiteLimitExceeded, match="dense-decomposition limit") as err:
            moran_basis(big)
        assert isinstance(err.value, DataError) and isinstance(err.value, ValueError)


# Peak resident memory of moran_basis, in N x N doubles above the process's
# high-water mark before the call (1 BLAS thread, N = 2000).  One buffer
# holds D, C and M C M; the capped solve adds N k eigenvectors (k/N = 0.1),
# the full one the divide-and-conquer workspace of 2 N^2 (eigenvectors and
# work array).  The bounds, 1.5 and 3.5, leave 0.4 and 0.5 N^2 above those
# sums, 1.1 and 3, for the allocator and smaller arrays (measured: 1.19 and
# 3.16), so that a LAPACK or allocator with a somewhat larger workspace does
# not read as a regression; the three-call pipeline this replaced measured
# 2.14 and 6.23.
_PEAK_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    from snvc.spatial import SiteSet, moran_basis

    def peak_bytes():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    moran_basis(SiteSet(np.random.default_rng(1).standard_normal((60, 2))), max_components=10)
    sites = SiteSet(np.random.default_rng(0).standard_normal((2000, 2)))
    base = peak_bytes()
    moran_basis(sites, max_components=200)
    capped = peak_bytes()
    moran_basis(sites)
    print((capped - base) / (8 * 2000**2), (peak_bytes() - base) / (8 * 2000**2))
    """
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_peak_memory_of_the_basis_build():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT], env=env, capture_output=True, text=True, check=True, timeout=300
    )
    capped, full = (float(v) for v in out.stdout.split())
    assert capped <= 1.5, capped
    assert full <= 3.5, full


class TestMoranCoefficient:
    def test_two_sites_antithetic(self):
        c = build_proximity(SiteSet([[0, 0], [1, 0]]), 1.0)
        assert moran_coefficient(np.array([1.0, -1.0]), c) == pytest.approx(-1.0, abs=1e-15)

    def test_eigenvector_relation(self):
        sites = random_sites(30, seed=9)
        basis = moran_basis(sites)
        c = build_proximity(sites, basis.range_r)
        total = float(c.sum())
        n = sites.n_sites
        for l in range(basis.n_components):
            mc = moran_coefficient(basis.eigvecs[:, l], c)
            assert abs(mc - n * basis.eigvals[l] / total) < 1e-10

    def test_constant_vector_raises(self):
        c = build_proximity(SiteSet([[0, 0], [1, 0], [2, 2]]), 1.0)
        with pytest.raises(ConstantVector):
            moran_coefficient(np.ones(3), c)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SiteSet(np.zeros(4)), "coords must be an N x 2 array"),
        (lambda: SiteSet(np.zeros((4, 3))), "coords must be an N x 2 array"),
        (lambda: SiteSet([[0.0, 0.0]]), "need at least 2 sites"),
        (lambda: SiteSet([[0.0, 0.0], [np.nan, 1.0]]), "coordinates must be finite"),
        (lambda: moran_coefficient(np.ones(2), np.eye(3)), "z must have length 3"),
    ],
    ids=["flat-coords", "three-columns", "one-site", "nan-coordinate", "moran-length"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestSpectralInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_spectrum_reconstruction_identity(self, seed, monkeypatch):
        # M (C + I) M must equal the positive part + negative part + I - 11'/N;
        # the negative part is rebuilt here from an independent full eigh.
        n = 45 + 5 * seed
        sites = random_sites(n, seed=seed)
        monkeypatch.setattr("snvc.spatial.DEFAULT_EIGEN_CUTOFF", 1e-12)
        basis = moran_basis(sites)
        c = build_proximity(sites, basis.range_r)

        mcm = dense_mcm(c)
        w, v = np.linalg.eigh(mcm)
        tol = 1e-12 * np.abs(w).max()
        neg = w < -tol
        m = np.eye(n) - np.ones((n, n)) / n
        lhs = m @ (c + np.eye(n)) @ m
        rhs = (
            basis.eigvecs @ np.diag(basis.eigvals) @ basis.eigvecs.T
            + v[:, neg] @ np.diag(w[neg]) @ v[:, neg].T
            + np.eye(n)
            - np.ones((n, n)) / n
        )
        assert np.abs(lhs - rhs).max() < 1e-8

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        angle=st.floats(0.0, 2.0 * np.pi),
        shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    )
    def test_rigid_motion_keeps_range_and_eigenvalues(self, angle, shift):
        sites = random_sites(40, seed=8)
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        moved = SiteSet(sites.coords @ rotation.T + np.asarray(shift))
        base, after = moran_basis(sites), moran_basis(moved)
        assert abs(after.range_r - base.range_r) <= 1e-12 * base.range_r
        assert after.n_components == base.n_components
        assert np.abs(after.eigvals - base.eigvals).max() <= 1e-12 * base.eigvals[0]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), n_duplicates=st.integers(0, 20))
    def test_eigenvalue_floor_and_coordinate_bound(self, n, seed, n_duplicates):
        # What the keep rule rests on: C + I = exp(-d/r) is positive
        # semidefinite, so no eigenvalue of M C M is below -1 and
        # max(lambda_1, 1) bounds max|lambda|.  M fixes the centred
        # coordinates, so their Rayleigh quotients are at most lambda_1.
        # Duplicated sites make exp(-d/r) singular.
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 10, (n, 2))
        sites = SiteSet(np.vstack([coords, coords[rng.integers(0, n, n_duplicates)]]))
        mcm = dense_mcm(build_proximity(sites, mst_range(sites)))
        w = np.linalg.eigvalsh(mcm)
        eps = 1e-12 * sites.n_sites
        assert w[0] >= -1.0 - eps
        u = sites.coords - sites.coords.mean(axis=0)
        assert np.all((u * (mcm @ u)).sum(axis=0) <= (w[-1] + eps) * (u * u).sum(axis=0))

    def test_orthonormal_and_centered_columns(self):
        basis = moran_basis(random_sites(60, seed=3))
        gram = basis.eigvecs.T @ basis.eigvecs
        assert np.abs(gram - np.eye(basis.n_components)).max() < 1e-10
        assert np.abs(basis.eigvecs.sum(axis=0)).max() < 1e-10

    def test_trace_balance(self):
        sites = random_sites(35, seed=5)
        c = build_proximity(sites, mst_range(sites))
        w = np.linalg.eigvalsh(dense_mcm(c))
        assert abs(w.sum() + float(c.sum()) / c.shape[0]) < 1e-10

    def test_moran_ordering_decreasing(self):
        sites = random_sites(50, seed=11)
        basis = moran_basis(sites)
        c = build_proximity(sites, basis.range_r)
        mcs = [moran_coefficient(basis.eigvecs[:, l], c) for l in range(basis.n_components)]
        assert np.all(np.diff(mcs) < 0)

    def test_simulated_process_moran_increases_with_alpha(self):
        # Surfaces drawn with heavier weight on leading eigenvectors must show
        # stronger spatial autocorrelation as alpha grows.
        g = np.arange(1, 21, dtype=float)
        px, py = np.meshgrid(g, g, indexing="ij")
        sites = SiteSet(np.column_stack([px.ravel(), py.ravel()]))
        basis = moran_basis(sites)
        c = build_proximity(sites, basis.range_r)
        rng = np.random.default_rng(2024)
        means = []
        for alpha in (0.0, 0.5, 1.0, 2.0):
            weights = (basis.eigvals / basis.eigvals[0]) ** alpha
            draws = []
            for _ in range(200):
                gamma = rng.standard_normal(basis.n_components) * np.sqrt(weights)
                draws.append(moran_coefficient(basis.eigvecs @ gamma, c))
            means.append(np.mean(draws))
        assert np.all(np.diff(means) > 0)
