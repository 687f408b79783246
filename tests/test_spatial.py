import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snvc.errors import AllSitesCoincident, ConstantVector, EmptyBasis, NonPositiveRange
from snvc.spatial import (
    SiteSet,
    build_proximity,
    moran_coefficient,
    moran_eigen_basis,
    mst_range,
    scale_eigenvalues,
)


def random_sites(n, seed, scale=10.0):
    rng = np.random.default_rng(seed)
    return SiteSet(rng.uniform(0, scale, (n, 2)))


def sites_with_duplicates(n=30, seed=12):
    coords = np.random.default_rng(seed).uniform(0, 10, (n, 2))
    coords[[5, 17]] = coords[2]
    coords[20] = coords[9]
    return SiteSet(coords)


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
        assert c.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert c.values[0, 0] == 0.0 and c.values[1, 1] == 0.0

    def test_duplicate_coordinates_give_weight_one(self):
        c = build_proximity(SiteSet([[1, 1], [1, 1], [0, 0]]), range_r=2.0)
        assert c.values[0, 1] == 1.0

    def test_matches_bruteforce_distance_oracle(self):
        sites = random_sites(10, seed=4)
        r = 3.7
        c = build_proximity(sites, r)
        for i in range(10):
            for j in range(10):
                if i == j:
                    assert c.values[i, j] == 0.0
                else:
                    d = np.sqrt(
                        (sites.coords[i, 0] - sites.coords[j, 0]) ** 2
                        + (sites.coords[i, 1] - sites.coords[j, 1]) ** 2
                    )
                    assert abs(c.values[i, j] - np.exp(-d / r)) < 1e-14

    def test_nonpositive_range(self):
        with pytest.raises(NonPositiveRange):
            build_proximity(SiteSet([[0, 0], [1, 0]]), range_r=0.0)


def dense_mcm(c_values):
    n = c_values.shape[0]
    m = np.eye(n) - np.ones((n, n)) / n
    return m @ c_values @ m


class TestMoranEigenBasis:
    def test_two_sites_has_no_positive_eigenvalue(self):
        c = build_proximity(SiteSet([[0, 0], [1, 0]]), 1.0)
        basis = moran_eigen_basis(c)
        assert basis.n_components == 0

    def test_equilateral_triangle_has_no_positive_eigenvalue(self):
        s = SiteSet([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        basis = moran_eigen_basis(build_proximity(s, 1.0))
        assert basis.n_components == 0

    def test_four_collinear_points_single_positive_pair(self):
        sites = SiteSet([[0, 0], [1, 0], [2, 0], [3, 0]])
        c = build_proximity(sites, mst_range(sites))
        basis = moran_eigen_basis(c)
        assert basis.n_components == 1
        # independent dense eigen oracle on the explicitly formed M C M
        w = np.linalg.eigvalsh(dense_mcm(c.values))
        assert abs(basis.eigvals[0] - w[-1]) < 1e-10

    def test_eigvals_sorted_descending_and_positive(self):
        sites = random_sites(40, seed=1)
        basis = moran_eigen_basis(build_proximity(sites, mst_range(sites)))
        assert basis.n_components >= 1
        assert np.all(basis.eigvals > 0)
        assert np.all(np.diff(basis.eigvals) <= 0)

    def test_truncated_keeps_leading_columns(self):
        sites = random_sites(50, seed=2)
        basis = moran_eigen_basis(build_proximity(sites, mst_range(sites)))
        cut = basis.truncated(2)
        assert cut.n_components == min(2, basis.n_components)
        np.testing.assert_array_equal(cut.eigvals, basis.eigvals[: cut.n_components])

    def test_site_limit_guard(self):
        sites = random_sites(12, seed=0)
        c = build_proximity(sites, 1.0)
        with pytest.raises(ValueError, match="dense-decomposition limit"):
            moran_eigen_basis(c, max_sites=10)


class TestScaleEigenvalues:
    def test_alpha_zero_gives_unit_weights(self):
        basis = _basis_with_eigvals([4.0, 1.0])
        np.testing.assert_allclose(scale_eigenvalues(basis, 0.0), [1.0, 1.0])

    def test_alpha_one_gives_ratios(self):
        basis = _basis_with_eigvals([4.0, 1.0])
        np.testing.assert_allclose(scale_eigenvalues(basis, 1.0), [1.0, 0.25])

    def test_alpha_two(self):
        basis = _basis_with_eigvals([4.0, 1.0])
        np.testing.assert_allclose(scale_eigenvalues(basis, 2.0), [1.0, 0.0625])

    def test_empty_basis_raises(self):
        basis = _basis_with_eigvals([])
        with pytest.raises(EmptyBasis):
            scale_eigenvalues(basis, 1.0)


def _basis_with_eigvals(eigvals):
    eigvals = np.asarray(eigvals, dtype=float)
    from snvc.spatial import SpatialBasis

    return SpatialBasis(
        eigvecs=np.empty((5, len(eigvals))),
        eigvals=eigvals,
        range_r=1.0,
        n_total_nonzero=len(eigvals),
    )


class TestMoranCoefficient:
    def test_two_sites_antithetic(self):
        c = build_proximity(SiteSet([[0, 0], [1, 0]]), 1.0)
        assert moran_coefficient(np.array([1.0, -1.0]), c) == pytest.approx(-1.0, abs=1e-15)

    def test_eigenvector_relation(self):
        sites = random_sites(30, seed=9)
        c = build_proximity(sites, mst_range(sites))
        basis = moran_eigen_basis(c)
        total = c.total_weight()
        n = sites.n_sites
        for l in range(basis.n_components):
            mc = moran_coefficient(basis.eigvecs[:, l], c)
            assert abs(mc - n * basis.eigvals[l] / total) < 1e-10

    def test_constant_vector_raises(self):
        c = build_proximity(SiteSet([[0, 0], [1, 0], [2, 2]]), 1.0)
        with pytest.raises(ConstantVector):
            moran_coefficient(np.ones(3), c)


class TestSpectralInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_spectrum_reconstruction_identity(self, seed):
        # M (C + I) M must equal the positive part + negative part + I - 11'/N;
        # the negative part is rebuilt here from an independent full eigh.
        n = 45 + 5 * seed
        sites = random_sites(n, seed=seed)
        c = build_proximity(sites, mst_range(sites))
        basis = moran_eigen_basis(c, cutoff_rel=1e-12)

        mcm = dense_mcm(c.values)
        w, v = np.linalg.eigh(mcm)
        tol = 1e-12 * np.abs(w).max()
        neg = w < -tol
        m = np.eye(n) - np.ones((n, n)) / n
        lhs = m @ (c.values + np.eye(n)) @ m
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
        r, r_moved = mst_range(sites), mst_range(moved)
        assert abs(r_moved - r) <= 1e-12 * r
        base = moran_eigen_basis(build_proximity(sites, r))
        after = moran_eigen_basis(build_proximity(moved, r_moved))
        assert after.n_components == base.n_components
        assert np.abs(after.eigvals - base.eigvals).max() <= 1e-12 * base.eigvals[0]

    def test_orthonormal_and_centered_columns(self):
        sites = random_sites(60, seed=3)
        basis = moran_eigen_basis(build_proximity(sites, mst_range(sites)))
        gram = basis.eigvecs.T @ basis.eigvecs
        assert np.abs(gram - np.eye(basis.n_components)).max() < 1e-10
        assert np.abs(basis.eigvecs.sum(axis=0)).max() < 1e-10

    def test_trace_balance(self):
        sites = random_sites(35, seed=5)
        c = build_proximity(sites, mst_range(sites))
        w = np.linalg.eigvalsh(dense_mcm(c.values))
        assert abs(w.sum() + c.total_weight() / c.n_sites) < 1e-10

    def test_moran_ordering_decreasing(self):
        sites = random_sites(50, seed=11)
        c = build_proximity(sites, mst_range(sites))
        basis = moran_eigen_basis(c)
        mcs = [moran_coefficient(basis.eigvecs[:, l], c) for l in range(basis.n_components)]
        assert np.all(np.diff(mcs) < 0)

    def test_simulated_process_moran_increases_with_alpha(self):
        # Surfaces drawn with heavier weight on leading eigenvectors must show
        # stronger spatial autocorrelation as alpha grows.
        g = np.arange(1, 21, dtype=float)
        px, py = np.meshgrid(g, g, indexing="ij")
        sites = SiteSet(np.column_stack([px.ravel(), py.ravel()]))
        c = build_proximity(sites, mst_range(sites))
        basis = moran_eigen_basis(c)
        rng = np.random.default_rng(2024)
        means = []
        for alpha in (0.0, 0.5, 1.0, 2.0):
            weights = scale_eigenvalues(basis, alpha)
            draws = []
            for _ in range(200):
                gamma = rng.standard_normal(basis.n_components) * np.sqrt(weights)
                draws.append(moran_coefficient(basis.eigvecs @ gamma, c))
            means.append(np.mean(draws))
        assert np.all(np.diff(means) > 0)
