import re
import warnings

import numpy as np
import pytest

from snvc.errors import TooFewDistinctValues
from snvc.simlab import ScenarioConfig, gen_instance, gen_toy
from snvc.splines import spline_basis


def test_constant_covariate_rejected():
    with pytest.raises(TooFewDistinctValues, match="covariate has 1 distinct values"):
        spline_basis(np.ones(50), n_basis=5)


def test_too_few_distinct_values():
    x = np.tile([0.0, 1.0, 2.0, 3.0], 10)
    with pytest.raises(TooFewDistinctValues):
        spline_basis(x, n_basis=10)


@pytest.mark.parametrize(
    "x, kwargs, error, message",
    [
        (np.arange(20.0), {"n_basis": 2}, ValueError, "n_basis must lie in [3, 50]"),
        (np.arange(20.0), {"family": "b_spline"}, ValueError, "family must be one of"),
        # Five distinct values among 105: every quantile but the last is 0.
        (np.r_[np.zeros(100), np.arange(1.0, 6.0)], {"n_basis": 3}, TooFewDistinctValues,
         "tied quantiles leave only 0 interior knots"),
        # Thirteen distinct values, but the knots below the last are tied in
        # all but their last bits: a column's spread underflows.
        (np.r_[0.0, 1e-300 * np.arange(1, 12), 1.0], {}, TooFewDistinctValues,
         "covariate spans 0 to 1: its knots are tied in all but their last bits"),
        (np.r_[np.arange(20.0), np.nan], {"n_basis": 5}, ValueError, "covariate values must be finite"),
        (np.r_[np.arange(20.0), -np.inf], {"n_basis": 5}, ValueError, "covariate values must be finite"),
    ],
    ids=["size", "family", "tied-quantiles", "knot-tie", "nan", "inf"],
)  # fmt: skip
def test_input_checks(x, kwargs, error, message):
    with pytest.raises(error, match=re.escape(message)):
        spline_basis(x, **kwargs)


def assert_same_basis_in_decimal_units(x, scale, family):
    # A decimal factor rounds x itself, so the basis moves by rounding only.
    base = spline_basis(x, n_basis=10, family=family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = spline_basis(scale * x, n_basis=10, family=family)
    assert scaled.shape == base.shape
    assert np.abs(scaled - base).max() <= 1e-12


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
@pytest.mark.parametrize("scale", [1e80, 1e110, 1e160])
def test_wide_decimal_units_keep_the_basis(family, scale):
    # Unscaled, (x - knot)^3 or the sum of its squares would overflow here.
    assert_same_basis_in_decimal_units(np.random.default_rng(0).uniform(0, 10, 144), scale, family)


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
def test_units_keep_every_column(family):
    # Each column scales as a power of the covariate's span, so dividing by
    # its own sd leaves it unchanged when x is scaled by a power of two.
    x = gen_toy(3, grid=(12, 12)).X[:, 0]
    base = spline_basis(x, n_basis=10, family=family)
    assert base.shape[1] == 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in range(-60, 61, 4):
            scaled = spline_basis(x * 2.0**a, n_basis=10, family=family)
            assert scaled.shape == base.shape, a
            assert scaled.flags.f_contiguous
            assert np.abs(scaled - base).max() <= 1e-12, a


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
@pytest.mark.parametrize("source", ["toy", "scenario"])
def test_power_of_two_units_give_the_same_basis_bit_for_bit(family, source):
    # x is scaled into (-1, 1) by a power of two before the knots are placed,
    # and every later step commutes with that scaling.
    if source == "toy":
        x = gen_toy(3, grid=(12, 12)).X[:, 0]
    else:
        x = gen_instance(ScenarioConfig(n_sites=150, w_s=0.5, seed=3), 1).X[:, 2]
    base = spline_basis(x, n_basis=10, family=family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in range(-1000, 1001, 10):
            np.testing.assert_array_equal(spline_basis(np.ldexp(x, a), n_basis=10, family=family), base, err_msg=a)


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
def test_narrow_decimal_units_keep_the_basis(family):
    # Unscaled, the variance of a column would underflow here.
    assert_same_basis_in_decimal_units(gen_toy(3, grid=(12, 12)).X[:, 0], 1e-110, family)


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
def test_columns_centered(family):
    rng = np.random.default_rng(0)
    basis = spline_basis(rng.uniform(0, 400, 300), n_basis=10, family=family)
    assert np.abs(basis.mean(axis=0)).max() < 1e-12


def documented_knots(x, n_basis, family):
    """The knots ``spline_basis`` documents: equally spaced quantiles of x, deduplicated."""
    n_knots = n_basis + 1 if family == "natural_cubic" else n_basis
    return np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_knots)))


def _piecewise_cubic_breaks(x, curve, knots):
    """Fit exact cubics on each inter-knot segment; return worst mismatch of
    value / first / second derivative across every interior knot."""
    segments = []
    bounds = list(knots)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = (x >= lo) & (x <= hi)
        if mask.sum() < 6:
            return None
        coef = np.polynomial.polynomial.polyfit(x[mask] - lo, curve[mask], deg=3)
        segments.append((lo, hi, coef))
    worst = np.zeros(3)
    for (lo1, hi1, c1), (lo2, hi2, c2) in zip(segments[:-1], segments[1:]):
        kappa = hi1
        p1 = np.polynomial.polynomial.Polynomial(c1)
        p2 = np.polynomial.polynomial.Polynomial(c2)
        for order in range(3):
            left = p1.deriv(order)(kappa - lo1) if order else p1(kappa - lo1)
            right = p2.deriv(order)(kappa - lo2) if order else p2(kappa - lo2)
            worst[order] = max(worst[order], abs(left - right))
    return worst


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
def test_generated_curve_is_twice_continuously_differentiable(family):
    # 500 equally spaced points on [0, 400]; the random curve through the basis
    # must be an exact cubic on each inter-knot segment with matching value,
    # slope, and curvature at every knot (checked by independent polynomial
    # fits on the two sides).
    x = np.linspace(0.0, 400.0, 500)
    basis = spline_basis(x, n_basis=10, family=family)
    rng = np.random.default_rng(7)
    curve = basis @ rng.standard_normal(basis.shape[1])

    worst = _piecewise_cubic_breaks(x, curve, documented_knots(x, 10, family))
    assert worst is not None
    scale_f = np.abs(curve).max()
    scale_d1 = np.abs(np.gradient(curve, x)).max()
    scale_d2 = np.abs(np.gradient(np.gradient(curve, x), x)).max()
    assert worst[0] < 1e-6 * scale_f
    assert worst[1] < 1e-6 * scale_d1
    assert worst[2] < 1e-4 * scale_d2


def test_natural_spline_curvature_vanishes_at_boundary_knots():
    x = np.linspace(0.0, 400.0, 500)
    basis = spline_basis(x, n_basis=10, family="natural_cubic")
    rng = np.random.default_rng(3)
    curve = basis @ rng.standard_normal(basis.shape[1])
    knots = documented_knots(x, 10, "natural_cubic")

    d2_scale = np.abs(np.gradient(np.gradient(curve, x), x)).max()
    for knot, seg in ((knots[0], x <= knots[1]), (knots[-1], x >= knots[-2])):
        coef = np.polynomial.polynomial.polyfit(x[seg] - knot, curve[seg], deg=3)
        p = np.polynomial.polynomial.Polynomial(coef)
        assert abs(p.deriv(2)(0.0)) < 1e-6 * d2_scale


def test_variance_scales_linearly_in_tau():
    rng = np.random.default_rng(11)
    basis = spline_basis(rng.uniform(0, 400, 400), n_basis=10)
    sds = []
    for tau in (0.5, 1.0, 2.0):
        draws = tau * rng.standard_normal((500, basis.shape[1]))
        sds.append(np.std(draws @ basis.T))
    assert abs(sds[1] / sds[0] - 2.0) < 0.2
    assert abs(sds[2] / sds[1] - 2.0) < 0.2


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 50, 150)
    perm = rng.permutation(150)
    a = spline_basis(x, n_basis=7)
    b = spline_basis(x[perm], n_basis=7)
    np.testing.assert_allclose(b, a[perm], atol=1e-12)
