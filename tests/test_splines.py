import re

import numpy as np
import pytest

from snvc.errors import ConstantCovariate, TooFewDistinctValues
from snvc.splines import spline_basis


def test_constant_covariate_rejected():
    with pytest.raises(ConstantCovariate):
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
    ],
    ids=["size", "family", "tied-quantiles"],
)  # fmt: skip
def test_input_checks(x, kwargs, error, message):
    with pytest.raises(error, match=re.escape(message)):
        spline_basis(x, **kwargs)


@pytest.mark.parametrize("family", ["natural_cubic", "thin_plate_1d"])
def test_columns_centered(family):
    rng = np.random.default_rng(0)
    basis = spline_basis(rng.uniform(0, 400, 300), n_basis=10, family=family)
    assert np.abs(basis.values.mean(axis=0)).max() < 1e-12


def test_knots_strictly_increasing_and_range_recorded():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 7, 200)
    basis = spline_basis(x, n_basis=8)
    assert np.all(np.diff(basis.knots) > 0)


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
    curve = basis.values @ rng.standard_normal(basis.n_components)

    worst = _piecewise_cubic_breaks(x, curve, basis.knots)
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
    curve = basis.values @ rng.standard_normal(basis.n_components)

    d2_scale = np.abs(np.gradient(np.gradient(curve, x), x)).max()
    for knot, seg in ((basis.knots[0], x <= basis.knots[1]), (basis.knots[-1], x >= basis.knots[-2])):
        coef = np.polynomial.polynomial.polyfit(x[seg] - knot, curve[seg], deg=3)
        p = np.polynomial.polynomial.Polynomial(coef)
        assert abs(p.deriv(2)(0.0)) < 1e-6 * d2_scale


def test_variance_scales_linearly_in_tau():
    rng = np.random.default_rng(11)
    basis = spline_basis(rng.uniform(0, 400, 400), n_basis=10)
    sds = []
    for tau in (0.5, 1.0, 2.0):
        draws = tau * rng.standard_normal((500, basis.n_components))
        sds.append(np.std(draws @ basis.values.T))
    assert abs(sds[1] / sds[0] - 2.0) < 0.2
    assert abs(sds[2] / sds[1] - 2.0) < 0.2


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 50, 150)
    perm = rng.permutation(150)
    a = spline_basis(x, n_basis=7)
    b = spline_basis(x[perm], n_basis=7)
    np.testing.assert_allclose(b.values, a.values[perm], atol=1e-12)
