import snvc


def test_public_names_resolve_once():
    assert len(snvc.__all__) == len(set(snvc.__all__))
    for name in snvc.__all__:
        assert hasattr(snvc, name), name


def test_removed_helpers_are_gone():
    # Eigenvalue weights are the array scale_eigenvalues returns, a spline
    # curve is basis.values @ gamma, moran_basis builds every basis, and
    # predict_estimator serves the toy as well as the scenario, and
    # build_proximity returns the N x N array itself.
    for name in (
        "EigenScaling",
        "evaluate_nvc",
        "moran_eigen_basis",
        "predict_toy_estimator",
        "TOY_ESTIMATORS",
        "ProximityMatrix",
    ):
        assert name not in snvc.__all__
        assert not hasattr(snvc, name)
        assert not hasattr(snvc.spatial, name) and not hasattr(snvc.splines, name)
        assert not hasattr(snvc.simlab, name)
