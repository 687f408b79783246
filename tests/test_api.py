import snvc


def test_public_names_resolve_once():
    assert len(snvc.__all__) == len(set(snvc.__all__))
    for name in snvc.__all__:
        assert hasattr(snvc, name), name


def test_removed_helpers_are_gone():
    # Eigenvalue weights are the array scale_eigenvalues returns, a spline
    # curve is basis.values @ gamma, and moran_basis builds every basis.
    for name in ("EigenScaling", "evaluate_nvc", "moran_eigen_basis"):
        assert name not in snvc.__all__
        assert not hasattr(snvc, name)
        assert not hasattr(snvc.spatial, name) and not hasattr(snvc.splines, name)
