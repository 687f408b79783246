"""Spatially and non-spatially varying coefficient regression.

Moran eigenvector spatial bases plus spline non-spatial bases, estimated by
a restricted-maximum-likelihood procedure whose per-iteration cost does not
depend on sample size, with a GWR baseline and a Monte Carlo lab.
"""

from . import errors
from .core import (
    CoefficientField,
    Crossproducts,
    DesignMatrix,
    FittedModel,
    ModelSpec,
    VarianceParams,
    build_design,
    fit_reml,
    fit_snvc,
    precompute_crossproducts,
    predict_coefficients,
    restricted_loglik,
)
from .gwr import GwrFit, gwr_fit_at, select_bandwidth
from .simlab import (
    GeneratedInstance,
    ScenarioConfig,
    ScenarioReport,
    coef_correlations,
    gen_covariate,
    gen_coefficients,
    gen_instance,
    gen_toy,
    run_scenario,
)
from .spatial import (
    SiteSet,
    SpatialBasis,
    build_proximity,
    moran_basis,
    moran_coefficient,
    mst_range,
    scale_eigenvalues,
)
from .splines import NvcBasis, spline_basis

__version__ = "0.1.0"

__all__ = [
    "CoefficientField",
    "Crossproducts",
    "DesignMatrix",
    "FittedModel",
    "GeneratedInstance",
    "GwrFit",
    "ModelSpec",
    "NvcBasis",
    "ScenarioConfig",
    "ScenarioReport",
    "SiteSet",
    "SpatialBasis",
    "VarianceParams",
    "build_design",
    "build_proximity",
    "coef_correlations",
    "errors",
    "fit_reml",
    "fit_snvc",
    "gen_coefficients",
    "gen_covariate",
    "gen_instance",
    "gen_toy",
    "gwr_fit_at",
    "moran_basis",
    "moran_coefficient",
    "mst_range",
    "precompute_crossproducts",
    "predict_coefficients",
    "restricted_loglik",
    "run_scenario",
    "scale_eigenvalues",
    "select_bandwidth",
    "spline_basis",
]
