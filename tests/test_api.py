import dataclasses
import importlib
import importlib.machinery
import inspect
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import snvc
import snvc.cli
import snvc.core


def test_public_names_resolve_once():
    assert len(snvc.__all__) == len(set(snvc.__all__))
    for name in snvc.__all__:
        assert hasattr(snvc, name), name


def test_removed_helpers_are_gone():
    # Eigenvalue weights are the array scale_eigenvalues returns, a spline
    # curve is basis.values @ gamma, moran_basis builds every basis, and
    # predict_estimator serves the toy as well as the scenario,
    # build_proximity returns the N x N array itself, and an empty basis is
    # always EmptySpatialBasis.
    for name in (
        "EigenScaling",
        "evaluate_nvc",
        "moran_eigen_basis",
        "predict_toy_estimator",
        "TOY_ESTIMATORS",
        "ProximityMatrix",
        "rmse",
        "EmptyBasis",
    ):
        assert name not in snvc.__all__
        assert not hasattr(snvc, name)
        assert not hasattr(snvc.spatial, name) and not hasattr(snvc.splines, name)
        assert not hasattr(snvc.simlab, name) and not hasattr(snvc.errors, name)
    # A fit reports gamma, the coefficients of its random-effect columns,
    # not unit-variance effects that every consumer has to rescale.
    for cls in (snvc.FittedModel, snvc.core.LoglikResult):
        names = {f.name for f in dataclasses.fields(cls)}
        assert "gamma" in names and "u_hat" not in names


# The names the benchmark harness wraps or calls, as "module:attribute path".
# A rename in the package silently drops the benchmark's metrics for that
# name, so each one is pinned here.
BENCHMARK_TRACE_POINTS = (
    "snvc.cli:fit_command",
    "snvc.cli:load_table",
    "snvc.cli:write_table",
    "snvc.cli:fit_snvc",
    "snvc.simlab:gen_instance",
    "snvc.simlab:fit_snvc",
    "snvc.simlab:select_bandwidth",
    "snvc.simlab:spline_basis",
    "snvc.core:spline_basis",
    "snvc.core:build_design",
    "snvc.core:precompute_crossproducts",
    "snvc.core:fit_reml",
    "snvc.core:restricted_loglik",
    "snvc.core:predict_coefficients",
    "snvc.gwr:gwr_fit_at",
    "snvc.spatial:SiteSet.distances",
)


@pytest.mark.parametrize("point", BENCHMARK_TRACE_POINTS)
def test_benchmark_trace_points_resolve(point):
    module, path = point.split(":")
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_benchmark_entry_points_keep_their_signatures():
    assert callable(snvc.cli.main) and callable(snvc.run_scenario)
    inspect.signature(snvc.gen_toy).bind(11, grid=(10, 10))
    # The system-size probe reads these from the crossproducts.
    assert isinstance(snvc.core.Crossproducts.n_fixed, property)
    assert isinstance(snvc.core.Crossproducts.n_random, property)


def test_benchmark_gwr_call_runs():
    # The by-hand gwr-grid1600 workload passes include_intercept positionally.
    inst = snvc.gen_toy(11, grid=(6, 6))
    fit = snvc.select_bandwidth(inst.sites, inst.X, inst.y, "exponential_fixed", False)
    assert math.isfinite(fit.aicc) and fit.local_coefs.shape == (36, 2)


def run_fresh(script):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_import_loads_neither_scipy_optimize_nor_spatial():
    # snvc loads L-BFGS-B's compiled module on its own; scipy.optimize,
    # imported afterwards, still binds and runs its own.
    run_fresh(
        """
        import sys
        import snvc

        loaded = sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.spatial")))
        assert not loaded, loaded
        import numpy as np
        import scipy.optimize

        assert sys.modules["scipy.optimize._lbfgsb"] is scipy.optimize._lbfgsb
        run = scipy.optimize.minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(2), method="L-BFGS-B")
        assert run.success and np.allclose(run.x, 1.0), run
        """
    )


def test_import_after_scipy_optimize_keeps_its_module():
    run_fresh(
        """
        import sys
        import scipy.optimize

        lbfgsb = scipy.optimize._lbfgsb
        import snvc

        assert sys.modules["scipy.optimize._lbfgsb"] is scipy.optimize._lbfgsb is lbfgsb
        """
    )


def test_missing_lbfgsb_module_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(lambda *args: None))
    with pytest.raises(ImportError, match=r"scipy\.optimize\._lbfgsb.*scipy 1\.17\.1"):
        snvc.core._load_lbfgsb()
