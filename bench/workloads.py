"""The benchmark's workloads.

Each workload drives one public entry point of the package as a single
closed-loop caller: one user-level call at a time, the next only after the
previous returned.  ``prepare`` builds the inputs of one call from a seed
(untimed), ``entry`` returns the public callable, and ``evaluate`` checks the
call's outputs and extracts the quality numbers.

Why these:

- fit-grid1600 is the CLI user's path.  REML on a joint system of K+P = 623
  does most of the work; it is the only workload with the N = 1600
  eigendecomposition and CSV input/output.
- scenario-n150 is the Monte Carlo user's path.  Its REML systems are small
  (K+P of about 70-90), so one likelihood evaluation is dominated by Python
  overhead rather than BLAS; the GWR bandwidth scans take about a quarter.
- gwr-grid1600 has no REML at all: an optimizer change should leave it
  unchanged.  Geometry (28 distance matrices) and the GWR kernel dominate.
  It is run by hand only: BENCHMARK.json lists the first two, because the
  time for all checked runs allows two workloads at a steady run length.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

import snvc
import snvc.cli
import snvc.simlab
from snvc.errors import NoFeasibleBandwidth

_IU = np.triu_indices(3, k=1)


class FitGrid:
    """``snvc fit`` in-process on a CSV written from ``gen_toy(seed)``."""

    name = "fit-grid1600"
    default_seed = 11
    root = "cli.main"
    session = staticmethod(contextlib.nullcontext)

    def __init__(self, workdir: Path, tiny: bool):
        self.grid = (10, 10) if tiny else (40, 40)
        self.data = workdir / "fit-input.csv"
        self.report = workdir / "fit-report.json"
        self.coef = workdir / "fit-coefficients.csv"

    def entry(self):
        return snvc.cli.main

    def prepare(self, seed: int):
        inst = snvc.gen_toy(seed, grid=self.grid)
        with open(self.data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["px", "py", "y", "x1", "x2"])
            cols = np.column_stack([inst.sites.coords, inst.y, inst.X])
            writer.writerows([repr(float(v)) for v in row] for row in cols)
        for path in (self.report, self.coef):
            path.unlink(missing_ok=True)
        argv = [
            "fit", "--data", str(self.data), "--y", "y", "--x", "x1,x2", "--coords", "px,py",
            "--svc", "all", "--nvc", "all", "--out", str(self.report), "--coef-out", str(self.coef),
        ]  # fmt: skip
        return (argv,)

    def evaluate(self, args, result) -> dict:
        out = {"attempted": 1, "failed": 0, "problems": []}
        if result != 0:
            out["failed"] = 1
            out["problems"].append(f"snvc fit exited {result}")
            return out
        try:
            report = json.loads(self.report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            out["problems"].append(f"JSON report unreadable: {exc}")
            return out
        with open(self.coef, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, values = rows[0], np.asarray(rows[1:], dtype=float)
        col = {h: values[:, i] for i, h in enumerate(header)}
        for name in report["covariates"]:
            parts = col[f"{name}_mean"] + col[f"{name}_svc"] + col[f"{name}_nvc"]
            total = col[f"{name}_total"]
            if not np.allclose(total, parts, rtol=1e-12, atol=1e-12):
                out["problems"].append(f"{name}_total != mean + svc + nvc")
        out["fits"] = [
            (report["estimates"]["restricted_loglik"], report["converged"], report["n_loglik_evals"])
        ]
        return out


class Scenario:
    """``run_scenario``: N = 150 gaussian sites, w_s = 0.5, all five estimators.

    One call runs one iteration; successive calls of a run use successive
    seeds, so a run pools as many scenario draws as it has calls.
    """

    name = "scenario-n150"
    default_seed = 3
    root = "simlab.run_scenario"

    def __init__(self, workdir: Path, tiny: bool):
        self.n_sites = 30 if tiny else 150
        self.fits: list = []

    def entry(self):
        return snvc.run_scenario

    @contextlib.contextmanager
    def session(self):
        """Record every FittedModel simlab receives; no timing here."""
        original = snvc.simlab.fit_snvc

        def recording(*args, **kwargs):
            fit, field = original(*args, **kwargs)
            self.fits.append((fit.restricted_loglik, fit.converged, fit.n_loglik_evals))
            return fit, field

        snvc.simlab.fit_snvc = recording
        try:
            yield
        finally:
            snvc.simlab.fit_snvc = original

    def prepare(self, seed: int):
        config = snvc.ScenarioConfig(n_sites=self.n_sites, w_s=0.5, n_iters=1, seed=seed)
        return (config,)

    def evaluate(self, args, report) -> dict:
        config = args[0]
        failures = sum(report.failures.values())
        out = {"attempted": config.n_iters * len(config.estimators), "failed": failures, "problems": []}
        for est in config.estimators:
            if report.n_success[est] + report.failures[est] != config.n_iters:
                out["problems"].append(f"{est}: n_success + failures != n_iters")
            if report.n_success[est] and not np.all(np.isfinite(report.rmse[est])):
                out["problems"].append(f"{est}: RMSE not finite")
        out["fits"], self.fits = self.fits, []
        out["cc"] = (report.mean_cc["SNVC_M"][_IU], report.true_mean_cc[_IU])
        return out


class GwrGrid:
    """``select_bandwidth``, fixed exponential kernel, ``gen_toy(seed)`` grid, no intercept."""

    name = "gwr-grid1600"
    default_seed = 11
    root = "gwr.select_bandwidth"
    session = staticmethod(contextlib.nullcontext)

    def __init__(self, workdir: Path, tiny: bool):
        self.grid = (10, 10) if tiny else (40, 40)

    def entry(self):
        return snvc.select_bandwidth

    def prepare(self, seed: int):
        inst = snvc.gen_toy(seed, grid=self.grid)
        # In row blocks, so that the check adds nothing to the peak memory.
        c = inst.sites.coords
        self.max_distance = max(float(cdist(c[i : i + 100], c).max()) for i in range(0, len(c), 100))
        return (inst.sites, inst.X, inst.y, "exponential_fixed", False)

    def evaluate(self, args, fit) -> dict:
        out = {"attempted": 1, "failed": 0, "problems": []}
        if isinstance(fit, NoFeasibleBandwidth):
            out["failed"] = 1
            return out
        if not math.isfinite(fit.aicc):
            out["problems"].append("AICc not finite")
        lo, hi = 0.01 * self.max_distance, self.max_distance
        if not lo * (1 - 1e-12) <= fit.bandwidth <= hi * (1 + 1e-12):
            out["problems"].append(f"bandwidth {fit.bandwidth} outside [{lo}, {hi}]")
        out["aicc"] = fit.aicc
        return out


WORKLOADS = {w.name: w for w in (FitGrid, Scenario, GwrGrid)}

# Errors a user-level call may raise that count as a failed operation rather
# than a broken run.  The CLI and run_scenario catch their own.
CALL_ERRORS = (NoFeasibleBandwidth,)


def quality(outcomes: list[dict]) -> dict:
    """Run-level quality numbers; absent keys mean the workload has none."""
    out = {}
    attempted = sum(o["attempted"] for o in outcomes)
    out["failed_frac"] = sum(o["failed"] for o in outcomes) / attempted
    fits = [f for o in outcomes for f in o.get("fits", ())]
    if fits:
        out["reml_loglik"] = float(np.mean([f[0] for f in fits]))
        out["converged_frac"] = float(np.mean([bool(f[1]) for f in fits]))
        out["reml_evals"] = float(np.mean([f[2] for f in fits]))
    cc = [o["cc"] for o in outcomes if "cc" in o]
    if cc:
        # Acceptance criterion 6's statistic, with the run's calls as iterations.
        fitted = np.nanmean([c[0] for c in cc], axis=0)
        true = np.nanmean([c[1] for c in cc], axis=0)
        out["cc_dev"] = float(np.mean(np.abs(fitted - true)))
    aicc = [o["aicc"] for o in outcomes if "aicc" in o]
    if aicc:
        out["gwr_aicc"] = float(np.mean(aicc))
    return out
