"""Monte Carlo lab: synthetic data generators, accuracy and correlation
diagnostics, and a seeded scenario runner comparing coefficient estimators.

Two generators are provided.  The toy generator lays covariates and
exponentially decaying coefficients on a regular grid, so the two true
coefficient surfaces are nearly uncorrelated while sharing smooth spatial
structure.  The scenario generator draws gaussian site clouds and builds
covariates/coefficients as weighted sums of a spatially smoothed component
and an independent one, with a spline-driven non-spatial component in the
third coefficient.

Every random draw comes from a counter-based generator keyed by
(seed, iteration, role), so iterations are independent substreams and any
single draw is reproducible in isolation.
"""

from __future__ import annotations

import numbers
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import spatial
from .core import ModelSpec, fit_snvc
from .errors import ConfigInvalid, SnvcError
from .gwr import select_bandwidth
from .spatial import SiteSet, SpatialBasis, moran_basis
from .splines import FAMILIES, N_BASIS_RANGE, spline_basis

ESTIMATORS = ("LM", "GWR", "GWR_A", "SVC_M", "SNVC_M")
SITE_LAYOUTS = ("grid_40x40", "gaussian_random")

NOISE_SD = 2.0  # response noise in the scenario generator
TOY_NOISE_SD = 0.2


def rng_for(seed: int, iteration: int, role: str) -> np.random.Generator:
    """Independent substream for one (seed, iteration, role) triple."""
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(iteration), zlib.crc32(role.encode())))
    return np.random.Generator(np.random.Philox(key))


def standardize(v: np.ndarray) -> np.ndarray:
    """Mean 0, standard deviation 1 (N - 1 denominator)."""
    v = np.asarray(v, dtype=float)
    sd = v.std(ddof=1)
    if sd == 0.0:
        raise ValueError("cannot standardize a constant vector")
    return (v - v.mean()) / sd


def row_standardized_proximity(sites: SiteSet) -> np.ndarray:
    """exp(-d_ij) with zero diagonal, each row scaled to sum 1, in one N x N buffer."""
    c = spatial.build_proximity(sites, 1.0)
    c /= c.sum(axis=1, keepdims=True)
    return c


def gen_covariate(rng: np.random.Generator, c_bar: np.ndarray, w_sx: float) -> np.ndarray:
    """1 + w_sx [smoothed noise] + (1 - w_sx) [independent noise]."""
    n = c_bar.shape[0]
    e = rng.standard_normal(n)
    u = rng.standard_normal(n)
    return 1.0 + w_sx * standardize(c_bar @ e) + (1.0 - w_sx) * standardize(u)


def gen_coefficients(
    rng: np.random.Generator,
    c_bar: np.ndarray,
    w_s: float,
    tau2_2: float,
    tau2_3: float,
    x3: np.ndarray,
) -> np.ndarray:
    """True coefficient surfaces for the three-covariate scenario.

    beta1 = 1 + [smoothed e1]
    beta2 = 0.5 + tau2 [smoothed e2]
    beta3 = -2 + tau3 [w_s [smoothed e3] + (1 - w_s) [spline(x3) u3]]

    The third coefficient mixes a spatial and a non-spatial (thin-plate
    spline in x3) component; the mix is re-standardized so its spread is
    exactly tau3.
    """
    n = c_bar.shape[0]
    beta1 = 1.0 + standardize(c_bar @ rng.standard_normal(n))
    beta2 = 0.5 + np.sqrt(tau2_2) * standardize(c_bar @ rng.standard_normal(n))

    spatial_part = standardize(c_bar @ rng.standard_normal(n))
    nvc_basis = spline_basis(x3, n_basis=10, family="thin_plate_1d")
    nonspatial_part = standardize(nvc_basis @ rng.standard_normal(nvc_basis.shape[1]))
    mix = w_s * spatial_part + (1.0 - w_s) * nonspatial_part
    beta3 = -2.0 + np.sqrt(tau2_3) * (standardize(mix) if mix.std(ddof=1) > 0 else mix)
    return np.column_stack([beta1, beta2, beta3])


@dataclass(frozen=True)
class GeneratedInstance:
    sites: SiteSet
    X: np.ndarray  # (N, K); scenario instances have K = 3 with X[:, 0] = 1
    true_betas: np.ndarray  # (N, K)
    y: np.ndarray


@dataclass(frozen=True)
class ScenarioConfig:
    n_sites: int = 150
    site_layout: str = "gaussian_random"
    w_sx: float = 0.4
    w_s: float = 0.5
    tau2_2: float = 1.0
    tau2_3: float = 9.0
    n_iters: int = 10
    seed: int = 1
    estimators: tuple[str, ...] = ESTIMATORS
    max_eigvecs: int = 200
    n_basis_nvc: int = 10
    spline_family: str = "natural_cubic"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # Types first: the range checks below compare numbers.
        problems = []
        for kind, what, names in (
            (numbers.Integral, "an integer", ("n_sites", "n_iters", "seed", "max_eigvecs", "n_basis_nvc")),
            (numbers.Real, "a number", ("w_sx", "w_s", "tau2_2", "tau2_3")),
        ):
            for name in names:
                v = getattr(self, name)
                if isinstance(v, bool) or not isinstance(v, kind):
                    problems.append(f"{name} must be {what}, got {v!r}")
        if not isinstance(self.estimators, (tuple, list)) or not all(isinstance(e, str) for e in self.estimators):
            problems.append(f"estimators must be a list of names, got {self.estimators!r}")
        if problems:
            raise ConfigInvalid("; ".join(problems))
        if self.site_layout not in SITE_LAYOUTS:
            problems.append(f"site_layout must be one of {SITE_LAYOUTS}, got {self.site_layout!r}")
        if self.site_layout == "grid_40x40" and self.n_sites != 1600:
            problems.append("site_layout grid_40x40 requires n_sites = 1600")
        if self.n_sites < 20:
            problems.append(f"n_sites must be >= 20, got {self.n_sites}")
        if self.n_sites > spatial.DEFAULT_MAX_SITES:
            problems.append(f"n_sites must be <= {spatial.DEFAULT_MAX_SITES}, got {self.n_sites}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        for name in ("w_sx", "w_s"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name} must lie in [0, 1], got {v}")
        for name in ("tau2_2", "tau2_3"):
            if not 0.0 < getattr(self, name) < np.inf:
                problems.append(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.n_iters < 1:
            problems.append(f"n_iters must be >= 1, got {self.n_iters}")
        if not self.estimators:
            problems.append("estimators must be nonempty")
        if len(set(self.estimators)) != len(self.estimators):
            problems.append(f"estimators must be distinct, got {list(self.estimators)}")
        for est in self.estimators:
            if est not in ESTIMATORS:
                problems.append(f"unknown estimator {est!r}; choose from {ESTIMATORS}")
        if self.max_eigvecs < 1:
            problems.append("max_eigvecs must be >= 1")
        lo, hi = N_BASIS_RANGE
        if not lo <= self.n_basis_nvc <= hi:
            problems.append(f"n_basis_nvc must lie in [{lo}, {hi}], got {self.n_basis_nvc}")
        if self.spline_family not in FAMILIES:
            problems.append(f"spline_family must be one of {FAMILIES}, got {self.spline_family!r}")
        if problems:
            raise ConfigInvalid("; ".join(problems))


def _grid_sites(nx: int, ny: int) -> SiteSet:
    """The integer points of [1, nx] x [1, ny], the second coordinate varying fastest."""
    px, py = np.meshgrid(np.arange(1, nx + 1, dtype=float), np.arange(1, ny + 1, dtype=float), indexing="ij")
    return SiteSet(np.column_stack([px.ravel(), py.ravel()]))


def _scenario_sites(config: ScenarioConfig, iteration: int) -> SiteSet:
    if config.site_layout == "grid_40x40":
        return _grid_sites(40, 40)
    rng = rng_for(config.seed, iteration, "sites")
    return SiteSet(rng.standard_normal((config.n_sites, 2)))


def gen_instance(config: ScenarioConfig, iteration: int) -> GeneratedInstance:
    """Scenario draw: y = beta1 + x2 beta2 + x3 beta3 + noise."""
    sites = _scenario_sites(config, iteration)
    c_bar = row_standardized_proximity(sites)
    x2 = gen_covariate(rng_for(config.seed, iteration, "covariate-2"), c_bar, config.w_sx)
    x3 = gen_covariate(rng_for(config.seed, iteration, "covariate-3"), c_bar, config.w_sx)
    betas = gen_coefficients(
        rng_for(config.seed, iteration, "coefficients"),
        c_bar,
        config.w_s,
        config.tau2_2,
        config.tau2_3,
        x3,
    )
    n = sites.n_sites
    X = np.column_stack([np.ones(n), x2, x3])
    noise = NOISE_SD * rng_for(config.seed, iteration, "noise").standard_normal(n)
    y = (X * betas).sum(axis=1) + noise
    return GeneratedInstance(sites=sites, X=X, true_betas=betas, y=y)


def gen_toy(seed: int, grid: tuple[int, int] = (40, 40)) -> GeneratedInstance:
    """Grid instance with two distance covariates and exponentially decaying
    true coefficients; no intercept.  The default grid spans 1..40 on both
    axes with decay anchors at the center and the (1, 1) corner.
    """
    nx, ny = grid
    sites = _grid_sites(nx, ny)
    coords = sites.coords

    x1 = np.hypot(coords[:, 0] - nx / 2.0, coords[:, 1] - ny / 2.0)
    x2 = np.hypot(coords[:, 0] - 1.0, coords[:, 1] - 1.0)
    beta1 = np.exp(-x1 / (nx / 2.0))
    beta2 = np.exp(-x2 / float(nx))
    X = np.column_stack([x1, x2])
    betas = np.column_stack([beta1, beta2])
    noise = TOY_NOISE_SD * rng_for(seed, 0, "toy-noise").standard_normal(sites.n_sites)
    y = x1 * beta1 + x2 * beta2 + noise
    return GeneratedInstance(sites=sites, X=X, true_betas=betas, y=y)


@dataclass(frozen=True)
class CorrelationSummary:
    mean: np.ndarray  # (K, K), NaN where no iteration produced a defined value
    counts: np.ndarray  # (K, K) int


def _corr_matrix(fields: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations; numerically constant columns give NaN."""
    n, k = fields.shape
    centered = fields - fields.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    scale = np.abs(fields).max(axis=0) + 1.0
    usable = norms > 1e-12 * scale * np.sqrt(n)
    out = np.full((k, k), np.nan)
    for i in range(k):
        if not usable[i]:
            continue
        out[i, i] = 1.0
        for j in range(i + 1, k):
            if usable[j]:
                r = float(centered[:, i] @ centered[:, j] / (norms[i] * norms[j]))
                out[i, j] = out[j, i] = min(1.0, max(-1.0, r))
    return out


def coef_correlations(fields_per_iteration) -> CorrelationSummary:
    """Pearson correlations across sites, averaged over iterations.

    A constant field leaves its pairs undefined for that iteration; such
    entries are excluded from the mean and tracked in ``counts``.
    """
    fields_per_iteration = [np.asarray(f, dtype=float) for f in fields_per_iteration]
    if not fields_per_iteration:
        raise ValueError("need the fields of at least one iteration")
    k = fields_per_iteration[0].shape[1]
    total = np.zeros((k, k))
    counts = np.zeros((k, k), dtype=int)
    for f in fields_per_iteration:
        cc = _corr_matrix(f)
        ok = np.isfinite(cc)
        total[ok] += cc[ok]
        counts += ok
    mean = np.where(counts > 0, total / np.maximum(counts, 1), np.nan)
    return CorrelationSummary(mean=mean, counts=counts)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def predict_estimator(
    estimator: str,
    inst: GeneratedInstance,
    spatial: SpatialBasis | None = None,
    n_basis: int = 10,
    spline_family: str = "natural_cubic",
) -> tuple[np.ndarray, bool]:
    """Per-site coefficient predictions (N x K) of one estimator on ``inst.X``,
    and whether its REML fit converged (True for estimators without one).

    LM and GWR regress on ``inst.X`` as it stands (a scenario's X holds its
    ones column).  NVC terms go on every non-constant column.  An SVC
    estimator needs ``spatial``: without it ``build_design`` raises
    EmptySpatialBasis.
    """
    X, y = inst.X, inst.y
    if estimator == "LM":
        coefs, *_ = np.linalg.lstsq(X, y, rcond=None)
        return np.tile(coefs, (X.shape[0], 1)), True
    if estimator in ("GWR", "GWR_A"):
        kernel = "exponential_fixed" if estimator == "GWR" else "exponential_adaptive"
        return select_bandwidth(inst.sites, X, y, kernel, include_intercept=False).local_coefs, True
    if estimator not in ("SVC_M", "NVC_M", "SNVC_M"):
        raise ConfigInvalid(f"unknown estimator {estimator!r}")
    with_svc, with_nvc = estimator != "NVC_M", estimator != "SVC_M"
    k = X.shape[1]
    spec = ModelSpec(
        covariate_names=tuple(f"x{j + 1}" for j in range(k)),
        has_svc=(with_svc,) * k,
        has_nvc=tuple(with_nvc and bool(X[:, j].min() != X[:, j].max()) for j in range(k)),
        n_basis_nvc=n_basis,
        spline_family=spline_family,
    )
    fit, fld = fit_snvc(X, y, spec, spatial if with_svc else None)
    return fld.total, fit.converged


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    rmse: dict  # estimator -> (K,) array
    mean_cc: dict  # estimator -> (K, K) array
    cc_counts: dict  # estimator -> (K, K) int array
    true_mean_cc: np.ndarray
    true_cc_counts: np.ndarray
    mean_fit_seconds: dict  # estimator -> float
    failures: dict  # estimator -> int
    n_success: dict  # estimator -> int
    n_unconverged: dict  # estimator -> int, successes whose REML fit did not converge

    def to_payload(self, include_timing: bool = True) -> dict:
        """JSON-ready nested dict; timing is the only nondeterministic part."""
        config = asdict(self.config)
        config["estimators"] = list(config["estimators"])
        payload = {
            "config": config,
            "rmse": {e: _floats(v) for e, v in self.rmse.items()},
            "mean_cc": {e: _float_rows(v) for e, v in self.mean_cc.items()},
            "cc_counts": {e: np.asarray(v).astype(int).tolist() for e, v in self.cc_counts.items()},
            "true_mean_cc": _float_rows(self.true_mean_cc),
            "true_cc_counts": np.asarray(self.true_cc_counts).astype(int).tolist(),
            "failures": dict(self.failures),
            "n_success": dict(self.n_success),
            "n_unconverged": dict(self.n_unconverged),
        }
        if include_timing:
            payload["timing"] = {"mean_fit_seconds": dict(self.mean_fit_seconds)}
        return payload


def _floats(a) -> list:
    return [float(v) if np.isfinite(v) else None for v in np.asarray(a, dtype=float)]


def _float_rows(a) -> list:
    return [_floats(row) for row in np.asarray(a, dtype=float)]


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run every estimator on identical generated instances and aggregate.

    Per-iteration estimator failures are counted and that iteration is
    dropped from the failing estimator's aggregates only.  A fit that did
    not converge still counts as a success, and also in ``n_unconverged``.
    Deterministic given the config (timings aside); the config checked
    itself when it was built.
    """
    k = 3
    needs_basis = any(e in ("SVC_M", "SNVC_M") for e in config.estimators)
    runs = {e: [] for e in config.estimators}  # (truth, prediction, seconds, converged) per success
    failures = dict.fromkeys(config.estimators, 0)
    true_fields = []
    basis = None
    for it in range(config.n_iters):
        inst = gen_instance(config, it)
        true_fields.append(inst.true_betas)
        # Grid sites never change across iterations, so the grid keeps its first basis.
        if needs_basis and not (config.site_layout == "grid_40x40" and basis is not None):
            basis = moran_basis(inst.sites, max_components=config.max_eigvecs)
        for est in config.estimators:
            t0 = time.perf_counter()
            try:
                pred, converged = predict_estimator(est, inst, basis, config.n_basis_nvc, config.spline_family)
            except SnvcError:
                failures[est] += 1
                continue
            runs[est].append((inst.true_betas, pred, time.perf_counter() - t0, converged))

    cc = {
        e: coef_correlations([r[1] for r in rs])
        if rs
        else CorrelationSummary(np.full((k, k), np.nan), np.zeros((k, k), dtype=int))
        for e, rs in runs.items()
    }
    true_cc = coef_correlations(true_fields)
    return ScenarioReport(
        config=config,
        rmse={
            e: np.sqrt(sum(((t - p) ** 2).sum(axis=0) for t, p, *_ in rs) / len(rs)) if rs else np.full(k, np.nan)
            for e, rs in runs.items()
        },
        mean_cc={e: s.mean for e, s in cc.items()},
        cc_counts={e: s.counts for e, s in cc.items()},
        true_mean_cc=true_cc.mean,
        true_cc_counts=true_cc.counts,
        mean_fit_seconds={e: sum(r[2] for r in rs) / len(rs) if rs else float("nan") for e, rs in runs.items()},
        failures=failures,
        n_success={e: len(rs) for e, rs in runs.items()},
        n_unconverged={e: sum(not r[3] for r in rs) for e, rs in runs.items()},
    )
