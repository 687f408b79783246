"""Command-line surface: CSV ingestion, model fitting, simulation, and basis export.

Subcommands
-----------
``snvc fit``       fit the varying-coefficient model to a CSV dataset and write
                   a JSON report plus a per-site coefficient CSV
``snvc simulate``  run a seeded Monte Carlo scenario and write its report
``snvc basis``     export the Moran eigenvectors/eigenvalues for inspection

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(including a file that cannot be opened), 4 numerical failure.  On failure a
machine-readable error object is printed to stderr.  Every output file embeds
the resolved configuration; CSV outputs carry it in a leading ``#`` comment
line, which the loader ignores.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from . import simlab
from .core import ModelSpec, fit_snvc
from .errors import (
    ConfigInvalid,
    DataError,
    EmptyAfterFiltering,
    MissingColumn,
    ParseError,
    SnvcError,
)
from .spatial import SiteSet, moran_basis
from .splines import N_BASIS_RANGE

_MISSING_TOKENS = {"", "na", "nan", "null", "n/a"}
_MAX_EIGVECS = 200
_MIN_FIT_ROWS = 10

INTERCEPT_NAME = "intercept"


@dataclass(frozen=True)
class TableSchema:
    coord_x: str
    coord_y: str
    response: str | None
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        if self.response is not None and self.response in (self.coord_x, self.coord_y):
            raise ConfigInvalid("coordinate columns must be distinct from the response")
        if self.response is not None and self.response in self.covariates:
            raise ConfigInvalid(f"the response {self.response!r} cannot also be a covariate")
        if len(set(self.covariates)) != len(self.covariates):
            raise ConfigInvalid(f"covariates must be distinct, got {list(self.covariates)}")

    @property
    def designated(self) -> tuple[str, ...]:
        cols = [self.coord_x, self.coord_y]
        if self.response is not None:
            cols.append(self.response)
        cols.extend(self.covariates)
        return tuple(dict.fromkeys(cols))


@dataclass(frozen=True)
class DataTable:
    coords: np.ndarray  # (N, 2)
    y: np.ndarray | None
    X: np.ndarray  # (N, n_covariates)
    n_dropped: int

    @property
    def n_rows(self) -> int:
        return self.coords.shape[0]


def load_table(path: str, schema: TableSchema) -> DataTable:
    """Read the designated columns of a headered CSV file.

    Rows with a missing or non-finite designated value are dropped (the count
    is reported on the table); unparseable tokens, non-UTF-8 bytes included,
    raise ParseError with the file line and column, and a record the csv
    module rejects (a field over its size limit, say) or one of the wrong
    length a ParseError at that line that says what is wrong, as does a
    header that names a designated column twice.  Blank, whitespace-only and
    ``#`` lines are ignored, and so is a UTF-8 byte-order mark.
    """
    header = None
    kept: list[list[float]] = []
    n_dropped = 0
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        for row in _records(reader):
            if (len(row) < 2 and not "".join(row).strip()) or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [h.strip() for h in row]
                for col in schema.designated:
                    if col not in header:
                        raise MissingColumn(col)
                    if header.count(col) > 1:
                        raise ParseError(reader.line_num, col, None, "the header repeats the column")
                positions = {col: header.index(col) for col in schema.designated}
                continue
            if len(row) != len(header):
                raise ParseError(reader.line_num, "*", None, f"expected {len(header)} fields, got {len(row)}")
            values = []
            for col, i in positions.items():
                token = row[i].strip()
                if token.lower() in _MISSING_TOKENS:
                    break
                try:
                    v = float(token)
                except ValueError as exc:
                    raise ParseError(reader.line_num, col, token) from exc
                if not math.isfinite(v):
                    break
                values.append(v)
            else:
                kept.append(values)
                continue
            n_dropped += 1

    if header is None:
        raise EmptyAfterFiltering(f"{path} has no header row")
    if not kept:
        raise EmptyAfterFiltering(f"{path}: no rows remain after dropping incomplete ones")
    data = np.asarray(kept, dtype=float)
    cols = {col: data[:, i] for i, col in enumerate(schema.designated)}
    coords = np.column_stack([cols[schema.coord_x], cols[schema.coord_y]])
    y = cols[schema.response] if schema.response is not None else None
    X = (
        np.column_stack([cols[c] for c in schema.covariates])
        if schema.covariates
        else np.empty((data.shape[0], 0))
    )
    return DataTable(coords=coords, y=y, X=X, n_dropped=n_dropped)


def _records(reader):
    """The rows of the csv ``reader``, with a ``csv.Error`` raised as a ParseError at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(reader.line_num, "*", None, str(exc)) from exc


def write_table(path: str, header: list[str], rows: Iterable, comment: str | None = None) -> None:
    """CSV writer for any iterable of rows, a 2-D array or a generator alike:
    text cells are written as they are, every other cell as shortest
    round-trip float text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# Fit report
# ---------------------------------------------------------------------------


# A field's place in the JSON report, where it is not a top-level key named
# after the field: "key" renames it, "under" nests it in that object.
_ESTIMATE = {"under": "estimates"}


@dataclass(frozen=True)
class FitReport:
    config: dict
    covariate_names: tuple[str, ...] = field(metadata={"key": "covariates"})
    b_hat: tuple[float, ...] = field(metadata=_ESTIMATE)
    tau2_s: tuple[float, ...] = field(metadata=_ESTIMATE)
    alpha: tuple[float, ...] = field(metadata=_ESTIMATE)
    tau2_n: tuple[float, ...] = field(metadata=_ESTIMATE)
    sigma2: float = field(metadata=_ESTIMATE)
    restricted_loglik: float = field(metadata=_ESTIMATE)
    svc_share: dict  # covariate name -> share of spatial variation
    sd_svc: tuple[float, ...]
    sd_nvc: tuple[float, ...]
    converged: bool
    n_loglik_evals: int
    inactive_terms: tuple[str, ...]  # "name:svc" or "name:nvc"; their tau2 is exactly 0
    n_obs: int
    n_eigvecs: int
    n_dropped_rows: int
    timing_seconds: float

    def to_json(self) -> str:
        payload = {}
        for f in fields(self):
            obj = payload.setdefault(f.metadata["under"], {}) if "under" in f.metadata else payload
            obj[f.metadata.get("key", f.name)] = getattr(self, f.name)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        payload = json.loads(text)
        values = {}
        for f in fields(cls):
            obj = payload[f.metadata["under"]] if "under" in f.metadata else payload
            value = obj[f.metadata.get("key", f.name)]
            # The tuple fields are the report's only JSON arrays.
            values[f.name] = tuple(value) if isinstance(value, list) else value
        return cls(**values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _resolve_term_list(raw: str, names: list[str], default: list[str], what: str) -> list[str]:
    if raw == "all":
        return list(default)
    if raw == "none":
        return []
    chosen = [t.strip() for t in raw.split(",") if t.strip()]
    for t in chosen:
        if t not in names:
            raise ConfigInvalid(f"--{what} names unknown covariate {t!r}; available: {names}")
    return chosen


def fit_command(args) -> int:
    covariates = [c.strip() for c in args.x.split(",") if c.strip()]
    if not covariates:
        raise ConfigInvalid("--x must name at least one covariate column")
    if INTERCEPT_NAME in covariates:
        raise ConfigInvalid(f"--x cannot name a column {INTERCEPT_NAME!r}: the model adds its own intercept")
    lo, hi = N_BASIS_RANGE
    if not lo <= args.n_basis <= hi:
        raise ConfigInvalid(f"--n-basis must lie in [{lo}, {hi}], got {args.n_basis}")
    cx, cy = _parse_coords(args.coords)
    schema = TableSchema(coord_x=cx, coord_y=cy, response=args.y, covariates=tuple(covariates))
    table = load_table(args.data, schema)
    # REML needs more rows than fixed effects: the intercept and the covariates.
    min_rows = max(_MIN_FIT_ROWS, len(covariates) + 2)
    if table.n_rows < min_rows:
        raise EmptyAfterFiltering(f"need at least {min_rows} complete rows to fit, got {table.n_rows}")
    for name, col in zip(covariates, table.X.T):
        if col.min() == col.max():  # exact, with no arithmetic to overflow
            raise DataError(f"covariate {name!r} is constant: it duplicates the intercept; drop it from --x")

    y = table.y
    if args.log_response:
        if np.any(y <= 0):
            raise DataError("--log-response requires a strictly positive response")
        y = np.log(y)

    names = [INTERCEPT_NAME] + covariates
    n = table.n_rows
    X = np.column_stack([np.ones(n), table.X])

    svc_terms = _resolve_term_list(args.svc, names, default=names, what="svc")
    nvc_terms = _resolve_term_list(args.nvc, names, default=covariates, what="nvc")
    if INTERCEPT_NAME in nvc_terms:
        raise ConfigInvalid("the intercept cannot carry a non-spatial term")

    spline = {"natural": "natural_cubic", "thinplate": "thin_plate_1d"}[args.spline]
    spec = ModelSpec(
        covariate_names=tuple(names),
        has_svc=tuple(c in svc_terms for c in names),
        has_nvc=tuple(c in nvc_terms for c in names),
        n_basis_nvc=args.n_basis,
        spline_family=spline,
    )

    t0 = time.perf_counter()
    sites = SiteSet(table.coords)
    spatial = None
    if any(spec.has_svc):
        spatial = moran_basis(sites, max_components=_MAX_EIGVECS)
    fit, fld = fit_snvc(X, y, spec, spatial)
    elapsed = time.perf_counter() - t0

    config_echo = {
        "command": "fit",
        "data": args.data,
        "y": args.y,
        "x": covariates,
        "coords": [cx, cy],
        "svc": svc_terms,
        "nvc": nvc_terms,
        "n_basis": args.n_basis,
        "spline": args.spline,
        "log_response": bool(args.log_response),
        "max_eigvecs": _MAX_EIGVECS,
    }
    report = FitReport(
        config=config_echo,
        covariate_names=tuple(names),
        b_hat=tuple(float(v) for v in fit.b_hat),
        tau2_s=tuple(float(v) for v in fit.theta.tau2_s),
        alpha=tuple(float(v) for v in fit.theta.alpha),
        tau2_n=tuple(float(v) for v in fit.theta.tau2_n),
        sigma2=float(fit.theta.sigma2),
        restricted_loglik=float(fit.restricted_loglik),
        svc_share={name: round(float(s), 3) for name, s in zip(names, fld.svc_share)},
        sd_svc=tuple(float(v) for v in fld.sd_svc),
        sd_nvc=tuple(float(v) for v in fld.sd_nvc),
        converged=bool(fit.converged),
        n_loglik_evals=int(fit.n_loglik_evals),
        inactive_terms=fit.inactive_terms,
        n_obs=n,
        n_eigvecs=spatial.n_components if spatial is not None else 0,
        n_dropped_rows=table.n_dropped,
        timing_seconds=elapsed,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")

    header = ["site_id", "coord_x", "coord_y"]
    cols = [table.coords[:, 0], table.coords[:, 1]]
    for k, name in enumerate(names):
        header += [f"{name}_mean", f"{name}_svc", f"{name}_nvc", f"{name}_total"]
        cols += [np.full(n, fld.mean[k]), fld.svc[:, k], fld.nvc[:, k], fld.total[:, k]]
    rows = ([str(i), *row.tolist()] for i, row in enumerate(np.column_stack(cols)))  # site_id as integer text
    write_table(args.coef_out, header, rows, comment=json.dumps(config_echo))
    return 0


def simulate_command(args) -> int:
    base = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                base = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigInvalid(f"--config is not a JSON file: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigInvalid("--config must hold a JSON object of ScenarioConfig fields")
        unknown = set(base) - set(simlab.ScenarioConfig.__dataclass_fields__)
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    for name in ("n_sites", "n_iters", "seed", "w_s", "w_sx"):
        if getattr(args, name) is not None:
            base[name] = getattr(args, name)
    if args.tau2 is not None:
        parts = args.tau2.split(",")
        if len(parts) != 2:
            raise ConfigInvalid("--tau2 expects two comma-separated values, e.g. 1,9")
        try:
            base["tau2_2"], base["tau2_3"] = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigInvalid(f"--tau2 expects two numbers, got {args.tau2!r}") from exc
    if args.layout is not None:
        base["site_layout"] = {"grid": "grid_40x40", "gaussian": "gaussian_random"}[args.layout]
        if args.layout == "grid":
            base.setdefault("n_sites", 1600)
    if args.estimators is not None:
        base["estimators"] = tuple(e.strip() for e in args.estimators.split(",") if e.strip())
    if isinstance(base.get("estimators"), list):
        base["estimators"] = tuple(base["estimators"])

    # The config checks itself when it is built, before any data is drawn.
    report = simlab.run_scenario(simlab.ScenarioConfig(**base))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_payload(include_timing=True), indent=2) + "\n")
    return 0


def basis_command(args) -> int:
    cx, cy = _parse_coords(args.coords)
    table = load_table(args.data, TableSchema(coord_x=cx, coord_y=cy, response=None))
    if table.n_rows < 2:
        raise EmptyAfterFiltering(f"need at least 2 complete rows for a basis, got {table.n_rows}")
    sites = SiteSet(table.coords)
    basis = moran_basis(sites)

    n, L = sites.n_sites, basis.n_components
    header = ["kind", "site_id", "coord_x", "coord_y"] + [f"ev_{i + 1}" for i in range(L)]
    config_echo = {"command": "basis", "data": args.data, "coords": [cx, cy], "range_r": basis.range_r}
    # One row at a time: an N x L list of floats would not fit at N = 10,000.
    rows = itertools.chain(
        [["eigenvalue", "", "", "", *basis.eigvals.tolist()]],
        (["site", str(i), *table.coords[i].tolist(), *basis.eigvecs[i].tolist()] for i in range(n)),
    )
    write_table(args.out, header, rows, comment=json.dumps(config_echo))
    return 0


def _parse_coords(raw: str) -> tuple[str, str]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ConfigInvalid("--coords expects two comma-separated column names, e.g. px,py")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snvc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the varying-coefficient model to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--y", required=True, help="response column")
    p_fit.add_argument("--x", required=True, help="comma-separated covariate columns")
    p_fit.add_argument("--coords", required=True, help="coordinate columns, e.g. px,py")
    p_fit.add_argument("--svc", default="all", help="'all', 'none', or covariate list (intercept allowed)")
    p_fit.add_argument("--nvc", default="all", help="'all', 'none', or covariate list")
    p_fit.add_argument("--n-basis", type=int, default=10, dest="n_basis")
    p_fit.add_argument("--spline", choices=("natural", "thinplate"), default="natural")
    p_fit.add_argument("--log-response", action="store_true", dest="log_response")
    p_fit.add_argument("--out", required=True, help="JSON report path")
    p_fit.add_argument("--coef-out", required=True, dest="coef_out", help="per-site coefficient CSV path")
    p_fit.set_defaults(func=fit_command)

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo scenario")
    p_sim.add_argument("--config", help="JSON file with ScenarioConfig fields")
    p_sim.add_argument("--n", type=int, dest="n_sites")
    p_sim.add_argument("--iters", type=int, dest="n_iters")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--w-s", type=float, dest="w_s")
    p_sim.add_argument("--w-sx", type=float, dest="w_sx")
    p_sim.add_argument("--tau2", help="two comma-separated variances, e.g. 1,9")
    p_sim.add_argument("--layout", choices=("grid", "gaussian"))
    p_sim.add_argument("--estimators", help="comma list from LM,GWR,GWR_A,SVC_M,SNVC_M")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=simulate_command)

    p_basis = sub.add_parser("basis", help="export Moran eigenvectors/eigenvalues")
    p_basis.add_argument("--data", required=True)
    p_basis.add_argument("--coords", required=True)
    p_basis.add_argument("--out", required=True)
    p_basis.set_defaults(func=basis_command)

    return parser


def _emit_error(exc: Exception) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(obj), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        _emit_error(exc)
        return 2
    except (DataError, OSError) as exc:
        _emit_error(exc)
        return 3
    except (SnvcError, np.linalg.LinAlgError) as exc:
        _emit_error(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
