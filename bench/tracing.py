"""In-memory spans for the traced benchmark run.

A span records one call into a package function: its name, the operation
(user-level call) it belongs to, its parent span, start, end and the error
class if the call raised.  Spans are kept in a list and written out when the
run ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.

Wrappers are installed where the caller looks a name up (``snvc.cli.fit_snvc``,
not ``snvc.core.fit_snvc``), because a name imported with ``from ... import``
is a separate binding that a wrapper on the defining module would miss.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name, probe).  A probe turns the call's result into
# one number kept on the span.  Attribute paths may go through a class.
TRACE_POINTS = (
    ("snvc.cli", "fit_command", "cli.fit_command", None),
    ("snvc.cli", "load_table", "cli.load_table", None),
    ("snvc.cli", "write_table", "cli.write_table", None),
    ("snvc.cli", "fit_snvc", "core.fit_snvc", None),
    ("snvc.cli", "mst_range", "spatial.mst_range", None),
    ("snvc.cli", "build_proximity", "spatial.build_proximity", None),
    ("snvc.cli", "moran_eigen_basis", "spatial.moran_eigen_basis", lambda b: b.n_components),
    ("snvc.simlab", "gen_instance", "simlab.gen_instance", None),
    ("snvc.simlab", "fit_snvc", "core.fit_snvc", None),
    ("snvc.simlab", "select_bandwidth", "gwr.select_bandwidth", None),
    ("snvc.simlab", "mst_range", "spatial.mst_range", None),
    ("snvc.simlab", "build_proximity", "spatial.build_proximity", None),
    ("snvc.simlab", "moran_eigen_basis", "spatial.moran_eigen_basis", lambda b: b.n_components),
    ("snvc.simlab", "spline_basis", "splines.spline_basis", None),
    ("snvc.core", "spline_basis", "splines.spline_basis", None),
    ("snvc.core", "build_design", "core.build_design", None),
    (
        "snvc.core",
        "precompute_crossproducts",
        "core.precompute_crossproducts",
        lambda cp: cp.n_fixed + cp.n_random,
    ),
    ("snvc.core", "fit_reml", "core.fit_reml", None),
    ("snvc.core", "restricted_loglik", "core.restricted_loglik", None),
    ("snvc.core", "predict_coefficients", "core.predict_coefficients", None),
    ("snvc.gwr", "gwr_fit_at", "gwr.gwr_fit_at", None),
    ("snvc.spatial", "SiteSet.distances", "spatial.distances", None),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index into Tracer.spans; -1 for the user-level call
    start: float
    end: float = 0.0
    error: str | None = None
    value: float | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._open[-1] if self._open else -1, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if probe is not None:
                span.value = float(probe(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block.

        Yields the trace points whose name no longer exists; their metrics
        are reported as absent rather than failing the run.
        """
        saved, missing = [], []
        try:
            for module_name, path, span_name, probe in TRACE_POINTS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    missing.append(f"{module_name}.{path}")
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original, probe))
            yield missing
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_stats(self, n_ops: int) -> dict:
        """Per span name: calls, inclusive and self seconds and failed calls,
        each per operation, plus the mean probe value and seconds per call."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        agg: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "values": []})
            a["calls"] += 1
            a["s"] += s.end - s.start
            a["self_s"] += s.end - s.start - child[i]
            a["failed"] += s.error is not None
            if s.value is not None:
                a["values"].append(s.value)
        return {
            name: {
                "calls": a["calls"] / n_ops,
                "s": a["s"] / n_ops,
                "self_s": a["self_s"] / n_ops,
                "failed": a["failed"] / n_ops,
                "us_per_call": 1e6 * a["s"] / a["calls"],
                "value": sum(a["values"]) / len(a["values"]) if a["values"] else None,
            }
            for name, a in agg.items()
        }

    def to_rows(self) -> list:
        return [[s.name, s.op, s.parent, s.start, s.end, s.error] for s in self.spans]
