"""snvc benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload fit-grid1600 --seed 11 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process is one closed-loop caller.  After one untimed warm-up
call it repeats the workload's user-level call on inputs made from the seed
(call i uses seed + i * STRIDE), at least MIN_CALLS times and then until the
next call would overrun ``--seconds``, checks every call's outputs, and
prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's end_to_end list,
measured untraced, with each call's time divided by the machine's slowdown
gauged during it (see gauge.py).  With ``--trace 1`` they are its per_layer
list: each input is run once untraced and once traced, in alternating order,
spans are recorded around the package functions each layer calls, and
per-layer numbers are given per call.  The full record, spans included, goes
to ``.bench_out/``.  ``--smoke`` shrinks every workload to a few seconds of
work.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP read their thread count once, when numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Seed offset between successive calls of one run, so that runs with nearby
# seeds do not share inputs.
STRIDE = 100_003
# Set-up is sampled SETUP_SAMPLES times a run, between calls and due at
# evenly spaced times, so that a slow phase of a shared host weighs on it no
# more than on the calls.
SETUP_SAMPLES = 7
# A fit call takes about 20 s, so a run of 60 s would otherwise hold a single
# call whenever the first one met a slow phase.
MIN_CALLS = 2

# Per-layer metrics that are not a span statistic: name -> span whose mean
# probe value they report.
PROBED = {
    "core.system_size": "core.precompute_crossproducts",
    "spatial.n_components": "spatial.moran_eigen_basis",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="default: the workload's own (11 toy, 3 scenario)")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"  # a source checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least 10 samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return "too few calls for a tail percentile (one needs 10 samples beyond it)"
    pct = int(100 * (1 - 10 / n))
    return f"p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.6g} s"


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat the workload's call while the next one fits in ``seconds``.

    An untraced run gauges the machine's slowdown during every call and
    takes set-up samples, gauged the same way, between calls.
    """
    from gauge import Gauge, setup_seconds
    from tracing import Tracer
    from workloads import CALL_ERRORS

    r = {"plain": [], "timed": [], "outcomes": [], "missing": [], "tracer": Tracer()}
    r.update(slowdowns=[], setup=[], setup_slowdowns=[])
    tracer = r["tracer"]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def sample_setup():
        wall, slowdown = setup_seconds(env)
        r["setup"].append(wall)
        r["setup_slowdowns"].append(slowdown)

    # One untimed call at the smallest size first, so that lazy imports and
    # first-use costs inside numpy, scipy and the package are not timed.
    warm = type(workload)(OUT, tiny=True)
    warm.entry()(*warm.prepare(seed))
    gauge = None if traced else Gauge()
    start = time.perf_counter()
    step = 0.0  # time of the calls so far
    with workload.session():
        i = 0
        while True:
            t_step = time.perf_counter()
            args = workload.prepare(seed + STRIDE * i)
            # Alternate which of a pair goes first, so that neither gains
            # from the warm caches the other leaves.
            for trace_this in ((i % 2 == 1, i % 2 == 0) if traced else (False,)):
                tracer.op = i
                with tracer.installed() if trace_this else contextlib.nullcontext([]) as gone:
                    fn = workload.entry()
                    if trace_this:
                        r["missing"] = gone
                        fn = tracer.wrap(workload.root, fn)
                    with gauge.during() if gauge else contextlib.nullcontext({}) as gauged:
                        t0 = time.perf_counter()
                        try:
                            result = fn(*args)
                        except CALL_ERRORS as exc:
                            result = exc
                        elapsed = time.perf_counter() - t0
                if gauge:
                    elapsed -= gauged["cost"]
                    r["slowdowns"].append(gauged["slowdown"])
                r["timed" if trace_this else "plain"].append(elapsed)
                r["outcomes"].append(workload.evaluate(args, result))
            if i == 0:
                # Read after one call: the heap's high-water mark creeps up
                # with each further call, and the number of calls varies.
                r["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            i += 1
            step += time.perf_counter() - t_step
            used = time.perf_counter() - start
            while not traced and len(r["setup"]) < min(SETUP_SAMPLES, SETUP_SAMPLES * used / seconds):
                sample_setup()
            if i >= MIN_CALLS and time.perf_counter() - start + step / i > seconds:
                break
    while not traced and len(r["setup"]) < SETUP_SAMPLES:
        sample_setup()
    return r


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (SRC / "snvc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'snvc'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from workloads import WORKLOADS, quality

    if opts.workload not in WORKLOADS:
        print(f"error: unknown workload {opts.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[opts.workload](OUT, tiny=opts.smoke)
    seed = workload.default_seed if opts.seed is None else opts.seed
    traced = bool(opts.trace)

    env = environment()
    r = run(workload, seed, opts.seconds, traced)
    plain, timed, outcomes, missing = r["plain"], r["timed"], r["outcomes"], r["missing"]

    values = quality(outcomes)
    if traced:
        n_ops = len(timed)
        stats = r["tracer"].layer_stats(n_ops)
        self_total = sum(s["self_s"] for s in stats.values())
        values["trace.solve_s"] = statistics.median(timed)
        values["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
        values["trace.self_total_s"] = self_total
        for name, st in stats.items():
            for field in ("calls", "s", "self_s", "failed", "us_per_call"):
                values[f"{name}.{field}"] = st[field]
        for name, span in PROBED.items():
            if span in stats and stats[span]["value"] is not None:
                values[name] = stats[span]["value"]
        wanted = spec["per_layer"]
    else:
        values["setup_s"] = statistics.median(s / f for s, f in zip(r["setup"], r["setup_slowdowns"]))
        values["wall.setup_s"] = statistics.median(r["setup"])
        values["solve_s"] = statistics.fmean(c / f for c, f in zip(plain, r["slowdowns"]))
        values["wall.solve_s"] = statistics.fmean(plain)
        values["machine.slowdown"] = statistics.median(r["slowdowns"])
        values["peak_rss_mb"] = r["peak_rss_mb"]
        wanted = spec["end_to_end"]

    problems = [p for o in outcomes for p in o["problems"]]
    if traced:
        # Self times partition the traced calls, so they must add up to them;
        # the slack covers the root span's own bookkeeping.
        traced_mean = sum(timed) / len(timed)
        if abs(self_total - traced_mean) > 1e-3 * traced_mean:
            problems.append(f"self times {self_total:.6f} s != traced call {traced_mean:.6f} s")

    # JSON has no NaN: a statistic left undefined by failed calls is not measured.
    values = {k: v for k, v in values.items() if math.isfinite(v)}
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    not_measured = [m["name"] for m in wanted if m["name"] not in values]
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "environment": env,
        "calls": len(plain),
        "solve_s_samples": plain,
        "slowdowns": r["slowdowns"],
        "setup_s_samples": r["setup"],
        "setup_slowdowns": r["setup_slowdowns"],
        "traced_solve_s_samples": timed,
        "values": values,
        "missing_trace_points": missing,
        "problems": problems,
    }
    if traced:
        record["spans"] = r["tracer"].to_rows()
    name = f"{workload.name}-seed{seed}-trace{opts.trace}{'-smoke' if opts.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {seed}  calls {len(plain)}  trace {opts.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"solve_s over {len(plain)} calls: median {statistics.median(plain):.6g} s; "
        + tail_percentile(plain)
    )
    for key in sorted(values):
        print(f"  {key:40s} {values[key]:.6g}")
    if not_measured:
        print("not measured on this workload (reported as 0): " + ", ".join(not_measured))
    if missing:
        print("trace points absent from the package: " + ", ".join(missing))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
