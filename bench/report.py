"""Run every workload untraced and traced and print all metrics in one table.

    python3 bench/report.py            # full size, default seeds, run_seconds a run
    python3 bench/report.py --smoke    # tiny inputs, under a minute in all

Each run is a separate ``bench/run.py`` process, so peak memory is per
workload.  The script checks what the benchmark promises about its output:
the last line is one JSON object with exactly the keys correct, attempted,
failed and metrics; every metric BENCHMARK.json lists for that mode is there
with its unit; every metric is measured on at least one workload; and every
correctness check passed.  It exits 1 if any of that fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run_one(workload: str, trace: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = "-smoke" if smoke else ""
    record_path = max(
        (ROOT / ".bench_out").glob(f"{workload}-seed*-trace{trace}{suffix}.json"),
        key=lambda p: p.stat().st_mtime,
    )
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true")
    opts = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1.0 if opts.smoke else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    problems = []
    table: dict[str, dict[str, str]] = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        measured = set()
        for w in workloads:
            result, record = run_one(w, trace, seconds, opts.smoke)
            if set(result) != KEYS:
                problems.append(f"{w} trace {trace}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{w} trace {trace}: checks failed: {record['problems']}")
            if result["attempted"] < 1:
                problems.append(f"{w} trace {trace}: nothing attempted")
            if set(result["metrics"]) != {m["name"] for m in spec[section]}:
                problems.append(f"{w} trace {trace}: metric names differ from BENCHMARK.json")
            for m in spec[section]:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{w} trace {trace}: {m['name']} lacks a value in {m['unit']}")
                elif m["name"] in record["values"]:
                    measured.add(m["name"])
                    table.setdefault(m["name"], {})[w] = f"{got['value']:.4g}"
        for m in spec[section]:
            if m["name"] not in measured:
                problems.append(f"{m['name']} is measured on no workload")

    print(f"{'metric':38s} {'unit':9s}" + "".join(f"{w:>16s}" for w in workloads))
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            row = table.get(m["name"], {})
            cells = "".join(f"{row.get(w, 'n/a'):>16s}" for w in workloads)
            print(f"{m['name']:38s} {m['unit']:9s}{cells}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
