"""Median, quartiles and spread of each metric over several runs.

    python3 perfbench/summarize.py .perfbench_out/*-trace0.json
    python3 perfbench/summarize.py --json .perfbench_out/*.json > perfbench/results/baseline.json

Reads the per-run result files that ``run.py`` writes and groups them by
workload: end-to-end metrics from untraced runs, per-layer metrics from
traced ones. The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
each end-to-end bound in BENCHMARK.json is compared with.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _rows(per_run: list[dict]) -> dict:
    metrics: dict[str, list[float]] = {}
    for values in per_run:
        for key, value in values.items():
            metrics.setdefault(key, []).append(value)
    rows = {}
    for key, values in sorted(metrics.items()):
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        rows[key] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                     "spread": (q3 - q1) / median if median else 0.0}
    return rows


def collect(paths: list[Path]) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    out = {}
    for workload, results in sorted(runs.items()):
        plain = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        out[workload] = {
            "seeds": sorted(r["seed"] for r in plain),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "seconds": results[0]["seconds"],
            "failed": sum(len(r["failed"]) for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "env": results[0]["env"],
            "metrics": _rows([r["end_to_end"] for r in plain]),
            "per_layer": _rows([r["per_layer"] for r in traced]),
        }
    return out


def main(argv: list[str]) -> int:
    as_json = argv[:1] == ["--json"]
    summary = collect([Path(p) for p in argv[as_json:]])
    if as_json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    for workload, s in summary.items():
        print(f"{workload}  runs={len(s['seeds'])}  failed {s['failed']}/{s['attempted']} checks")
        for key, row in s["metrics"].items():
            print(f"  {key:28s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {100 * row['spread']:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
