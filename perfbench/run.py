"""tinylm benchmark: one workload per run, each step in a fresh process.

    python3 perfbench/run.py --workload demo_pipeline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Run from the repository root. A run sets up the workload's inputs from the
seed three times, each in a fresh process (``setup_s`` is the median wall
time of those processes, interpreter start and imports included), then runs
a closed loop of jobs in one more fresh process for ``--seconds``: one
caller runs the job to completion, then runs it again. ``peak_rss_mb`` is
that process's ``ru_maxrss``. With ``--trace 1`` the loop alternates
untraced and traced jobs; the traced ones give the per-layer metrics and the
difference of the two ``run_s`` is the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count correctness checks, and ``metrics`` holds
the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``). Everything else measured is printed above it and
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_ROOT = ROOT / ".perfbench_tmp"
WORKLOADS = ("demo_pipeline", "inherit_gqa", "decode_score", "tokenize_large")
SETUPS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "train_tokens_per_s": "tokens/s",
    "decode_tokens_per_s.ctx64": "tokens/s",
    "decode_tokens_per_s.ctx256": "tokens/s",
    "cloze_items_per_s": "items/s",
    "eval_tokens_per_s": "tokens/s",
    "bpe_bytes_per_s": "B/s",
    "encode_bytes_per_s": "B/s",
    "holdout_ppl": "ppl",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("self_share.") or name == "trace.overhead":
        return "%"
    if ".decode_step_ms." in name:
        return "ms"
    if name.endswith("_s") or name.startswith("self_s."):
        return "s"
    return {"evaluator.forward_calls_per_item": "calls/item",
            "tokenizer.encoded_bytes_ratio": "x",
            "pipeline.artifact_bytes": "B"}.get(name, "count")


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it
    (nearest-rank), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(values)[max(0, math.ceil(p * n / 100) - 1)]


def timing_line(name: str, values: list[float], unit: str) -> str:
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.6g}" if t else "tail n/a"
    return (f"  {name:34s} median {statistics.median(values):.6g} {unit}  "
            f"{tail_text}  (n={len(values)})")


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _call(args: list[str], env: dict, deadline: float) -> float:
    """Run one worker to completion; its wall time in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                   stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        setup_s, digests = [], []
        for i in range(SETUPS):
            inputs = tmp / f"inputs{i}"
            setup_s.append(_call(["setup", name, str(seed), str(inputs)],
                                 dict(env, TINYLM_OUT=str(inputs / "runs")), deadline))
            digests.append(_digest(inputs))
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        spans = [str(OUT_DIR / f"{stem}-spans.jsonl.gz")] if trace else []
        _call(["job", name, str(seed), str(tmp / "inputs0"), str(seconds), str(int(trace)),
               str(tmp / "result.json"), *spans],
              dict(env, TINYLM_OUT=str(tmp / "out")), deadline)
        result = json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = list(result["failed"])
    if len(set(digests)) != 1:
        failed.append("the same seed gives the same inputs in every setup")
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  setup_s=setup_s, failed=failed, attempted=result["attempted"] + 1)
    untraced = [j for j in result["jobs"] if not j["traced"]]
    e2e = {"setup_s": statistics.median(setup_s),
           "run_s": statistics.median(j["wall_s"] for j in untraced),
           "peak_rss_mb": result["peak_rss_mb"]}
    for key in sorted({k for j in untraced for k in j["metrics"]}):
        e2e[key] = statistics.median(j["metrics"][key] for j in untraced if key in j["metrics"])
    result["end_to_end"] = e2e
    if trace:
        traced_run_s = statistics.median(j["wall_s"] for j in result["jobs"] if j["traced"])
        result["traced_run_s"] = traced_run_s
        result["per_layer"]["trace.overhead"] = 100.0 * (traced_run_s / e2e["run_s"] - 1.0)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    """Human-readable block: every metric by name with its unit."""
    env = result["env"]
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
          f"trace={int(result['trace'])}")
    print(f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} OPENBLAS_NUM_THREADS={env['blas_threads']}")
    untraced = [j for j in result["jobs"] if not j["traced"]]
    print(timing_line("setup_s", result["setup_s"], "s"))
    print(timing_line("run_s", [j["wall_s"] for j in untraced], "s"))
    if result["trace"]:
        traced = [j["wall_s"] for j in result["jobs"] if j["traced"]]
        print(timing_line("run_s (traced)", traced, "s"))
        print(f"  {'tracing overhead':34s} {result['per_layer']['trace.overhead']:.3f} %")
    for key, value in result["end_to_end"].items():
        if key not in ("setup_s", "run_s"):
            print(f"  {key:34s} {value:.6g} {unit_of(key)}")
    n_failed = len(result["failed"])
    print(f"  {'failed_ratio':34s} {n_failed / result['attempted']:.6g}  "
          f"({n_failed} failed / {result['attempted']} attempted)")
    for what in result["failed"]:
        print(f"    FAILED: {what}")
    if result.get("error"):
        print(result["error"], file=sys.stderr)
    if result["trace"]:
        print("  per layer, per traced job (self_s: span time minus child spans):")
        calls = result["per_call"]
        for key in sorted(result["per_layer"]):
            if key in calls and len(calls[key]) > 1:
                print(timing_line(key + " per call", calls[key], unit_of(key)))
            print(f"  {key:34s} {result['per_layer'][key]:.6g} {unit_of(key)}")


def print_table(results: list[dict]) -> None:
    """End-to-end metrics of several workloads side by side ("-": not run)."""
    keys = [*END_TO_END_UNITS, "failed_ratio"]
    print(f"{'metric':28s} {'unit':9s}" + "".join(f"{r['workload']:>16s}" for r in results))
    for key in keys:
        cells = []
        for r in results:
            value = (len(r["failed"]) / r["attempted"] if key == "failed_ratio"
                     else r["end_to_end"].get(key))
            cells.append(f"{value:>16.6g}" if value is not None else f"{'-':>16s}")
        print(f"{key:28s} {END_TO_END_UNITS.get(key, 'ratio'):9s}" + "".join(cells))


def summary(result: dict, declared: list[dict]) -> dict:
    source = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tinylm" / "__init__.py").is_file():
        print(f"no tinylm sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(summary(results[0], declared)))
        return 0
    print_table(results)
    rows = [summary(r, declared) for r in results]
    print(json.dumps({
        "correct": all(r["correct"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": {f"{res['workload']}.{k}": v
                    for res, row in zip(results, rows) for k, v in row["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
