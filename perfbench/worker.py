"""One fresh process of a benchmark run: either builds a workload's inputs
(``setup``) or runs its closed loop of jobs (``job``).

    python3 perfbench/worker.py setup <workload> <seed> <inputs-dir>
    python3 perfbench/worker.py job <workload> <seed> <inputs-dir> <seconds> <trace> \
        <result.json> [<spans.jsonl.gz>]

``run.py`` starts it with ``src`` on PYTHONPATH, BLAS pinned to one thread
and TINYLM_OUT pointing into the run's temporary directory.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import INHERIT_MASK_STEPS, WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def span_checks(tracer: Tracer, job: dict, workload, facts: dict, checks: Checks) -> None:
    """Span counts of one traced job must agree with each other and with the
    job's own outputs; a binding the tracer missed shows up as a zero."""
    counts = tracer.counts(job)
    if "ledger_rows" in facts:
        forwards = counts.get(("arch.forward", "trainer.train_round"), 0)
        steps = counts.get(("trainer.AdamW.step", "trainer.train_round"), 0)
        checks.expect(forwards == steps == facts["ledger_rows"] > 0,
                      f"forward spans under train_round ({forwards}) == trainer.steps "
                      f"({steps}) == ledger rows ({facts['ledger_rows']})")
    if workload.name == "inherit_gqa":
        masks = counts.get(("arch.forward", "surgery.learn_masks"), 0)
        checks.expect(masks == INHERIT_MASK_STEPS,
                      f"surgery.mask_steps ({masks}) == configured {INHERIT_MASK_STEPS}")


def run_jobs(name: str, inputs: Path, seconds: float, trace: bool,
             spans_path: Path | None) -> dict:
    workload = WORKLOADS[name](inputs)
    tracer = Tracer(name)
    checks = Checks()
    jobs: list[dict] = []
    error = None
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1  # alternate untraced, traced
        workload.reset()
        try:
            with tracer.job(traced):
                facts = workload.job()
            job = tracer.jobs[-1]
            workload.check(facts, checks)
            if traced:
                span_checks(tracer, job, workload, facts, checks)
        except Exception:  # a failed job ends the loop and is reported
            error = traceback.format_exc()
            checks.expect(False, f"job {len(jobs)} ran and was checked without an error")
            break
        checks.expect(True, f"job {len(jobs)} ran and was checked without an error")
        jobs.append({"traced": traced, "wall_s": job["wall_s"],
                     "metrics": tracer.end_to_end(job),
                     **{k: facts[k] for k in ("holdout_ppl", "artifact_bytes") if k in facts}})
        modes = {j["traced"] for j in jobs}
        if time.perf_counter() - start >= seconds and len(modes) == (2 if trace else 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        try:
            workload.final_checks(checks)
        except Exception:
            error = traceback.format_exc()
            checks.expect(False, "final checks ran without an error")
    result = {
        "jobs": jobs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error": error,
        "env": environment(),
    }
    if trace:
        per_layer, calls = tracer.per_layer()
        traced = [j for j in jobs if j["traced"]]
        per_layer["pipeline.artifact_bytes"] = (
            sum(j.get("artifact_bytes", 0) for j in traced) / len(traced) if traced else 0)
        result["per_layer"] = per_layer
        result["per_call"] = calls
        if spans_path is not None:
            tracer.dump(spans_path)
    return result


def main(argv: list[str]) -> int:
    role, name, seed, inputs = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if role == "setup":
        inputs.mkdir(parents=True, exist_ok=True)
        WORKLOADS[name].setup(seed, ROOT, inputs)
        return 0
    seconds, trace, out = float(argv[4]), argv[5] == "1", Path(argv[6])
    spans = Path(argv[7]) if len(argv) > 7 else None
    result = run_jobs(name, inputs, seconds, trace, spans)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
