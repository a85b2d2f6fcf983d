"""Write the committed BENCH_*.json files from perfbench result files and a
tier-1 run of the same commit.

    for s in 1 2 3 4 5; do for t in 0 1; do
        python3 perfbench/run.py --workload all --seed $s --trace $t; done; done
    PYTHONPATH=src python -m pytest -q --durations=5 > tier1.txt
    python3 tools/bench_files.py --tier1 tier1.txt .perfbench_out/*.json

Each BENCH_<workload>.json holds perfbench/summarize.py's summary of that
workload, wrapped with the commit the result files were made at (read from
the git checkout that holds them), perfbench's machine fields, and the
metrics perfbench is known to measure wrongly, each with its reason.
BENCH_tier1.json holds the suite's wall time, its pass count and its five
slowest tests. The files are written to the current directory.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from summarize import collect  # noqa: E402

_DECODE = "divides by prefix + new - 1 steps, but generate runs prefix/32 + new - 1 forwards"
_NO_PROBE = "no probe wraps tokenizer.train_and_encode, so it is never measured"
# metric -> (the workloads it is defective on, or None for all, why)
DEFECTIVE = {
    "setup_s": (None, "the median of only three setups, each timed around subprocess.run "
                      "with a timeout, whose wait polls at up to 0.05 s: it reads on 50 ms "
                      "steps"),
    "trace.overhead": (None, "compares one traced job with one untraced job, so it reads noise"),
    "arch.decode_step_ms.ctx64": (None, _DECODE),
    "arch.decode_step_ms.ctx256": (None, _DECODE),
    "bpe_bytes_per_s": (None, _NO_PROBE),
    "encode_bytes_per_s": (None, _NO_PROBE),
    "tokenizer.merges": (None, _NO_PROBE),
    "arch.checkpoint_load_s": (("inherit_gqa",), "reads 0: the pipeline loads the parent "
                                                 "through parse_checkpoint, which no probe "
                                                 "wraps"),
    "peak_rss_mb": (("tokenize_large",), "moves 2-4 MB with the length of the source tree's "
                                         "path alone; compare trees at paths of equal length"),
}


def git(cwd: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def tier1(text: str) -> dict:
    """The pass count, wall time and slowest tests of a pytest --durations run."""
    summary = re.search(r"(\d+) passed.* in ([\d.]+)s", text)
    slowest = re.findall(r"^([\d.]+)s (?:call|setup|teardown)\s+(\S+)$", text, re.M)
    return {"passed": int(summary[1]), "wall_s": float(summary[2]),
            "slowest": [{"test": test, "s": float(s)} for s, test in slowest[:5]]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--tier1", type=Path, required=True, help="pytest --durations=5 output")
    parser.add_argument("results", type=Path, nargs="+", help="perfbench result files")
    args = parser.parse_args(argv)
    checkout = args.results[0].resolve().parent
    measured = {"commit": git(checkout, "rev-parse", "HEAD"),
                "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))}
    for workload, summary in collect(args.results).items():
        defective = {name: why for name, (where, why) in DEFECTIVE.items()
                     if where is None or workload in where}
        out = {**measured, "defective": defective, **summary}
        Path(f"BENCH_{workload}.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    out = {**measured, **tier1(args.tier1.read_text())}
    Path("BENCH_tier1.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
