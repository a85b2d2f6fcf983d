"""Command-line entry points.

Verbs:
  validate CONFIG          check a config file, print the resolved form
  run CONFIG [--dry-run]   execute every stage
  tokenize CONFIG          stop after the tokenizer stage
  search-arch CONFIG       stop after architecture selection
  surgery CONFIG           stop after init/inheritance
  train CONFIG             stop after training
  eval CONFIG              alias of run
  report OUTPUT_DIR        summarize a run: exit 0 if complete, else 2

Exit codes: 0 success, 1 validation failure, 2 runtime failure. The
environment variable TINYLM_OUT overrides the config's output root.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import ConfigError, OUTPUT_ENV_VAR, report, run, validate

_STAGE_VERBS = {
    "tokenize": "tokenizer",
    "search-arch": "arch",
    "surgery": "params",
    "train": "train",
    "eval": "eval",
    "run": "eval",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinylm",
        description="desk-scale tiny language model experiment pipeline",
        epilog=f"set {OUTPUT_ENV_VAR} to redirect output directories",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("validate", help="validate a pipeline config")
    p.add_argument("config")
    for verb in _STAGE_VERBS:
        p = sub.add_parser(verb, help=f"run the pipeline through its {_STAGE_VERBS[verb]} stage")
        p.add_argument("config")
        if verb == "run":
            p.add_argument("--dry-run", action="store_true",
                           help="write a manifest of planned stages, compute nothing")
    p = sub.add_parser("report", help="summarize a finished or partial run")
    p.add_argument("output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "report":
        text, complete = report(args.output_dir)
        print(text, end="")
        return 0 if complete else 2
    try:
        config = validate(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    if args.verb == "validate":
        print(json.dumps(config.raw, indent=2, sort_keys=True))
        return 0
    try:
        manifest = run(
            config,
            until=_STAGE_VERBS[args.verb],
            dry_run=getattr(args, "dry_run", False),
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 2
    print(f"completed stages: {', '.join(manifest.stages_completed) or '(dry run)'}")
    print(f"artifacts in {config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
