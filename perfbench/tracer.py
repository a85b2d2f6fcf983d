"""Spans recorded from outside the program.

The tracer wraps the public functions and the public methods of public
classes of each tinylm module, and rebinds the wrapper at every module that
bound the original by name (``forward`` is bound in ``trainer``, ``surgery``
and ``evaluator``; ``train_bpe`` and ``encode`` in ``pipeline``). Patching
only the defining module would record nothing for those callers. The
pipeline's stage methods are private but are the only stage boundary, so
they are wrapped too.

Spans stay in memory as (name, start, end, parent) rows indexed by span id
and are written out by ``dump`` when the run ends. A few spans carry tags
computed from the call's arguments and result (bytes encoded, tape length,
prefix shape), so that ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

LAYERS = ("pipeline", "tensor", "arch", "trainer", "tokenizer", "surgery",
          "evaluator", "data", "initializers")
STAGES = ("corpus", "tokenizer", "arch", "params", "scan", "train", "eval")

# Functions the untraced runs still time: a handful of outer calls per job,
# enough for the end-to-end throughputs.
PROBES = frozenset({
    "trainer.multi_round_train",
    "tokenizer.train_bpe",
    "tokenizer.encode",
    "evaluator.perplexity",
    "evaluator.cloze_accuracy",
    "arch.generate",
})


def _tape_active() -> bool:
    return sys.modules["tinylm.tensor"]._active_tape() is not None


def _trained_tokens(a, result):
    batches = a["batches"]
    steps = sum(len(ledger.entries) for ledger in result[1])
    return {"steps": steps, "tokens": steps * batches[0].shape[0] * (batches[0].shape[1] - 1)}


def _prefix_shape(a, result):
    shape = np.shape(a["prefix"])
    return {"batch": 1 if len(shape) == 1 else shape[0], "prefix": shape[-1], "new": a["n_new"]}


# name -> f(bound arguments, result) -> tag dict, evaluated when the call returns
TAGGERS = {
    "trainer.multi_round_train": _trained_tokens,
    "tokenizer.train_bpe": lambda a, r: {"bytes": len(a["corpus"]), "merges": len(r.merges)},
    "tokenizer.encode": lambda a, r: {"bytes": len(a["data"])},
    "evaluator.perplexity": lambda a, r: {
        "tokens": sum(b.shape[0] * (b.shape[1] - 1) for b in a["batches"]), "ppl": r.value},
    "evaluator.cloze_accuracy": lambda a, r: {"items": len(a["items"]), "accuracy": r.value},
    "arch.generate": _prefix_shape,
    "tensor.Tape.gradients": lambda a, r: {"nodes": len(a["self"])},
    "arch.forward": lambda a, r: {"nograd": not _tape_active()},
}


class Tracer:
    """Span recorder for one worker process; ``patched`` installs it."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple | None] = []  # id -> (name, start, end, parent)
        self.tags: dict[int, dict] = {}
        self.jobs: list[dict] = []  # one entry per job: span range, mode, gc totals
        self._stack: list[int] = []
        self._gc = {"pause_s": 0.0, "collected": 0, "start": 0.0}

    # ----------------------------------------------------------- recording

    def _wrap(self, name: str, fn):
        spans, stack, tags = self.spans, self._stack, self.tags
        tagger = TAGGERS.get(name)
        signature = inspect.signature(fn) if tagger is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
            if tagger is not None:
                tags[sid] = tagger(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid] = (name, t0, time.perf_counter(), parent)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc["start"] = time.perf_counter()
        else:
            self._gc["pause_s"] += time.perf_counter() - self._gc["start"]
            self._gc["collected"] += info.get("collected", 0)

    @contextlib.contextmanager
    def patched(self, full: bool):
        """Wrap every public function (``full``) or only the PROBES, at every
        tinylm module that bound them; restore the originals on exit."""
        targets: dict[object, str] = {}
        restore: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"tinylm.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj) and full:
                    for mname, meth in vars(obj).items():
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            restore.append((obj, mname, meth))
            if layer == "pipeline" and full:
                restore += [(mod._Run, f"stage_{s}", vars(mod._Run)[f"stage_{s}"])
                            for s in STAGES]
        if not full:
            targets = {fn: name for fn, name in targets.items() if name in PROBES}
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for owner, attr, meth in restore:
            setattr(owner, attr, self._wrap(f"{owner.__module__[7:]}.{owner.__name__}.{attr}",
                                            meth))
        for mod in [m for n, m in sys.modules.items() if n == "tinylm" or n.startswith("tinylm.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        if full:
            gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            if full:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in restore:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def job(self, traced: bool):
        """One closed-loop job: a root span, patched for the job only."""
        first = len(self.spans)
        gc0 = dict(self._gc)
        with self.patched(full=traced), self.span("perfbench.job"):
            yield
        self.jobs.append({
            "first": first, "last": len(self.spans), "traced": traced,
            "wall_s": self.spans[first][2] - self.spans[first][1],
            "gc_pause_s": self._gc["pause_s"] - gc0["pause_s"],
            "gc_collected": self._gc["collected"] - gc0["collected"],
        })

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "workload": self.workload}
                if sid in self.tags:
                    row["tags"] = self.tags[sid]
                fh.write(json.dumps(row) + "\n")

    # ------------------------------------------------------------ analysis

    def job_spans(self, job: dict):
        """(sid, name, start, end, parent name, scope) for one job's spans.
        The scope is the nearest enclosing span named in SCOPES, so a count
        "under train_round" survives a helper inserted between the two."""
        names: dict[int, str] = {}
        scope: dict[int, str] = {}
        for sid in range(job["first"], job["last"]):
            name, t0, t1, parent = self.spans[sid]
            names[sid] = name
            pname = names.get(parent, "")
            scope[sid] = pname if pname in SCOPES else scope.get(parent, "")
            yield sid, name, t0, t1, pname, scope[sid]

    def counts(self, job: dict) -> dict[tuple[str, str], int]:
        """Number of spans per (name, scope) in one job."""
        out: dict[tuple[str, str], int] = {}
        for _, name, _, _, _, scope in self.job_spans(job):
            out[name, scope] = out.get((name, scope), 0) + 1
        return out

    def end_to_end(self, job: dict) -> dict[str, float]:
        """Throughputs of one job from its probe spans."""
        sums: dict[str, dict] = {}
        out: dict[str, float] = {}
        for sid, name, t0, t1, _, _ in self.job_spans(job):
            tag = self.tags.get(sid, {})
            if name == "arch.generate":
                out[f"decode_tokens_per_s.ctx{tag['prefix']}"] = tag["batch"] * tag["new"] / (t1 - t0)
                continue
            acc = sums.setdefault(name, {"s": 0.0})
            acc["s"] += t1 - t0
            for k, v in tag.items():
                acc[k] = acc.get(k, 0) + v
            if name == "evaluator.perplexity":
                out["holdout_ppl"] = tag["ppl"]
        for name, metric, count in (
            ("trainer.multi_round_train", "train_tokens_per_s", "tokens"),
            ("tokenizer.train_bpe", "bpe_bytes_per_s", "bytes"),
            ("tokenizer.encode", "encode_bytes_per_s", "bytes"),
            ("evaluator.perplexity", "eval_tokens_per_s", "tokens"),
            ("evaluator.cloze_accuracy", "cloze_items_per_s", "items"),
        ):
            if name in sums:
                out[metric] = sums[name][count] / sums[name]["s"]
        return out

    def per_layer(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Per-layer metrics averaged over the traced jobs, and the per-call
        durations behind each timing (for medians and tails)."""
        jobs = [j for j in self.jobs if j["traced"]]
        n = max(1, len(jobs))
        out = {key: 0.0 for key in PER_LAYER_ZERO}
        calls: dict[str, list[float]] = {}

        def timing(key, dur):
            out[key] = out.get(key, 0.0) + dur
            calls.setdefault(key, []).append(dur)

        self_time = dict.fromkeys(LAYERS, 0.0)
        nodes_in_training, nodes_any = [], []
        cloze_forwards = cloze_items = bpe_bytes = enc_bytes = 0
        wall = 0.0
        for job in jobs:
            wall += job["wall_s"]
            out["tensor.gc_pause_s"] += job["gc_pause_s"]
            out["tensor.cyclic_gc_objects"] += job["gc_collected"]
            child: dict[int, float] = {}
            for sid in range(job["first"], job["last"]):
                _, t0, t1, parent = self.spans[sid]
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
            for sid, name, t0, t1, pname, scope in self.job_spans(job):
                dur = t1 - t0
                layer = name.split(".")[0]
                if layer in self_time:
                    self_time[layer] += dur - child.get(sid, 0.0)
                tag = self.tags.get(sid, {})
                if name in SIMPLE_TIMINGS:
                    timing(SIMPLE_TIMINGS[name], dur)
                if name.startswith("pipeline._Run.stage_"):
                    timing(f"pipeline.stage.{name[20:]}_s", dur)
                elif name == "arch.forward":
                    if scope == "trainer.train_round":
                        timing("trainer.step.forward_s", dur)
                    elif scope == "surgery.learn_masks":
                        out["surgery.mask_steps"] += 1
                    elif scope == "evaluator.cloze_accuracy":
                        cloze_forwards += 1
                    if tag["nograd"]:
                        timing("arch.forward_nograd_s", dur)
                        out["arch.forward_nograd_calls"] += 1
                elif name == "tensor.Tape.gradients":
                    timing("tensor.backward_s", dur)
                    out["tensor.backward_calls"] += 1
                    nodes_any.append(tag["nodes"])
                    if scope == "trainer.train_round":
                        timing("trainer.step.backward_s", dur)
                        nodes_in_training.append(tag["nodes"])
                elif scope == "trainer.train_round" and name == "trainer.AdamW.step":
                    timing("trainer.step.optimizer_s", dur)
                    out["trainer.steps"] += 1
                elif scope == "trainer.train_round" and name == "tensor.softmax_cross_entropy":
                    timing("trainer.step.loss_s", dur)
                elif name == "arch.generate":
                    timing("arch.generate_s", dur)
                    steps = tag["prefix"] + tag["new"] - 1
                    timing(f"arch.decode_step_ms.ctx{tag['prefix']}", 1000.0 * dur / steps)
                elif name == "evaluator.cloze_accuracy":
                    timing("evaluator.cloze_s", dur)
                    cloze_items += tag["items"]
                elif name == "tokenizer.train_bpe":
                    timing("tokenizer.train_bpe_s", dur)
                    out["tokenizer.merges"] += tag["merges"]
                    bpe_bytes += tag["bytes"]
                elif name == "tokenizer.encode":
                    timing("tokenizer.encode_s", dur)
                    out["tokenizer.encode_calls"] += 1
                    enc_bytes += tag["bytes"]
        out = {k: v / n for k, v in out.items()}
        for ctx in (64, 256):
            key = f"arch.decode_step_ms.ctx{ctx}"
            out[key] = statistics.median(calls[key]) if key in calls else 0.0
        nodes = nodes_in_training or nodes_any
        out["tensor.tape_nodes_per_step"] = statistics.median(nodes) if nodes else 0
        out["evaluator.forward_calls_per_item"] = (
            cloze_forwards / cloze_items if cloze_items else 0.0)
        out["tokenizer.encoded_bytes_ratio"] = enc_bytes / bpe_bytes if bpe_bytes else 0.0
        for layer, s in self_time.items():
            out[f"self_s.{layer}"] = s / n
            out[f"self_share.{layer}"] = 100.0 * s / wall if wall else 0.0
        return out, calls


# innermost enclosing calls that the per-layer metrics and checks count under
SCOPES = frozenset({"trainer.train_round", "surgery.learn_masks", "evaluator.cloze_accuracy"})

# spans whose whole duration is the metric, keyed by span name
SIMPLE_TIMINGS = {
    "trainer.forgetting_scan": "trainer.forgetting_scan_s",
    "trainer.resample": "trainer.resample_s",
    "arch.save_checkpoint": "arch.checkpoint_save_s",
    "arch.load_checkpoint": "arch.checkpoint_load_s",
    "evaluator.perplexity": "evaluator.perplexity_s",
    "tokenizer.count_frequencies": "tokenizer.count_frequencies_s",
    "tokenizer.compact_vocab": "tokenizer.compact_vocab_s",
    "surgery.layer_skip_eval": "surgery.layer_skip_eval_s",
    "surgery.learn_masks": "surgery.learn_masks_s",
    "surgery.score_neurons": "surgery.score_neurons_s",
    "surgery.make_plan": "surgery.make_plan_s",
    "surgery.build_child": "surgery.build_child_s",
    "surgery.convert_to_gqa": "surgery.convert_to_gqa_s",
    "data.zipf_corpus": "data.zipf_corpus_s",
    "initializers.initialize": "initializers.initialize_s",
}

# every summed per-layer metric, so that a layer a workload never calls reads 0
PER_LAYER_ZERO = (
    *SIMPLE_TIMINGS.values(),
    *(f"pipeline.stage.{s}_s" for s in STAGES),
    "trainer.steps", "trainer.step.forward_s", "trainer.step.loss_s",
    "trainer.step.backward_s", "trainer.step.optimizer_s",
    "tensor.backward_s", "tensor.backward_calls", "tensor.gc_pause_s",
    "tensor.cyclic_gc_objects", "arch.forward_nograd_s", "arch.forward_nograd_calls",
    "arch.generate_s", "evaluator.cloze_s", "tokenizer.train_bpe_s", "tokenizer.merges",
    "tokenizer.encode_s", "tokenizer.encode_calls", "surgery.mask_steps",
)
