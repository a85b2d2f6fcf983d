"""The four workloads: inputs generated from the seed, one job, and the
correctness checks on its outputs.

Every call into tinylm goes through a module attribute (``pipeline.run``,
``arch.generate``), so the tracer's rebinding reaches the benchmark's own
calls as well as the program's internal ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from tinylm import arch, data, evaluator, pipeline, tokenizer


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Checks:
    """Correctness checks attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


class PipelineWorkload:
    """A job that is ``tinylm run`` (or a verb that stops early) on a config
    the setup generated."""

    name = ""
    config_file = ""
    until = "eval"

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.config_path = inputs / self.config_file
        self.out = pipeline.validate(self.config_path).output_dir
        self.first_hashes: dict | None = None

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def job(self) -> dict:
        manifest = pipeline.run(pipeline.validate(self.config_path), until=self.until)
        return {"hashes": {a["name"]: a["sha256"] for a in manifest.artifacts},
                "artifact_bytes": sum(a["bytes"] for a in manifest.artifacts)}

    def check(self, facts: dict, checks: Checks) -> None:
        _, complete = pipeline.report(self.out)
        checks.expect(complete, "manifest complete with every artifact hash matching its file")
        if self.first_hashes is None:
            self.first_hashes = facts["hashes"]
        checks.expect(facts["hashes"] == self.first_hashes,
                      "artifact hashes identical across jobs of one seed")
        if self.until in ("train", "eval"):
            rows = (self.out / "curves.csv").read_text().strip().splitlines()[1:]
            losses = [float(r.split(",")[2]) for r in rows]
            checks.expect(bool(losses) and all(math.isfinite(x) for x in losses),
                          "training losses finite")
            ledger = (self.out / "ledger.csv").read_text().strip().splitlines()[1:]
            facts["ledger_rows"] = len(ledger)
        if self.until == "eval":
            ppl = json.loads((self.out / "eval_perplexity.json").read_text())["value"]
            facts["holdout_ppl"] = ppl
            checks.expect(1.0 <= ppl < self._final_vocab().size,
                          "holdout perplexity below the vocabulary size")

    def _final_vocab(self):
        compact = self.out / "vocab_compact.txt"
        return tokenizer.load_vocab(compact if compact.is_file() else self.out / "vocab.txt")

    def final_checks(self, checks: Checks) -> None:
        """BPE round trip on the corpus for the trained and the compacted
        vocabulary, run once on the last job's outputs."""
        corpus = (self.out / "corpus.bin").read_bytes()
        for name in ("vocab.txt", "vocab_compact.txt"):
            path = self.out / name
            if not path.is_file():
                continue
            vocab = tokenizer.load_vocab(path)
            try:
                vocab.validate()
                valid = True
            except ValueError:
                valid = False
            checks.expect(valid, f"{name}: Vocabulary.validate passes")
            roundtrip = tokenizer.decode(tokenizer.encode(corpus, vocab), vocab)
            checks.expect(roundtrip == corpus, f"{name}: decode(encode(corpus)) == corpus")


# ---------------------------------------------------------------------------


class DemoPipeline(PipelineWorkload):
    """The repository's demo config, reseeded: the headline run."""

    name = "demo_pipeline"
    config_file = "demo.json"

    @staticmethod
    def setup(seed: int, root: Path, inputs: Path) -> None:
        cfg = json.loads((root / "configs" / "demo.json").read_text())
        cfg["seed"] = seed
        cfg["corpus"]["synthetic"]["seed"] = seed
        _write_json(inputs / "demo.json", cfg)


INHERIT_MASK_STEPS = 40


class InheritGqa(PipelineWorkload):
    """A child built from a trained MHA parent: learned masks, two kept
    layers, grouped-KV conversion, then two training rounds."""

    name = "inherit_gqa"
    config_file = "child.json"

    @staticmethod
    def setup(seed: int, root: Path, inputs: Path) -> None:
        (inputs / "corpus.bin").write_bytes(data.zipf_corpus(60_000, seed=seed))
        common = {
            "seed": seed,
            "corpus": {"path": "corpus.bin"},
            "evaluation": {"holdout_batches": 2},
        }
        parent = {
            **common,
            "output_dir": "parent",
            "tokenizer": {"train": {"target_size": 400}},
            "architecture": {"config": {"width": 96, "depth": 4, "n_heads": 6,
                                        "kv_groups": 6, "ffn_hidden": 192}},
            "init": {"scheme": "constant", "sigma": 0.02, "seed": seed},
            "training": {"seq_len": 32, "batch_size": 8, "max_batches": 16, "lr": 0.004},
        }
        _write_json(inputs / "parent.json", parent)
        config = pipeline.validate(inputs / "parent.json")
        pipeline.run(config, until="train")
        shutil.copyfile(config.output_dir / "model.ckpt", inputs / "parent.ckpt")
        child = {
            **common,
            "output_dir": "inherit",
            "tokenizer": {"train": {"target_size": 400}, "compact": {"coverage": 0.9}},
            "architecture": {"config": {"width": 64, "depth": 2, "n_heads": 4,
                                        "kv_groups": 4, "ffn_hidden": 128}},
            "inheritance": {
                "parent_checkpoint": "parent.ckpt",
                "generate": {"criterion": "learned", "keep_ends": [1, 1],
                             "mask_steps": INHERIT_MASK_STEPS, "batches": 2, "seed": seed},
                "gqa_groups": 2,
            },
            "training": {"seq_len": 32, "batch_size": 8, "max_batches": 40, "lr": 0.004,
                         "rounds": 2},
            "evaluation": {"holdout_batches": 2,
                           "cloze": {"n_items": 20, "n_candidates": 4, "context_len": 12,
                                     "candidate_len": 3}},
        }
        _write_json(inputs / "child.json", child)


class TokenizeLarge(PipelineWorkload):
    """``tinylm tokenize`` on a large corpus with a wide lexicon."""

    name = "tokenize_large"
    config_file = "tokenize.json"
    until = "tokenizer"

    @staticmethod
    def setup(seed: int, root: Path, inputs: Path) -> None:
        corpus = data.zipf_corpus(400_000, seed=seed, n_words=2000)
        (inputs / "corpus.bin").write_bytes(corpus)
        _write_json(inputs / "tokenize.json", {
            "seed": seed,
            "output_dir": "tokenize",
            "corpus": {"path": "corpus.bin"},
            "tokenizer": {"train": {"target_size": 768}, "compact": {"coverage": 0.97}},
            # later stages are not run, but a config must name them to validate
            "architecture": {"config": {"width": 64, "depth": 1, "n_heads": 4,
                                        "ffn_hidden": 128}},
            "init": {"scheme": "constant"},
            "training": {"lr": 0.001},
            "evaluation": {},
        })


# ---------------------------------------------------------------------------

DECODE_BATCH = 8
DECODE_LENGTHS = (64, 256)  # prefix length == new tokens
CLOZE_ITEMS, CLOZE_CANDIDATES = 240, 4
HOLDOUT_BATCHES, HOLDOUT_LEN = 6, 64


class DecodeScore:
    """Inference only, on a checkpoint trained in setup: greedy decoding at
    two context lengths, cloze scoring and held-out perplexity."""

    name = "decode_score"

    @staticmethod
    def setup(seed: int, root: Path, inputs: Path) -> None:
        text = data.zipf_corpus(70_000, seed=seed)
        (inputs / "corpus.bin").write_bytes(text[:50_000])
        cfg = {
            "seed": seed,
            "output_dir": "decode_model",
            "corpus": {"path": "corpus.bin"},
            "tokenizer": {"train": {"target_size": 400}},
            "architecture": {"config": {"width": 112, "depth": 2, "n_heads": 7,
                                        "kv_groups": 7, "ffn_hidden": 310}},
            "init": {"scheme": "constant", "sigma": 0.02, "seed": seed},
            "training": {"seq_len": 32, "batch_size": 8, "max_batches": 16, "lr": 0.004},
            "evaluation": {"holdout_batches": 2},
        }
        _write_json(inputs / "decode_model.json", cfg)
        config = pipeline.validate(inputs / "decode_model.json")
        pipeline.run(config, until="train")
        shutil.copyfile(config.output_dir / "model.ckpt", inputs / "model.ckpt")
        vocab = tokenizer.load_vocab(config.output_dir / "vocab.txt")
        # prompts, held-out batches and cloze items come from text the
        # model never trained on
        stream = tokenizer.encode(text[50_000:], vocab)
        rng = np.random.default_rng(seed)
        for n in DECODE_LENGTHS:
            starts = rng.integers(0, stream.size - n, size=DECODE_BATCH)
            np.save(inputs / f"prefix{n}.npy", np.stack([stream[s:s + n] for s in starts]))
        starts = rng.integers(0, stream.size - HOLDOUT_LEN - 1,
                              size=HOLDOUT_BATCHES * DECODE_BATCH)
        windows = np.stack([stream[s:s + HOLDOUT_LEN + 1] for s in starts])
        np.save(inputs / "holdout.npy", windows.reshape(HOLDOUT_BATCHES, DECODE_BATCH, -1))
        items = data.make_cloze_items(stream, n_items=CLOZE_ITEMS, context_len=12,
                                      candidate_len=3, n_candidates=CLOZE_CANDIDATES,
                                      vocab_size=vocab.size, seed=seed)
        evaluator.save_cloze_items(items, inputs / "cloze.jsonl")

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.prefixes = {n: np.load(inputs / f"prefix{n}.npy") for n in DECODE_LENGTHS}
        self.holdout = list(np.load(inputs / "holdout.npy"))
        self.first: dict | None = None
        self.last: dict = {}

    def reset(self) -> None:
        pass

    def job(self) -> dict:
        config, params = arch.load_checkpoint(self.inputs / "model.ckpt")
        outputs = {n: arch.generate(config, params, self.prefixes[n], n) for n in DECODE_LENGTHS}
        items = evaluator.load_cloze_items(self.inputs / "cloze.jsonl")
        cloze = evaluator.cloze_accuracy(config, params, items)
        ppl = evaluator.perplexity(config, params, self.holdout)
        self.last = {"config": config, "params": params, "outputs": outputs}
        return {
            "outputs": {n: hashlib.sha256(o.tobytes()).hexdigest() for n, o in outputs.items()},
            "cloze_accuracy": cloze.value,
            "holdout_ppl": ppl.value,
            "vocab_size": config.vocab_size,
            "shapes_ok": all(o.shape == (DECODE_BATCH, 2 * n) and o.min() >= 0
                             and o.max() < config.vocab_size for n, o in outputs.items()),
        }

    def check(self, facts: dict, checks: Checks) -> None:
        checks.expect(facts["shapes_ok"], "generate returns in-range ids of the asked length")
        checks.expect(1.0 <= facts["holdout_ppl"] < facts["vocab_size"],
                      "holdout perplexity below the vocabulary size")
        checks.expect(0.0 <= facts["cloze_accuracy"] <= 1.0, "cloze accuracy is a fraction")
        same = {k: facts[k] for k in ("outputs", "cloze_accuracy", "holdout_ppl")}
        if self.first is None:
            self.first = same
        checks.expect(same == self.first, "decode and scores identical across jobs")

    def final_checks(self, checks: Checks) -> None:
        """Greedy decoding must agree with the argmax of a full forward
        re-run of the generated sequence, an oracle that uses no KV cache.
        A generated token passes when its logit is within 1e-9 of the row
        maximum, so exact float ties cannot fail it."""
        config, params = self.last["config"], self.last["params"]
        for n, out in self.last["outputs"].items():
            sample = out[:2]
            logits = arch.forward(config, params, sample[:, :-1]).data
            positions = np.arange(n - 1, sample.shape[1] - 1)
            picked = np.take_along_axis(logits[:, positions], sample[:, positions + 1, None], -1)
            gap = logits[:, positions].max(axis=-1) - picked[..., 0]
            checks.expect(bool((gap <= 1e-9).all()),
                          f"ctx{n}: generate equals the argmax of a full forward")


WORKLOADS = {w.name: w for w in (DemoPipeline, InheritGqa, DecodeScore, TokenizeLarge)}
