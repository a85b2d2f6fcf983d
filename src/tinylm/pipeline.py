"""Declarative experiment pipeline: one JSON config drives corpus ->
tokenizer -> architecture -> init/inheritance -> training -> evaluation,
emitting every artifact as a file plus a manifest of content hashes.

Config + seed fully determine every emitted byte; no timestamps are written,
so re-running a config reproduces identical hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arch import (
    ModelConfig,
    load_checkpoint,
    param_count,
    save_checkpoint,
    search_configs,
)
from .data import batches_from_windows, make_cloze_items, windows_from_ids, zipf_corpus
from .evaluator import cloze_accuracy, load_cloze_items, perplexity, save_cloze_items
from .fileio import atomic_open
from .initializers import InitScheme, initialize
from .surgery import InheritancePlan, build_child, convert_to_gqa, layer_skip_eval, make_plan
from .tokenizer import (
    BASE_SIZE,
    Vocabulary,
    compact_vocab,
    coverage_curve,
    encode,
    frequencies,
    load_vocab,
    save_vocab,
    train_bpe,
    vocab_id_map,
)
from .trainer import (
    ScalingRule,
    TrainPlan,
    curve_to_csv,
    forgetting_scan,
    ledgers_to_csv,
    multi_round_train,
    scaled_lr,
)

OUTPUT_ENV_VAR = "TINYLM_OUT"
STAGES = ("corpus", "tokenizer", "arch", "params", "scan", "train", "eval")
CLOZE_DEFAULTS = {"n_candidates": 4, "context_len": 16, "candidate_len": 4}


class ConfigError(ValueError):
    """A pipeline config is malformed; the message names the field."""


class PipelineError(RuntimeError):
    """A stage failed at run time."""


# schema: section -> allowed keys (nested sections validated separately)
_SCHEMA: dict[str, set[str]] = {
    "": {"seed", "output_dir", "corpus", "tokenizer", "architecture", "init",
         "inheritance", "training", "evaluation", "layer_scan"},
    "corpus": {"path", "synthetic"},
    "corpus.synthetic": {"n_bytes", "seed", "n_words", "alpha"},
    "tokenizer": {"train", "load", "compact"},
    "tokenizer.train": {"target_size"},
    "tokenizer.compact": {"size", "coverage"},
    "architecture": {"config", "search"},
    "architecture.config": {"vocab_size", "width", "depth", "n_heads", "kv_groups",
                            "ffn_hidden"},
    "architecture.search": {"budget", "depths", "expansions", "tolerance", "head_dim",
                            "pick"},
    "init": {"scheme", "sigma", "seed"},
    "inheritance": {"parent_checkpoint", "plan", "generate", "gqa_groups"},
    "inheritance.generate": {"criterion", "keep_ends", "mask_steps", "batches", "seed"},
    "training": {"seq_len", "batch_size", "max_batches", "rounds", "sampling_rate",
                 "parts", "weight_decay", "lr", "scaling", "grad_clip", "seed"},
    "training.scaling": {"base_batch", "base_lr", "increment_rate"},
    "evaluation": {"holdout_batches", "cloze", "cloze_file"},
    "evaluation.cloze": {"n_items", "n_candidates", "context_len", "candidate_len",
                         "seed"},
    "layer_scan": {"windows", "batches"},
}


def _check_keys(section: dict, path: str) -> None:
    allowed = _SCHEMA[path if path else ""]
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")
        child_path = f"{path}.{key}" if path else key
        if child_path in _SCHEMA and isinstance(section[key], dict):
            _check_keys(section[key], child_path)


@dataclass
class PipelineConfig:
    raw: dict
    path: Path

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def output_dir(self) -> Path:
        env = os.environ.get(OUTPUT_ENV_VAR)
        if env:
            return Path(env) / Path(self.raw["output_dir"]).name
        return Path(self.raw["output_dir"])

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})


def validate(config_file) -> PipelineConfig:
    """Parse, default, and validate a config file; errors name the field."""
    path = Path(config_file)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, "")

    for required in ("seed", "output_dir", "corpus", "tokenizer", "architecture",
                     "training", "evaluation"):
        if required not in raw:
            raise ConfigError(f"missing required section {required!r}")

    has_init = "init" in raw
    has_inherit = "inheritance" in raw
    if has_init == has_inherit:
        raise ConfigError("exactly one of 'init' or 'inheritance' must be present")

    corpus = raw["corpus"]
    if ("path" in corpus) == ("synthetic" in corpus):
        raise ConfigError("corpus: exactly one of 'path' or 'synthetic'")
    if "path" in corpus:
        cp = _resolve(path, corpus["path"])
        if not cp.is_file():
            raise ConfigError(f"corpus.path: file not found: {cp}")
    elif not isinstance(corpus["synthetic"], dict):
        raise ConfigError(f"corpus.synthetic must be an object, got {corpus['synthetic']!r}")
    else:
        _check_int("corpus.synthetic.n_bytes", corpus["synthetic"].get("n_bytes"))

    tok = raw["tokenizer"]
    if ("train" in tok) == ("load" in tok):
        raise ConfigError("tokenizer: exactly one of 'train' or 'load'")
    if "load" in tok and not _resolve(path, tok["load"]).is_file():
        raise ConfigError(f"tokenizer.load: file not found: {tok['load']}")
    if "train" in tok:
        _check_int("tokenizer.train.target_size", tok["train"].get("target_size"), BASE_SIZE)
    if "compact" in tok:
        compact = tok["compact"]
        if ("size" in compact) == ("coverage" in compact):
            raise ConfigError("tokenizer.compact: exactly one of 'size' or 'coverage'")
        if "size" in compact:
            _check_int("tokenizer.compact.size", compact["size"], BASE_SIZE)
        else:
            _check_real("tokenizer.compact.coverage", compact["coverage"], 0.0, 1.0,
                        open_low=True)

    arch = raw["architecture"]
    if ("config" in arch) == ("search" in arch):
        raise ConfigError("architecture: exactly one of 'config' or 'search'")
    if "search" in arch:
        s = arch["search"]
        for key in ("budget", "depths", "expansions"):
            if key not in s:
                raise ConfigError(f"architecture.search.{key} is required")
        if not isinstance(s["depths"], list):
            raise ConfigError(f"architecture.search.depths must be a list, got {s['depths']!r}")
        for i, depth in enumerate(s["depths"]):
            _check_int(f"architecture.search.depths[{i}]", depth)
        _check_int("architecture.search.head_dim", s.get("head_dim", 64))
        # feasibility pre-check against the best-known vocabulary size
        if "compact" in tok and "size" in tok["compact"]:
            vocab_size = tok["compact"]["size"]
        elif "train" in tok:
            vocab_size = tok["train"]["target_size"]
        else:
            vocab_size = len(
                _resolve(path, tok["load"]).read_text().split("#MERGES")[0].split()
            )
        found = search_configs(
            s["budget"], vocab_size, s["depths"], s["expansions"],
            tolerance=s.get("tolerance", 0.05), head_dim=s.get("head_dim", 64),
        )
        if not found:
            raise ConfigError(
                "architecture.search: no feasible config for this budget and "
                f"vocabulary size {vocab_size} (search_configs returned an empty list)"
            )
        pick = s.get("pick", "deepest")
        if pick not in ("deepest", "widest"):
            _check_int("architecture.search.pick", pick, 0)
            if pick >= len(found):
                raise ConfigError(
                    f"architecture.search.pick {pick} is out of range: the search finds "
                    f"{len(found)} configs for vocabulary size {vocab_size}"
                )

    if has_inherit:
        inh = raw["inheritance"]
        if "parent_checkpoint" not in inh:
            raise ConfigError("inheritance.parent_checkpoint is required")
        if not _resolve(path, inh["parent_checkpoint"]).is_file():
            raise ConfigError(
                f"inheritance.parent_checkpoint: file not found: {inh['parent_checkpoint']}"
            )
        if ("plan" in inh) == ("generate" in inh):
            raise ConfigError("inheritance: exactly one of 'plan' or 'generate'")
        if "plan" in inh and not _resolve(path, inh["plan"]).is_file():
            raise ConfigError(f"inheritance.plan: file not found: {inh['plan']}")
    else:
        scheme = raw["init"].setdefault("scheme", "constant")
        InitScheme(scheme, raw["init"].setdefault("sigma", 0.02),
                   raw["init"].setdefault("seed", raw["seed"])).validate()

    train = raw["training"]
    train.setdefault("seq_len", 32)
    train.setdefault("batch_size", 8)
    train.setdefault("rounds", 1)
    train.setdefault("sampling_rate", 0.5)
    train.setdefault("parts", 8)
    train.setdefault("weight_decay", 0.1)
    train.setdefault("grad_clip", 1.0)
    train.setdefault("seed", raw["seed"])
    if ("lr" in train) == ("scaling" in train):
        raise ConfigError("training: exactly one of 'lr' or 'scaling'")
    for key in ("seq_len", "batch_size", "rounds", "parts"):
        _check_int(f"training.{key}", train[key])
    if train.get("max_batches") is not None:
        _check_int("training.max_batches", train["max_batches"])
    _check_real("training.sampling_rate", train["sampling_rate"], 0.0, 1.0, open_low=True)
    if "lr" in train:
        _check_real("training.lr", train["lr"], 0.0, open_low=True)
    else:
        scaling = train["scaling"]
        if not isinstance(scaling, dict):
            raise ConfigError(f"training.scaling must be an object, got {scaling!r}")
        for key in ("base_batch", "base_lr"):
            if key not in scaling:
                raise ConfigError(f"training.scaling.{key} is required")
            _check_real(f"training.scaling.{key}", scaling[key], 0.0, open_low=True)
        _check_real("training.scaling.increment_rate", scaling.get("increment_rate", 0.5),
                    0.0, 1.0)
    _check_real("training.grad_clip", train["grad_clip"], 0.0)
    _check_real("training.weight_decay", train["weight_decay"], 0.0)

    ev = raw["evaluation"]
    ev.setdefault("holdout_batches", 2)
    _check_int("evaluation.holdout_batches", ev["holdout_batches"])
    if "cloze" in ev and "cloze_file" in ev:
        raise ConfigError("evaluation: give 'cloze' or 'cloze_file', not both")
    if "cloze_file" in ev and not _resolve(path, ev["cloze_file"]).is_file():
        raise ConfigError(f"evaluation.cloze_file: file not found: {ev['cloze_file']}")
    if "cloze" in ev:
        cloze = {**CLOZE_DEFAULTS, **ev["cloze"]}
        _check_int("evaluation.cloze.n_items", cloze.get("n_items"))
        _check_int("evaluation.cloze.n_candidates", cloze["n_candidates"], 2)
        for key in ("context_len", "candidate_len"):
            _check_int(f"evaluation.cloze.{key}", cloze[key])

    if "layer_scan" in raw:
        scan = raw["layer_scan"]
        scan.setdefault("windows", [1, 2, 3])
        scan.setdefault("batches", 2)
        if not isinstance(scan["windows"], list) or not scan["windows"]:
            raise ConfigError(
                f"layer_scan.windows must be a non-empty list, got {scan['windows']!r}"
            )
        for i, window in enumerate(scan["windows"]):
            _check_int(f"layer_scan.windows[{i}]", window)
        _check_int("layer_scan.batches", scan["batches"])

    if has_inherit:
        gen = raw["inheritance"].get("generate")
        if gen is not None:
            gen.setdefault("criterion", "taylor")
            gen.setdefault("keep_ends", [2, 2])
            gen.setdefault("mask_steps", 120)
            gen.setdefault("batches", 4)
            gen.setdefault("seed", raw["seed"])

    return PipelineConfig(raw=raw, path=path)


def _check_int(name: str, value, low: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_real(name: str, value, low: float, high: float = math.inf,
                open_low: bool = False) -> None:
    """value must be a finite number in [low, high], or (low, high] if open_low."""
    ok = (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
        and (value > low if open_low else value >= low)
        and value <= high
    )
    if not ok:
        bounds = f"{'(' if open_low else '['}{low}, {high}]"
        raise ConfigError(f"{name} must be a finite number in {bounds}, got {value!r}")


def _resolve(config_path: Path, rel) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else config_path.parent / p


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    config: dict
    version: str
    seed: int
    input_hashes: dict[str, str] = field(default_factory=dict)
    artifacts: list[dict] = field(default_factory=list)
    stages_completed: list[str] = field(default_factory=list)
    stages_planned: list[str] = field(default_factory=list)
    failure: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "version": self.version,
                "seed": self.seed,
                "input_hashes": self.input_hashes,
                "artifacts": self.artifacts,
                "stages_completed": self.stages_completed,
                "stages_planned": self.stages_planned,
                "failure": self.failure,
            },
            indent=2,
            sort_keys=True,
        )


class _Run:
    """Mutable state threaded through the stages of one pipeline run."""

    def __init__(self, config: PipelineConfig, until: str):
        if until not in STAGES:
            raise ConfigError(f"unknown stage {until!r}; choose from {STAGES}")
        self.cfg = config
        self.until = until
        self.out = config.output_dir
        self.manifest = RunManifest(
            config=config.raw, version=__version__, seed=config.seed,
            stages_planned=list(STAGES[: STAGES.index(until) + 1]),
        )
        self.corpus: bytes = b""
        self.vocab: Vocabulary | None = None
        self.pre_compact_vocab: Vocabulary | None = None
        self.model_config: ModelConfig | None = None
        self.params = None
        self.train_batches: list[np.ndarray] = []
        self.holdout_batches: list[np.ndarray] = []
        self.stream: np.ndarray | None = None

    def emit_bytes(self, name: str, payload: bytes) -> Path:
        path = self.out / name
        with atomic_open(path) as fh:
            fh.write(payload)
        self.manifest.artifacts.append(
            {"name": name, "sha256": hashlib.sha256(payload).hexdigest(),
             "bytes": len(payload)}
        )
        return path

    def emit_text(self, name: str, text: str) -> Path:
        return self.emit_bytes(name, text.encode())

    def write_manifest(self) -> None:
        """(Re)write manifest.json; it is not an artifact of itself."""
        with atomic_open(self.out / "manifest.json") as fh:
            fh.write(self.manifest.to_json().encode())

    def emit_file(self, name: str) -> None:
        """Register a file already written under the output dir."""
        path = self.out / name
        payload = path.read_bytes()
        self.manifest.artifacts.append(
            {"name": name, "sha256": hashlib.sha256(payload).hexdigest(),
             "bytes": len(payload)}
        )

    # ------------------------------------------------------------- stages

    def stage_corpus(self) -> None:
        section = self.cfg.section("corpus")
        if "path" in section:
            src = _resolve(self.cfg.path, section["path"])
            self.corpus = src.read_bytes()
            self.manifest.input_hashes["corpus"] = hashlib.sha256(self.corpus).hexdigest()
        else:
            spec = section["synthetic"]
            self.corpus = zipf_corpus(
                n_bytes=spec["n_bytes"],
                seed=spec.get("seed", self.cfg.seed),
                n_words=spec.get("n_words", 200),
                alpha=spec.get("alpha", 1.2),
            )
        self.emit_bytes("corpus.bin", self.corpus)

    def stage_tokenizer(self) -> None:
        section = self.cfg.section("tokenizer")
        if "train" in section:
            vocab = train_bpe(self.corpus, section["train"]["target_size"])
        else:
            vocab = load_vocab(_resolve(self.cfg.path, section["load"]))
            self.manifest.input_hashes["vocab"] = _sha256(
                _resolve(self.cfg.path, section["load"])
            )
        self.pre_compact_vocab = vocab
        save_vocab(vocab, self.out / "vocab.txt")
        self.emit_file("vocab.txt")
        ids = encode(self.corpus, vocab)
        freq = frequencies(ids, vocab.size)
        self.emit_text("frequencies.csv", freq.to_csv())
        self.emit_text("coverage.csv", coverage_curve(freq).to_csv())
        if "compact" in section:
            target = section["compact"]
            vocab = compact_vocab(
                vocab, freq, size=target.get("size"), coverage=target.get("coverage")
            )
            save_vocab(vocab, self.out / "vocab_compact.txt")
            self.emit_file("vocab_compact.txt")
            ids = encode(self.corpus, vocab)
            freq = frequencies(ids, vocab.size)
            self.emit_text("frequencies_compact.csv", freq.to_csv())
            self.emit_text("coverage_compact.csv", coverage_curve(freq).to_csv())
        self.vocab = vocab
        self.stream = ids

    def stage_arch(self) -> None:
        section = self.cfg.section("architecture")
        vocab_size = self.vocab.size
        if "config" in section:
            spec = dict(section["config"])
            spec.setdefault("vocab_size", vocab_size)
            if spec["vocab_size"] != vocab_size:
                raise PipelineError(
                    f"architecture.config.vocab_size {spec['vocab_size']} != "
                    f"tokenizer vocabulary {vocab_size}"
                )
            spec.setdefault("kv_groups", spec["n_heads"])
            self.model_config = ModelConfig.from_dict(spec)
        else:
            s = section["search"]
            found = search_configs(
                budget=s["budget"],
                vocab_size=vocab_size,
                depths=s["depths"],
                expansion_rates=s["expansions"],
                tolerance=s.get("tolerance", 0.05),
                head_dim=s.get("head_dim", 64),
            )
            if not found:
                raise PipelineError(
                    "architecture.search found no feasible config for this "
                    "budget/vocabulary (search_configs returned an empty list)"
                )
            self.emit_text(
                "search_results.json",
                json.dumps(
                    [
                        {**c.to_dict(), "total_params": param_count(c).total_params}
                        for c in found
                    ],
                    indent=2,
                ),
            )
            pick = s.get("pick", "deepest")
            if pick == "deepest":
                self.model_config = max(found, key=lambda c: c.depth)
            elif pick == "widest":
                self.model_config = max(found, key=lambda c: c.width)
            elif pick < len(found):
                self.model_config = found[pick]
            else:
                raise PipelineError(
                    f"architecture.search.pick {pick} is out of range: the search "
                    f"found {len(found)} configs"
                )
        # batches are needed by params (plan generation) and later stages
        train_cfg = self.cfg.section("training")
        windows = windows_from_ids(
            self.stream, train_cfg["seq_len"], seed=self.cfg.seed,
        )
        batches = batches_from_windows(windows, train_cfg["batch_size"])
        holdout = self.cfg.section("evaluation")["holdout_batches"]
        if len(batches) <= holdout:
            raise PipelineError(
                f"corpus yields only {len(batches)} batches; cannot hold out {holdout}"
            )
        limit = train_cfg.get("max_batches")
        self.holdout_batches = batches[len(batches) - holdout :]
        self.train_batches = batches[: len(batches) - holdout]
        if limit is not None:
            self.train_batches = self.train_batches[:limit]

    def stage_params(self) -> None:
        section = self.cfg.section("init")
        if section:
            scheme = InitScheme(section["scheme"], section["sigma"], section["seed"])
            self.params = initialize(self.model_config, scheme)
        else:
            inh = self.cfg.section("inheritance")
            ckpt = _resolve(self.cfg.path, inh["parent_checkpoint"])
            self.manifest.input_hashes["parent_checkpoint"] = _sha256(ckpt)
            parent_config, parent_params = load_checkpoint(ckpt)
            if "plan" in inh:
                plan_path = _resolve(self.cfg.path, inh["plan"])
                self.manifest.input_hashes["plan"] = _sha256(plan_path)
                plan = InheritancePlan.from_json(plan_path.read_text())
            else:
                gen = inh["generate"]
                if self.pre_compact_vocab is not None and (
                    self.pre_compact_vocab.size == parent_config.vocab_size
                ):
                    vocab_map = vocab_id_map(self.vocab, self.pre_compact_vocab)
                elif self.vocab.size == parent_config.vocab_size:
                    vocab_map = list(range(parent_config.vocab_size))
                else:
                    raise PipelineError(
                        "cannot derive a vocab map: the pre-compaction vocabulary "
                        f"({self.pre_compact_vocab.size}) does not match the parent "
                        f"checkpoint's vocab_size ({parent_config.vocab_size})"
                    )
                plan = make_plan(
                    parent_config,
                    parent_params,
                    self.model_config,
                    self.train_batches[: gen["batches"]],
                    criterion=gen["criterion"],
                    keep_ends=tuple(gen["keep_ends"]),
                    vocab_map=vocab_map,
                    mask_steps=gen["mask_steps"],
                    seed=gen["seed"],
                )
            self.emit_text("plan.json", plan.to_json())
            self.params = build_child(parent_config, parent_params, plan, self.model_config)
            groups = inh.get("gqa_groups")
            if groups is not None:
                self.model_config, self.params = convert_to_gqa(
                    self.model_config, self.params, groups
                )
        self.emit_text("arch_report.json", param_count(self.model_config).to_json())
        save_checkpoint(self.out / "model_init.ckpt", self.model_config, self.params)
        self.emit_file("model_init.ckpt")

    def stage_scan(self) -> None:
        section = self.cfg.section("layer_scan")
        if not section:
            return
        importance = layer_skip_eval(
            self.model_config,
            self.params,
            self.holdout_batches[: section["batches"]],
            windows=tuple(section["windows"]),
        )
        self.emit_text("importance.csv", importance.to_csv())

    def stage_train(self) -> None:
        section = self.cfg.section("training")
        if "lr" in section:
            lr = section["lr"]
        else:
            s = section["scaling"]
            rule = ScalingRule(s["base_batch"], s["base_lr"], s.get("increment_rate", 0.5))
            lr = scaled_lr(rule, section["batch_size"] * section["seq_len"])
        plan = TrainPlan(
            lr=lr,
            weight_decay=section["weight_decay"],
            grad_clip=section["grad_clip"],
            rounds=section["rounds"],
            sampling_rate=section["sampling_rate"],
            parts=section["parts"],
            seed=section["seed"],
        )
        curve: list[tuple[int, float, float]] = []
        self.params, ledgers = multi_round_train(
            self.model_config, self.params, self.train_batches, plan, curve=curve
        )
        self.emit_text("ledger.csv", ledgers_to_csv(ledgers))
        self.emit_text("curves.csv", curve_to_csv(curve))
        scan = forgetting_scan(self.model_config, self.params, self.train_batches, ledgers[0])
        self.emit_text(
            "forgetting.csv",
            "part,mean_loss\n" + "\n".join(f"{p},{v!r}" for p, v in enumerate(scan)) + "\n",
        )
        save_checkpoint(self.out / "model.ckpt", self.model_config, self.params)
        self.emit_file("model.ckpt")

    def stage_eval(self) -> None:
        section = self.cfg.section("evaluation")
        report = perplexity(self.model_config, self.params, self.holdout_batches)
        self.emit_text("eval_perplexity.json", report.to_json())
        self.emit_text("eval_perplexity.csv", report.to_csv())
        items = None
        if "cloze_file" in section:
            path = _resolve(self.cfg.path, section["cloze_file"])
            self.manifest.input_hashes["cloze_file"] = _sha256(path)
            items = load_cloze_items(path)
        elif "cloze" in section:
            c = {**CLOZE_DEFAULTS, **section["cloze"]}
            holdout_stream = np.concatenate([b.reshape(-1) for b in self.holdout_batches])
            raw_items = make_cloze_items(
                holdout_stream,
                n_items=c["n_items"],
                context_len=c["context_len"],
                candidate_len=c["candidate_len"],
                n_candidates=c["n_candidates"],
                vocab_size=self.model_config.vocab_size,
                seed=c.get("seed", self.cfg.seed),
            )
            save_cloze_items(raw_items, self.out / "cloze_items.jsonl")
            self.emit_file("cloze_items.jsonl")
            items = load_cloze_items(self.out / "cloze_items.jsonl")
        if items:
            report = cloze_accuracy(self.model_config, self.params, items)
            self.emit_text("eval_cloze.json", report.to_json())
            self.emit_text("eval_cloze.csv", report.to_csv())


def run(config: PipelineConfig, until: str = "eval", dry_run: bool = False) -> RunManifest:
    """Execute the pipeline stages in order, writing artifacts and the
    manifest under the config's output directory."""
    runner = _Run(config, until)
    runner.out.mkdir(parents=True, exist_ok=True)
    if dry_run:
        runner.write_manifest()
        return runner.manifest
    stage_fns = {
        "corpus": runner.stage_corpus,
        "tokenizer": runner.stage_tokenizer,
        "arch": runner.stage_arch,
        "params": runner.stage_params,
        "scan": runner.stage_scan,
        "train": runner.stage_train,
        "eval": runner.stage_eval,
    }
    try:
        for stage in runner.manifest.stages_planned:
            stage_fns[stage]()
            runner.manifest.stages_completed.append(stage)
    except Exception as err:
        runner.manifest.failure = f"{stage}: {err}"
        runner.write_manifest()
        raise
    runner.write_manifest()
    return runner.manifest


def report(output_dir) -> tuple[str, bool]:
    """Consolidated run summary. Returns (text, complete); ``complete`` is
    False when expected artifacts are missing. Pointed at a directory of
    runs instead of a single run, it renders one comparison row per run."""
    out = Path(output_dir)
    manifest_path = out / "manifest.json"
    lines = [f"run report: {out}"]
    complete = True
    if not manifest_path.is_file():
        children = sorted(p for p in out.glob("*/manifest.json")) if out.is_dir() else []
        if children:
            return _family_report(out, [p.parent for p in children])
        return f"no manifest found in {out}", False
    manifest = json.loads(manifest_path.read_text())
    lines.append(f"toolkit version: {manifest['version']}   seed: {manifest['seed']}")
    if manifest.get("failure"):
        lines.append(f"FAILED at {manifest['failure']}")
        complete = False
    lines.append(
        f"stages: {', '.join(manifest['stages_completed'])} "
        f"(planned: {', '.join(manifest['stages_planned'])})"
    )
    for artifact in manifest["artifacts"]:
        path = out / artifact["name"]
        status = "ok" if path.is_file() and _sha256(path) == artifact["sha256"] else "MISSING/CHANGED"
        if status != "ok":
            complete = False
        lines.append(f"  {artifact['name']:28s} {artifact['bytes']:>10d} B  {status}")
    for name, label in (
        ("eval_perplexity.json", "perplexity"),
        ("eval_cloze.json", "cloze accuracy"),
    ):
        path = out / name
        if path.is_file():
            value = json.loads(path.read_text())["value"]
            lines.append(f"{label}: {value:.6g}")
    cov = out / "coverage.csv"
    if cov.is_file():
        last = cov.read_text().strip().splitlines()[-1]
        lines.append(f"coverage curve terminal: {last}")
    if manifest["stages_planned"] and not manifest.get("failure"):
        missing = set(manifest["stages_planned"]) - set(manifest["stages_completed"])
        if missing:
            complete = False
            lines.append(f"unfinished stages: {sorted(missing)}")
    return "\n".join(lines) + "\n", complete


def _family_report(root: Path, run_dirs: list[Path]) -> tuple[str, bool]:
    """One comparison row per run: parameters, final train loss, metrics."""
    lines = [f"experiment family: {root} ({len(run_dirs)} runs)"]
    header = f"{'run':20s} {'params':>10s} {'final_loss':>11s} {'perplexity':>11s} {'cloze':>7s}"
    lines.append(header)
    complete = True
    for run_dir in run_dirs:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if manifest.get("failure") or (
            set(manifest["stages_planned"]) - set(manifest["stages_completed"])
        ):
            complete = False
        cells = {"params": "-", "final_loss": "-", "perplexity": "-", "cloze": "-"}
        arch = run_dir / "arch_report.json"
        if arch.is_file():
            cells["params"] = str(json.loads(arch.read_text())["total_params"])
        curves = run_dir / "curves.csv"
        if curves.is_file():
            rows = curves.read_text().strip().splitlines()[1:]
            if rows:
                cells["final_loss"] = f"{float(rows[-1].split(',')[2]):.4f}"
        for name, key in (("eval_perplexity.json", "perplexity"),
                          ("eval_cloze.json", "cloze")):
            path = run_dir / name
            if path.is_file():
                cells[key] = f"{json.loads(path.read_text())['value']:.4g}"
        lines.append(
            f"{run_dir.name:20s} {cells['params']:>10s} {cells['final_loss']:>11s} "
            f"{cells['perplexity']:>11s} {cells['cloze']:>7s}"
        )
    return "\n".join(lines) + "\n", complete
