"""Declarative experiment pipeline: one JSON config drives corpus ->
tokenizer -> architecture -> init/inheritance -> training -> evaluation,
emitting every artifact as a file plus a manifest of content hashes.

Config + seed fully determine every emitted byte; no timestamps are written,
so re-running a config reproduces identical hashes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .arch import ModelConfig, param_count, parse_checkpoint, save_checkpoint, search_configs
from .data import batches_from_windows, make_cloze_items, windows_from_ids, zipf_corpus
from .evaluator import cloze_accuracy, parse_cloze_items, perplexity, save_cloze_items
from .fileio import csv_text, read_json, write_atomic
from .initializers import VARIANTS, InitScheme, initialize
from .surgery import (CRITERIA, InheritancePlan, PlanError, build_child, check_child,
                      convert_to_gqa, layer_skip_eval, make_plan)
from .tensor import DTYPES, blas_info
from .tokenizer import (
    Vocabulary,
    compact_vocab,
    coverage_curve,
    encode,
    frequencies,
    parse_vocab,
    recode,
    save_vocab,
    train_and_encode,
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


class ConfigError(ValueError):
    """A pipeline config is malformed; the message names the field."""


class PipelineError(RuntimeError):
    """A stage failed at run time."""


# Every config field, one row each: dotted path, kind, bounds or choices,
# default. A row applies only when its section is present. int and real take an
# interval, and ints and reals are non-empty lists whose items take it. A file
# path is resolved against the config's directory and must exist. An object
# holds exactly one key of its pair, or at most one if "or neither" follows. A
# missing key takes the default's value, the top-level seed for ROOT_SEED, is an
# error for REQUIRED, and stays out for ABSENT.
REQUIRED, ABSENT, ROOT_SEED = "<required>", "<absent>", "<root seed>"
FIELDS = (
    ("seed",                            "int",          "[0, inf)",                            REQUIRED),
    ("output_dir",                      "str",          None,                                  REQUIRED),
    ("dtype",                           "choice",       DTYPES,                                DTYPES[0]),
    ("corpus",                          "object",       ("path", "synthetic"),                 REQUIRED),
    ("corpus.path",                     "file",         None,                                  ABSENT),
    ("corpus.synthetic",                "object",       None,                                  ABSENT),
    ("corpus.synthetic.n_bytes",        "int",          "[1, inf)",                            REQUIRED),
    ("corpus.synthetic.seed",           "int",          "[0, inf)",                            ROOT_SEED),
    ("corpus.synthetic.n_words",        "int",          "[1, inf)",                            200),
    ("corpus.synthetic.alpha",          "real",         "(0, inf)",                            1.2),
    ("tokenizer",                       "object",       ("train", "load"),                     REQUIRED),
    ("tokenizer.train",                 "object",       None,                                  ABSENT),
    ("tokenizer.train.target_size",     "int",          "[256, inf)",                          REQUIRED),
    ("tokenizer.load",                  "file",         None,                                  ABSENT),
    ("tokenizer.compact",               "object",       ("size", "coverage"),                  ABSENT),
    ("tokenizer.compact.size",          "int",          "[256, inf)",                          ABSENT),
    ("tokenizer.compact.coverage",      "real",         "(0, 1]",                              ABSENT),
    ("architecture",                    "object",       ("config", "search"),                  REQUIRED),
    ("architecture.config",             "object",       None,                                  ABSENT),
    ("architecture.config.vocab_size",  "int",          "[256, inf)",                          ABSENT),
    ("architecture.config.width",       "int",          "[1, inf)",                            REQUIRED),
    ("architecture.config.depth",       "int",          "[1, inf)",                            REQUIRED),
    ("architecture.config.n_heads",     "int",          "[1, inf)",                            REQUIRED),
    ("architecture.config.kv_groups",   "int",          "[1, inf)",                            ABSENT),
    ("architecture.config.ffn_hidden",  "int",          "[1, inf)",                            REQUIRED),
    ("architecture.search",             "object",       None,                                  ABSENT),
    ("architecture.search.budget",      "int",          "[1, inf)",                            REQUIRED),
    ("architecture.search.depths",      "ints",         "[1, inf)",                            REQUIRED),
    ("architecture.search.expansions",  "reals",        "(0, inf)",                            REQUIRED),
    ("architecture.search.tolerance",   "real",         "[0, inf)",                            0.05),
    ("architecture.search.head_dim",    "int",          "[1, inf)",                            64),
    ("architecture.search.pick",        "choice|index", ("deepest", "widest"),                 "deepest"),
    ("init",                            "object",       None,                                  ABSENT),
    ("init.scheme",                     "choice",       VARIANTS,                              "constant"),
    ("init.sigma",                      "real",         "(0, inf)",                            0.02),
    ("init.seed",                       "int",          "[0, inf)",                            ROOT_SEED),
    ("inheritance",                     "object",       ("plan", "generate"),                  ABSENT),
    ("inheritance.parent_checkpoint",   "file",         None,                                  REQUIRED),
    ("inheritance.plan",                "file",         None,                                  ABSENT),
    ("inheritance.generate",            "object",       None,                                  ABSENT),
    ("inheritance.generate.criterion",  "choice",       CRITERIA,                              "taylor"),
    ("inheritance.generate.keep_ends",  "ints",         "[0, inf)",                            [2, 2]),
    ("inheritance.generate.mask_steps", "int",          "[1, inf)",                            120),
    ("inheritance.generate.batches",    "int",          "[1, inf)",                            4),
    ("inheritance.generate.seed",       "int",          "[0, inf)",                            ROOT_SEED),
    ("inheritance.gqa_groups",          "int",          "[1, inf)",                            ABSENT),
    ("training",                        "object",       ("lr", "scaling"),                     REQUIRED),
    ("training.seq_len",                "int",          "[1, inf)",                            32),
    ("training.batch_size",             "int",          "[1, inf)",                            8),
    ("training.max_batches",            "int",          "[1, inf)",                            ABSENT),
    ("training.rounds",                 "int",          "[1, inf)",                            1),
    ("training.sampling_rate",          "real",         "(0, 1]",                              0.5),
    ("training.parts",                  "int",          "[1, inf)",                            8),
    ("training.weight_decay",           "real",         "[0, inf)",                            0.1),
    ("training.lr",                     "real",         "(0, inf)",                            ABSENT),
    ("training.scaling",                "object",       None,                                  ABSENT),
    ("training.scaling.base_batch",     "real",         "(0, inf)",                            REQUIRED),
    ("training.scaling.base_lr",        "real",         "(0, inf)",                            REQUIRED),
    ("training.scaling.increment_rate", "real",         "[0, 1]",                              0.5),
    ("training.grad_clip",              "real",         "[0, inf)",                            1.0),
    ("training.seed",                   "int",          "[0, inf)",                            ROOT_SEED),
    ("evaluation",                      "object",       ("cloze", "cloze_file", "or neither"), REQUIRED),
    ("evaluation.holdout_batches",      "int",          "[1, inf)",                            2),
    ("evaluation.cloze",                "object",       None,                                  ABSENT),
    ("evaluation.cloze.n_items",        "int",          "[1, inf)",                            REQUIRED),
    ("evaluation.cloze.n_candidates",   "int",          "[2, inf)",                            4),
    ("evaluation.cloze.context_len",    "int",          "[1, inf)",                            16),
    ("evaluation.cloze.candidate_len",  "int",          "[1, inf)",                            4),
    ("evaluation.cloze.seed",           "int",          "[0, inf)",                            ROOT_SEED),
    ("evaluation.cloze_file",           "file",         None,                                  ABSENT),
    ("layer_scan",                      "object",       None,                                  ABSENT),
    ("layer_scan.windows",              "ints",         "[1, inf)",                            [1, 2, 3]),
    ("layer_scan.batches",              "int",          "[1, inf)",                            2),
)
NULLABLE = {"training.max_batches", "inheritance.gqa_groups"}  # null means absent
# The input-file fields: the parser of each one's bytes, and the key its
# sha256 takes in the manifest's input_hashes.
INPUTS = {
    "corpus.path": (lambda data: data, "corpus"),
    "tokenizer.load": (parse_vocab, "vocab"),
    "inheritance.parent_checkpoint": (parse_checkpoint, "parent_checkpoint"),
    "inheritance.plan": (InheritancePlan.from_json, "plan"),
    "evaluation.cloze_file": (parse_cloze_items, "cloze_file"),
}
_TYPES = {"int": int, "real": (int, float), "str": str, "object": dict, "choice": str,
          "choice|index": (str, int), "file": str}  # kind -> the JSON values it takes


def _fits(kind: str, bounds, value, config_path: Path) -> bool:
    """Whether ``value`` has the row's type and lies in its bounds or choices."""
    if kind in ("ints", "reals"):
        return isinstance(value, list) and value != [] and all(
            _fits(kind[:-1], bounds, item, config_path) for item in value)
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        return False
    if kind == "file":
        return _resolve(config_path, value).is_file()
    if isinstance(value, str):
        return value in bounds if bounds else value != ""
    if kind == "object":
        return True
    if kind == "choice|index":
        return value >= 0
    low, high = (float(x) for x in bounds[1:-1].split(","))
    # nan fails the first test, and so does an int too big for a float
    return (abs(value) <= sys.float_info.max
            and (low < value if bounds[0] == "(" else low <= value)
            and (value < high if bounds[-1] == ")" else value <= high))


def _enter(section: dict, path: str, pair) -> None:
    """Reject keys the table does not list, and a section that holds both
    keys of its pair, or neither unless the pair allows that."""
    allowed = {p.rpartition(".")[2] for p, *_ in FIELDS if p.rpartition(".")[0] == path}
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {f'{path}.{key}' if path else key!r}")
    if pair:
        held = (pair[0] in section) + (pair[1] in section)
        if held > 1 or held == 0 and len(pair) == 2:
            need = "exactly one" if len(pair) == 2 else "at most one"
            raise ConfigError(f"{path or 'config'}: {need} of {pair[0]!r} or {pair[1]!r}")


def _walk(raw: dict, config_path: Path) -> None:
    """Apply FIELDS to ``raw`` in place, row by row: unknown keys, defaults,
    types, ranges."""
    _enter(raw, "", ("init", "inheritance"))
    sections = {"": raw}  # the sections met so far, by path
    for path, kind, bounds, default in FIELDS:
        parent, _, key = path.rpartition(".")
        section = sections.get(parent)
        if section is None or (key not in section and default == ABSENT):
            continue
        if key not in section:
            if default == REQUIRED:
                raise ConfigError(f"{path} is required")
            section[key] = raw["seed"] if default == ROOT_SEED else copy.deepcopy(default)
        value = section[key]
        if value is None and path in NULLABLE:
            continue
        if not _fits(kind, bounds, value, config_path):
            what = f"{kind} in {bounds}" if bounds and kind != "object" else kind
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        if kind == "object":
            _enter(value, path, bounds)
            sections[path] = value


class Size(NamedTuple):
    """A size one stage hands the next, and the config field that sets it.
    Before the run it is an upper bound unless ``exact``; a run knows it."""

    n: int
    field: str
    exact: bool = False

    def admits(self, n: int) -> bool:
        """Whether the stage can hand on a size of exactly ``n``."""
        return n == self.n if self.exact else n <= self.n

    def __str__(self) -> str:
        return str(self.n) if self.exact else f"at most {self.n}"


def _stream_sizes(raw: dict, inputs: dict) -> tuple[Size, Size, Size]:
    """The token count, and the vocabulary sizes before and after compaction,
    as known before the run: tokenizer.load's size is exact, BPE gives at most
    tokenizer.train.target_size, compaction at most the smaller of
    tokenizer.compact.size and the size before it, and the token count is at
    most the byte count (every token covers at least one byte)."""
    corpus, tok = raw["corpus"], raw["tokenizer"]
    tokens = (Size(len(inputs["corpus.path"]), "corpus.path") if "path" in corpus
              else Size(corpus["synthetic"]["n_bytes"], "corpus.synthetic.n_bytes"))
    pre = (Size(inputs["tokenizer.load"].size, "tokenizer.load", exact=True) if "load" in tok
           else Size(tok["train"]["target_size"], "tokenizer.train.target_size"))
    if "compact" not in tok:
        return tokens, pre, pre
    (key, value), = tok["compact"].items()
    size = min(value, pre.n) if key == "size" else pre.n
    return tokens, pre, Size(size, f"tokenizer.compact.{key}")


def _model_config(spec: dict, vocab: Size) -> ModelConfig:
    """architecture.config as a checked ModelConfig for the final vocabulary;
    ``vocab`` and n_heads stand in for the optional vocab_size and kv_groups."""
    n = spec.get("vocab_size", vocab.n)
    if not vocab.admits(n):
        raise ConfigError(f"architecture.config.vocab_size {n} does not match the vocabulary "
                          f"of {vocab} tokens that {vocab.field} gives")
    try:
        return ModelConfig(**{"vocab_size": n, "kv_groups": spec["n_heads"], **spec})
    except ValueError as err:
        raise ConfigError(f"architecture.config: {err}") from err


def _search(spec: dict, vocab: Size) -> tuple[list[ModelConfig], ModelConfig]:
    """architecture.search for the final vocabulary: every feasible config,
    and the one ``pick`` names."""
    try:
        found = search_configs(spec["budget"], vocab.n, spec["depths"], spec["expansions"],
                               tolerance=spec["tolerance"], head_dim=spec["head_dim"])
    except OverflowError as err:
        raise ConfigError(f"architecture.search: values too large to solve ({err})") from err
    except ValueError as err:  # an input no config takes, named first in the message
        raise ConfigError(f"architecture.search.{err}") from err
    if not found:
        raise ConfigError("architecture.search: no feasible config for this budget and "
                          f"vocabulary size {vocab.n} (search_configs returned an empty list)")
    pick = spec["pick"]
    if pick in ("deepest", "widest"):
        return found, max(found, key=lambda c: c.depth if pick == "deepest" else c.width)
    if pick >= len(found):
        raise ConfigError(f"architecture.search.pick {pick} is out of range: the search finds "
                          f"{len(found)} configs for vocabulary size {vocab.n}")
    return found, found[pick]


def _stream_fills_batches(raw: dict, tokens: Size) -> None:
    """The arch stage cuts the token stream into the hold-out batches and at
    least one training batch."""
    ev, train = raw["evaluation"], raw["training"]
    need = (ev["holdout_batches"] + 1) * train["batch_size"] * (train["seq_len"] + 1)
    if tokens.n < need:
        raise ConfigError(
            f"{tokens.field}: a stream of {tokens} tokens cannot fill the {need} tokens of "
            "(evaluation.holdout_batches + 1) x training.batch_size x (training.seq_len + 1)")


def _surgery_fits(raw: dict, parent: ModelConfig, child: ModelConfig | None, vocab: Size,
                  plan: InheritancePlan | None) -> None:
    """surgery's checks, each error naming the config path of what it
    refused: check_child on the parent, the child, generate's keep_ends and
    gqa_groups, then InheritancePlan's on a plan file, whose checks against
    the child need its shape, and the vocab_map length its exact vocabulary."""
    inh = raw["inheritance"]
    keep = inh["generate"]["keep_ends"] if "generate" in inh else None
    try:
        check_child(parent, child, keep, inh.get("gqa_groups"), head_level=keep is not None)
    except PlanError as err:
        named = ("architecture.config" if "config" in raw["architecture"]
                 else "architecture.search.pick")
        side, _, attr = err.field.partition(".")
        path = {"parent": "inheritance.parent_checkpoint", "child": f"{named}.{attr}",
                "keep_ends": "inheritance.generate.keep_ends",
                "gqa_groups": "inheritance.gqa_groups"}[side]
        raise ConfigError(f"{path}: {err} (parent: inheritance.parent_checkpoint, child: "
                          f"{named})") from err
    try:
        if plan:
            (plan.validate if child and vocab.exact else plan.validate_structure)(parent, child)
    except PlanError as err:
        raise ConfigError(f"inheritance.plan: {err}") from err


def _parent_vocab(parent_size: int, pre: Size, post: Size) -> None:
    """A generated plan maps the child's rows to whichever of the pre- and
    post-compaction vocabularies has the parent's vocab_size."""
    if pre.admits(parent_size) or post.admits(parent_size):
        return
    head = f"inheritance.parent_checkpoint: vocab_size {parent_size}"
    # at run time a trained vocabulary below the parent's size stopped early
    if parent_size > pre.n and (not pre.exact or pre.field == "tokenizer.load"):
        raise ConfigError(f"{head} exceeds {pre.field} {pre.n}, the largest vocabulary the "
                          "tokenizer makes")
    compact = (", and no tokenizer.compact changes that" if post.field == pre.field
               else f", and {post.field} leaves {post}")
    hint = (f"; setting tokenizer.train.target_size to {parent_size} trains a vocabulary of "
            "that size" if pre.field == "tokenizer.train.target_size" and parent_size < pre.n
            else "")
    raise ConfigError(f"{head} differs from the {pre.n} tokens of {pre.field}{compact}{hint}")


def _cloze_ids(items, vocab: Size) -> None:
    """Every id of an evaluation.cloze_file item lies inside the final vocabulary."""
    for i, item in enumerate(items):
        top = max(max(ids) for ids in (item.context, *item.candidates))
        if top >= vocab.n:
            raise ConfigError(f"evaluation.cloze_file: item {i} holds token id {top}, outside "
                              f"the vocabulary of {vocab} tokens that {vocab.field} gives")


def _at_run(rule, *args):
    """``rule`` on a run's actual sizes, which validate's checks let through."""
    try:
        return rule(*args)
    except ConfigError as err:
        raise PipelineError(str(err)) from err


@dataclass
class PipelineConfig:
    raw: dict
    path: Path
    inputs: dict = field(default_factory=dict)  # INPUTS field -> its parsed value
    input_hashes: dict = field(default_factory=dict)  # INPUTS field -> sha256 of its bytes

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def output_dir(self) -> Path:
        env = os.environ.get(OUTPUT_ENV_VAR)
        if env:
            return Path(env) / Path(self.raw["output_dir"]).name
        return Path(self.raw["output_dir"])


def validate(config_file) -> PipelineConfig:
    """Parse and check a config file, writing every default into it; errors
    name the field. Each input file is read here and only here, and parsed
    and hashed from the same bytes.

    Each rule a stage applies to the sizes it is given is one function, which
    validate calls with what `_stream_sizes` knows before the run and the
    stage with the actual sizes. A config that passes can still fail at run
    time only where a size known only as a bound, or the child that
    architecture.search picks for it, reaches a rule:

    - `_model_config`, `_search` (exit 1) and `_cloze_ids`: the final
      vocabulary size, which BPE stopping early or compaction can leave below
      the bound.
    - `_stream_fills_batches`: the token count, which depends on how far BPE
      merges the corpus.
    - `_surgery_fits`: the shape of a searched child, and for a plan file the
      final vocabulary size.
    - `_parent_vocab`: a generate parent's vocab_size, which only a vocabulary
      of exactly that size can map; a target_size above it passes, since BPE
      may stop early at it."""
    path = Path(config_file)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = read_json(path.read_bytes(), "config")
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _walk(raw, path)
    inputs, hashes = {}, {}

    def read(names) -> None:  # each named input file the config holds, once
        for name in names:
            section, _, key = name.partition(".")
            if name not in inputs and key in raw.get(section, {}):
                inputs[name], hashes[name] = _parse(path, name, raw[section][key], INPUTS[name][0])

    read(("corpus.path", "tokenizer.load"))
    tokens, pre, post = _stream_sizes(raw, inputs)
    arch, inh, ev = raw["architecture"], raw.get("inheritance"), raw["evaluation"]
    if "config" in arch:
        child = _model_config(arch["config"], post)
    else:  # a pick against a bound need not be the run's pick
        _, child = _search(arch["search"], post)
        child = child if post.exact else None
    _stream_fills_batches(raw, tokens)
    if "cloze" in ev:
        # the eval stage draws items from the hold-out batches laid end to end
        c, train = ev["cloze"], raw["training"]
        stream = ev["holdout_batches"] * train["batch_size"] * (train["seq_len"] + 1)
        if stream < c["context_len"] + c["candidate_len"] + 1:
            raise ConfigError(
                f"evaluation.cloze.context_len {c['context_len']} + candidate_len "
                f"{c['candidate_len']} + 1 exceeds the {stream}-token hold-out stream "
                "(evaluation.holdout_batches x training.batch_size x (training.seq_len + 1))")
    read(INPUTS)
    if inh:
        parent, params = inputs["inheritance.parent_checkpoint"]
        for name, tensor in params.tensors.items():
            for i in np.flatnonzero(~np.isfinite(tensor.data))[:1]:  # the first non-finite value
                raise ConfigError(f"inheritance.parent_checkpoint: tensor {name!r} is "
                                  f"{tensor.data.flat[i]} at flat index {i}")
        _surgery_fits(raw, parent, child, post, inputs.get("inheritance.plan"))
        if "plan" not in inh:
            _parent_vocab(parent.vocab_size, pre, post)
    _cloze_ids(inputs.get("evaluation.cloze_file", ()), post)
    return PipelineConfig(raw=raw, path=path, inputs=inputs, input_hashes=hashes)


def _parse(config_path: Path, field_path: str, rel: str, parse) -> tuple:
    """``parse`` applied to the bytes of the input file a field names, and
    the sha256 of those bytes; a ValueError becomes a ConfigError that names
    the field."""
    data = _resolve(config_path, rel).read_bytes()
    try:
        return parse(data), hashlib.sha256(data).hexdigest()
    except ValueError as err:
        raise ConfigError(f"{field_path}: {err}") from err


def _resolve(config_path: Path, rel) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else config_path.parent / p


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
    numeric: dict = field(default_factory=dict)  # dtype and the BLAS it ran on; see _NUMERIC

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


class _Run:
    """Mutable state threaded through the stages of one pipeline run."""

    def __init__(self, config: PipelineConfig, until: str):
        if until not in STAGES:
            raise ConfigError(f"unknown stage {until!r}; choose from {STAGES}")
        self.cfg = config
        self.out = config.output_dir
        blas, threads = blas_info()
        self.manifest = RunManifest(
            config=config.raw, version=__version__, seed=config.seed,
            stages_planned=list(STAGES[: STAGES.index(until) + 1]),
            numeric={"dtype": config.raw["dtype"], "numpy": np.__version__, "blas": blas,
                     "blas_threads": threads},
        )
        self.corpus: bytes = b""
        self.vocab: Vocabulary | None = None
        self.pre_compact_vocab: Vocabulary | None = None
        self.tokens = self.pre = self.post = None  # Sizes, exact once the tokenizer has run
        self.model_config: ModelConfig | None = None
        self.params = None
        self.train_batches: list[np.ndarray] = []
        self.holdout_batches: list[np.ndarray] = []
        self.stream: np.ndarray | None = None

    def emit(self, name: str, payload) -> None:
        """Write the artifact ``name`` and record the hash of the bytes
        written. ``payload`` is its text or bytes, or a saver that takes the
        path and returns write_atomic's (sha256, byte count)."""
        path = self.out / name
        if callable(payload):
            digest, nbytes = payload(path)
        else:
            data = payload.encode() if isinstance(payload, str) else payload
            digest, nbytes = write_atomic(path, [data])
        self.manifest.artifacts.append({"name": name, "sha256": digest, "bytes": nbytes})

    def input(self, field_path: str):
        """The parsed input file ``field_path`` names; records its sha256."""
        if field_path not in self.cfg.inputs:
            raise PipelineError(f"{field_path} was released by an earlier run of this "
                                "config; validate the config again")
        self.manifest.input_hashes[INPUTS[field_path][1]] = self.cfg.input_hashes[field_path]
        return self.cfg.inputs[field_path]

    def write_manifest(self) -> None:
        """(Re)write manifest.json; it is not an artifact of itself."""
        write_atomic(self.out / "manifest.json", [self.manifest.to_json().encode()])

    # ------------------------------------------------------------- stages

    def stage_corpus(self) -> None:
        section = self.cfg.raw["corpus"]
        if "path" in section:
            self.corpus = self.input("corpus.path")
        else:
            self.corpus = zipf_corpus(**section["synthetic"])
        self.emit("corpus.bin", self.corpus)

    def stage_tokenizer(self) -> None:
        section = self.cfg.raw["tokenizer"]
        if "train" in section:
            vocab, ids = train_and_encode(self.corpus, section["train"]["target_size"])
        else:
            vocab = self.input("tokenizer.load")
            ids = encode(self.corpus, vocab)
        self.pre_compact_vocab = vocab
        self.emit("vocab.txt", lambda path: save_vocab(vocab, path))
        freq = frequencies(ids, vocab.size)
        self.emit("frequencies.csv", freq.to_csv())
        self.emit("coverage.csv", coverage_curve(freq).to_csv())
        if "compact" in section:
            vocab = compact_vocab(vocab, freq, **section["compact"])
            self.emit("vocab_compact.txt", lambda path: save_vocab(vocab, path))
            ids = recode(ids, self.pre_compact_vocab, vocab)
            freq = frequencies(ids, vocab.size)
            self.emit("frequencies_compact.csv", freq.to_csv())
            self.emit("coverage_compact.csv", coverage_curve(freq).to_csv())
        self.vocab = vocab
        self.stream = ids
        actual = (ids.size, self.pre_compact_vocab.size, vocab.size)
        self.tokens, self.pre, self.post = (size._replace(n=n, exact=True) for size, n in zip(
            _stream_sizes(self.cfg.raw, self.cfg.inputs), actual))

    def stage_arch(self) -> None:
        section = self.cfg.raw["architecture"]
        if "config" in section:
            self.model_config = _at_run(_model_config, section["config"], self.post)
        else:
            found, self.model_config = _search(section["search"], self.post)
            self.emit("search_results.json", json.dumps(
                [{**c.to_dict(), "total_params": param_count(c).total_params} for c in found],
                indent=2))
        _at_run(_stream_fills_batches, self.cfg.raw, self.tokens)
        # batches are needed by params (plan generation) and later stages
        train_cfg = self.cfg.raw["training"]
        windows = windows_from_ids(
            self.stream, train_cfg["seq_len"], seed=self.cfg.seed,
        )
        batches = batches_from_windows(windows, train_cfg["batch_size"])
        holdout = self.cfg.raw["evaluation"]["holdout_batches"]
        limit = train_cfg.get("max_batches")
        self.holdout_batches = batches[len(batches) - holdout :]
        self.train_batches = batches[: len(batches) - holdout]
        if limit is not None:
            self.train_batches = self.train_batches[:limit]

    def stage_params(self) -> None:
        section = self.cfg.raw.get("init")
        if section:
            scheme = InitScheme(section["scheme"], section["sigma"], section["seed"])
            self.params = initialize(self.model_config, scheme)
        else:
            inh = self.cfg.raw["inheritance"]
            parent_config, parent_params = self.input("inheritance.parent_checkpoint")
            # no later stage reads the parent: free it before training
            del self.cfg.inputs["inheritance.parent_checkpoint"]
            plan = self.input("inheritance.plan") if "plan" in inh else None
            _at_run(_surgery_fits, self.cfg.raw, parent_config, self.model_config, self.post, plan)
            if plan is None:
                gen = inh["generate"]
                _at_run(_parent_vocab, parent_config.vocab_size, self.pre, self.post)
                parent_vocab = next(v for v in (self.pre_compact_vocab, self.vocab)
                                    if v.size == parent_config.vocab_size)
                plan = make_plan(parent_config, parent_params, self.model_config,
                                 self.train_batches[: gen["batches"]],
                                 vocab_map=vocab_id_map(self.vocab, parent_vocab),
                                 **{key: value for key, value in gen.items() if key != "batches"})
            self.emit("plan.json", plan.to_json())
            self.params = build_child(parent_config, parent_params, plan, self.model_config)
            groups = inh.get("gqa_groups")
            if groups is not None:
                self.model_config, self.params = convert_to_gqa(
                    self.model_config, self.params, groups
                )
        # the one cast: init draws, and surgery runs, in their own dtype
        self.params = self.params.astype(self.cfg.raw["dtype"])
        self.emit("arch_report.json", param_count(self.model_config).to_json())
        self.emit("model_init.ckpt",
                  lambda path: save_checkpoint(path, self.model_config, self.params))

    def stage_scan(self) -> None:
        section = self.cfg.raw.get("layer_scan")
        if not section:
            return
        importance = layer_skip_eval(
            self.model_config,
            self.params,
            self.holdout_batches[: section["batches"]],
            windows=tuple(section["windows"]),
        )
        self.emit("importance.csv", importance.to_csv())

    def stage_train(self) -> None:
        section = self.cfg.raw["training"]
        if "lr" in section:
            lr = section["lr"]
        else:
            lr = scaled_lr(ScalingRule(**section["scaling"]),
                           section["batch_size"] * section["seq_len"])
        plan = TrainPlan(lr=lr, **{key: section[key] for key in (
            "weight_decay", "grad_clip", "rounds", "sampling_rate", "parts", "seed")})
        self.params, ledgers = multi_round_train(self.model_config, self.params,
                                                 self.train_batches, plan)
        self.emit("ledger.csv", ledgers_to_csv(ledgers))
        self.emit("curves.csv", curve_to_csv(ledgers, plan))
        scan = forgetting_scan(self.model_config, self.params, self.train_batches, ledgers[0])
        self.emit("forgetting.csv", csv_text(("part", "mean_loss"), enumerate(scan)))
        self.emit("model.ckpt", lambda path: save_checkpoint(path, self.model_config, self.params))

    def stage_eval(self) -> None:
        section = self.cfg.raw["evaluation"]
        items = None
        if "cloze_file" in section:
            items = self.input("evaluation.cloze_file")
            _at_run(_cloze_ids, items, self.post)
        report = perplexity(self.model_config, self.params, self.holdout_batches)
        self.emit("eval_perplexity.json", report.to_json())
        self.emit("eval_perplexity.csv", report.to_csv())
        if "cloze" in section:
            holdout_stream = np.concatenate([b.reshape(-1) for b in self.holdout_batches])
            items = make_cloze_items(holdout_stream, vocab_size=self.model_config.vocab_size,
                                     **section["cloze"])
            self.emit("cloze_items.jsonl", lambda path: save_cloze_items(items, path))
        if items:
            report = cloze_accuracy(self.model_config, self.params, items)
            self.emit("eval_cloze.json", report.to_json())
            self.emit("eval_cloze.csv", report.to_csv())


def run(config: PipelineConfig, until: str = "eval", dry_run: bool = False) -> RunManifest:
    """Execute the planned stages in order, none on a dry run, writing the
    manifest before the first, after each and on failure. First, on a dry run
    too, delete every file an earlier readable manifest in the output
    directory lists, except the config's input files. A config serves
    one run: the params stage releases the parsed parent checkpoint it holds."""
    runner = _Run(config, until)
    runner.out.mkdir(parents=True, exist_ok=True)
    _clear(runner.out, config)
    runner.write_manifest()
    try:
        for stage in [] if dry_run else runner.manifest.stages_planned:
            getattr(runner, f"stage_{stage}")()
            runner.manifest.stages_completed.append(stage)
            runner.write_manifest()
    except Exception as err:
        runner.manifest.failure = f"{stage}: {err}"
        runner.write_manifest()
        raise
    return runner.manifest


_HEADLINES = {  # listed artifact -> (headline, its value from the artifact's text)
    "arch_report.json": ("params", lambda text: read_json(text, "arch report")["total_params"]),
    "curves.csv": ("final_loss", lambda text: float(text.split()[-1].split(",")[2])),
    "eval_perplexity.json": ("perplexity", lambda text: read_json(text, "perplexity")["value"]),
    "eval_cloze.json": ("cloze", lambda text: read_json(text, "cloze")["value"]),
    "coverage.csv": ("coverage", lambda text: text.split()[-1]),
}


_UNREADABLE = (OSError, ValueError, KeyError, TypeError)  # what _manifest raises
_NUMERIC = {  # the manifest's numeric block: key -> whether a value fits it
    "dtype": lambda v: isinstance(v, str) and v in DTYPES,
    "numpy": lambda v: isinstance(v, str),
    "blas": lambda v: v is None or isinstance(v, str),  # None: no OpenBLAS to ask
    "blas_threads": lambda v: v is None or type(v) is int and v >= 1,
}


def _manifest(run_dir: Path) -> tuple[dict, list[tuple[str, str, int]]]:
    """A run directory's manifest fields, and the (name, sha256, bytes) of
    each artifact it lists; raises one of ``_UNREADABLE`` on a manifest that
    is missing or malformed."""
    manifest = read_json((run_dir / "manifest.json").read_bytes(), "manifest.json")
    if not isinstance(manifest, dict):
        raise TypeError("not a JSON object")
    rec = {key: manifest[key] for key in ("version", "seed", "stages_planned",
                                          "stages_completed", "artifacts")}
    listed = [(a["name"], a["sha256"], a["bytes"]) for a in rec["artifacts"]]
    for name, digest, nbytes in listed:
        if not isinstance(name, str) or name != Path(name).name or name in ("", ".", ".."):
            raise ValueError(f"artifact name {name!r} is not a file name")
        if not isinstance(digest, str) or type(nbytes) is not int or nbytes < 0:
            raise ValueError(f"artifact {name}: sha256 must be a string and bytes a count")
    for key in ("stages_planned", "stages_completed"):
        if not isinstance(rec[key], list) or not all(isinstance(s, str) for s in rec[key]):
            raise ValueError(f"{key} is not a list of stage names")
    numeric = rec["numeric"] = manifest.get("numeric")
    if not (isinstance(numeric, dict) and sorted(numeric) == sorted(_NUMERIC)
            and all(_NUMERIC[key](value) for key, value in numeric.items())):
        raise ValueError(f"numeric is not an object of {', '.join(_NUMERIC)}: {numeric!r}")
    rec["failure"] = manifest.get("failure")
    return rec, listed


def _clear(out: Path, config: PipelineConfig) -> None:
    """Delete the files an earlier run's readable manifest in ``out`` lists,
    so that the directory holds one run; the config's input files stay."""
    try:
        _, listed = _manifest(out)
    except _UNREADABLE:
        return
    keep = {_resolve(config.path, config.raw[section][key]).resolve()
            for section, _, key in (name.partition(".") for name in INPUTS)
            if key in config.raw.get(section, {})}
    for name, *_ in listed:
        path = out / name
        if path.is_file() and path.resolve() not in keep:
            path.unlink()


def _read_run(run_dir: Path) -> dict:
    """The one reader of a run directory: the manifest's fields, each listed
    artifact as (name, bytes, intact) after one hash, the headlines of intact
    ones, and ``complete``: no failure, no unfinished stage, no broken artifact."""
    try:
        rec, listed = _manifest(run_dir)
    except _UNREADABLE as err:
        reason = f"no key {err}" if isinstance(err, KeyError) else err
        return {"unreadable": f"manifest unreadable: {reason}", "complete": False}
    rec.update(artifacts=[], headlines={})
    for name, digest, nbytes in listed:
        data = (run_dir / name).read_bytes() if (run_dir / name).is_file() else None
        intact = data is not None and hashlib.sha256(data).hexdigest() == digest
        rec["artifacts"].append((name, nbytes, intact))
        if intact and name in _HEADLINES:
            key, parse = _HEADLINES[name]
            rec["headlines"][key] = parse(data.decode())
    rec["unfinished"] = [s for s in rec["stages_planned"] if s not in rec["stages_completed"]]
    rec["complete"] = not (rec["failure"] or rec["unfinished"]) and all(
        intact for *_, intact in rec["artifacts"])
    return rec


def report(output_dir) -> tuple[str, bool]:
    """Consolidated run summary. Returns (text, complete), ``complete`` by
    ``_read_run``'s rule. Pointed at a directory of runs instead of a single
    run, it renders one comparison row per run."""
    out = Path(output_dir)
    if not (out / "manifest.json").is_file():
        children = sorted(p for p in out.glob("*/manifest.json")) if out.is_dir() else []
        if children:
            return _family_report(out, [p.parent for p in children])
        return f"no manifest found in {out}", False
    rec = _read_run(out)
    lines = [f"run report: {out}"]
    if "unreadable" in rec:
        return "\n".join(lines + [rec["unreadable"]]) + "\n", False
    lines.append(f"toolkit version: {rec['version']}   seed: {rec['seed']}")
    numeric = rec["numeric"]
    lines.append(f"numeric: {numeric['dtype']}   numpy {numeric['numpy']}   "
                 f"BLAS {numeric['blas'] or 'unknown'}   "
                 f"BLAS threads {numeric['blas_threads'] or 'unknown'}")
    if rec["failure"]:
        lines.append(f"FAILED at {rec['failure']}")
    lines.append(
        f"stages: {', '.join(rec['stages_completed'])} "
        f"(planned: {', '.join(rec['stages_planned'])})"
    )
    for name, nbytes, intact in rec["artifacts"]:
        lines.append(f"  {name:28s} {nbytes:>10d} B  {'ok' if intact else 'MISSING/CHANGED'}")
    for key, text in (("perplexity", "perplexity: {:.6g}"), ("cloze", "cloze accuracy: {:.6g}"),
                      ("coverage", "coverage curve terminal: {}")):
        if key in rec["headlines"]:
            lines.append(text.format(rec["headlines"][key]))
    if rec["unfinished"] and not rec["failure"]:
        lines.append(f"unfinished stages: {rec['unfinished']}")
    return "\n".join(lines) + "\n", rec["complete"]


def _family_report(root: Path, run_dirs: list[Path]) -> tuple[str, bool]:
    """One comparison row per run: parameters, final train loss, metrics."""
    lines = [f"experiment family: {root} ({len(run_dirs)} runs)",
             f"{'run':20s} {'params':>10s} {'final_loss':>11s} {'perplexity':>11s} {'cloze':>7s}"]
    records = [_read_run(run_dir) for run_dir in run_dirs]
    for run_dir, rec in zip(run_dirs, records):
        headlines = rec.get("headlines", {})
        cells = [format(headlines[key], spec) if key in headlines else "-" for key, spec in (
            ("params", "d"), ("final_loss", ".4f"), ("perplexity", ".4g"), ("cloze", ".4g"))]
        row = f"{cells[0]:>10s} {cells[1]:>11s} {cells[2]:>11s} {cells[3]:>7s}"
        lines.append(f"{run_dir.name:20s} {rec.get('unreadable', row)}")
    return "\n".join(lines) + "\n", all(rec["complete"] for rec in records)
