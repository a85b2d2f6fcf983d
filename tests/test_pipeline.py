import builtins
import copy
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinylm
from tinylm.arch import ModelConfig, load_checkpoint, save_checkpoint
from tinylm import pipeline
from tinylm.cli import main
from tinylm.initializers import InitScheme, initialize
from tinylm.data import zipf_corpus
from tinylm.surgery import InheritancePlan, build_child, identity_plan
from tinylm.pipeline import FIELDS, ConfigError, OUTPUT_ENV_VAR, report, run, validate
from tinylm.tokenizer import (BASE_SIZE, Vocabulary, coverage_curve, encode, frequencies,
                             load_vocab, recode, save_vocab, train_bpe, vocab_id_map)
from test_arch import _with_manifest

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "configs" / "demo.json"


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "corpus": {"synthetic": {"n_bytes": 30_000, "seed": 1}},
        "tokenizer": {"train": {"target_size": 300}},
        "architecture": {
            "config": {"width": 16, "depth": 2, "n_heads": 2, "ffn_hidden": 24}
        },
        "init": {"scheme": "constant", "sigma": 0.02, "seed": 2},
        "training": {"seq_len": 16, "batch_size": 4, "max_batches": 10,
                     "lr": 3e-3, "parts": 4},
        "evaluation": {"holdout_batches": 2},
    }
    raw.update(overrides)
    return _write(tmp_path / name, raw)


def _write(path, raw):
    path.write_text(json.dumps(raw))
    return path


# ----------------------------------------------------------------- validate


def test_validate_fills_defaults(tmp_path):
    cfg = validate(write_config(tmp_path))
    assert cfg.raw["training"]["weight_decay"] == 0.1
    assert cfg.raw["training"]["rounds"] == 1
    assert cfg.raw["evaluation"]["holdout_batches"] == 2
    assert cfg.raw["init"]["scheme"] == "constant"


def test_validate_default_parts_is_eight(tmp_path):
    path = write_config(tmp_path, training={"seq_len": 16, "batch_size": 4,
                                            "lr": 1e-3})
    cfg = validate(path)
    assert cfg.raw["training"]["parts"] == 8


def test_validate_rejects_init_and_inheritance(tmp_path):
    path = write_config(
        tmp_path,
        inheritance={"parent_checkpoint": "x.ckpt", "plan": "p.json"},
    )
    with pytest.raises(ConfigError, match="init.*inheritance|inheritance.*init"):
        validate(path)


def test_validate_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, extra_section={"x": 1})
    with pytest.raises(ConfigError, match="extra_section"):
        validate(path)
    raw = json.loads(write_config(tmp_path).read_text())
    raw["training"]["warmup"] = 10
    path2 = tmp_path / "c2.json"
    path2.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="training.warmup"):
        validate(path2)


def test_validate_rejects_missing_corpus_file(tmp_path):
    path = write_config(tmp_path, corpus={"path": "no_such_corpus.txt"})
    with pytest.raises(ConfigError, match="corpus.path"):
        validate(path)


def test_validate_rejects_infeasible_search_budget(tmp_path):
    # budget far below the embedding/head floor for a 300-token vocabulary
    path = write_config(
        tmp_path,
        architecture={"search": {"budget": 2000, "depths": [2], "expansions": [2.0],
                                 "head_dim": 8}},
    )
    with pytest.raises(ConfigError, match="empty list"):
        validate(path)


def test_validate_requires_exactly_one_lr_source(tmp_path):
    path = write_config(tmp_path, training={"seq_len": 16, "batch_size": 4})
    with pytest.raises(ConfigError, match="lr"):
        validate(path)


BASE_TRAINING = {"seq_len": 16, "batch_size": 4, "max_batches": 10, "lr": 3e-3, "parts": 4}


@pytest.mark.parametrize(
    "section, key, bad",
    [
        ("training", "seq_len", 0),
        ("training", "batch_size", -1),
        ("training", "max_batches", 0),
        ("training", "rounds", 0),
        ("training", "parts", 2.5),
        ("training", "sampling_rate", 1.5),
        ("training", "lr", 0.0),
        ("training", "grad_clip", -1.0),
        ("evaluation", "holdout_batches", 0),
    ],
)
def test_validate_rejects_out_of_range_field(tmp_path, section, key, bad):
    base = {"training": BASE_TRAINING, "evaluation": {"holdout_batches": 2}}[section]
    path = write_config(tmp_path, **{section: {**base, key: bad}})
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        validate(path)


def test_validate_rejects_non_numeric_and_boolean_fields(tmp_path):
    for bad in ("32", True, None):
        path = write_config(tmp_path, training={**BASE_TRAINING, "seq_len": bad})
        with pytest.raises(ConfigError, match="training.seq_len"):
            validate(path)
    path = write_config(tmp_path, training={**BASE_TRAINING, "lr": float("nan")})
    with pytest.raises(ConfigError, match="training.lr"):
        validate(path)


FEASIBLE_SEARCH = {"search": {"budget": 30_000, "depths": [2], "expansions": [2.0, 3.0],
                              "tolerance": 0.2, "head_dim": 8}}


@pytest.mark.parametrize(
    "field, tokenizer",
    [
        ("tokenizer.train.target_size", {"train": {"target_size": "400"}}),
        ("tokenizer.compact.size",
         {"train": {"target_size": 300}, "compact": {"size": 255}}),
        ("tokenizer.compact.coverage",
         {"train": {"target_size": 300}, "compact": {"coverage": 1.5}}),
    ],
)
def test_validate_rejects_bad_tokenizer_field(tmp_path, capsys, field, tokenizer):
    # the architecture search pre-check reads these values, so they must be
    # checked before it runs
    assert validate(write_config(tmp_path, architecture=FEASIBLE_SEARCH))
    path = write_config(tmp_path, tokenizer=tokenizer, architecture=FEASIBLE_SEARCH)
    with pytest.raises(ConfigError, match=field):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


CLOZE = {"n_items": 4}


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("evaluation.cloze.n_items",
         {"evaluation": {"cloze": {"n_items": 0}}}),
        ("evaluation.cloze.n_candidates",
         {"evaluation": {"cloze": {**CLOZE, "n_candidates": 1}}}),
        ("evaluation.cloze.context_len",
         {"evaluation": {"cloze": {**CLOZE, "context_len": 0}}}),
        ("evaluation.cloze.candidate_len",
         {"evaluation": {"cloze": {**CLOZE, "candidate_len": "3"}}}),
        ("layer_scan.windows", {"layer_scan": {"windows": [0]}}),
        ("layer_scan.windows", {"layer_scan": {"windows": []}}),
        ("layer_scan.batches", {"layer_scan": {"batches": 0}}),
        ("training.weight_decay", {"training": {**BASE_TRAINING, "weight_decay": -1}}),
        ("training.weight_decay", {"training": {**BASE_TRAINING, "weight_decay": "x"}}),
    ],
    ids=["n_items", "n_candidates", "context_len", "candidate_len", "windows",
         "windows_empty", "scan_batches", "weight_decay", "weight_decay_type"],
)
def test_validate_rejects_bad_eval_scan_or_decay_field(tmp_path, capsys, field, overrides):
    # each of these used to surface only after training (exit 2), or never
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=field):
        validate(path)
    assert main(["run", str(path)]) == 1
    assert field in capsys.readouterr().err


SCALING = {"base_batch": 64, "base_lr": 1e-3, "increment_rate": 0.5}
NO_LR = {k: v for k, v in BASE_TRAINING.items() if k != "lr"}


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("architecture.search.pick",
         {"architecture": {"search": {**FEASIBLE_SEARCH["search"], "pick": "shallowest"}}}),
        ("architecture.search.pick",
         {"architecture": {"search": {**FEASIBLE_SEARCH["search"], "pick": 9}}}),
        ("training.scaling.base_lr",
         {"training": {**NO_LR, "scaling": {**SCALING, "base_lr": -0.001}}}),
        ("training.scaling.base_batch",
         {"training": {**NO_LR, "scaling": {"base_lr": 1e-3}}}),
        ("training.scaling.increment_rate",
         {"training": {**NO_LR, "scaling": {**SCALING, "increment_rate": 2}}}),
    ],
    ids=["pick_name", "pick_index", "base_lr", "base_batch_missing", "increment_rate"],
)
def test_validate_rejects_bad_pick_or_scaling_field(tmp_path, capsys, field, overrides):
    # each of these used to pass validate and fail the run later with exit 2
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=field):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


def test_run_time_pick_out_of_range_is_config_error(tmp_path, capsys):
    # validate counts 3 configs for the 280-token target; compaction leaves
    # 278 tokens, for which the search finds 2
    search = {"budget": 30_000, "depths": [1, 2, 3], "expansions": [1.0, 2.0, 3.0, 4.0],
              "tolerance": 0.05, "head_dim": 8, "pick": 2}
    path = write_config(tmp_path, architecture={"search": search},
                        tokenizer={"train": {"target_size": 280}, "compact": {"coverage": 0.9}})
    assert main(["validate", str(path)]) == 0
    assert main(["search-arch", str(path)]) == 1
    assert "architecture.search.pick 2 is out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("architecture.search.head_dim",
         {"architecture": {"search": {**FEASIBLE_SEARCH["search"], "head_dim": 0}}}),
        ("architecture.search.depths",
         {"architecture": {"search": {**FEASIBLE_SEARCH["search"], "depths": "x"}}}),
        ("corpus.synthetic.n_bytes", {"corpus": {"synthetic": {"n_bytes": -5, "seed": 1}}}),
        ("corpus.synthetic", {"corpus": {"synthetic": 5}}),
        ("architecture.search.head_dim must be even",
         {"architecture": {"search": {**FEASIBLE_SEARCH["search"], "head_dim": 15}}}),
    ],
    ids=["head_dim_zero", "depths_string", "n_bytes_negative", "synthetic_not_object",
         "head_dim_odd"],
)
def test_validate_rejects_search_or_corpus_field(tmp_path, capsys, field, overrides):
    # the first two used to die in validate with a raw ZeroDivisionError or
    # TypeError, the corpus values passed validate, and an odd head_dim was
    # reported as "no feasible config for this budget"
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=field):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


def test_validate_accepts_search_pick_index_and_scaling(tmp_path):
    search = {**FEASIBLE_SEARCH["search"], "pick": 0}
    cfg = validate(write_config(tmp_path, architecture={"search": search},
                                training={**NO_LR, "scaling": SCALING}))
    assert cfg.raw["architecture"]["search"]["pick"] == 0


def test_validate_accepts_range_edges(tmp_path):
    training = {**BASE_TRAINING, "seq_len": 1, "sampling_rate": 1.0, "grad_clip": 0.0,
                "max_batches": None}
    cfg = validate(write_config(tmp_path, training=training))
    assert cfg.raw["training"]["grad_clip"] == 0.0


@pytest.mark.parametrize(
    "field, config, gqa_groups",
    [
        ("architecture.config.n_heads", {"n_heads": 0}, None),
        ("architecture.config: width 15", {"width": 15}, None),
        ("architecture.config: n_heads 2 not divisible by kv_groups 3", {"kv_groups": 3}, None),
        ("inheritance.gqa_groups: gqa_groups 3 does not divide child n_heads 2", {}, 3),
    ],
    ids=["n_heads_zero", "width_15", "kv_groups_3", "gqa_groups_3"],
)
def test_validate_checks_architecture_config(tmp_path, capsys, field, config, gqa_groups):
    # each of these used to pass validate and fail after the tokenizer stage
    arch = {"config": {"width": 16, "depth": 2, "n_heads": 2, "ffn_hidden": 24, **config}}
    path = write_config(tmp_path, architecture=arch)
    if gqa_groups is not None:
        plan = identity_plan(_save_parent(tmp_path / "parent.ckpt"))
        (tmp_path / "plan.json").write_text(plan.to_json())
        raw = json.loads(path.read_text())
        del raw["init"]
        raw["inheritance"] = {"parent_checkpoint": "parent.ckpt", "plan": "plan.json",
                              "gqa_groups": gqa_groups}
        _write(path, raw)
    with pytest.raises(ConfigError, match=field):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("architecture", [None, FEASIBLE_SEARCH], ids=["config", "search"])
def test_validate_rejects_malformed_tokenizer_load(tmp_path, architecture):
    # this used to pass validate, or read as an infeasible search over a
    # 2-token vocabulary
    (tmp_path / "vocab.txt").write_text("not a vocabulary\n#MERGES\n")
    overrides = {"tokenizer": {"load": "vocab.txt"}}
    if architecture:
        overrides["architecture"] = architecture
    with pytest.raises(ConfigError, match="tokenizer.load"):
        validate(write_config(tmp_path, **overrides))


def test_validate_rejects_a_vocabulary_merge_with_a_negative_operand(tmp_path, capsys):
    # this used to pass validate and run, with token 256 never produced
    lines = [bytes([i]).hex() for i in range(BASE_SIZE)]
    lines += ["787961", "7879", "#MERGES", "-1 97 256", "120 121 257"]
    (tmp_path / "vocab.txt").write_text("\n".join(lines) + "\n")
    path = write_config(tmp_path, tokenizer={"load": "vocab.txt"})
    with pytest.raises(ConfigError, match="tokenizer.load"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "tokenizer.load" in capsys.readouterr().err


def test_validate_rejects_a_vocabulary_with_two_tokens_of_the_same_bytes(tmp_path, capsys):
    # this used to pass validate: 258 (ab+c) and 259 (a+bc) are both "abc"
    vocab = Vocabulary.base()
    for left, right in [(97, 98), (98, 99), (256, 99), (97, 257)]:
        vocab.merges.append((left, right, vocab.size))
        vocab.tokens.append(vocab.tokens[left] + vocab.tokens[right])
    save_vocab(vocab, tmp_path / "vocab.txt")
    path = write_config(tmp_path, tokenizer={"load": "vocab.txt"})
    with pytest.raises(ConfigError, match="tokenizer.load"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "tokens 258 and 259" in capsys.readouterr().err


def _save_parent(path, **config):
    """A small checkpoint for configs to inherit from; returns its config."""
    cfg = ModelConfig(**{"vocab_size": BASE_SIZE, "width": 16, "depth": 2, "n_heads": 2,
                         "kv_groups": 2, "ffn_hidden": 24, **config})
    save_checkpoint(path, cfg, initialize(cfg, InitScheme("constant", 0.02, seed=0)))
    return cfg


def _inheriting(tmp_path, parent=None, child=None, **inheritance):
    """The write_config config with an inheritance section in place of init,
    from a parent shaped like its child unless ``parent`` overrides that;
    ``child`` overrides architecture.config fields."""
    _save_parent(tmp_path / "parent.ckpt", **(parent or {}))
    raw = json.loads(write_config(tmp_path).read_text())
    del raw["init"]
    raw["architecture"]["config"].update(child or {})
    raw["inheritance"] = {"parent_checkpoint": "parent.ckpt", **inheritance}
    return _write(tmp_path / "config.json", raw)


@pytest.mark.parametrize("keep_ends", [[1], [1, 1, 0], [3, 3], [2, 1]],
                         ids=["one_item", "three_items", "sum_6_over_depth_2",
                              "sum_3_over_depth_2"])
def test_validate_checks_keep_ends(tmp_path, capsys, keep_ends):
    # each of these used to pass validate and fail in surgery with exit 2
    path = _inheriting(tmp_path, generate={"keep_ends": keep_ends})
    with pytest.raises(ConfigError, match="inheritance.generate.keep_ends"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "inheritance.generate.keep_ends" in capsys.readouterr().err


def test_validate_accepts_keep_ends_filling_the_depth(tmp_path):
    validate(_inheriting(tmp_path, generate={"keep_ends": [2, 0]}))
    validate(_inheriting(tmp_path, generate={"keep_ends": [1, 1]}))


@pytest.mark.parametrize("parent, keep_ends, message", [
    ({"depth": 1}, [1, 0], "architecture.config.depth: child depth 2 exceeds parent depth 1"),
    ({"width": 32}, [1, 1],
     "architecture.config.head_dim: child head_dim 8 .* differs from parent head_dim 16"),
    ({"depth": 3}, [2, 2], "inheritance.generate.keep_ends"),
    ({"width": 8, "n_heads": 1, "kv_groups": 1, "vocab_size": 300}, [1, 1],
     "architecture.config.n_heads: child n_heads 2 exceeds parent n_heads 1"),
    ({"ffn_hidden": 16, "vocab_size": 300}, [1, 1],
     "architecture.config.ffn_hidden: child ffn_hidden 24 exceeds parent ffn_hidden 16"),
], ids=["child_deeper", "head_dim_16_vs_8", "keep_ends_sum_4_over_3", "child_more_heads",
        "child_more_ffn"])
def test_validate_checks_the_parent_checkpoint(tmp_path, capsys, parent, keep_ends, message):
    # all but keep_ends_sum_4_over_3 used to pass validate and fail in surgery
    # with exit 2
    path = _inheriting(tmp_path, parent, generate={"keep_ends": keep_ends})
    with pytest.raises(ConfigError, match=f"{message}.*inheritance.parent_checkpoint"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "inheritance.parent_checkpoint" in capsys.readouterr().err


# parent, child (architecture.config fields over width 16, n_heads 2) and the
# error under inheritance.generate and under a plan file that keeps the
# child's heads (the first ones) and residual channels. Each used to pass
# validate and fail at the params stage with exit 2; the parent matches the
# trained vocabulary so that nothing else stops the run.
V300 = {"vocab_size": 300}
KV_DEFECTS = {
    "mha_parent_child_kv_groups_2_of_4": (
        {"n_heads": 4, "kv_groups": 4, **V300}, {"n_heads": 4, "kv_groups": 2},
        "architecture.config.kv_groups: head-level surgery needs an MHA child, but child "
        "kv_groups 2 differs from n_heads 4",
        "inheritance.plan: child kv_groups 2 must match parent 4"),
    "child_kv_groups_1_of_2": (
        {"width": 32, "n_heads": 4, "kv_groups": 4, **V300}, {"kv_groups": 1},
        "architecture.config.kv_groups: head-level surgery needs an MHA child, but child "
        "kv_groups 1 differs from n_heads 2",
        "inheritance.plan: head-level surgery needs an MHA child, but child kv_groups 1 "
        "differs from n_heads 2"),
    "grouped_kv_parent": (
        {"width": 32, "n_heads": 4, "kv_groups": 2, **V300}, {},
        "inheritance.parent_checkpoint: head-level surgery needs an MHA parent, but parent "
        "kv_groups 2 differs from n_heads 4",
        "inheritance.plan: head-level surgery needs an MHA parent"),
}


@pytest.mark.parametrize("source", ["generate", "plan"])
@pytest.mark.parametrize("parent, child, generate_error, plan_error", KV_DEFECTS.values(),
                         ids=KV_DEFECTS)
def test_validate_checks_kv_groups_against_surgery(tmp_path, capsys, source, parent, child,
                                                   generate_error, plan_error):
    if source == "generate":
        path, message = _inheriting(tmp_path, parent, child,
                                    generate={"keep_ends": [1, 1]}), generate_error
    else:
        cfg = _save_parent(tmp_path / "parent.ckpt", **parent)
        plan = identity_plan(cfg)
        kept = list(range(child.get("n_heads", 2)))
        plan.head_indices, plan.channel_plan = [kept, kept], list(range(16))
        (tmp_path / "plan.json").write_text(plan.to_json())
        path, message = _inheriting(tmp_path, parent, child, plan="plan.json"), plan_error
    with pytest.raises(ConfigError, match=message):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_validate_rejects_gqa_groups_for_a_grouped_kv_child(tmp_path, capsys):
    # this used to pass validate and fail in surgery with exit 2, since
    # convert_to_gqa takes only an MHA child; without gqa_groups it passes
    shape = {"width": 32, "n_heads": 4, "kv_groups": 2, "ffn_hidden": 48}
    (tmp_path / "plan.json").write_text(identity_plan(ModelConfig(256, **shape, depth=2)).to_json())
    save_vocab(Vocabulary.base(), tmp_path / "vocab.txt")
    raw = json.loads(_inheriting(tmp_path, shape, shape, plan="plan.json",
                                 gqa_groups=1).read_text())
    path = _write(tmp_path / "config.json", {**raw, "tokenizer": {"load": "vocab.txt"}})
    message = ("inheritance.gqa_groups: gqa_groups needs an MHA child, but child kv_groups 2 "
               "differs from n_heads 4")
    with pytest.raises(ConfigError, match=message):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err
    del raw["inheritance"]["gqa_groups"]
    validate(_write(path, {**raw, "tokenizer": {"load": "vocab.txt"}}))


def test_validate_rejects_a_corrupt_parent_checkpoint(tmp_path):
    path = _inheriting(tmp_path, generate={})
    (tmp_path / "parent.ckpt").write_bytes(b"TLMCKPT1" + b"\xff" * 8)
    with pytest.raises(ConfigError, match="inheritance.parent_checkpoint: checkpoint manifest"):
        validate(path)


def test_validate_parses_inheritance_plan(tmp_path, capsys):
    (tmp_path / "plan.json").write_text("not json")
    path = _inheriting(tmp_path, plan="plan.json")
    with pytest.raises(ConfigError, match="inheritance.plan"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "inheritance.plan" in capsys.readouterr().err
    (tmp_path / "plan.json").write_text('{"kept_layers": []}')
    with pytest.raises(ConfigError, match="inheritance.plan"):
        validate(path)


@pytest.mark.parametrize("text", ["not json\n", '{"context": [], "candidates": [], "gold": 0}\n'],
                         ids=["not_json", "empty_item"])
def test_validate_parses_cloze_file(tmp_path, capsys, text):
    (tmp_path / "cloze.jsonl").write_text(text)
    path = write_config(tmp_path, evaluation={"holdout_batches": 2, "cloze_file": "cloze.jsonl"})
    with pytest.raises(ConfigError, match="evaluation.cloze_file"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "evaluation.cloze_file" in capsys.readouterr().err


def _lead_with(text: str, key: str, value) -> str:
    """JSON object text with ``key``: ``value`` put first, so that a reader
    that keeps a repeated key's last value reads ``text`` unchanged."""
    return text.replace("{", "{" + json.dumps(key) + ": " + json.dumps(value) + ", ", 1)


def _input_with_a_repeated_key(tmp_path, field):
    """A config that validate accepted when its ``field`` input file repeated a key."""
    if field == "inheritance.parent_checkpoint":
        path = _inheriting(tmp_path, generate={"keep_ends": [1, 1]})
        raw = (tmp_path / "parent.ckpt").read_bytes()
        (mlen,) = struct.unpack("<Q", raw[8:16])
        new = _lead_with(raw[16 : 16 + mlen].decode(), "dtype", "float16").encode()
        (tmp_path / "parent.ckpt").write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new
                                               + raw[16 + mlen :])
        return path
    if field == "inheritance.plan":
        plan = identity_plan(ModelConfig(BASE_SIZE, 16, 2, 2, 2, 24)).to_json()
        (tmp_path / "plan.json").write_text(_lead_with(plan, "kept_layers", []))
        save_vocab(Vocabulary.base(), tmp_path / "vocab.txt")
        raw = json.loads(_inheriting(tmp_path, plan="plan.json").read_text())
        return _write(tmp_path / "config.json", {**raw, "tokenizer": {"load": "vocab.txt"}})
    item = json.dumps({"context": [1, 2], "candidates": [[3], [4]], "gold": 0})
    (tmp_path / "cloze.jsonl").write_text(_lead_with(item, "gold", 1) + "\n")
    return write_config(tmp_path, evaluation={"holdout_batches": 2, "cloze_file": "cloze.jsonl"})


@pytest.mark.parametrize("field, message", [
    ("inheritance.parent_checkpoint", "checkpoint manifest repeats the key 'dtype'"),
    ("inheritance.plan", "plan repeats the key 'kept_layers'"),
    ("evaluation.cloze_file", "cloze item 0 repeats the key 'gold'"),
], ids=["checkpoint", "plan", "cloze_file"])
def test_validate_refuses_a_repeated_key_in_an_input_file(tmp_path, capsys, field, message):
    # each used to pass, keeping the key's last value
    path = _input_with_a_repeated_key(tmp_path, field)
    assert main(["validate", str(path)]) == 1
    assert f"config error: {field}: {message}" in capsys.readouterr().err


def test_validate_rejects_a_cloze_shape_the_holdout_stream_cannot_fit(tmp_path, capsys):
    # used to pass validate and fail after training (exit 2). The hold-out
    # stream is 2 batches x 4 x (16 + 1) = 136 ids; an item needs
    # context_len + candidate_len + 1 of them
    cloze = {"n_items": 2, "context_len": 132, "candidate_len": 3}
    fits = write_config(tmp_path, "fits.json",
                        evaluation={"holdout_batches": 2, "cloze": cloze})
    assert main(["run", str(fits)]) == 0
    path = write_config(tmp_path, evaluation={"holdout_batches": 2,
                                              "cloze": {**cloze, "context_len": 133}})
    with pytest.raises(ConfigError, match="evaluation.cloze.context_len"):
        validate(path)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert "evaluation.cloze.context_len" in capsys.readouterr().err


@pytest.mark.parametrize("tokenizer, bound", [
    ({"train": {"target_size": 300}}, 300),
    ({"train": {"target_size": 300}, "compact": {"size": 280}}, 280),
    # compaction never grows the vocabulary: a larger size leaves target_size the bound
    ({"train": {"target_size": 300}, "compact": {"size": 400}}, 300),
], ids=["target_size", "compact_size", "compact_size_over_target"])
def test_validate_rejects_cloze_file_ids_past_the_vocabulary(tmp_path, capsys, tokenizer,
                                                             bound):
    # used to pass validate and fail after training (exit 2)
    def config_with_id(token):
        item = {"context": [1, 2], "candidates": [[3], [token]], "gold": 0}
        (tmp_path / f"cloze{token}.jsonl").write_text(json.dumps(item) + "\n")
        return write_config(tmp_path, f"config{token}.json", tokenizer=tokenizer,
                            evaluation={"holdout_batches": 2,
                                        "cloze_file": f"cloze{token}.jsonl"})

    validate(config_with_id(bound - 1))
    path = config_with_id(bound)
    with pytest.raises(ConfigError, match="evaluation.cloze_file"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "evaluation.cloze_file" in capsys.readouterr().err


@pytest.mark.parametrize("tokenizer, bound", [
    ({"train": {"target_size": 300}}, 300),
    ({"train": {"target_size": 300}, "compact": {"size": 280}}, 280),
    # compaction never grows the vocabulary: a larger size leaves target_size the bound
    ({"train": {"target_size": 300}, "compact": {"size": 400}}, 300),
], ids=["target_size", "compact_size", "compact_size_over_target"])
def test_validate_rejects_a_model_vocab_size_past_the_vocabulary(tmp_path, capsys, tokenizer,
                                                                 bound):
    # used to pass validate and fail at the arch stage (exit 2)
    def config_with_size(size):
        arch = {"config": {"width": 16, "depth": 2, "n_heads": 2, "ffn_hidden": 24,
                           "vocab_size": size}}
        return write_config(tmp_path, f"config{size}.json", tokenizer=tokenizer,
                            architecture=arch)

    validate(config_with_size(bound))
    path = config_with_size(bound + 1)
    with pytest.raises(ConfigError, match="architecture.config.vocab_size"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "architecture.config.vocab_size" in capsys.readouterr().err


def test_validate_refuses_a_parent_whose_width_is_not_an_integer(tmp_path, capsys):
    # used to pass validate; surgery then failed with exit 2 and a TypeError naming no field
    path = _inheriting(tmp_path, generate={"keep_ends": [1, 1]})
    _with_manifest(tmp_path / "parent.ckpt",
                   lambda m: {**m, "config": {**m["config"], "width": 16.0}})
    assert main(["validate", str(path)]) == 1
    assert ("inheritance.parent_checkpoint: checkpoint 'config' is invalid: width must be an "
            "integer, got 16.0") in capsys.readouterr().err


def test_validate_rejects_a_truncated_parent_checkpoint(tmp_path, capsys):
    # used to pass validate, which read only the header, and fail at params with exit 2
    path = _inheriting(tmp_path, generate={})
    ckpt = tmp_path / "parent.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "inheritance.parent_checkpoint: checkpoint truncated in tensor" in err


@pytest.mark.parametrize("tensor", ["layers.0.attn_norm", "embed"])
def test_validate_rejects_a_non_finite_parent_value(tmp_path, capsys, tensor):
    # both used to pass validate: a NaN norm weight made the run fail at params with
    # exit 2, and a NaN only in an embedding row that compaction drops let it exit 0
    run(validate(write_config(tmp_path, name="parent.json",
                              output_dir=str(tmp_path / "parent"))), until="train")
    raw = json.loads(write_config(tmp_path).read_text())
    del raw["init"]
    raw["tokenizer"]["compact"] = {"size": 290}
    raw["inheritance"] = {"parent_checkpoint": "parent/model.ckpt",
                          "generate": {"keep_ends": [1, 1]}}
    path = _write(tmp_path / "child.json", raw)
    run(validate(path), until="tokenizer")
    kept = vocab_id_map(load_vocab(tmp_path / "out" / "vocab_compact.txt"),
                        load_vocab(tmp_path / "out" / "vocab.txt"))
    dropped = min(set(range(len(kept) + 1)) - set(kept))
    index = 3 if tensor == "layers.0.attn_norm" else dropped * 16 + 5  # width 16
    config, params = load_checkpoint(tmp_path / "parent" / "model.ckpt")
    params[tensor].data.reshape(-1)[index] = np.nan
    save_checkpoint(tmp_path / "parent" / "model.ckpt", config, params)
    message = f"inheritance.parent_checkpoint: tensor {tensor!r} is nan at flat index {index}"
    with pytest.raises(ConfigError, match=message):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err


def _with_plan(tmp_path, **fields):
    """The write_config config inheriting through a plan file: the identity
    plan of a parent shaped like the child, with ``fields`` replaced."""
    parent = _save_parent(tmp_path / "parent.ckpt")
    plan = {**json.loads(identity_plan(parent).to_json()), **fields}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    return _inheriting(tmp_path, plan="plan.json")


# one case per check of InheritancePlan.validate_structure; a parent whose
# head_dim differs from the child's is named as inheritance.parent_checkpoint
PLAN_DEFECTS = {
    "kept_layer_id": ({"kept_layers": [0, 2]}, "kept_layers entry 2 outside"),
    "kept_layer_count": ({"kept_layers": [0]}, "plan keeps 1 layers, child depth is 2"),
    "units_per_layer": ({"head_indices": [[0, 1]]}, "head_indices must hold one list"),
    "head_id": ({"head_indices": [[1, 0], [0, 1]]}, "head_indices must be strictly increasing"),
    "ffn_id": ({"ffn_indices": [list(range(24)), list(range(1, 25))]}, "ffn_indices entry 24"),
    "head_count": ({"head_indices": [[0], [0, 1]]}, "plan retains 1 heads, child has 2"),
    "ffn_count": ({"ffn_indices": [list(range(23)), list(range(24))]},
                  "plan retains 23 FFN channels"),
    "channel_id": ({"channel_plan": [0] * 16}, "channel_plan must be strictly increasing"),
    "channel_count": ({"channel_plan": list(range(15))}, "channel plan length 15 != child"),
    "vocab_id": ({"vocab_map": [256]}, "vocab_map entry 256 outside"),
}


@pytest.mark.parametrize("fields, message", PLAN_DEFECTS.values(), ids=PLAN_DEFECTS)
def test_validate_checks_the_plan_against_parent_and_child(tmp_path, capsys, fields, message):
    # each of these used to pass validate and fail in surgery with exit 2
    path = _with_plan(tmp_path, **fields)
    with pytest.raises(ConfigError, match=f"inheritance.plan: {message}"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "inheritance.plan" in capsys.readouterr().err


# the cases whose check needs only the parent, and a head-pruning plan for a
# grouped-KV parent (2 heads sharing 1 KV head)
PARENT_PLAN_DEFECTS = {
    **{k: (None, *PLAN_DEFECTS[k]) for k in ("kept_layer_id", "units_per_layer", "head_id",
                                             "ffn_id", "channel_id", "vocab_id")},
    "pruned_heads_of_grouped_kv_parent": ({"kv_groups": 1}, {"head_indices": [[0], [0]]},
                                          "head-level surgery needs an MHA parent"),
}


@pytest.mark.parametrize("parent, fields, message", PARENT_PLAN_DEFECTS.values(),
                         ids=PARENT_PLAN_DEFECTS)
def test_validate_checks_the_plan_against_the_parent_under_search(tmp_path, capsys, parent,
                                                                   fields, message):
    # with no fixed child these used to pass validate and fail in surgery
    # with exit 2
    raw = json.loads(_with_plan(tmp_path, **fields).read_text())
    raw["architecture"] = FEASIBLE_SEARCH
    if parent:
        _save_parent(tmp_path / "parent.ckpt", **parent)
    path = _write(tmp_path / "config.json", raw)
    with pytest.raises(ConfigError, match=f"inheritance.plan: {message}"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert "inheritance.plan" in capsys.readouterr().err


# each used to pass validate and fail at the params stage: no vocabulary the
# tokenizer can make has the parent's size, so no vocab map can be derived
PARENT_VOCAB_DEFECTS = {
    "above_target_size": ({"train": {"target_size": 300}}, 400,
                          "vocab_size 400 exceeds tokenizer.train.target_size 300"),
    "above_target_size_with_compaction": (
        {"train": {"target_size": 300}, "compact": {"size": 280}}, 301,
        "vocab_size 301 exceeds tokenizer.train.target_size 300"),
    "above_loaded_size": ({"load": "vocab.txt", "compact": {"size": 256}}, 261,
                          "vocab_size 261 exceeds tokenizer.load 260"),
    "loaded_size_uncompacted": ({"load": "vocab.txt"}, 256,
                                "vocab_size 256 differs from the 260 tokens of tokenizer.load"),
}


def _generating(tmp_path, tokenizer, parent_size):
    """A generated-plan config from a parent of ``parent_size`` tokens, with a
    260-token vocabulary file beside it."""
    save_vocab(train_bpe(zipf_corpus(3_000, seed=1), 260), tmp_path / "vocab.txt")
    path = _inheriting(tmp_path, {"vocab_size": parent_size},
                       generate={"keep_ends": [1, 1], "criterion": "l2", "batches": 1})
    return _write(path, {**json.loads(path.read_text()), "tokenizer": tokenizer})


@pytest.mark.parametrize("tokenizer, parent_size, message", PARENT_VOCAB_DEFECTS.values(),
                         ids=PARENT_VOCAB_DEFECTS)
def test_validate_refuses_a_parent_vocabulary_no_tokenizer_makes(tmp_path, capsys, tokenizer,
                                                                 parent_size, message):
    path = _generating(tmp_path, tokenizer, parent_size)
    with pytest.raises(ConfigError, match=f"inheritance.parent_checkpoint: {message}"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tokenizer, parent_size", [
    ({"train": {"target_size": 300}}, 300), ({"train": {"target_size": 300}}, 256),
    ({"load": "vocab.txt"}, 260), ({"load": "vocab.txt", "compact": {"size": 256}}, 256),
], ids=["trained", "trained_below_target", "loaded", "loaded_and_compacted"])
def test_validate_accepts_a_parent_vocabulary_a_tokenizer_can_make(tmp_path, tokenizer,
                                                                   parent_size):
    validate(_generating(tmp_path, tokenizer, parent_size))


@pytest.mark.parametrize("parent_size", [300, 280], ids=["pre_compaction", "compacted"])
def test_a_generated_plan_maps_the_child_rows_to_the_parents_vocabulary(tmp_path, parent_size):
    tokenizer = {"train": {"target_size": 300}, "compact": {"size": 280}}
    run(validate(_generating(tmp_path, tokenizer, parent_size)), until="params")
    out = tmp_path / "out"
    full, compacted = load_vocab(out / "vocab.txt"), load_vocab(out / "vocab_compact.txt")
    vocab_map = json.loads((out / "plan.json").read_text())["vocab_map"]
    if parent_size == full.size:
        assert vocab_map == vocab_id_map(compacted, full) != list(range(compacted.size))
    else:
        assert vocab_map == list(range(compacted.size))


def test_a_gqa_groups_run_writes_a_grouped_kv_child(tmp_path):
    path = _inheriting(tmp_path, {"vocab_size": 300}, gqa_groups=1,
                       generate={"keep_ends": [1, 1], "criterion": "l2", "batches": 1})
    run(validate(path), until="params")
    config, _ = load_checkpoint(tmp_path / "out" / "model_init.ckpt")
    assert (config.n_heads, config.kv_groups) == (2, 1)


@pytest.mark.parametrize("corpus, field", [
    ({"synthetic": {"n_bytes": 800, "seed": 1}}, "corpus.synthetic.n_bytes"),
    ({"path": "corpus.bin"}, "corpus.path"),
], ids=["synthetic", "file"])
def test_validate_refuses_a_corpus_too_short_for_the_batches(tmp_path, capsys, corpus, field):
    # the demo's batches need (3 + 1) x 8 x (32 + 1) = 1056 tokens; a shorter
    # corpus used to pass validate and fail at the arch stage with exit 2
    (tmp_path / "corpus.bin").write_bytes(b"x" * 1055)
    path = _write(tmp_path / "demo.json", {**json.loads(DEMO.read_text()), "corpus": corpus})
    with pytest.raises(ConfigError, match=f"{field}: .* 1056 tokens"):
        validate(path)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    for name in (field, "evaluation.holdout_batches", "training.batch_size", "training.seq_len"):
        assert name in err
    (tmp_path / "corpus.bin").write_bytes(b"x" * 1056)
    validate(_write(path, {**json.loads(path.read_text()), "corpus": {"path": "corpus.bin"}}))


def test_plan_vocab_map_length_is_checked_at_params(tmp_path):
    # the child's vocabulary size is known only after the tokenizer stage:
    # the parent's 256 rows against the trained tokenizer's 300
    cfg = validate(_with_plan(tmp_path))
    with pytest.raises(pipeline.PipelineError,
                       match="inheritance.plan: vocab map length 256 != child vocab 300"):
        run(cfg, until="params")


def test_validate_checks_a_plan_files_vocab_map_against_an_exact_vocabulary(tmp_path, capsys):
    # a loaded vocabulary with no compaction is the run's final one, so the
    # plan's 256-row vocab_map is checked against its 260 tokens before the run
    path = _with_plan(tmp_path)
    save_vocab(train_bpe(zipf_corpus(3_000, seed=1), 260), tmp_path / "vocab.txt")
    path = _write(path, {**json.loads(path.read_text()), "tokenizer": {"load": "vocab.txt"}})
    message = "inheritance.plan: vocab map length 256 != child vocab 260"
    with pytest.raises(ConfigError, match=message):
        validate(path)
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_validate_checks_the_searched_child_of_an_exact_vocabulary(tmp_path, capsys):
    # with the loaded vocabulary the run's own, validate's search picks the
    # run's child, so gqa_groups is checked against its n_heads
    raw = json.loads(_inheriting(tmp_path, generate={"keep_ends": [1, 1]},
                                 gqa_groups=1000).read_text())
    save_vocab(Vocabulary.base(), tmp_path / "vocab.txt")
    raw.update(tokenizer={"load": "vocab.txt"}, architecture=FEASIBLE_SEARCH)
    path = _write(tmp_path / "config.json", raw)
    assert main(["validate", str(path)]) == 1
    assert re.search(r"inheritance.gqa_groups: gqa_groups 1000 does not divide child n_heads "
                     r"\d+ \(.*child: architecture.search.pick\)", capsys.readouterr().err)


# Each case passes validate, which knows the size only as a bound, and fails
# at run time with exit 2 and a message naming the fields; one case per
# entry of validate's docstring that no other test runs.


def test_run_time_a_corpus_bpe_compresses_below_the_batches(tmp_path, capsys):
    # 1,200 bytes clear the 204 bytes (2 + 1) x 4 x (16 + 1) the batches need,
    # and BPE merges them into 5 tokens; this used to exit 2 with a ValueError
    # that named no field
    (tmp_path / "corpus.bin").write_bytes(b"ab" * 600)
    path = write_config(tmp_path, corpus={"path": "corpus.bin"})
    assert main(["validate", str(path)]) == 0
    assert main(["search-arch", str(path)]) == 2
    err = capsys.readouterr().err
    assert "corpus.path: a stream of 5 tokens cannot fill the 204 tokens" in err
    for name in ("evaluation.holdout_batches", "training.batch_size", "training.seq_len"):
        assert name in err


def test_run_time_a_parent_vocabulary_below_the_trained_one(tmp_path, capsys):
    # a target_size above the parent's 256 tokens passes validate, since BPE
    # may stop early at 256; here it reaches 300, and no vocab map can be derived
    path = _inheriting(tmp_path, {"vocab_size": 256},
                       generate={"keep_ends": [1, 1], "criterion": "l2", "batches": 1})
    assert main(["validate", str(path)]) == 0
    assert main(["surgery", str(path)]) == 2
    err = capsys.readouterr().err
    assert "inheritance.parent_checkpoint: vocab_size 256 differs from the 300 tokens of " \
           "tokenizer.train.target_size" in err
    assert "setting tokenizer.train.target_size to 256 trains a vocabulary of that size" in err
    # and the advice holds
    raw = json.loads(path.read_text())
    raw["tokenizer"]["train"]["target_size"] = 256
    assert main(["surgery", str(_write(path, raw))]) == 0


def test_run_time_a_cloze_file_id_past_the_compacted_vocabulary(tmp_path, capsys):
    # coverage compaction keeps at most the 280 trained tokens, so id 279
    # passes validate; on this corpus it keeps fewer
    item = {"context": [1, 2], "candidates": [[3], [279]], "gold": 0}
    (tmp_path / "cloze.jsonl").write_text(json.dumps(item) + "\n")
    path = write_config(tmp_path, tokenizer={"train": {"target_size": 280},
                                             "compact": {"coverage": 0.9}},
                        evaluation={"holdout_batches": 2, "cloze_file": "cloze.jsonl"})
    assert main(["validate", str(path)]) == 0
    assert main(["eval", str(path)]) == 2
    size = load_vocab(tmp_path / "out" / "vocab_compact.txt").size
    assert size <= 279
    assert (f"evaluation.cloze_file: item 0 holds token id 279, outside the vocabulary of "
            f"{size} tokens") in capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["failure"].startswith(
        "eval: ")


def test_run_time_gqa_groups_against_the_searched_child(tmp_path, capsys):
    # the search runs against the trained vocabulary, so validate cannot know
    # the child's n_heads; no searched child has 1000 heads
    raw = json.loads(_inheriting(tmp_path, V300, generate={"keep_ends": [1, 1]},
                                 gqa_groups=1000).read_text())
    path = _write(tmp_path / "config.json", {**raw, "architecture": FEASIBLE_SEARCH})
    assert main(["validate", str(path)]) == 0
    assert main(["surgery", str(path)]) == 2
    assert re.search(r"inheritance.gqa_groups: gqa_groups 1000 does not divide child n_heads "
                     r"\d+ \(.*child: architecture.search.pick\)", capsys.readouterr().err)


# Two valid configs that between them use every section: the first searches,
# initializes, scales the lr, makes cloze items and scans layers; the second
# names an explicit config, inherits with a generated plan and converts to
# grouped KV, reading every other input from files.
SEARCH_BASE = {
    "seed": 7,
    "output_dir": "out",
    "corpus": {"synthetic": {"n_bytes": 30_000, "seed": 1}},
    "tokenizer": {"train": {"target_size": 300}, "compact": {"size": 280}},
    "architecture": {"search": {**FEASIBLE_SEARCH["search"], "pick": 0}},
    "init": {"scheme": "gpt2_scaled", "sigma": 0.02, "seed": 2},
    "training": {**NO_LR, "scaling": SCALING},
    "evaluation": {"holdout_batches": 2, "cloze": {"n_items": 4}},
    "layer_scan": {"windows": [1, 2], "batches": 1},
}
CONFIG_BASE = {
    "seed": 7,
    "output_dir": "out",
    "corpus": {"path": "corpus.bin"},
    "tokenizer": {"load": "vocab.txt", "compact": {"coverage": 0.9}},
    "architecture": {"config": {"width": 16, "depth": 2, "n_heads": 4, "ffn_hidden": 24}},
    "inheritance": {
        "parent_checkpoint": "parent.ckpt",
        "generate": {"criterion": "learned", "keep_ends": [1, 1], "mask_steps": 5,
                     "batches": 2, "seed": 3},
        "gqa_groups": 2,
    },
    "training": BASE_TRAINING,
    "evaluation": {"holdout_batches": 2, "cloze_file": "cloze.jsonl"},
}
PLAN_BASE = {**CONFIG_BASE, "inheritance": {"parent_checkpoint": "parent.ckpt",
                                            "plan": "plan.json"}}


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """A directory holding the files the base configs name."""
    root = tmp_path_factory.mktemp("bases")
    # enough bytes for CONFIG_BASE's (2 + 1) hold-out and training batches of 4 x 17
    (root / "corpus.bin").write_bytes(b"x" * 204)
    parent = _save_parent(root / "parent.ckpt", n_heads=4, kv_groups=4)  # the child's head_dim 4
    # validate parses the cloze file, and checks the plan against the parent and the child
    (root / "plan.json").write_text(identity_plan(parent).to_json())
    (root / "cloze.jsonl").write_text('{"context": [1], "candidates": [[2], [3]], "gold": 0}\n')
    save_vocab(Vocabulary(tokens=[bytes([i]) for i in range(BASE_SIZE)], merges=[]),
               root / "vocab.txt")
    return root


def _paths(section, prefix=""):
    for key, value in section.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


def _replaced(base, dotted, value):
    raw = copy.deepcopy(base)
    *parents, key = dotted.split(".")
    section = raw
    for part in parents:
        section = section[part]
    section[key] = value
    return raw


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
FUZZ_BASES = {"search": SEARCH_BASE, "config": CONFIG_BASE, "plan": PLAN_BASE}
FUZZ_SITES = [(name, path) for name, base in FUZZ_BASES.items() for path in _paths(base)]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(site=st.sampled_from(FUZZ_SITES), value=JSON_VALUES)
def test_validate_raises_only_config_errors(base_dir, site, value):
    name, dotted = site
    raw = _replaced(FUZZ_BASES[name], dotted, value)
    try:
        validate(_write(base_dir / "fuzz.json", raw))
    except ConfigError:
        pass


def _rules():
    """pipeline's rules: its functions that take a Size, or a child that may
    be unknown."""
    return {name for name, fn in vars(pipeline).items() if inspect.isfunction(fn)
            and fn.__module__ == pipeline.__name__
            and any(p.annotation in ("Size", "ModelConfig | None")
                    for p in inspect.signature(fn).parameters.values())}


def test_validate_names_each_place_a_bound_reaches_a_rule(base_dir, monkeypatch):
    # a place is a rule that validate calls with a bound or no child
    rules = _rules()
    reached = set()
    for name in rules:
        def spy(*args, rule=getattr(pipeline, name), name=name):
            if any(a is None or isinstance(a, pipeline.Size) and not a.exact for a in args):
                reached.add(name)
            return rule(*args)
        monkeypatch.setattr(pipeline, name, spy)
    searched_plan = {**PLAN_BASE, "architecture": FEASIBLE_SEARCH}
    for raw in (SEARCH_BASE, CONFIG_BASE, PLAN_BASE, searched_plan):
        validate(_write(base_dir / "places.json", raw))
    listed = re.findall(r"`(\w+)`", pipeline.validate.__doc__.split("reaches a rule:")[1])
    assert set(listed) == reached == rules


def test_readme_lists_each_rule():
    # README's bulleted rule list names the functions validate and the stages
    # call, no more and no fewer
    text = (ROOT / "README.md").read_text()
    assert set(re.findall(r"^  - `(_\w+)`:", text, flags=re.M)) == _rules()


def _bad_values(kind, bounds):
    """A wrong-type value, and an out-of-range one where the kind has bounds,
    choices, a pair of keys or a file to find."""
    wrong = {"int": 1.5, "ints": "x", "choice|index": 1.5, "real": "x"}.get(kind, 5)
    if kind == "object":
        return [wrong, {bounds[0]: {}, bounds[1]: {}}] if bounds else [wrong]
    if kind == "str":
        return [wrong]
    if kind in ("choice", "choice|index", "file"):
        return [wrong, "missing.bin" if kind == "file" else "nope"]
    low = float(bounds[1:].split(",")[0])
    low = low if bounds[0] == "(" else low - 1
    low = int(low) if kind in ("int", "ints") else low
    return [wrong, [low] if kind in ("ints", "reals") else low]


TABLE_CASES = [(path, bad) for path, kind, bounds, _ in FIELDS
               for bad in _bad_values(kind, bounds)]


@pytest.mark.parametrize("field, bad", TABLE_CASES,
                         ids=[f"{path}={bad!r}" for path, bad in TABLE_CASES])
def test_every_table_row_rejects_bad_values(base_dir, capsys, field, bad):
    parent = field.rpartition(".")[0]
    bases = (SEARCH_BASE, CONFIG_BASE, PLAN_BASE)
    with_key = [b for b in bases if field in _paths(b)]
    with_parent = [b for b in bases if not parent or parent in _paths(b)]
    base = (with_key or with_parent)[0]
    assert main(["validate", str(_write(base_dir / "base.json", base))]) == 0
    path = _write(base_dir / "bad.json", _replaced(base, field, bad))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


def test_readme_config_table_lists_every_field_in_order():
    # one row per FIELDS row: the last part of its path, indented two spaces
    # a level, then its kind; a bounds column too long for a row runs on
    # in lines that hold no kind
    text = (ROOT / "README.md").read_text()
    table = text.split("### Config schema", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    rows, parents = [], []
    for line in table.splitlines()[1:]:
        match = re.match(r"( *)(\w+) +(\S+)", line)
        if match:
            indent, name, kind = match.groups()
            parents[len(indent) // 2:] = [name]
            rows.append((".".join(parents), kind))
    assert rows == [(path, kind) for path, kind, *_ in FIELDS]


def test_readme_defaults_count_and_list_every_default():
    # "Defaults (N in all)" counts the FIELDS rows with a default, each seed
    # that takes the root seed included, and names every other as `key=value`
    text = (ROOT / "README.md").read_text()
    match = re.search(r"Defaults \((\d+) in all\):(.*?)`validate` writes", text, re.S)
    count, listed = int(match.group(1)), match.group(2)
    defaults = [(path, default) for path, _, _, default in FIELDS
                if default not in (pipeline.REQUIRED, pipeline.ABSENT)]
    assert count == len(defaults)
    for path, default in defaults:
        if default != pipeline.ROOT_SEED:
            key = path.rpartition(".")[2]
            assert f"`{key}={json.dumps(default, separators=(',', ':'))}`" in listed, path


def test_validate_output_is_a_fixed_point(tmp_path, capsys):
    demo = DEMO
    assert main(["validate", str(demo)]) == 0
    first = capsys.readouterr().out
    assert main(["validate", str(_write(tmp_path / "resolved.json", json.loads(first)))]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------- run


def test_the_demo_config_runs_the_config_its_search_picks(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
    run(validate(DEMO), until="params")
    out = tmp_path / "demo"
    found = json.loads((out / "search_results.json").read_text())
    deepest = max(found, key=lambda c: c["depth"])  # the demo's pick
    report = json.loads((out / "arch_report.json").read_text())
    config, _ = load_checkpoint(out / "model_init.ckpt")
    assert {**config.to_dict(), "total_params": report["total_params"]} == deepest


# `tinylm run configs/demo.json` with one BLAS thread: each artifact's (name,
# sha256, bytes), in manifest order, and the numpy and BLAS they were made with.
# Another BLAS kernel may round differently, so on any other the test skips.
DEMO_NUMERIC = {"numpy": "2.4.6", "blas": "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH "
                                          "NO_AFFINITY SkylakeX MAX_THREADS=64"}
DEMO_ARTIFACTS = [
    ("corpus.bin", "35b50e63aced4abf3032f391922ff20fad7a19a750470b5a6fcd6d861f339f07", 120000),
    ("vocab.txt", "fdda68313e691c6cb8528279161e74352f94a60b3656df57045b00f12d3a6114", 3758),
    ("frequencies.csv", "1c0dddee49f206d46687217659635d5667366be806eed27acac1f3c1c7ab7669", 2545),
    ("coverage.csv", "13f9bb717eb3532a31af4c84f1d269d2fe950f77567128a6f6ca231985590c92", 5197),
    ("vocab_compact.txt", "fdda68313e691c6cb8528279161e74352f94a60b3656df57045b00f12d3a6114",
     3758),
    ("frequencies_compact.csv",
     "1c0dddee49f206d46687217659635d5667366be806eed27acac1f3c1c7ab7669", 2545),
    ("coverage_compact.csv", "13f9bb717eb3532a31af4c84f1d269d2fe950f77567128a6f6ca231985590c92",
     5197),
    ("search_results.json", "37fcdaf72f676171cd66b78522bb4b661984afaaf95725621d5ee730cc754a1a",
     156),
    ("arch_report.json", "7b37b0c8a5ddcacd4eeaa157013fae2fe5deac363baff7ee5dc5087c0fbe710b", 218),
    ("model_init.ckpt", "3e6f54fabcaa29ccdb0ff9a485867f2eddcc9a3c95311d290bec88cf309e0291",
     1595470),
    ("importance.csv", "b7ec1ae03477f34cb1f3f6da8cfe91546b3dcea2720ad4f17041848ad136a388", 165),
    ("ledger.csv", "39c0a85d288fab4cb73020a7cde28e04fca49f2df8f62753e55381425f616c33", 2322),
    ("curves.csv", "6fea0f068cd4cdb0ce78c975a87d4f2a25f234853ac88c96d5f4d4483e1eadfc", 3879),
    ("forgetting.csv", "1fa33818363accdd9243cfef67794cc8fa6830e4ef214a1ec15d281897d2819b", 177),
    ("model.ckpt", "987ef1d877b50bad4260188e3df326729e8df7f670a285e2aaa28743125c85aa", 1595470),
    ("eval_perplexity.json", "b5ef2314f270a40727674bf7b48092162716200d7a3fc1f573717963929dbaf8",
     77),
    ("eval_perplexity.csv", "ffe4172c1a570ab47de3b5b77841173d8e1e7c1da387d3108dbc8580b99f6972",
     72),
    ("cloze_items.jsonl", "a2b7f48ad2be714621def2047fe96c1b7ac6ec035a916c19cbb88c1c66d810f9",
     5008),
    ("eval_cloze.json", "ea589fb33c8bbd7d74d2c4606643618299fe529b2635a1df2cfcffa97e184809", 68),
    ("eval_cloze.csv", "4a5e7b4079712856b6f7685ca951f752c4a218c18a9ddaf8e8404e1efdfacf51", 286),
]


def test_the_demo_run_keeps_its_artifact_hashes(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", OUTPUT_ENV_VAR: str(tmp_path),
           "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "tinylm.cli", "run", str(DEMO)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    manifest = json.loads((tmp_path / "demo" / "manifest.json").read_text())
    numeric = {key: manifest["numeric"][key] for key in DEMO_NUMERIC}
    if numeric != DEMO_NUMERIC:
        pytest.skip(f"hashes recorded on {DEMO_NUMERIC}, not {numeric}")
    assert [(a["name"], a["sha256"], a["bytes"]) for a in manifest["artifacts"]] == \
        DEMO_ARTIFACTS


def test_run_emits_artifacts_and_manifest(tmp_path):
    cfg = validate(write_config(tmp_path))
    manifest = run(cfg)
    names = {a["name"] for a in manifest.artifacts}
    for expected in ("corpus.bin", "vocab.txt", "frequencies.csv", "coverage.csv",
                     "arch_report.json", "model_init.ckpt", "ledger.csv",
                     "curves.csv", "forgetting.csv", "model.ckpt",
                     "eval_perplexity.json"):
        assert expected in names, expected
        assert (tmp_path / "out" / expected).is_file()
    assert manifest.stages_completed == list(manifest.stages_planned)
    data = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert data["failure"] is None


def test_run_identical_config_identical_hashes(tmp_path):
    path_a = write_config(tmp_path, name="a.json",
                          output_dir=str(tmp_path / "out_a"))
    path_b = write_config(tmp_path, name="b.json",
                          output_dir=str(tmp_path / "out_b"))
    ma = run(validate(path_a))
    mb = run(validate(path_b))
    ha = {a["name"]: a["sha256"] for a in ma.artifacts}
    hb = {a["name"]: a["sha256"] for a in mb.artifacts}
    assert ha == hb


def test_run_dry_run_plans_without_computing(tmp_path):
    cfg = validate(write_config(tmp_path))
    manifest = run(cfg, dry_run=True)
    assert manifest.stages_completed == []
    assert list(manifest.stages_planned)
    assert not (tmp_path / "out" / "corpus.bin").exists()
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_every_stage_has_one_run_method():
    # run dispatches on the method name, and perfbench's tracer wraps each by name
    methods = {name[len("stage_"):] for name in vars(pipeline._Run) if name.startswith("stage_")}
    assert methods == set(pipeline.STAGES)


def test_run_stage_targeted_tokenize(tmp_path):
    cfg = validate(write_config(tmp_path))
    manifest = run(cfg, until="tokenizer")
    assert manifest.stages_completed == ["corpus", "tokenizer"]
    assert (tmp_path / "out" / "vocab.txt").is_file()
    assert not (tmp_path / "out" / "model.ckpt").exists()


def test_run_with_compaction_and_coverage_artifacts(tmp_path):
    path = write_config(
        tmp_path,
        tokenizer={"train": {"target_size": 320}, "compact": {"coverage": 0.95}},
    )
    run(validate(path), until="tokenizer")
    cov = (tmp_path / "out" / "coverage.csv").read_text().strip().splitlines()
    assert cov[0] == "k,cumulative_fraction"
    assert float(cov[-1].split(",")[1]) == 1.0
    assert (tmp_path / "out" / "vocab_compact.txt").is_file()


# a trained vocabulary's stream comes out of training; only a loaded one is encoded
@pytest.mark.parametrize("compact, loaded", [({"size": 290}, False), ({"coverage": 0.9}, False),
                                             ({"size": 290}, True)],
                         ids=["compact0", "compact1", "load"])
def test_compacting_run_encodes_once_and_matches_a_re_encode(tmp_path, monkeypatch, compact,
                                                             loaded):
    tokenizer = {"train": {"target_size": 320}, "compact": compact}
    if loaded:
        trained = str(tmp_path / "trained")
        run(validate(write_config(tmp_path, "trained.json", output_dir=trained,
                                  tokenizer=tokenizer)), until="tokenizer")
        tokenizer = {"load": f"{trained}/vocab.txt", "compact": compact}
    encoded, streams = [], []

    def counted_encode(data, vocab):
        encoded.append(len(data))
        return encode(data, vocab)

    def kept_recode(ids, vocab, compacted):
        streams.append(recode(ids, vocab, compacted))
        return streams[-1]

    monkeypatch.setattr(pipeline, "encode", counted_encode)
    monkeypatch.setattr(pipeline, "recode", kept_recode)
    run(validate(write_config(tmp_path, tokenizer=tokenizer)), until="tokenizer")
    out = tmp_path / "out"
    assert encoded == ([len((out / "corpus.bin").read_bytes())] if loaded else [])
    vocab, compacted = load_vocab(out / "vocab.txt"), load_vocab(out / "vocab_compact.txt")
    assert compacted.size < vocab.size
    ids = encode((out / "corpus.bin").read_bytes(), compacted)
    np.testing.assert_array_equal(streams, [ids])
    freq = frequencies(ids, compacted.size)
    assert (out / "frequencies_compact.csv").read_text() == freq.to_csv()
    assert (out / "coverage_compact.csv").read_text() == coverage_curve(freq).to_csv()


def test_run_records_failure_in_manifest(tmp_path):
    # architecture config contradicts the tokenizer vocabulary, under the bound validate checks
    path = write_config(
        tmp_path,
        architecture={"config": {"vocab_size": 299, "width": 16, "depth": 2,
                                 "n_heads": 2, "ffn_hidden": 24}},
    )
    cfg = validate(path)
    with pytest.raises(Exception):
        run(cfg)
    data = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert data["failure"] is not None
    assert "arch" in data["failure"]
    assert data["stages_completed"] == ["corpus", "tokenizer"]


def test_run_scaling_rule_lr(tmp_path):
    path = write_config(
        tmp_path,
        training={"seq_len": 16, "batch_size": 4, "max_batches": 6, "parts": 2,
                  "scaling": {"base_batch": 64, "base_lr": 1e-3,
                              "increment_rate": 0.5}},
    )
    run(validate(path), until="train")
    curves = (tmp_path / "out" / "curves.csv").read_text().strip().splitlines()
    first_lr = float(curves[1].split(",")[1])
    assert first_lr == pytest.approx(1e-3, rel=1e-12)  # 64 tokens == base batch


def test_run_multi_round_ledger_rounds(tmp_path):
    path = write_config(
        tmp_path,
        training={"seq_len": 16, "batch_size": 4, "max_batches": 8, "lr": 2e-3,
                  "rounds": 2, "sampling_rate": 0.5, "parts": 4},
    )
    run(validate(path), until="train")
    rounds = {
        line.split(",")[0]
        for line in (tmp_path / "out" / "ledger.csv").read_text().strip().splitlines()[1:]
    }
    assert rounds == {"0", "1"}


def test_run_layer_scan_row_count(tmp_path):
    path = write_config(
        tmp_path,
        architecture={"config": {"width": 16, "depth": 4, "n_heads": 2,
                                 "ffn_hidden": 24}},
        layer_scan={"windows": [1, 2, 3], "batches": 1},
    )
    run(validate(path), until="scan")
    rows = (tmp_path / "out" / "importance.csv").read_text().strip().splitlines()[1:]
    depth = 4
    assert len(rows) == depth + (depth - 1) + (depth - 2)


def test_run_cloze_evaluation(tmp_path):
    path = write_config(
        tmp_path,
        evaluation={"holdout_batches": 2,
                    "cloze": {"n_items": 10, "n_candidates": 3, "context_len": 6,
                              "candidate_len": 2}},
    )
    run(validate(path))
    data = json.loads((tmp_path / "out" / "eval_cloze.json").read_text())
    assert 0.0 <= data["value"] <= 1.0
    assert (tmp_path / "out" / "cloze_items.jsonl").is_file()


def test_inheritance_run_from_parent_checkpoint(tmp_path):
    parent_path = write_config(tmp_path, name="parent.json",
                               output_dir=str(tmp_path / "parent_out"))
    run(validate(parent_path))
    child_raw = {
        "seed": 8,
        "output_dir": str(tmp_path / "child_out"),
        "corpus": {"synthetic": {"n_bytes": 30_000, "seed": 1}},
        "tokenizer": {"train": {"target_size": 300}},
        "architecture": {
            "config": {"width": 16, "depth": 1, "n_heads": 2, "ffn_hidden": 12}
        },
        "inheritance": {
            "parent_checkpoint": str(tmp_path / "parent_out" / "model.ckpt"),
            "generate": {"criterion": "l2", "keep_ends": [1, 0], "batches": 2},
        },
        "training": {"seq_len": 16, "batch_size": 4, "max_batches": 6,
                     "lr": 2e-3, "parts": 2},
        "evaluation": {"holdout_batches": 2},
    }
    child_path = tmp_path / "child.json"
    child_path.write_text(json.dumps(child_raw))
    manifest = run(validate(child_path))
    assert "plan.json" in {a["name"] for a in manifest.artifacts}
    plan = json.loads((tmp_path / "child_out" / "plan.json").read_text())
    assert len(plan["kept_layers"]) == 1
    assert len(plan["ffn_indices"][0]) == 12


@pytest.mark.parametrize("parent_dtype, child_dtype", [("float64", "float32"),
                                                      ("float32", "float64")])
def test_a_child_run_casts_the_parent_to_its_own_dtype(tmp_path, parent_dtype, child_dtype):
    parent = write_config(tmp_path, name="parent.json", dtype=parent_dtype,
                          output_dir=str(tmp_path / "parent_out"))
    run(validate(parent), until="train")
    parent_config, parent_params = load_checkpoint(tmp_path / "parent_out" / "model.ckpt")
    assert parent_params.dtype == parent_dtype
    raw = json.loads(write_config(tmp_path, dtype=child_dtype).read_text())
    del raw["init"]
    raw["inheritance"] = {"parent_checkpoint": "parent_out/model.ckpt",
                          "generate": {"criterion": "learned", "keep_ends": [1, 1],
                                       "mask_steps": 2, "batches": 1}}
    manifest = run(validate(_write(tmp_path / "child.json", raw)))
    assert manifest.numeric["dtype"] == child_dtype
    out = tmp_path / "out"
    config, child = load_checkpoint(out / "model_init.ckpt")
    # surgery ran on the parent in its own dtype; the params stage cast the child
    plan = InheritancePlan.from_json((out / "plan.json").read_text())
    expected = build_child(parent_config, parent_params, plan, config)
    assert expected.dtype == parent_dtype and child.dtype == child_dtype
    for name, t in expected.tensors.items():
        assert child[name].data.tobytes() == t.data.astype(child_dtype).tobytes(), name
    assert load_checkpoint(out / "model.ckpt")[1].dtype == child_dtype


@pytest.mark.parametrize("dtype", ["float16", "Float32", None, 32])
def test_validate_refuses_a_dtype_other_than_the_two_names(tmp_path, capsys, dtype):
    assert main(["validate", str(write_config(tmp_path, dtype=dtype))]) == 1
    assert capsys.readouterr().err.startswith("config error: dtype must be choice in "
                                              "('float64', 'float32')")


def test_every_file_field_has_a_parser():
    assert {path for path, kind, *_ in FIELDS if kind == "file"} == set(pipeline.INPUTS)


CLOZE_LINE = '{"context": [1, 2], "candidates": [[3], [4]], "gold": 0}\n'


def _from_input_files(tmp_path):
    """A config that names all five input files: corpus, vocabulary, parent
    checkpoint, plan and cloze items."""
    (tmp_path / "corpus.bin").write_bytes(zipf_corpus(3_000, seed=1))
    save_vocab(Vocabulary.base(), tmp_path / "vocab.txt")
    (tmp_path / "cloze.jsonl").write_text(CLOZE_LINE * 3)
    raw = json.loads(_with_plan(tmp_path).read_text())
    raw.update(corpus={"path": "corpus.bin"}, tokenizer={"load": "vocab.txt"},
               evaluation={"holdout_batches": 2, "cloze_file": "cloze.jsonl"})
    return _write(tmp_path / "config.json", raw)


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    path = _from_input_files(tmp_path)
    names = ("corpus.bin", "vocab.txt", "parent.ckpt", "plan.json", "cloze.jsonl")
    reads = dict.fromkeys(names, 0)
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        name = Path(os.fsdecode(file)).name if isinstance(file, (str, os.PathLike)) else None
        if name in reads and not set(mode) & set("wax+"):
            reads[name] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # what pathlib calls
    manifest = run(validate(path))
    assert reads == dict.fromkeys(names, 1)
    assert sorted(manifest.input_hashes) == ["cloze_file", "corpus", "parent_checkpoint",
                                             "plan", "vocab"]


def test_a_run_frees_the_parent_before_training(tmp_path, monkeypatch):
    cfg = validate(_from_input_files(tmp_path))
    parent = weakref.ref(cfg.inputs["inheritance.parent_checkpoint"][1])
    alive_in_training = []
    real_train = pipeline.multi_round_train

    def spy(*args, **kwargs):
        alive_in_training.append(parent() is not None)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "multi_round_train", spy)
    run(cfg, until="train")
    assert alive_in_training == [False]
    with pytest.raises(pipeline.PipelineError, match="validate the config again"):
        run(cfg, until="params")


def test_a_run_uses_and_hashes_the_bytes_validate_parsed(tmp_path):
    path = _from_input_files(tmp_path)
    plan_bytes = (tmp_path / "plan.json").read_bytes()
    cloze_bytes = (tmp_path / "cloze.jsonl").read_bytes()
    cfg = validate(path)
    (tmp_path / "plan.json").write_text("not a plan")
    (tmp_path / "cloze.jsonl").write_text(CLOZE_LINE)
    manifest = run(cfg)
    assert manifest.input_hashes["plan"] == hashlib.sha256(plan_bytes).hexdigest()
    assert manifest.input_hashes["cloze_file"] == hashlib.sha256(cloze_bytes).hexdigest()
    assert json.loads((tmp_path / "out" / "plan.json").read_text()) == json.loads(plan_bytes)
    assert json.loads((tmp_path / "out" / "eval_cloze.json").read_text())["item_count"] == 3


def test_manifest_config_replays_every_artifact_hash(tmp_path, monkeypatch):
    path = write_config(tmp_path, evaluation={"holdout_batches": 2, "cloze": {"n_items": 4}},
                        layer_scan={})
    manifest = run(validate(path))
    replay = _write(tmp_path / "replay.json", manifest.config)
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "replayed"))
    replayed = run(validate(replay))
    assert (tmp_path / "replayed" / "out" / "manifest.json").is_file()
    assert replayed.artifacts == manifest.artifacts


# ------------------------------------------------------------------- report


def test_report_on_complete_run(tmp_path):
    cfg = validate(write_config(tmp_path))
    run(cfg)
    text, complete = report(tmp_path / "out")
    assert complete
    assert "perplexity" in text


def test_report_on_empty_dir(tmp_path):
    text, complete = report(tmp_path / "nothing")
    assert not complete


def test_report_flags_missing_artifact(tmp_path):
    cfg = validate(write_config(tmp_path))
    run(cfg)
    shutil.copytree(tmp_path / "out", tmp_path / "edited")
    (tmp_path / "out" / "curves.csv").unlink()
    text, complete = report(tmp_path / "out")
    assert not complete
    assert "MISSING" in text
    # an edited file is reported, and no number is read from it
    (tmp_path / "edited" / "eval_perplexity.json").write_text('{"value": 2.0}')
    text, complete = report(tmp_path / "edited")
    assert not complete
    assert "MISSING/CHANGED" in text and "perplexity:" not in text


CLOZE_EVAL = {"holdout_batches": 2, "cloze": {"n_items": 4}}
# under the bound validate checks, but not the vocabulary the tokenizer trains
BAD_VOCAB_SIZE = {"config": {"vocab_size": 299, "width": 16, "depth": 2, "n_heads": 2,
                             "ffn_hidden": 24}}


def test_report_skips_the_metrics_of_a_failed_rerun(tmp_path):
    # a rerun that failed at arch used to report the previous run's perplexity and cloze
    run(validate(write_config(tmp_path, evaluation=CLOZE_EVAL)))
    with pytest.raises(pipeline.PipelineError):
        run(validate(write_config(tmp_path, evaluation=CLOZE_EVAL,
                                  architecture=BAD_VOCAB_SIZE)))
    text, complete = report(tmp_path / "out")
    assert not complete
    assert "FAILED at arch" in text
    assert "perplexity" not in text and "cloze accuracy" not in text
    assert "coverage curve terminal: " in text  # this run's tokenizer stage rewrote it
    assert main(["report", str(tmp_path / "out")]) == 2
    # the rerun deleted the files the first run's manifest listed
    for name in ("model.ckpt", "curves.csv", "eval_perplexity.json", "eval_perplexity.csv",
                 "eval_cloze.json", "eval_cloze.csv"):
        assert not (tmp_path / "out" / name).exists(), name


def test_a_rerun_deletes_the_earlier_runs_files_but_not_its_own_inputs(tmp_path):
    run(validate(write_config(tmp_path)), until="tokenizer")
    out = tmp_path / "out"
    (out / "notes.txt").write_text("no manifest lists this")
    # the rerun reads the first run's corpus and vocabulary as its inputs
    path = write_config(tmp_path, corpus={"path": "out/corpus.bin"},
                        tokenizer={"load": "out/vocab.txt"})
    run(validate(path), dry_run=True)
    assert {p.name for p in out.iterdir()} == {"corpus.bin", "vocab.txt", "notes.txt",
                                               "manifest.json"}


def test_report_names_an_interrupted_rerun_and_its_unfinished_stages(tmp_path, monkeypatch):
    run(validate(write_config(tmp_path, evaluation=CLOZE_EVAL)))
    on_disk = []

    def interrupted(self):
        on_disk.append(json.loads((self.out / "manifest.json").read_text()))
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline._Run, "stage_arch", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(validate(write_config(tmp_path, evaluation=CLOZE_EVAL, seed=8)))
    assert on_disk[0]["stages_completed"] == ["corpus", "tokenizer"]
    text, complete = report(tmp_path / "out")
    assert not complete
    assert "seed: 8" in text
    assert "unfinished stages: ['arch', 'params', 'scan', 'train', 'eval']" in text
    assert "perplexity" not in text and "cloze accuracy" not in text


def _manifest_text(artifact=None, **fields):
    """A manifest listing one artifact, with any field replaced."""
    artifact = {"name": "a.txt", "sha256": "0" * 64, "bytes": 12, **(artifact or {})}
    return json.dumps({"version": "0.1.0", "seed": 7, "stages_planned": ["corpus"],
                       "stages_completed": ["corpus"], "artifacts": [artifact], **fields})


NUMERIC = {"dtype": "float64", "numpy": "2.0", "blas": None, "blas_threads": None}
UNREADABLE = {"truncated": ('{"version": "0.1.0", "se',
                            "manifest unreadable: manifest.json is not valid JSON: Unterminated"),
              "repeated_key": (_lead_with(_manifest_text(numeric=NUMERIC), "seed", 8),
                               "manifest unreadable: manifest.json repeats the key 'seed'"),
              "deep": ("[" * 200_000, "manifest unreadable: manifest.json is nested too deeply"),
              "no_seed": ('{"version": "0.1.0"}', "manifest unreadable: no key 'seed'"),
              "not_an_object": ("[1, 2]", "manifest unreadable: not a JSON object"),
              "string_bytes": (_manifest_text({"bytes": "12"}),
                               "manifest unreadable: artifact a.txt: sha256 must be a string"),
              "bool_bytes": (_manifest_text({"bytes": True}), "manifest unreadable: artifact a.txt"),
              "negative_bytes": (_manifest_text({"bytes": -1}), "manifest unreadable: artifact a.txt"),
              "int_sha256": (_manifest_text({"sha256": 5}), "manifest unreadable: artifact a.txt"),
              "int_name": (_manifest_text({"name": 5}),
                           "manifest unreadable: artifact name 5 is not a file name"),
              "parent_name": (_manifest_text({"name": "../x"}),
                              "manifest unreadable: artifact name '../x' is not a file name"),
              "dotdot_name": (_manifest_text({"name": ".."}), "manifest unreadable: artifact name"),
              "empty_name": (_manifest_text({"name": ""}), "manifest unreadable: artifact name"),
              "stage_not_a_string": (_manifest_text(stages_completed=[1]),
                                     "manifest unreadable: stages_completed is not a list"),
              "stages_not_a_list": (_manifest_text(stages_planned="corpus"),
                                    "manifest unreadable: stages_planned is not a list")}


@pytest.mark.parametrize("text, line", UNREADABLE.values(), ids=UNREADABLE)
def test_report_on_an_unreadable_manifest(tmp_path, capsys, text, line):
    # these used to raise a JSONDecodeError, KeyError, ValueError or TypeError
    # out of report, or hash a file outside the run directory
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "manifest.json").write_text(text)
    report_text, complete = report(tmp_path / "out")
    assert not complete
    header, reason = report_text.splitlines()
    assert header == f"run report: {tmp_path / 'out'}" and reason.startswith(line)
    assert main(["report", str(tmp_path / "out")]) == 2
    assert report_text == capsys.readouterr().out


# ---------------------------------------------------------------------- cli


def test_package_all_lists_every_public_import():
    assert all(hasattr(tinylm, name) for name in tinylm.__all__)
    public = {name for name, obj in vars(tinylm).items() if not name.startswith("_")
              and (inspect.isclass(obj) or inspect.isfunction(obj))}
    assert public <= set(tinylm.__all__)


def test_package_exports_exactly_what_readme_documents():
    # every tl.<name> in "Library use" is exported, and every export is named
    # there, as tl.<name> or in backticks
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1].split("\n## ")[0]
    used = set(re.findall(r"\btl\.(\w+)", section))
    assert used <= set(tinylm.__all__)
    assert set(tinylm.__all__) <= used | set(re.findall(r"`(\w+)`", section))


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    # both code blocks of README's "Library use", in one namespace, on an 8 KB
    # corpus; the inheritance block used to pass the default keep_ends (2, 2)
    # with a depth-2 child, which make_plan refuses
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    (tmp_path / "corpus.txt").write_bytes(zipf_corpus(8_000, seed=0))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert float(capsys.readouterr().out) > 0
    assert namespace["child"].validate(namespace["child_cfg"]) is None
    assert namespace["gqa_cfg"].kv_groups == 1


def test_cli_validate_ok(tmp_path, capsys):
    assert main(["validate", str(write_config(tmp_path))]) == 0
    assert '"seed": 7' in capsys.readouterr().out


def test_cli_validate_failure_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, corpus={"path": "missing.bin"})
    assert main(["validate", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_validate_refuses_a_repeated_key(tmp_path, capsys):
    # "seed": 7, "seed": 8 used to pass and run with seed 8
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace('"seed": 7', '"seed": 7, "seed": 8', 1))
    assert main(["validate", str(path)]) == 1
    assert "config repeats the key 'seed'" in capsys.readouterr().err


def test_cli_validate_refuses_a_config_nested_too_deeply(tmp_path, capsys):
    # used to end in a RecursionError traceback
    path = tmp_path / "config.json"
    path.write_text("[" * 200_000)
    assert main(["validate", str(path)]) == 1
    assert "config error: config is nested too deeply to parse" in capsys.readouterr().err


def test_cli_zero_seq_len_is_config_error_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, training={**BASE_TRAINING, "seq_len": 0})
    assert main(["run", str(path)]) == 1
    assert "training.seq_len" in capsys.readouterr().err


def test_cli_runtime_failure_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        architecture={"config": {"vocab_size": 299, "width": 16, "depth": 2,
                                 "n_heads": 2, "ffn_hidden": 24}},
    )
    assert main(["run", str(path)]) == 2


def test_cli_run_and_report(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    assert main(["report", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "perplexity" in out


def test_cli_report_empty_exit_2(tmp_path):
    assert main(["report", str(tmp_path / "void")]) == 2


def test_cli_dry_run(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--dry-run"]) == 0
    assert not (tmp_path / "out" / "corpus.bin").exists()


def test_output_env_var_overrides_root(tmp_path):
    path = write_config(tmp_path, output_dir=str(tmp_path / "orig"))
    os.environ[OUTPUT_ENV_VAR] = str(tmp_path / "redirected")
    try:
        run(validate(path), until="corpus")
        assert (tmp_path / "redirected" / "orig" / "corpus.bin").is_file()
        assert not (tmp_path / "orig").exists()
    finally:
        del os.environ[OUTPUT_ENV_VAR]


# --------------------------------------------------------- ablation ladder


def test_ablation_ladder_emits_comparable_reports(tmp_path):
    """Four runs, each changing one section: baseline, compact tokenizer,
    deeper architecture, and two-round training."""
    base = json.loads(write_config(tmp_path, evaluation=CLOZE_EVAL).read_text())
    base["training"]["max_batches"] = 8
    rungs = {"baseline": {}}
    rungs["compact"] = {"tokenizer": {"train": {"target_size": 300},
                                      "compact": {"coverage": 0.97}}}
    rungs["deeper"] = {"architecture": {"config": {"width": 16, "depth": 3,
                                                   "n_heads": 2,
                                                   "ffn_hidden": 24}}}
    rungs["tworound"] = {"training": {**base["training"], "rounds": 2,
                                      "sampling_rate": 0.5}}
    values = {}
    for name, override in rungs.items():
        raw = json.loads(json.dumps(base))
        raw.update(override)
        raw["output_dir"] = str(tmp_path / "ladder" / f"out_{name}")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        run(validate(path))
        data = json.loads(
            (tmp_path / "ladder" / f"out_{name}" / "eval_perplexity.json").read_text()
        )
        values[name] = data["value"]
    assert len(values) == 4
    for v in values.values():
        assert np.isfinite(v) and v > 1.0
    # a directory of runs renders as one comparison table
    text, complete = report(tmp_path / "ladder")
    assert complete
    assert "4 runs" in text
    for name in rungs:
        assert f"out_{name}" in text
        assert "-" not in _family_row(text, f"out_{name}")

    def rerun_failing(rung):
        raw = json.loads((tmp_path / "deeper.json").read_text())
        raw.update(output_dir=str(rung), architecture=BAD_VOCAB_SIZE)
        with pytest.raises(pipeline.PipelineError):
            run(validate(_write(tmp_path / "failing.json", raw)))

    # one damaged rung, each on a copy of the ladder, makes the family incomplete
    damages = {"edited": lambda rung: (rung / "ledger.csv").write_text("edited\n"),
               "failed_rerun": rerun_failing,
               "unreadable": lambda rung: (rung / "manifest.json").write_text("{"),
               "ill_typed": _with_string_bytes}
    rows = {}
    for case, damage in damages.items():
        shutil.copytree(tmp_path / "ladder", tmp_path / case)
        damage(tmp_path / case / "out_deeper")
        text, complete = report(tmp_path / case)
        assert not complete, case
        rows[case] = _family_row(text, "out_deeper")
    assert "-" not in rows["edited"]
    assert rows["failed_rerun"] == ["-", "-", "-", "-"]  # params, loss, perplexity, cloze
    assert rows["unreadable"][:2] == ["manifest", "unreadable:"]
    assert rows["ill_typed"][:3] == ["manifest", "unreadable:", "artifact"]


def _with_string_bytes(run_dir):
    """Rewrite a run's manifest with one artifact's byte count as a string."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["artifacts"][0]["bytes"] = str(manifest["artifacts"][0]["bytes"])
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _family_row(text, run_name):
    """The cells of one run's row in a family report."""
    return next(line.split()[1:] for line in text.splitlines() if line.startswith(run_name))
