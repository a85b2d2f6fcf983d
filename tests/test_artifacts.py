"""Byte-exact pins of every artifact writer's output.

A run's manifest hashes each artifact, so a writer that changes one byte
changes the run's hashes. The values here are chosen to show how numbers are
written: a float that needs 17 significant digits, a subnormal-range float,
a numpy integer, negative zero and an empty report.
"""

import json
import struct

import numpy as np

from tinylm.arch import ArchReport, ModelConfig, ParamStore, param_shapes, save_checkpoint
from tinylm.evaluator import ClozeItem, EvalReport, save_cloze_items
from tinylm.pipeline import RunManifest, run, validate
from tinylm.surgery import InheritancePlan, LayerImportance
from tinylm.tensor import Tensor
from tinylm.tokenizer import BASE_SIZE, CoverageCurve, FrequencyTable, Vocabulary, save_vocab
from tinylm.trainer import BatchLossLedger, LedgerEntry, TrainPlan, curve_to_csv, ledgers_to_csv

X = 0.1 + 0.2  # 0.30000000000000004: repr needs all 17 digits


def test_frequency_table_csv():
    table = FrequencyTable(np.array([3, 0, 2], dtype=np.int64))
    assert table.to_csv() == "token_id,count\n0,3\n1,0\n2,2\n"


def test_coverage_curve_csv():
    assert CoverageCurve([X, 1.0]).to_csv() == (
        "k,cumulative_fraction\n1,0.30000000000000004\n2,1.0\n")


def test_layer_importance_csv():
    imp = LayerImportance(X, {(1, 1): 1e-300, (1, 0): -2.5, (2, 0): 0.125}, 2)
    assert imp.to_csv() == (
        "window,start,score,importance\n"
        "1,0,-2.5,2.8\n"
        "1,1,1e-300,0.30000000000000004\n"
        "2,0,0.125,0.17500000000000004\n"
    )


def test_eval_report_csv_and_json():
    rows = [{"index": 0, "choice": np.int64(1), "gold": 1, "correct": 1},
            {"index": 1, "choice": 0, "gold": 2, "correct": 0}]
    report = EvalReport("cloze_accuracy", X, 2, rows)
    assert report.to_csv() == "index,choice,gold,correct\n0,1,1,1\n1,0,2,0\n"
    assert report.to_json() == (
        '{\n  "metric": "cloze_accuracy",\n  "value": 0.30000000000000004,\n'
        '  "item_count": 2\n}')
    loss = EvalReport("perplexity", 1.5, 1, [{"index": 0, "loss": 1e-300}])
    assert loss.to_csv() == "index,loss\n0,1e-300\n"


def test_empty_eval_report():
    report = EvalReport("perplexity", 1.5, 0)
    assert report.to_csv() == "index\n"
    assert report.to_json() == (
        '{\n  "metric": "perplexity",\n  "value": 1.5,\n  "item_count": 0\n}')


def test_arch_report_json():
    report = ArchReport(10, 4, 0.4, {"embedding": 2, "head": 2})
    assert report.to_json() == (
        '{\n  "total_params": 10,\n  "embedding_head_params": 4,\n  "pehl": 0.4,\n'
        '  "breakdown": {\n    "embedding": 2,\n    "head": 2\n  }\n}')


def test_inheritance_plan_json():
    plan = InheritancePlan([0], [[1]], [[0, 2]], [0, 1], [0])
    assert plan.to_json() == (
        '{\n  "kept_layers": [\n    0\n  ],\n  "head_indices": [\n    [\n      1\n    ]\n'
        '  ],\n  "ffn_indices": [\n    [\n      0,\n      2\n    ]\n  ],\n'
        '  "channel_plan": [\n    0,\n    1\n  ],\n  "vocab_map": [\n    0\n  ]\n}')


def test_ledgers_csv():
    first = BatchLossLedger([LedgerEntry(2, 0, X), LedgerEntry(0, 1, 1e-300)], 2)
    second = BatchLossLedger([LedgerEntry(np.int64(2), 0, 3.0)], 2)
    assert ledgers_to_csv([first, second]) == (
        "round,batch_index,part,loss\n"
        "0,2,0,0.30000000000000004\n0,0,1,1e-300\n1,2,0,3.0\n")


def test_curve_csv():
    # steps count on across rounds; each round's lr runs from lr down to
    # lr * cosine_floor
    first = BatchLossLedger([LedgerEntry(2, 0, 1e-300), LedgerEntry(0, 1, 5.0)], 2)
    second = BatchLossLedger([LedgerEntry(2, 0, X)], 2)
    assert curve_to_csv([first, second], TrainPlan(lr=X, cosine_floor=0.5)) == (
        "step,lr,loss\n0,0.30000000000000004,1e-300\n1,0.15000000000000002,5.0\n"
        "2,0.30000000000000004,0.30000000000000004\n")


def test_run_manifest_json():
    manifest = RunManifest(
        {"seed": 1, "b": [1.5]}, "0.1.0", 1, {"corpus": "ab"},
        [{"name": "x", "sha256": "cd", "bytes": 3}], ["corpus"], ["corpus", "tokenizer"],
        "tokenizer: boom", {"dtype": "float32", "blas_threads": 1})
    assert manifest.to_json() == (
        '{\n  "artifacts": [\n    {\n      "bytes": 3,\n      "name": "x",\n'
        '      "sha256": "cd"\n    }\n  ],\n  "config": {\n    "b": [\n      1.5\n    ],\n'
        '    "seed": 1\n  },\n  "failure": "tokenizer: boom",\n  "input_hashes": {\n'
        '    "corpus": "ab"\n  },\n  "numeric": {\n    "blas_threads": 1,\n'
        '    "dtype": "float32"\n  },\n  "seed": 1,\n  "stages_completed": [\n    "corpus"\n'
        '  ],\n  "stages_planned": [\n    "corpus",\n    "tokenizer"\n  ],\n'
        '  "version": "0.1.0"\n}')


def test_two_tensor_checkpoint_bytes(tmp_path):
    # every tensor of the config is zero but embed and head
    cfg = ModelConfig(vocab_size=256, width=2, depth=1, n_heads=1, kv_groups=1, ffn_hidden=1)
    tensors = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    tensors["embed"][0] = [1e-300, 2.0]
    # a transposed (non-contiguous) tensor is written in row-major order
    head = np.zeros((256, 2))
    head[:2] = [[X, 5.0], [-0.0, 0.0]]
    tensors["head"] = head.T
    params = ParamStore({name: Tensor(data) for name, data in tensors.items()})

    def payload(code: str, size: int) -> bytes:
        # sorted names: embed, final_norm, head, then layers.0's nine (26 zeros)
        return (struct.pack(f"<2{code}", 1e-300, 2.0) + bytes(510 * size) + bytes(2 * size)
                + struct.pack(f"<2{code}", X, -0.0) + bytes(254 * size)
                + struct.pack(f"<{code}", 5.0) + bytes(255 * size) + bytes(26 * size))

    save_checkpoint(tmp_path / "m.ckpt", cfg, params)
    header = (b'{"config": {"vocab_size": 256, "width": 2, "depth": 1, "n_heads": 1, '
              b'"kv_groups": 1, "ffn_hidden": 1}, "dtype": "float64"}')
    expected = b"TLMCKPT1" + struct.pack("<Q", len(header)) + header + payload("d", 8)
    assert (tmp_path / "m.ckpt").read_bytes() == expected
    # a float32 store writes a 4-byte payload and says so; 1e-300 becomes 0.0
    save_checkpoint(tmp_path / "m32.ckpt", cfg, params.astype(np.float32))
    header = header.replace(b"float64", b"float32")
    expected = b"TLMCKPT1" + struct.pack("<Q", len(header)) + header + payload("f", 4)
    assert (tmp_path / "m32.ckpt").read_bytes() == expected


def test_vocab_file_bytes(tmp_path):
    vocab = Vocabulary(tokens=[bytes([i]) for i in range(BASE_SIZE)] + [b"ab"],
                       merges=[(97, 98, 256)])
    save_vocab(vocab, tmp_path / "v.txt")
    expected = "".join(f"{i:02x}\n" for i in range(BASE_SIZE)) + "6162\n#MERGES\n97 98 256\n"
    assert (tmp_path / "v.txt").read_bytes() == expected.encode()


def test_cloze_items_bytes(tmp_path):
    line = b'{"context": [1, 2], "candidates": [[3], [4, 5]], "gold": 1}\n'
    item = ClozeItem([1, 2], [[3], [4, 5]], 1)
    save_cloze_items([item, item], tmp_path / "c.jsonl")
    assert (tmp_path / "c.jsonl").read_bytes() == line + line


def test_forgetting_csv_writes_floats_with_repr(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "corpus": {"synthetic": {"n_bytes": 8_000}},
        "tokenizer": {"train": {"target_size": 260}},
        "architecture": {"config": {"width": 8, "depth": 1, "n_heads": 1, "ffn_hidden": 8}},
        "init": {},
        "training": {"seq_len": 8, "batch_size": 2, "max_batches": 4, "lr": 1e-3, "parts": 2},
        "evaluation": {"holdout_batches": 1},
    }))
    run(validate(config), until="train")
    text = (tmp_path / "out" / "forgetting.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "part,mean_loss" and len(lines) == 3 and text.endswith("\n")
    for part, line in enumerate(lines[1:]):
        value = float(line.split(",")[1])
        assert line == f"{part},{value!r}"
