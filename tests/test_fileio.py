import os

import pytest

import tinylm.fileio
from tinylm.arch import ModelConfig, save_checkpoint
from tinylm.evaluator import save_cloze_items
from tinylm.fileio import atomic_open
from tinylm.initializers import InitScheme, initialize
from tinylm.tokenizer import save_vocab, train_bpe


def _writers():
    cfg = ModelConfig(vocab_size=256, width=4, depth=1, n_heads=1, kv_groups=1,
                      ffn_hidden=4)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=0))
    vocab = train_bpe(b"abababab", 258)
    items = [{"context": [1], "candidates": [[2], [3]], "gold": 0}]
    return {
        "checkpoint": lambda path: save_checkpoint(path, cfg, params),
        "vocab": lambda path: save_vocab(vocab, path),
        "cloze_items": lambda path: save_cloze_items(items, path),
    }


@pytest.mark.parametrize("writer", ["checkpoint", "vocab", "cloze_items"])
def test_failed_replace_leaves_no_file(tmp_path, monkeypatch, writer):
    write = _writers()[writer]

    def fail(src, dst):
        raise OSError("injected failure before the replace")

    monkeypatch.setattr(tinylm.fileio.os, "replace", fail)
    with pytest.raises(OSError, match="injected"):
        write(tmp_path / "artifact")
    assert os.listdir(tmp_path) == []


def test_error_mid_write_keeps_previous_contents(tmp_path):
    target = tmp_path / "artifact.bin"
    target.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write(b"partial")
            raise RuntimeError("writer failed")
    assert os.listdir(tmp_path) == ["artifact.bin"]
    assert target.read_bytes() == b"previous"


def test_completed_write_replaces_target(tmp_path):
    target = tmp_path / "artifact.txt"
    target.write_text("old")
    with atomic_open(target, "w", encoding="ascii") as fh:
        fh.write("new\n")
    assert os.listdir(tmp_path) == ["artifact.txt"]
    assert target.read_text() == "new\n"
