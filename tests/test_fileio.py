import ast
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import tinylm.fileio
from tinylm.arch import ModelConfig, save_checkpoint
from tinylm.evaluator import ClozeItem, save_cloze_items
from tinylm.fileio import csv_text, write_atomic
from tinylm.initializers import InitScheme, initialize
from tinylm.tokenizer import save_vocab, train_bpe

SRC = Path(tinylm.fileio.__file__).resolve().parent


def _writers():
    cfg = ModelConfig(vocab_size=256, width=4, depth=1, n_heads=1, kv_groups=1,
                      ffn_hidden=4)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=0))
    vocab = train_bpe(b"abababab", 258)
    items = [ClozeItem([1], [[2], [3]], 0)]
    return {
        "checkpoint": lambda path: save_checkpoint(path, cfg, params),
        "vocab": lambda path: save_vocab(vocab, path),
        "cloze_items": lambda path: save_cloze_items(items, path),
        "write_atomic": lambda path: write_atomic(path, [b"ab", b"", bytearray(b"c")]),
    }


@pytest.mark.parametrize("writer", ["checkpoint", "vocab", "cloze_items", "write_atomic"])
def test_failed_replace_leaves_no_file(tmp_path, monkeypatch, writer):
    write = _writers()[writer]

    def fail(src, dst):
        raise OSError("injected failure before the replace")

    monkeypatch.setattr(tinylm.fileio.os, "replace", fail)
    with pytest.raises(OSError, match="injected"):
        write(tmp_path / "artifact")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("writer", ["checkpoint", "vocab", "cloze_items", "write_atomic"])
def test_returned_hash_and_size_are_the_files(tmp_path, writer):
    digest, nbytes = _writers()[writer](tmp_path / "artifact")
    payload = (tmp_path / "artifact").read_bytes()
    assert digest == hashlib.sha256(payload).hexdigest()
    assert nbytes == len(payload)


def test_error_mid_write_keeps_previous_contents(tmp_path):
    target = tmp_path / "artifact.bin"
    target.write_bytes(b"previous")

    def chunks():
        yield b"partial"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        write_atomic(target, chunks())
    assert os.listdir(tmp_path) == ["artifact.bin"]
    assert target.read_bytes() == b"previous"


def test_completed_write_replaces_target(tmp_path):
    target = tmp_path / "artifact.txt"
    target.write_text("old")
    write_atomic(target, [b"new\n"])
    assert os.listdir(tmp_path) == ["artifact.txt"]
    assert target.read_text() == "new\n"


def test_write_atomic_hashes_array_chunks_by_their_bytes(tmp_path):
    data = np.arange(6, dtype="<f8").reshape(2, 3)
    digest, nbytes = write_atomic(tmp_path / "a.bin", [data])
    assert nbytes == 48 == len((tmp_path / "a.bin").read_bytes())
    assert digest == hashlib.sha256(data.tobytes()).hexdigest()


def test_csv_text():
    assert csv_text(("a", "b"), []) == "a,b\n"
    assert csv_text(["x"], [[0.1 + 0.2], [3]]) == "x\n0.30000000000000004\n3\n"


def _opens_for_writing(call: ast.Call) -> bool:
    """A call that opens or writes a file: open (builtin or a method such as
    Path.open) with a mode that is not a read-only literal, os.open,
    Path.write_text / write_bytes, ndarray.tofile, or np.save*."""
    func = call.func
    method = isinstance(func, ast.Attribute)
    name = func.attr if method else getattr(func, "id", None)
    owner = getattr(func.value, "id", None) if method else None
    if name in ("write_text", "write_bytes", "tofile") or (owner, name) == ("os", "open") or (
            owner == "np" and name.startswith("save")):
        return True
    if name != "open":
        return False
    position = 0 if method else 1  # Path.open(mode) against open(file, mode)
    mode = call.args[position] if len(call.args) > position else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_fileio_opens_files_for_writing():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_write_scan_sees_every_write_form():
    calls = ['open(p, "wb")', 'open(p, mode="a")', "open(p, m)", "os.open(p, 0)",
             "p.write_text(s)", "p.write_bytes(b)", 'p.open("r+")', "a.tofile(p)",
             "np.save(p, a)", 'gzip.open(p, "wb")']
    for src in calls:
        assert _opens_for_writing(ast.parse(src).body[0].value), src
    for src in ['open(p, "rb")', "open(p)", 'open(p, "r", encoding="ascii")', "p.open()",
                'p.open(mode="rb")']:
        assert not _opens_for_writing(ast.parse(src).body[0].value), src
