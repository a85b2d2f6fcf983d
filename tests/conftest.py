"""Shared builders: planted pruning problems with a brute-force deletion
oracle, and small trained parent models reused across trend tests. Also
prints the acceptance suite's per-criterion verdict lines in the terminal
summary, where pytest's capture cannot hide them."""

import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from tinylm.arch import ModelConfig, ParamStore, forward, generate, param_shapes
from tinylm.data import batches_from_windows, windows_from_ids, zipf_corpus
from tinylm.initializers import InitScheme, initialize
from tinylm.tensor import Tensor, softmax_cross_entropy
from tinylm.tokenizer import encode, train_bpe
from tinylm.trainer import TrainPlan, batch_loss, train_round


@pytest.fixture
def no_cyclic_gc():
    """Run with the cyclic collector off, so only refcounting frees memory."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def traced_memory():
    """Trace Python allocations inside the block. Yields a reader of the
    (current, peak) bytes traced so far; tracing stops when the block ends."""
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()


def make_planted_problem(seed, n_channels=5, n_heads=2, head_dim=4, n_batches=2,
                         min_margin=0.05):
    """A one-layer model where one FFN channel and one attention head carry
    nearly all the signal; data is the model's own greedy text, so deleting
    the informative unit visibly raises the loss. Drawn instances where the
    plant happens to be unused by the generated text are redrawn until the
    deletion margin clears ``min_margin`` nats for both unit kinds."""
    for attempt in range(20):
        rng = np.random.default_rng(seed * 1009 + attempt)
        width = n_heads * head_dim
        cfg = ModelConfig(vocab_size=260, width=width, depth=1, n_heads=n_heads,
                          kv_groups=n_heads, ffn_hidden=n_channels)
        planted_channel = int(rng.integers(0, n_channels))
        planted_head = int(rng.integers(0, n_heads))
        noise, strong = 0.02, 0.9
        tensors = {}
        for name, shape in param_shapes(cfg).items():
            if name.endswith("_norm"):
                tensors[name] = Tensor(np.ones(shape))
            elif name in ("embed", "head"):
                tensors[name] = Tensor(rng.normal(0.0, 0.35, size=shape))
            else:
                tensors[name] = Tensor(rng.normal(0.0, noise, size=shape))
        p = "layers.0."
        tensors[p + "wgate"].data[:, planted_channel] = rng.normal(0, strong, size=width)
        tensors[p + "wup"].data[:, planted_channel] = rng.normal(0, strong, size=width)
        tensors[p + "wdown"].data[planted_channel, :] = rng.normal(0, strong, size=width)
        cols = slice(planted_head * head_dim, (planted_head + 1) * head_dim)
        for w in ("wq", "wk", "wv"):
            tensors[p + w].data[:, cols] = rng.normal(0, strong, size=(width, head_dim))
        tensors[p + "wo"].data[cols, :] = rng.normal(0, strong, size=(head_dim, width))
        params = ParamStore(tensors)
        params.validate(cfg)
        prefixes = rng.integers(0, cfg.vocab_size, size=(n_batches, 4, 2))
        batches = [generate(cfg, params, pref, 14) for pref in prefixes]
        ok = True
        for kind, unit in (("ffn", planted_channel), ("head", planted_head)):
            inc = deletion_oracle(cfg, params, batches, kind)
            others = np.delete(inc, unit)
            if int(np.argmax(inc)) != unit or inc[unit] - others.max() < min_margin:
                ok = False
                break
        if ok:
            return cfg, params, batches, planted_channel, planted_head
    raise RuntimeError(f"no well-separated planted problem found for seed {seed}")


def deletion_oracle(cfg, params, batches, kind, layer=0):
    """Loss increase from zeroing each unit's output, one unit at a time."""
    n = cfg.ffn_hidden if kind == "ffn" else cfg.n_heads
    base = np.mean([batch_loss(cfg, params, b) for b in batches])
    increases = np.zeros(n)
    for u in range(n):
        gates = [None] * cfg.depth
        g = np.ones(n)
        g[u] = 0.0
        gates[layer] = Tensor(g)
        losses = []
        for b in batches:
            logits = forward(
                cfg, params, b[:, :-1],
                ffn_gates=gates if kind == "ffn" else None,
                head_gates=gates if kind == "head" else None,
            )
            bb, t, v = logits.shape
            losses.append(float(softmax_cross_entropy(
                logits.reshape((bb * t, v)), b[:, 1:].reshape(-1)).data))
        increases[u] = np.mean(losses) - base
    return increases


_PARENT_CACHE = {}


def train_toy_parent(seed, depth=8, width=32, heads=2, ffn=64, steps=140,
                     corpus_bytes=90_000, seq_len=32, batch_size=8):
    """A small trained model over a Zipf word corpus; cached per call shape
    so the trend tests can share parents across criteria."""
    key = (seed, depth, width, heads, ffn, steps)
    if key in _PARENT_CACHE:
        return _PARENT_CACHE[key]
    corpus = zipf_corpus(corpus_bytes, seed=seed)
    vocab = train_bpe(corpus, 300)
    ids = encode(corpus, vocab)
    windows = windows_from_ids(ids, seq_len, seed=seed)
    batches = batches_from_windows(windows, batch_size)
    holdout = batches[-3:]
    train = batches[: len(batches) - 3]
    cfg = ModelConfig(vocab_size=vocab.size, width=width, depth=depth,
                      n_heads=heads, kv_groups=heads, ffn_hidden=ffn)
    params = initialize(cfg, InitScheme("constant", 0.02, seed=seed))
    plan = TrainPlan(lr=4e-3, parts=8, seed=seed)
    epochs = -(-steps // len(train))
    schedule = (train * epochs)[:steps]  # one cosine over all steps
    params, _ = train_round(cfg, params, schedule, plan)
    result = (cfg, params, train, holdout, vocab)
    _PARENT_CACHE[key] = result
    return result


@pytest.fixture
def planted_problem():
    return make_planted_problem(seed=0)
