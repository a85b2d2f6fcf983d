"""Synthetic corpora and batch preparation for desk-scale experiments.

The corpus generator draws words from a seeded lexicon with Zipf-distributed
ranks, so a byte-level model gets learnable spelling/co-occurrence structure
and the tokenizer sees a realistic long-tail frequency profile.
"""

from __future__ import annotations

import numpy as np

from .evaluator import ClozeItem


def zipf_corpus(
    n_bytes: int,
    seed: int = 0,
    n_words: int = 200,
    alpha: float = 1.2,
) -> bytes:
    """About ``n_bytes`` of space-separated Zipf-weighted words in lines of
    4..9 words ending '. '."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    lexicon = []
    seen = set()
    while len(lexicon) < n_words:
        length = int(rng.integers(2, 9))
        word = bytes(letters[rng.integers(0, 26, size=length)])
        if word not in seen:
            seen.add(word)
            lexicon.append(word)
    weights = 1.0 / np.arange(1, n_words + 1) ** alpha
    weights /= weights.sum()
    # the draw Generator.choice(n_words, size=n, p=weights) makes, with the
    # CDF built once rather than on every call
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    chunks: list[bytes] = []
    total = 0
    while total < n_bytes:
        n = int(rng.integers(4, 10))
        words = [lexicon[i] for i in cdf.searchsorted(rng.random(n), side="right")]
        line = b" ".join(words) + b". "
        chunks.append(line)
        total += len(line)
    return b"".join(chunks)[:n_bytes]


def windows_from_ids(ids: np.ndarray, seq_len: int, seed: int = 0) -> np.ndarray:
    """Chop a token stream into shuffled windows of seq_len + 1 ids
    (inputs and next-token targets share the window)."""
    ids = np.asarray(ids)
    step = seq_len + 1
    n = ids.size // step
    if n == 0:
        raise ValueError(f"stream of {ids.size} ids too short for seq_len {seq_len}")
    win = ids[: n * step].reshape(n, step)
    return win[np.random.default_rng(seed).permutation(n)]


def batches_from_windows(windows: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Group [N, T+1] windows into full batches of [B, T+1]."""
    n = windows.shape[0] // batch_size
    if n == 0:
        raise ValueError(f"{windows.shape[0]} windows cannot fill a batch of {batch_size}")
    return [windows[i * batch_size : (i + 1) * batch_size] for i in range(n)]


def make_cloze_items(
    ids: np.ndarray,
    n_items: int,
    context_len: int,
    candidate_len: int,
    n_candidates: int,
    vocab_size: int,
    seed: int = 0,
) -> list[ClozeItem]:
    """Multiple-choice items from a token stream: the true continuation is
    the gold candidate; distractors are random spans from elsewhere.
    ``vocab_size`` is not read: every id comes from ``ids``."""
    rng = np.random.default_rng(seed)
    ids = np.asarray(ids)
    span = context_len + candidate_len
    if ids.size < span + 1:
        raise ValueError("stream too short for the requested item shape")
    items = []
    for _ in range(n_items):
        start = int(rng.integers(0, ids.size - span))
        context = ids[start : start + context_len]
        gold = ids[start + context_len : start + span]
        candidates = []
        for _ in range(n_candidates - 1):
            s = int(rng.integers(0, ids.size - candidate_len))
            candidates.append([int(t) for t in ids[s : s + candidate_len]])
        gold_index = int(rng.integers(0, n_candidates))
        candidates.insert(gold_index, [int(t) for t in gold])
        items.append(ClozeItem([int(t) for t in context], candidates, gold_index))
    return items
