"""Perplexity and likelihood-ranked multiple-choice (cloze) scoring.

Cloze items mirror how multiple-choice benchmarks are scored: each candidate
continuation gets the model's mean per-token log-likelihood after the shared
context, and the highest-scoring candidate wins (ties to the lower index).
Items that share a context length are scored together: each context is
prefilled once into a KV cache, and all candidates of ``CLOZE_CHUNK`` items
then run in one cached forward (see ``score_items``).
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .arch import PREFILL_CHUNK, KVCache, ModelConfig, ParamStore, batch_loss, forward
from .fileio import csv_text, write_atomic

# cloze items per prefix-shared scoring chunk; bounds the chunk's KV cache
# rows and [rows, T, V] logits, which dominate scoring memory
CLOZE_CHUNK = 16


@dataclass(frozen=True)
class ClozeItem:
    context: list[int]
    candidates: list[list[int]]
    gold: int

    def validate(self) -> None:
        if not isinstance(self.context, list) or len(self.context) == 0:
            raise ValueError("cloze item needs a nonempty context")
        if not isinstance(self.candidates, list) or len(self.candidates) < 2:
            raise ValueError("cloze item needs at least 2 candidates")
        if not _is_int(self.gold) or not 0 <= self.gold < len(self.candidates):
            raise ValueError(f"gold must be an index into the candidates, got {self.gold!r}")
        if any(not isinstance(c, list) or len(c) == 0 for c in self.candidates):
            raise ValueError("candidates must be nonempty token lists")
        for ids in (self.context, *self.candidates):
            if not all(_is_int(t) and t >= 0 for t in ids):
                raise ValueError(f"token ids must be integers >= 0, got {ids!r}")

    __post_init__ = validate


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass
class EvalReport:
    metric: str
    value: float
    item_count: int
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        summary = asdict(self)
        del summary["rows"]
        return json.dumps(summary, indent=2)

    def to_csv(self) -> str:
        keys = list(self.rows[0]) if self.rows else ["index"]
        return csv_text(keys, ([row[k] for k in keys] for row in self.rows))


def perplexity(
    config: ModelConfig, params: ParamStore, batches: list[np.ndarray]
) -> EvalReport:
    """exp of the mean token-level cross entropy over all batches."""
    if not batches:
        raise ValueError("perplexity needs a nonempty batch list")
    total_loss = 0.0
    total_tokens = 0
    rows = []
    for i, batch in enumerate(batches):
        loss = batch_loss(config, params, batch)
        b, t = batch[:, 1:].shape
        total_loss += loss * b * t
        total_tokens += b * t
        rows.append({"index": i, "loss": loss})
    mean = total_loss / total_tokens
    return EvalReport("perplexity", float(np.exp(mean)), len(batches), rows)


def score_items(
    config: ModelConfig,
    params: ParamStore,
    items: list[ClozeItem],
) -> list[list[float]]:
    """Candidate scores of each item, in item order. ``ClozeItem`` checks each
    item's shape and ids >= 0; an id >= ``config.vocab_size`` raises here.

    Items are grouped by context length and scored ``CLOZE_CHUNK`` at a time:
    ``context[:-1]`` of every item in a chunk is prefilled into one KV cache
    (``PREFILL_CHUNK`` positions per forward), whose rows are then repeated
    once per candidate, and one cached forward runs every candidate as
    ``[context[-1]] + candidate[:-1]``. Each context is thus computed once,
    not once per candidate. Candidate rows are right-padded to the chunk's
    longest; causal attention keeps the padding, which follows every scored
    position, out of every score.
    """
    by_length: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        for ids in (item.context, *item.candidates):
            if max(ids) >= config.vocab_size:
                raise ValueError(
                    f"cloze item {i}: token ids {list(ids)} outside [0, {config.vocab_size})"
                )
        by_length.setdefault(len(item.context), []).append(i)
    scores: list[list[float]] = [[] for _ in items]
    for n_ctx, indices in by_length.items():
        for start in range(0, len(indices), CLOZE_CHUNK):
            chunk = indices[start : start + CLOZE_CHUNK]
            contexts = np.array([items[i].context for i in chunk], dtype=np.intp)
            counts = [len(items[i].candidates) for i in chunk]
            flat = [cand for i in chunk for cand in items[i].candidates]
            longest = max(map(len, flat))
            cache = KVCache(config, len(chunk), n_ctx - 1 + longest, params.dtype)
            prefix = contexts[:, :-1]
            for at in range(0, n_ctx - 1, PREFILL_CHUNK):
                forward(config, params, prefix[:, at : at + PREFILL_CHUNK], cache=cache)
            seqs = np.zeros((len(flat), longest), dtype=np.intp)
            seqs[:, 0] = np.repeat(contexts[:, -1], counts)
            for row, cand in zip(seqs, flat):
                row[1 : len(cand)] = cand[:-1]
            # logits at row position j predict candidate token j
            logits = forward(config, params, seqs, cache=cache.repeat(counts)).data
            z = logits - logits.max(axis=-1, keepdims=True)
            logprobs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            rows = iter(logprobs)
            for i in chunk:
                for cand, lp in zip(items[i].candidates, rows):
                    scores[i].append(float(np.mean(lp[np.arange(len(cand)), cand])))
    return scores


def cloze_accuracy(
    config: ModelConfig, params: ParamStore, items: list[ClozeItem]
) -> EvalReport:
    if not items:
        raise ValueError("cloze_accuracy needs a nonempty item list")
    all_scores = score_items(config, params, items)
    correct = 0
    rows = []
    for i, (item, scores) in enumerate(zip(items, all_scores)):
        choice = int(np.argmax(scores))  # argmax keeps the lower index on ties
        hit = choice == item.gold
        correct += hit
        rows.append({"index": i, "choice": choice, "gold": item.gold, "correct": int(hit)})
    return EvalReport("cloze_accuracy", correct / len(items), len(items), rows)


def parse_cloze_items(data: bytes) -> list[ClozeItem]:
    """A cloze file's bytes, split into lines as a text-mode file is."""
    items = []
    for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"):
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if not isinstance(d, dict) or sorted(d) != ["candidates", "context", "gold"]:
            raise ValueError(f"cloze item {len(items)}: need exactly context, candidates, gold")
        items.append(ClozeItem(**d))
    return items


def load_cloze_items(path) -> list[ClozeItem]:
    with open(path, "rb") as fh:
        return parse_cloze_items(fh.read())


def save_cloze_items(items: list[ClozeItem], path) -> tuple[str, int]:
    """One JSON object per line; returns write_atomic's (sha256, byte count)."""
    return write_atomic(path, ((json.dumps(asdict(item)) + "\n").encode() for item in items))
