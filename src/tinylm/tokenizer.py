"""Byte-level BPE tokenizer: training, frequency analysis, coverage curves,
and low-frequency vocabulary removal.

The 256 single-byte tokens are always present and never removed, so any byte
string stays encodable before and after compaction. Merges are applied in
rank order, which (because a merge's operands always have smaller rank than
its product) is equivalent to repeatedly applying the lowest-rank pair.

Training counts adjacent pairs once and keeps the counts across merges: each
merge costs one scan of the corpus to find its sites plus work proportional
to the number of sites. The most frequent pair wins, ties breaking toward the
smaller (left, right) id pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .fileio import csv_text, write_atomic

BASE_SIZE = 256


class EmptyCorpusError(ValueError):
    """Operation needs a nonempty corpus / nonzero token count."""


@dataclass
class Vocabulary:
    """Token inventory: 256 byte tokens plus merge-produced tokens.

    tokens[i] is the byte string of id i; merges is the rank-ordered list of
    (left_id, right_id, merged_id) with merged ids dense above 255.
    """

    tokens: list[bytes]
    merges: list[tuple[int, int, int]]

    @classmethod
    def base(cls) -> "Vocabulary":
        return cls(tokens=[bytes([i]) for i in range(BASE_SIZE)], merges=[])

    @property
    def size(self) -> int:
        return len(self.tokens)

    def validate(self) -> None:
        if self.tokens[:BASE_SIZE] != [bytes([i]) for i in range(BASE_SIZE)]:
            raise ValueError("first 256 tokens must be the single bytes")
        if len(self.tokens) != BASE_SIZE + len(self.merges):
            raise ValueError("token count does not match base + merges")
        produced = set()
        for rank, (left, right, merged) in enumerate(self.merges):
            if merged != BASE_SIZE + rank:
                raise ValueError(f"merge rank {rank} produces non-dense id {merged}")
            if left >= merged or right >= merged:
                raise ValueError(f"merge {merged} has operand with rank >= its own")
            if merged in produced:
                raise ValueError(f"token {merged} produced by more than one merge")
            produced.add(merged)
            if self.tokens[merged] != self.tokens[left] + self.tokens[right]:
                raise ValueError(f"merge {merged} bytes do not match operands")


@dataclass
class FrequencyTable:
    """Occurrence counts per token id over one encoded corpus."""

    counts: np.ndarray  # int64, length == vocab size
    total_tokens: int

    def to_csv(self) -> str:
        return csv_text(("token_id", "count"), enumerate(self.counts.tolist()))


@dataclass
class CoverageCurve:
    """Cumulative fraction of corpus occurrences covered by the top-k tokens."""

    ks: list[int]
    fractions: list[float]
    order: list[int] = field(default_factory=list)  # token ids, most frequent first

    def to_csv(self) -> str:
        return csv_text(("k", "cumulative_fraction"), zip(self.ks, self.fractions))


def _merge_sites(ids: np.ndarray, left: int, right: int) -> np.ndarray:
    """Start positions of the non-overlapping, leftmost-first occurrences of
    (left, right). Occurrences overlap only when left == right; within a run
    of consecutive candidates the greedy scan keeps every other one."""
    sites = np.flatnonzero((ids[:-1] == left) & (ids[1:] == right))
    if left == right and sites.size > 1:
        run_start = np.ones(sites.size, dtype=bool)
        run_start[1:] = sites[1:] != sites[:-1] + 1
        first = sites[run_start][np.cumsum(run_start) - 1]
        sites = sites[(sites - first) % 2 == 0]
    return sites


def _merge_at(ids: np.ndarray, sites: np.ndarray, merged: int) -> np.ndarray:
    """Write ``merged`` at each site in place and drop the right operands."""
    ids[sites] = merged
    keep = np.ones(ids.size, dtype=bool)
    keep[sites + 1] = False
    return ids[keep]


def _apply_merge(ids: np.ndarray, left: int, right: int, merged: int) -> np.ndarray:
    """Replace non-overlapping, leftmost-first occurrences of (left, right)."""
    sites = _merge_sites(ids, left, right)
    if sites.size == 0:
        return ids
    return _merge_at(ids.copy(), sites, merged)


def _pair_keys(ids: np.ndarray, positions: np.ndarray, span: int) -> np.ndarray:
    """Keys ``left * span + right`` of the pairs starting at ``positions``;
    integer order is (left, right) order."""
    return ids[positions].astype(np.int64) * span + ids[positions + 1]


def _touched(positions: np.ndarray, offsets: tuple[int, ...], n_pairs: int) -> np.ndarray:
    """Distinct pair positions ``p + o`` within [0, n_pairs). ``positions``
    ascend with gaps of at least ``len(offsets) - 1``, so the row-major sums
    never descend and duplicates are adjacent."""
    near = (positions[:, None] + np.asarray(offsets)).ravel()
    keep = (near >= 0) & (near < n_pairs)
    keep[1:] &= near[1:] != near[:-1]
    return near[keep]


def train_bpe(corpus: bytes, target_size: int) -> Vocabulary:
    """Greedy highest-frequency pair merging until ``target_size`` tokens
    exist or no pair repeats. Ties break toward the lexicographically
    smaller (left, right) id pair.

    Pair counts (overlapping occurrences counted) are taken once; each merge
    then subtracts the pairs that touched its sites and adds the pairs around
    the merged tokens. The best pair comes from a max-heap of
    (-count, key) whose entries are dropped lazily once their count is stale.
    """
    if target_size < BASE_SIZE:
        raise ValueError(f"target_size must be >= {BASE_SIZE}, got {target_size}")
    vocab = Vocabulary.base()
    ids = np.frombuffer(corpus, dtype=np.uint8).astype(np.int32)
    span = target_size  # every id stays below target_size
    keys, freq = np.unique(ids[:-1].astype(np.int64) * span + ids[1:], return_counts=True)
    counts = dict(zip(keys.tolist(), freq.tolist()))

    def live_heap() -> list[tuple[int, int]]:
        # only pairs that repeat can win, so only they enter the heap
        heap = [(-c, k) for k, c in counts.items() if c >= 2]
        heapq.heapify(heap)
        return heap

    heap = live_heap()
    n_live = len(heap)  # keys with count >= 2, i.e. the heap's live entries
    while vocab.size < target_size:
        while heap and counts.get(heap[0][1], 0) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        left, right = divmod(heap[0][1], span)
        merged = vocab.size
        vocab.tokens.append(vocab.tokens[left] + vocab.tokens[right])
        vocab.merges.append((left, right, merged))

        sites = _merge_sites(ids, left, right)
        # (prev, left), (left, right), (right, next) go; (prev, merged) and
        # (merged, next) come; every other pair is unchanged
        old = _pair_keys(ids, _touched(sites, (-1, 0, 1), ids.size - 1), span)
        ids = _merge_at(ids, sites, merged)
        placed = sites - np.arange(sites.size)  # merged tokens' new positions
        new = _pair_keys(ids, _touched(placed, (-1, 0), ids.size - 1), span)

        keys, inverse = np.unique(np.concatenate([old, new]), return_inverse=True)
        delta = np.zeros(keys.size, dtype=np.int64)
        np.add.at(delta, inverse, np.repeat([-1, 1], [old.size, new.size]))
        for key, d in zip(keys.tolist(), delta.tolist()):
            if d == 0:
                continue
            before = counts.get(key, 0)
            after = before + d
            if after:
                counts[key] = after
            else:
                del counts[key]
            n_live += (after >= 2) - (before >= 2)
            if after >= 2:
                heapq.heappush(heap, (-after, key))
        if len(heap) > 2 * n_live:  # stale entries outnumber live ones
            heap = live_heap()
    return vocab


def encode(data: bytes, vocab: Vocabulary) -> np.ndarray:
    """Byte string -> token ids, applying merges in rank order."""
    ids = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    for left, right, merged in vocab.merges:
        if ids.size < 2:
            break
        ids = _apply_merge(ids, left, right, merged)
    return ids


def decode(ids, vocab: Vocabulary) -> bytes:
    out = []
    for i in np.asarray(ids).reshape(-1):
        i = int(i)
        if i < 0 or i >= vocab.size:
            raise IndexError(f"token id {i} out of range for vocabulary of {vocab.size}")
        out.append(vocab.tokens[i])
    return b"".join(out)


def frequencies(ids: np.ndarray, size: int) -> FrequencyTable:
    """Occurrence counts of already-encoded ids over a vocabulary of ``size``."""
    counts = np.bincount(ids, minlength=size).astype(np.int64)
    return FrequencyTable(counts=counts, total_tokens=int(ids.size))


def count_frequencies(corpus: bytes, vocab: Vocabulary) -> FrequencyTable:
    return frequencies(encode(corpus, vocab), vocab.size)


def _frequency_order(freq: FrequencyTable) -> np.ndarray:
    """Token ids sorted by descending count, ties broken by lower id."""
    n = len(freq.counts)
    return np.lexsort((np.arange(n), -freq.counts))


def coverage_curve(freq: FrequencyTable) -> CoverageCurve:
    if freq.total_tokens == 0:
        raise EmptyCorpusError("coverage curve needs a nonzero token count")
    order = _frequency_order(freq)
    cum = np.cumsum(freq.counts[order]) / freq.total_tokens
    return CoverageCurve(
        ks=list(range(1, len(order) + 1)),
        fractions=[float(f) for f in cum],
        order=[int(i) for i in order],
    )


def _merge_chain(token_id: int, vocab: Vocabulary) -> set[int]:
    """The token plus every operand needed, recursively, to produce it."""
    chain: set[int] = set()
    stack = [token_id]
    while stack:
        t = stack.pop()
        if t in chain:
            continue
        chain.add(t)
        if t >= BASE_SIZE:
            left, right, _ = vocab.merges[t - BASE_SIZE]
            stack.extend((left, right))
    return chain


def compact_vocab(
    vocab: Vocabulary,
    freq: FrequencyTable,
    size: int | None = None,
    coverage: float | None = None,
) -> Vocabulary:
    """Drop low-frequency non-base tokens.

    Exactly one of ``size`` (total retained token count) or ``coverage``
    (fraction of all token occurrences, base included, that the retained set
    must reach) is given. A retained token's full merge chain is always
    retained with it, so every survivor stays producible; ids re-densify in
    original order, preserving merge ranks.
    """
    if (size is None) == (coverage is None):
        raise ValueError("give exactly one of size= or coverage=")
    if size is not None and size < BASE_SIZE:
        raise ValueError(f"size target must be >= {BASE_SIZE}, got {size}")
    if coverage is not None and not (0.0 < coverage <= 1.0):
        raise ValueError(f"coverage target must be in (0, 1], got {coverage}")

    retained: set[int] = set(range(BASE_SIZE))
    order = _frequency_order(freq)
    if coverage is not None:
        if freq.total_tokens == 0:
            raise EmptyCorpusError("coverage compaction needs a nonzero token count")
        covered = 0
        for t in order:
            t = int(t)
            if covered / freq.total_tokens >= coverage - 1e-12:
                break
            covered += int(freq.counts[t])
            if t >= BASE_SIZE:
                retained |= _merge_chain(t, vocab)
    else:
        for t in order:
            t = int(t)
            if t < BASE_SIZE or t in retained:
                continue
            needed = _merge_chain(t, vocab) - retained
            if len(retained) + len(needed) <= size:
                retained |= needed
            # else: chain does not fit; try later (usually shorter) chains

    old_ids = sorted(retained)
    remap = {old: new for new, old in enumerate(old_ids)}
    new_tokens = [vocab.tokens[i] for i in old_ids]
    new_merges = [
        (remap[l], remap[r], remap[m])
        for (l, r, m) in vocab.merges
        if m in retained
    ]
    out = Vocabulary(tokens=new_tokens, merges=new_merges)
    out.validate()
    return out


def compression_rate(corpus: bytes, vocab: Vocabulary) -> float:
    """Tokens emitted per corpus byte (1.0 for the bare byte vocabulary)."""
    if len(corpus) == 0:
        raise EmptyCorpusError("compression rate needs a nonempty corpus")
    return encode(corpus, vocab).size / len(corpus)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_vocab(vocab: Vocabulary, path) -> tuple[str, int]:
    """Returns write_atomic's (sha256, byte count)."""
    lines = [t.hex() for t in vocab.tokens]
    lines.append("#MERGES")
    lines += [f"{l} {r} {m}" for (l, r, m) in vocab.merges]
    return write_atomic(path, ["\n".join(lines).encode("ascii") + b"\n"])


def load_vocab(path) -> Vocabulary:
    tokens: list[bytes] = []
    merges: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="ascii") as fh:
        section = "tokens"
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line == "#MERGES":
                section = "merges"
                continue
            if section == "tokens":
                tokens.append(bytes.fromhex(line))
            else:
                l, r, m = (int(x) for x in line.split())
                merges.append((l, r, m))
    vocab = Vocabulary(tokens=tokens, merges=merges)
    vocab.validate()
    return vocab


def vocab_id_map(child: Vocabulary, parent: Vocabulary) -> list[int]:
    """child id -> parent id, matched by token bytes; used by surgery to
    slice embedding/head rows. Raises if a child token is not in the parent."""
    parent_index = {tok: i for i, tok in enumerate(parent.tokens)}
    out = []
    for i, tok in enumerate(child.tokens):
        if tok not in parent_index:
            raise ValueError(f"child token {i} ({tok!r}) not present in parent vocabulary")
        out.append(parent_index[tok])
    return out
