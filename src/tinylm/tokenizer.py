"""Byte-level BPE tokenizer: training, frequency analysis, coverage curves,
and low-frequency vocabulary removal.

The 256 single-byte tokens are always present and never removed, so any byte
string stays encodable before and after compaction. Merges are applied in
rank order, which (because a merge's operands always have smaller rank than
its product) is equivalent to repeatedly applying the lowest-rank pair.

Training and encoding share one position index: token ids laid out by
position, linked to their live neighbours, with one position list per token.
A merge finds its sites in its left operand's list, writes the product in
place and unlinks the right operand, so it costs work proportional to that
operand's occurrences, not a scan of the text. Training counts adjacent pairs
once and keeps the counts across merges. The most frequent pair wins, ties
breaking toward the smaller (left, right) id pair. Training applies its
merges in rank order to the index, so the stream it leaves is the corpus's
encoding (``train_and_encode``). A compacted vocabulary's stream is derived
from the full one (``recode``), not encoded from the text.
"""

from __future__ import annotations

import heapq
import io
import itertools
from dataclasses import dataclass

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
        first_id = {}  # merged bytes -> first id; byte tokens are shorter
        for rank, (left, right, merged) in enumerate(self.merges):
            if merged != BASE_SIZE + rank:
                raise ValueError(f"merge rank {rank} produces non-dense id {merged}")
            if not (0 <= left < merged and 0 <= right < merged):
                raise ValueError(f"merge {left} {right} {merged}: operand outside [0, {merged})")
            if self.tokens[merged] != self.tokens[left] + self.tokens[right]:
                raise ValueError(f"merge {merged} bytes do not match operands")
            earlier = first_id.setdefault(self.tokens[merged], merged)
            if earlier != merged:
                raise ValueError(f"tokens {earlier} and {merged} have the same bytes")


@dataclass
class FrequencyTable:
    """Occurrence counts per token id over one encoded corpus."""

    counts: np.ndarray  # int64, length == vocab size

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        return csv_text(("token_id", "count"), enumerate(self.counts.tolist()))


@dataclass
class CoverageCurve:
    """Cumulative fraction of corpus occurrences covered by the top-k tokens:
    ``fractions[k - 1]`` for k = 1..n, the CSV's row k."""

    fractions: list[float]

    def to_csv(self) -> str:
        return csv_text(("k", "cumulative_fraction"), enumerate(self.fractions, start=1))


class _PositionIndex:
    """Token ids laid out by position, merged in place.

    ``ids[p]`` is the token that starts at position p, or -1 once p has been
    absorbed into the token on its left; ``ids[-1]`` is a -1 sentinel.
    ``nxt`` links each live position to the next one (the last to the
    sentinel). ``prv`` links back (the first to -1, which indexes the
    sentinel) and is kept only with ``back_links``. ``pos[t]`` lists t's
    positions in ascending order; entries that have merged away are dropped
    when t is next looked up, which is exact because a position's token only
    ever grows or dies, so it never returns to t.

    Positions start as offsets into the stream laid out (the bytes, for
    ``encode``). Once half of them are dead, ``sites`` renumbers the live ones
    densely, so the arrays shrink with the text; positions returned earlier
    are then void.
    """

    def __init__(self, tokens: np.ndarray, back_links: bool,
                 listed: np.ndarray | None = None):
        """Lay out ``tokens`` and list the positions of each token in
        ``listed``, or of every token when it is None."""
        if tokens.size >= np.iinfo(np.int32).max:
            raise ValueError(f"{tokens.size} tokens is too long for int32 positions")
        keyed = tokens
        if listed is not None:
            at = np.flatnonzero(np.isin(tokens, listed)).astype(np.int32)
            keyed = tokens[at]
        order = np.argsort(keyed, kind="stable").astype(np.int32)
        if listed is not None:
            order = at[order]
        counts = np.bincount(keyed)
        present = np.flatnonzero(counts)
        ends = np.cumsum(counts[present])[:-1]
        # one array per token, so a list that shrinks frees its memory
        self.pos = {t: p.copy() for t, p in zip(present.tolist(), np.split(order, ends))}
        del order
        self.back_links = back_links
        self._lay_out(tokens)

    def _lay_out(self, tokens: np.ndarray) -> None:
        n = self.live = tokens.size
        self.ids = np.full(n + 1, -1, dtype=np.int32)
        self.ids[:n] = tokens
        self.nxt = np.arange(1, n + 2, dtype=np.int32)
        self.nxt[n] = n
        self.prv = np.arange(-1, n, dtype=np.int32) if self.back_links else None

    def _compact(self) -> None:
        """Renumber the live positions densely, dropping stale list entries."""
        alive = self.ids[:-1] >= 0
        renumber = self.nxt[:-1]  # nxt is rebuilt in order below
        renumber[:] = alive  # cumsum of bool into int32 would copy first
        np.cumsum(renumber, out=renumber)
        renumber -= 1
        for t, p in self.pos.items():
            self.pos[t] = renumber[p[self.ids[p] == t]]
        self.nxt = self.prv = renumber = None
        self._lay_out(self.ids[:-1][alive])

    def sites(self, left: int, right: int) -> np.ndarray:
        """Positions of the non-overlapping, leftmost-first (left, right)
        pairs. Pairs overlap only when left == right; within a run of
        linked-adjacent candidates the greedy scan keeps every other one."""
        if 2 * self.live < self.ids.size:
            self._compact()
        p = self.pos.get(left, _NO_SITES)
        if p.size == 0:
            return p
        ids, nxt = self.ids, self.nxt
        p = self.pos[left] = p[ids[p] == left]
        s = p[ids[nxt[p]] == right]
        if left == right and s.size > 1:
            run_start = np.ones(s.size, dtype=bool)
            run_start[1:] = nxt[s[:-1]] != s[1:]
            rank = np.arange(s.size)
            s = s[(rank - rank[run_start][np.cumsum(run_start) - 1]) % 2 == 0]
        return s

    def merge(self, sites: np.ndarray, merged: int) -> None:
        """Write ``merged`` at each site and unlink its right operand."""
        right = self.nxt[sites]
        after = self.nxt[right]
        self.ids[sites] = merged
        self.ids[right] = -1
        self.nxt[sites] = after
        if self.prv is not None:
            self.prv[after] = sites
        self.pos[merged] = sites
        self.live -= sites.size

    def tokens(self) -> np.ndarray:
        ids = self.ids[:-1]
        return ids[ids >= 0]


_NO_SITES = np.empty(0, dtype=np.int32)


def _tally(tokens: np.ndarray):
    """(token, count) for each distinct non-negative entry, in token order."""
    counts = np.bincount(tokens[tokens >= 0])
    present = np.flatnonzero(counts)
    return zip(present.tolist(), counts[present].tolist())


def _merge_counted(index: _PositionIndex, left: int, right: int, merged: int,
                   span: int) -> tuple[dict[int, int], dict[int, int]]:
    """Apply one merge. Returns how far each existing pair's count falls and
    the counts of the pairs it creates that repeat, keyed ``left * span + right``.

    (prev, left), (left, right), (right, next) go; (prev, merged) and
    (merged, next) come; every other pair is unchanged. A pair between two
    sites is (right, left) before and (merged, merged) after; it is counted
    once, as the first site's (right, next) and (merged, next).
    """
    sites = index.sites(left, right)
    ids, nxt, prv = index.ids, index.nxt, index.prv
    right_ops = nxt[sites]
    apart = np.ones(sites.size, dtype=bool)
    apart[1:] = prv[sites[1:]] != right_ops[:-1]
    prev = ids[prv[sites[apart]]]
    old_next = ids[nxt[right_ops]]
    index.merge(sites, merged)
    new_next = ids[nxt[sites]]

    gone = {left * span + right: sites.size}
    came = {}
    for t, c in _tally(prev):
        key = t * span + left
        gone[key] = gone.get(key, 0) + c
        if c >= 2:
            came[t * span + merged] = c
    for t, c in _tally(old_next):
        key = right * span + t
        gone[key] = gone.get(key, 0) + c
    came.update((merged * span + t, c) for t, c in _tally(new_next) if c >= 2)
    return gone, came


def train_bpe(corpus: bytes, target_size: int) -> Vocabulary:
    """Greedy highest-frequency pair merging until ``target_size`` tokens
    exist or no pair repeats. Ties break toward the lexicographically
    smaller (left, right) id pair.

    Pair counts (overlapping occurrences counted) are taken once. A merge's
    sites come from its left operand's position list; it then lowers the
    counts of the pairs that touched its sites and counts the pairs around
    the merged tokens, so it costs work proportional to its operands'
    occurrences, not a scan of the corpus. Every pair a merge creates holds
    the merged token, so a pair's count never rises once set, and only pairs
    that repeat are counted at all. The best pair comes from a min-heap of
    ``key - count * span²`` (highest count first, then smallest key), one
    entry per counted pair; an entry whose count has fallen is lowered when
    it reaches the top. The merged corpus left behind is its encoding;
    ``train_and_encode`` returns it too.
    """
    return train_and_encode(corpus, target_size)[0]


def train_and_encode(corpus: bytes, target_size: int) -> tuple[Vocabulary, np.ndarray]:
    """``train_bpe``'s vocabulary and the corpus's stream under it: training
    merges the corpus in place, in rank order, with ``encode``'s index code,
    so the stream equals ``encode(corpus, vocabulary)``, dtype included."""
    if target_size < BASE_SIZE:
        raise ValueError(f"target_size must be >= {BASE_SIZE}, got {target_size}")
    vocab = Vocabulary.base()
    span = target_size  # every id stays below target_size
    span2 = span * span  # every pair key stays below span2
    raw = np.frombuffer(corpus, dtype=np.uint8)
    # before any merge every pair is a byte pair, so 2**16 bins count them all
    byte_pairs = np.bincount(raw[:-1].astype(np.int32) * BASE_SIZE + raw[1:],
                             minlength=BASE_SIZE * BASE_SIZE)
    repeats = np.flatnonzero(byte_pairs >= 2)
    first, second = np.divmod(repeats, BASE_SIZE)
    # counts never rise, so a pair that does not repeat now never will
    counts = dict(zip((first * span + second).tolist(), byte_pairs[repeats].tolist()))
    del byte_pairs, repeats, first, second
    index = _PositionIndex(raw, back_links=True)

    heap = [k - c * span2 for k, c in counts.items()]
    heapq.heapify(heap)
    while heap and vocab.size < target_size:
        neg_count, key = divmod(heap[0], span2)
        count = counts.get(key, 0)
        if count != -neg_count:
            if count >= 2:
                heapq.heapreplace(heap, key - count * span2)
            else:
                heapq.heappop(heap)
            continue
        left, right = divmod(key, span)
        merged = vocab.size
        vocab.tokens.append(vocab.tokens[left] + vocab.tokens[right])
        vocab.merges.append((left, right, merged))

        gone, came = _merge_counted(index, left, right, merged, span)
        for key, fall in gone.items():
            count = counts.pop(key, 0) - fall
            if count >= 2:
                counts[key] = count
        for key, count in came.items():
            counts[key] = count
            heapq.heappush(heap, key - count * span2)
    return vocab, index.tokens()


def _replay(index: _PositionIndex, merges) -> np.ndarray:
    """Apply ``merges`` in order and return the merged stream."""
    for left, right, merged in merges:
        sites = index.sites(left, right)
        if sites.size:
            index.merge(sites, merged)
    return index.tokens()


def encode(data: bytes, vocab: Vocabulary) -> np.ndarray:
    """Byte string -> token ids, applying merges in rank order."""
    raw = np.frombuffer(data, dtype=np.uint8)
    return _replay(_PositionIndex(raw, back_links=False), vocab.merges)


def _compaction_ids(vocab: Vocabulary, compact: Vocabulary) -> list[int]:
    """compact id -> vocab id. Raises ValueError unless compact's merges are
    vocab's merges of the same tokens, kept in vocab's order."""
    compact.validate()
    vocab_ids = list(range(BASE_SIZE))
    remaining = iter(vocab.merges)
    for left, right, merged in compact.merges:
        pair = (vocab_ids[left], vocab_ids[right])
        vocab_ids.append(next((m for l, r, m in remaining if (l, r) == pair), -1))
        if vocab_ids[-1] < 0:
            raise ValueError(
                f"compact token {merged} ({compact.tokens[merged]!r}) is not a merge "
                "of the full vocabulary in its order"
            )
    return vocab_ids


def recode(ids: np.ndarray, vocab: Vocabulary, compact: Vocabulary) -> np.ndarray:
    """``encode(corpus, compact)`` from ``ids = encode(corpus, vocab)``, for a
    ``compact`` made from ``vocab`` by ``compact_vocab``, without the corpus.

    Let ``below`` be the first id that compaction dropped. Every id under it
    means the same in both vocabularies and was made by the same merges, so
    the stream as it stood before vocab's merge ``below`` is ``ids`` with
    each token from ``below`` up split back into its operands, repeatedly,
    until none is left. Replaying compact's merges from ``below`` on finishes
    the encode; the index lists positions only for those merges' left
    operands. If nothing was dropped, ``ids`` is returned as it is.
    """
    kept = _compaction_ids(vocab, compact)
    below = next((new for new, old in enumerate(kept) if new != old), len(kept))
    if below == vocab.size:
        return ids
    if ids.size and not 0 <= ids.min() <= ids.max() < vocab.size:
        raise ValueError(f"token ids outside [0, {vocab.size})")
    # parts[t]: the tokens under ``below`` that t splits into
    parts = [[t] for t in range(below)]
    for left, right, _ in vocab.merges[below - BASE_SIZE:]:
        parts.append(parts[left] + parts[right])
    lengths = np.array([len(p) for p in parts], dtype=np.int32)
    # a 16-bit stream lets the index sort its positions by radix
    dtype = np.uint16 if below <= 1 << 16 else np.int32
    flat = np.fromiter(itertools.chain.from_iterable(parts), dtype=dtype)
    # ids[i]'s n[i] parts end at flat_ends[ids[i]] in flat and at ends[i] in
    # the stream, so each of its stream slots reads flat one fixed shift away
    flat_ends = np.cumsum(lengths, dtype=np.int32)
    n = lengths[ids]
    ends = np.cumsum(n, dtype=np.int32)
    at = np.repeat(flat_ends[ids] - ends, n)
    at += np.arange(at.size, dtype=np.int32)
    stream = flat[at]
    del at
    merges = compact.merges[below - BASE_SIZE:]
    listed = np.array([left for left, _, _ in merges if left < below], dtype=np.int32)
    return _replay(_PositionIndex(stream, back_links=False, listed=listed), merges)


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
    return FrequencyTable(np.bincount(ids, minlength=size).astype(np.int64))


def count_frequencies(corpus: bytes, vocab: Vocabulary) -> FrequencyTable:
    return frequencies(encode(corpus, vocab), vocab.size)


def _frequency_order(freq: FrequencyTable) -> np.ndarray:
    """Token ids sorted by descending count, ties broken by lower id."""
    n = len(freq.counts)
    return np.lexsort((np.arange(n), -freq.counts))


def coverage_curve(freq: FrequencyTable) -> CoverageCurve:
    total = freq.total_tokens
    if total == 0:
        raise EmptyCorpusError("coverage curve needs a nonzero token count")
    order = _frequency_order(freq)
    cum = np.cumsum(freq.counts[order]) / total
    return CoverageCurve([float(f) for f in cum])


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
        covered, total = 0, freq.total_tokens
        if total == 0:
            raise EmptyCorpusError("coverage compaction needs a nonzero token count")
        for t in order:
            t = int(t)
            if covered / total >= coverage - 1e-12:
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_vocab(vocab: Vocabulary, path) -> tuple[str, int]:
    """Returns write_atomic's (sha256, byte count)."""
    lines = [t.hex() for t in vocab.tokens]
    lines.append("#MERGES")
    lines += [f"{l} {r} {m}" for (l, r, m) in vocab.merges]
    return write_atomic(path, ["\n".join(lines).encode("ascii") + b"\n"])


def parse_vocab(data: bytes) -> Vocabulary:
    """A vocabulary file's bytes, split into lines as a text-mode file is."""
    tokens: list[bytes] = []
    merges: list[tuple[int, int, int]] = []
    section = "tokens"
    for line in io.TextIOWrapper(io.BytesIO(data), encoding="ascii"):
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


def load_vocab(path) -> Vocabulary:
    with open(path, "rb") as fh:
        return parse_vocab(fh.read())


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
