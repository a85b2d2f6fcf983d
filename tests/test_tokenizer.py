import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinylm import arch, evaluator
from tinylm.data import zipf_corpus
from tinylm.tokenizer import (
    BASE_SIZE,
    EmptyCorpusError,
    FrequencyTable,
    Vocabulary,
    compact_vocab,
    compression_rate,
    count_frequencies,
    coverage_curve,
    decode,
    encode,
    frequencies,
    load_vocab,
    parse_vocab,
    recode,
    save_vocab,
    train_and_encode,
    train_bpe,
    vocab_id_map,
)
from conftest import traced_memory


def _vocab_with_merges(pairs):
    """Build a vocabulary by explicit merges of byte strings, in order."""
    vocab = Vocabulary.base()
    for left, right in pairs:
        li = vocab.tokens.index(left)
        ri = vocab.tokens.index(right)
        vocab.merges.append((li, ri, vocab.size))
        vocab.tokens.append(left + right)
    vocab.validate()
    return vocab


# The benchmark's tracer (perfbench/tracer.py) times train_bpe and encode in
# every run, traced or not, binds their arguments by name and reads
# len(result.merges); a change to either signature fails every tokenize job.
# train_and_encode, which the pipeline calls, is pinned the same way so that
# the tracer can probe it by name.
def test_train_bpe_and_encode_keep_the_benchmark_probe_contract():
    train = inspect.signature(train_bpe, eval_str=True)
    assert list(train.parameters) == ["corpus", "target_size"]
    assert train.return_annotation is Vocabulary
    enc = inspect.signature(encode, eval_str=True)
    assert list(enc.parameters) == ["data", "vocab"]
    assert enc.return_annotation is np.ndarray
    vocab = train_bpe(corpus=b"abab", target_size=257)
    assert isinstance(vocab, Vocabulary) and len(vocab.merges) == 1
    assert isinstance(encode(data=b"abab", vocab=vocab), np.ndarray)
    both = inspect.signature(train_and_encode, eval_str=True)
    assert list(both.parameters) == ["corpus", "target_size"]
    assert both.return_annotation == tuple[Vocabulary, np.ndarray]
    vocab, ids = train_and_encode(corpus=b"abab", target_size=257)
    assert len(vocab.merges) == 1 and ids.tolist() == [256, 256]


# The benchmark's workloads call these loaders with one path; a change to any
# signature fails every decode_score and pipeline job.
@pytest.mark.parametrize("loader, returns", [
    (load_vocab, Vocabulary),
    (arch.load_checkpoint, tuple[arch.ModelConfig, arch.ParamStore]),
    (evaluator.load_cloze_items, list[evaluator.ClozeItem]),
], ids=["load_vocab", "load_checkpoint", "load_cloze_items"])
def test_path_loaders_keep_the_benchmark_contract(loader, returns):
    sig = inspect.signature(loader, eval_str=True)
    assert list(sig.parameters) == ["path"]
    assert sig.return_annotation == returns


# ---------------------------------------------------------------- train_bpe


def test_train_bpe_merges_top_pair():
    vocab = train_bpe(b"abababab", 259)
    merged = [vocab.tokens[m] for (_, _, m) in vocab.merges]
    assert b"ab" in merged
    # exhaustive pair counting confirms "ab" is the max-count pair
    counts = {}
    data = b"abababab"
    for x, y in zip(data, data[1:]):
        counts[(x, y)] = counts.get((x, y), 0) + 1
    assert max(counts, key=counts.get) == (ord("a"), ord("b"))


def test_train_bpe_base_only():
    vocab = train_bpe(b"anything goes", 256)
    assert vocab.size == BASE_SIZE
    assert vocab.merges == []


def test_train_bpe_single_repeated_byte():
    vocab = train_bpe(b"aaaaaa", 257)
    assert vocab.merges == [(97, 97, 256)]


def test_train_bpe_empty_corpus_gives_base():
    vocab = train_bpe(b"", 300)
    assert vocab.size == BASE_SIZE


def test_train_bpe_target_below_base_rejected():
    with pytest.raises(ValueError):
        train_bpe(b"abc", 255)


def _reference_pair_counts(ids, span):
    if ids.size < 2:
        return {}
    keys = ids[:-1].astype(np.int64) * span + ids[1:]
    uniq, counts = np.unique(keys, return_counts=True)
    return {(int(k // span), int(k % span)): int(c) for k, c in zip(uniq, counts)}


def _reference_apply_merge(ids, left, right, merged):
    if ids.size < 2:
        return ids
    cand = np.where((ids[:-1] == left) & (ids[1:] == right))[0]
    if cand.size == 0:
        return ids
    if left == right:
        kept = []
        last = -2
        for c in cand:
            if c > last + 1:
                kept.append(c)
                last = c
        cand = np.asarray(kept, dtype=np.intp)
    out = ids.copy()
    out[cand] = merged
    return np.delete(out, cand + 1)


def _reference_train_bpe(corpus, target_size):
    """Oracle: recount every adjacent pair of the whole corpus on every merge."""
    vocab = Vocabulary.base()
    ids = np.frombuffer(corpus, dtype=np.uint8).astype(np.int32)
    while vocab.size < target_size:
        counts = _reference_pair_counts(ids, vocab.size)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in counts.items() if c == best_count)
        merged = vocab.size
        vocab.tokens.append(vocab.tokens[best[0]] + vocab.tokens[best[1]])
        vocab.merges.append((best[0], best[1], merged))
        ids = _reference_apply_merge(ids, best[0], best[1], merged)
    return vocab


def _reference_encode(data, vocab):
    ids = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    for left, right, merged in vocab.merges:
        ids = _reference_apply_merge(ids, left, right, merged)
    return ids


def _assert_matches_reference(corpus, target_size):
    vocab = train_bpe(corpus, target_size)
    expected = _reference_train_bpe(corpus, target_size)
    assert vocab.tokens == expected.tokens
    assert vocab.merges == expected.merges
    np.testing.assert_array_equal(encode(corpus, vocab), _reference_encode(corpus, vocab))
    return vocab


@pytest.mark.parametrize("n_bytes, seed, target_size",
                         [(2_000, 1, 280), (12_000, 2, 360), (30_000, 3, 420)])
def test_train_bpe_matches_reference_on_zipf(n_bytes, seed, target_size):
    _assert_matches_reference(zipf_corpus(n_bytes, seed=seed), target_size)


def test_train_bpe_matches_reference_on_runs_of_one_byte():
    # every pair is (a, a), so occurrences overlap
    for n in range(41):
        _assert_matches_reference(b"a" * n, 300)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
def test_train_bpe_matches_reference_on_periodic_strings(k):
    _assert_matches_reference(b"ab" * k, 300)
    _assert_matches_reference(b"aaab" * k, 300)


def test_train_bpe_matches_reference_when_all_pairs_tie():
    vocab = _assert_matches_reference(bytes(range(256)) * 3, 300)
    assert vocab.merges[0] == (0, 1, 256)


def test_train_bpe_tie_between_merged_ids():
    # after ab, cd and ef merge, (256, 257) and (257, 258) both occur 8 times
    vocab = _assert_matches_reference(b"abcdef" * 8, 260)
    assert vocab.merges == [(97, 98, 256), (99, 100, 257), (101, 102, 258), (256, 257, 259)]


def test_train_bpe_stops_when_no_pair_repeats():
    vocab = _assert_matches_reference(b"abcabc", 300)
    assert vocab.size == 258


SMALL_ALPHABET = st.lists(st.sampled_from(b"ab c"), max_size=300).map(bytes)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpus=SMALL_ALPHABET, target_size=st.integers(256, 320))
def test_train_bpe_matches_reference_property(corpus, target_size):
    _assert_matches_reference(corpus, target_size)


# runs of one symbol make overlapping (t, t) pairs, which merge every other one
SYMBOL_RUNS = st.lists(st.tuples(st.sampled_from(b"aab "), st.integers(1, 40)),
                       max_size=80).map(lambda runs: bytes(b for b, n in runs for _ in range(n)))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(corpus=st.one_of(SYMBOL_RUNS, SMALL_ALPHABET), target_size=st.integers(256, 330))
@example(corpus=b"", target_size=300)
@example(corpus=b"a", target_size=300)
@example(corpus=b"abab" * 8, target_size=256)  # no merges
def test_train_and_encode_returns_the_corpus_encoding_property(corpus, target_size):
    vocab, ids = train_and_encode(corpus, target_size)
    assert vocab == train_bpe(corpus, target_size)
    want = encode(corpus, vocab)
    assert ids.dtype == want.dtype
    np.testing.assert_array_equal(ids, want)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(corpus=SMALL_ALPHABET.filter(len), blob=st.binary(max_size=80),
       size=st.integers(256, 300))
def test_roundtrip_trained_and_compacted_property(corpus, blob, size):
    vocab = train_bpe(corpus, 320)
    compacted = compact_vocab(vocab, count_frequencies(corpus, vocab), size=size)
    for v in (vocab, compacted):
        for data in (corpus, blob):
            assert decode(encode(data, v), v) == data


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpus=SMALL_ALPHABET.filter(len), blob=st.lists(st.sampled_from(b"ab c\x00"),
                                                        max_size=120).map(bytes),
       size=st.integers(256, 300))
def test_encode_matches_reference_property(corpus, blob, size):
    # the blob is not the training text, and compaction leaves merges with no site
    vocab = train_bpe(corpus, 320)
    compacted = compact_vocab(vocab, count_frequencies(corpus, vocab), size=size)
    for v in (vocab, compacted):
        for data in (blob, corpus + blob, blob + corpus):
            got, want = encode(data, v), _reference_encode(data, v)
            assert got.dtype == want.dtype == np.int32
            np.testing.assert_array_equal(got, want)


# Equal tokens that become adjacent only once an earlier merge has deleted
# the bytes between them: a run of them must be merged in linked order, every
# other pair. The unmerged tail keeps most positions alive, so they stay apart
# in the index as well.
@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("tail", [b"", b"-" * 16], ids=["bare", "tail"])
def test_encode_merges_tokens_made_adjacent_by_an_earlier_merge(k, tail):
    vocab = _vocab_with_merges([(b"a", b"b"), (b"ab", b"ab"), (b"abab", b"abab")])
    data = b"ab" * k + tail
    got = encode(data, vocab)
    np.testing.assert_array_equal(got, _reference_encode(data, vocab))
    fours, rest = divmod(k, 4)
    expected = [258] * fours + [257] * (rest // 2) + [256] * (rest % 2)
    assert got.tolist()[:len(expected)] == expected
    assert decode(got, vocab) == data


@pytest.mark.parametrize("k", range(1, 7))
def test_train_bpe_merges_tokens_made_adjacent_by_an_earlier_merge(k):
    # distinct filler bytes never repeat a pair, so only "ab" runs merge
    vocab = _assert_matches_reference(b"ab" * k + bytes(range(128, 128 + 4 * k)), 300)
    if k >= 3:
        assert vocab.merges[:2] == [(97, 98, 256), (256, 256, 257)]


# repeated words: BPE merges them whole, so a kept word's parts are often
# tokens that no longer occur in the encoded corpus
WORD_CORPUS = st.lists(st.sampled_from([b"abc ", b"ab ", b"cab ", b"bcab ", b"c"]),
                       min_size=1, max_size=80).map(b"".join)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpus=st.one_of(SMALL_ALPHABET.filter(len), WORD_CORPUS), blob=st.binary(max_size=80),
       target=st.one_of(st.integers(256, 300).map(lambda n: {"size": n}),
                        st.floats(0.05, 1.0).map(lambda c: {"coverage": c})))
def test_compact_vocab_invariants_property(corpus, blob, target):
    vocab = train_bpe(corpus, 320)
    compacted = compact_vocab(vocab, count_frequencies(corpus, vocab), **target)
    compacted.validate()
    # every byte token survives
    assert compacted.tokens[:BASE_SIZE] == vocab.tokens[:BASE_SIZE]
    # each kept merged token keeps the two parts it was merged from
    kept = set(compacted.tokens)
    for left, right, merged in vocab.merges:
        if vocab.tokens[merged] in kept:
            assert {vocab.tokens[left], vocab.tokens[right]} <= kept
    for data in (corpus, blob):
        assert decode(encode(data, compacted), compacted) == data


# ------------------------------------------------------------------ recode


def _assert_recode_matches_encode(corpus, vocab, compact):
    ids = encode(corpus, vocab)
    got, want = recode(ids, vocab, compact), encode(corpus, compact)
    assert got.dtype == want.dtype == np.int32
    np.testing.assert_array_equal(got, want)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(corpus=st.one_of(SMALL_ALPHABET.filter(len), WORD_CORPUS),
       target=st.one_of(st.integers(256, 330).map(lambda n: {"size": n}),
                        st.floats(0.05, 1.0).map(lambda c: {"coverage": c})))
@example(corpus=b"abc ab cab bcab " * 4, target={"size": 256})  # everything dropped
@example(corpus=b"abc ab cab bcab " * 4, target={"size": 330})  # nothing dropped
def test_recode_matches_encode_property(corpus, target):
    vocab = train_bpe(corpus, 320)
    compact = compact_vocab(vocab, count_frequencies(corpus, vocab), **target)
    _assert_recode_matches_encode(corpus, vocab, compact)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpus=st.one_of(SMALL_ALPHABET.filter(len), WORD_CORPUS), data=st.data())
def test_recode_matches_encode_when_any_token_is_dropped_property(corpus, data):
    # made-up counts rank tokens in any order, so the first dropped id can sit
    # anywhere in the merge order, the first merge included
    vocab = train_bpe(corpus, 320)
    counts = data.draw(st.lists(st.integers(0, 9), min_size=vocab.size,
                                max_size=vocab.size))
    size = data.draw(st.integers(BASE_SIZE, vocab.size))
    freq = FrequencyTable(counts=np.array(counts, dtype=np.int64), total_tokens=sum(counts))
    _assert_recode_matches_encode(corpus, vocab, compact_vocab(vocab, freq, size=size))


def test_recode_when_the_first_merge_is_dropped():
    vocab = _vocab_with_merges([(b"a", b"b"), (b"c", b"d"), (b"ab", b"cd")])
    compact = _vocab_with_merges([(b"c", b"d")])
    for corpus in (b"abcd ab cd abcdabcd", b"cdab", b"", b"xyz"):
        _assert_recode_matches_encode(corpus, vocab, compact)
    assert recode(encode(b"abcd", vocab), vocab, compact).tolist() == [97, 98, 256]


def test_recode_returns_the_stream_when_nothing_is_dropped():
    corpus = zipf_corpus(3_000, seed=4)
    vocab = train_bpe(corpus, 300)
    ids = encode(corpus, vocab)
    assert recode(ids, vocab, vocab) is ids
    kept = compact_vocab(vocab, frequencies(ids, vocab.size), size=vocab.size)
    assert recode(ids, vocab, kept) is ids


def test_recode_rejects_a_vocabulary_that_is_not_a_compaction():
    corpus = zipf_corpus(6_000, seed=5)
    vocab = train_bpe(corpus, 320)
    ids = encode(corpus, vocab)
    compact = compact_vocab(vocab, frequencies(ids, vocab.size), size=280)
    assert compact.size < vocab.size
    unrelated = _vocab_with_merges([(b"q", b"q"), (b"qq", b"z")])
    with pytest.raises(ValueError, match="not a merge"):
        recode(ids, vocab, unrelated)
    with pytest.raises(ValueError, match="not a merge"):
        recode(encode(corpus, compact), compact, vocab)  # arguments swapped
    # vocab's merges, out of vocab's order
    full = _vocab_with_merges([(b"a", b"b"), (b"c", b"d"), (b"ab", b"cd")])
    reordered = _vocab_with_merges([(b"c", b"d"), (b"a", b"b")])
    with pytest.raises(ValueError, match="not a merge"):
        recode(encode(b"abcd", full), full, reordered)


def test_recode_rejects_ids_outside_the_vocabulary():
    vocab = _vocab_with_merges([(b"a", b"b"), (b"c", b"d")])
    compact = _vocab_with_merges([(b"c", b"d")])
    with pytest.raises(ValueError, match="outside"):
        recode(np.array([97, 258], dtype=np.int32), vocab, compact)


def test_train_bpe_and_encode_stay_within_memory_budgets():
    # measured on seeds 1, 2, 3, 7, 31 and 901: train_bpe peaks at 7.43-7.80 MB,
    # encode at 5.53-5.87 MB; the scan these replaced peaked at 8.80 and 5.27 MB.
    # recode to a 0.5-coverage compaction peaks at 3.42-4.27 MB on those seeds
    # (6.44-6.48 MB when everything is dropped and it splits the stream to bytes)
    corpus = zipf_corpus(400_000, seed=2, n_words=2000)
    with traced_memory() as traced:
        vocab = train_bpe(corpus, 768)
        train_peak = traced()[1]
    with traced_memory() as traced:
        ids = encode(corpus, vocab)
        encode_peak = traced()[1]
    compact = compact_vocab(vocab, frequencies(ids, vocab.size), coverage=0.5)
    with traced_memory() as traced:
        recode(ids, vocab, compact)
        recode_peak = traced()[1]
    assert train_peak < 8_300_000
    assert encode_peak < 6_300_000
    assert recode_peak < 4_700_000


# ------------------------------------------------------- count_frequencies


def test_count_base_only():
    table = count_frequencies(b"aaa", Vocabulary.base())
    assert table.counts[ord("a")] == 3
    assert table.total_tokens == 3


def test_count_empty_corpus():
    table = count_frequencies(b"", Vocabulary.base())
    assert table.total_tokens == 0
    assert table.counts.sum() == 0


def test_count_with_merge():
    vocab = _vocab_with_merges([(b"a", b"b")])
    table = count_frequencies(b"ab", vocab)
    assert table.counts[256] == 1
    assert table.counts[ord("a")] == 0
    assert table.counts[ord("b")] == 0


# ---------------------------------------------------------- coverage_curve


def test_coverage_degenerate_single_token():
    counts = np.zeros(BASE_SIZE, dtype=np.int64)
    counts[5] = 12
    curve = coverage_curve(FrequencyTable(counts, 12))
    assert curve.fractions[0] == 1.0


def test_coverage_hand_fractions():
    counts = np.zeros(BASE_SIZE, dtype=np.int64)
    counts[0], counts[1] = 3, 1
    curve = coverage_curve(FrequencyTable(counts, 4))
    assert curve.fractions[:2] == [0.75, 1.0]


def test_coverage_uniform_is_linear():
    n = 10
    counts = np.zeros(BASE_SIZE, dtype=np.int64)
    counts[:n] = 7
    curve = coverage_curve(FrequencyTable(counts, 7 * n))
    for k in range(n):
        assert curve.fractions[k] == pytest.approx((k + 1) / n, rel=1e-12)


def test_coverage_monotone_ends_at_one():
    corpus = zipf_corpus(20_000, seed=3)
    vocab = train_bpe(corpus, 400)
    curve = coverage_curve(count_frequencies(corpus, vocab))
    fr = np.array(curve.fractions)
    assert (np.diff(fr) >= -1e-15).all()
    assert fr[-1] == pytest.approx(1.0, abs=1e-12)


def test_coverage_empty_corpus_raises():
    with pytest.raises(EmptyCorpusError):
        coverage_curve(FrequencyTable(np.zeros(BASE_SIZE, dtype=np.int64), 0))


# ------------------------------------------------------------ compact_vocab


def test_compact_full_coverage_keeps_used_tokens():
    corpus = b"abab" * 10 + b"cd" * 5
    vocab = train_bpe(corpus, 260)
    freq = count_frequencies(corpus, vocab)
    compacted = compact_vocab(vocab, freq, coverage=1.0)
    used_tokens = {vocab.tokens[i] for i in range(vocab.size) if freq.counts[i] > 0}
    kept = set(compacted.tokens)
    assert used_tokens <= kept


def test_compact_full_coverage_identity_when_all_merges_used():
    vocab = _vocab_with_merges([(b"a", b"b"), (b"c", b"d")])
    freq = count_frequencies(b"ab cd", vocab)  # both merged tokens appear
    compacted = compact_vocab(vocab, freq, coverage=1.0)
    assert compacted.tokens == vocab.tokens
    assert compacted.merges == vocab.merges


def test_compact_coverage_hand_case():
    # counts over merged tokens only: ab=90, cd=9, ef=1; base unused
    vocab = _vocab_with_merges([(b"a", b"b"), (b"c", b"d"), (b"e", b"f")])
    corpus = b"ab" * 90 + b"cd" * 9 + b"ef"
    freq = count_frequencies(corpus, vocab)
    assert freq.total_tokens == 100
    compacted = compact_vocab(vocab, freq, coverage=0.90)
    assert b"ab" in compacted.tokens
    assert b"cd" not in compacted.tokens
    assert b"ef" not in compacted.tokens
    assert compacted.size == BASE_SIZE + 1


def test_compact_size_below_base_rejected():
    vocab = Vocabulary.base()
    freq = count_frequencies(b"xy", vocab)
    with pytest.raises(ValueError):
        compact_vocab(vocab, freq, size=255)


def test_compact_keeps_merge_chains_producible():
    corpus = zipf_corpus(8_000, seed=4)
    vocab = train_bpe(corpus, 380)
    freq = count_frequencies(corpus, vocab)
    compacted = compact_vocab(vocab, freq, size=300)
    compacted.validate()  # every merge's operands exist with smaller rank
    assert compacted.size <= 300


def test_compact_smaller_target_never_larger():
    corpus = zipf_corpus(8_000, seed=5)
    vocab = train_bpe(corpus, 380)
    freq = count_frequencies(corpus, vocab)
    sizes = [compact_vocab(vocab, freq, size=s).size for s in (360, 330, 300, 270)]
    assert sizes == sorted(sizes, reverse=True)


def test_compact_coverage_holds_on_original_counts():
    corpus = zipf_corpus(10_000, seed=6)
    vocab = train_bpe(corpus, 400)
    freq = count_frequencies(corpus, vocab)
    for theta in (0.5, 0.8, 0.95):
        compacted = compact_vocab(vocab, freq, coverage=theta)
        kept_bytes = set(compacted.tokens)
        kept_mass = sum(
            int(freq.counts[i]) for i in range(vocab.size) if vocab.tokens[i] in kept_bytes
        )
        assert kept_mass / freq.total_tokens >= theta - 1e-12


def test_compact_coverage_targets_nest():
    corpus = zipf_corpus(10_000, seed=12)
    vocab = train_bpe(corpus, 400)
    freq = count_frequencies(corpus, vocab)
    sizes = [compact_vocab(vocab, freq, coverage=t).size for t in (0.5, 0.7, 0.9, 1.0)]
    assert sizes == sorted(sizes)


# ------------------------------------------------------------ encode/decode


def test_encode_empty():
    assert encode(b"", Vocabulary.base()).size == 0
    assert decode([], Vocabulary.base()) == b""


def test_encode_applies_merge():
    vocab = _vocab_with_merges([(b"a", b"b")])
    assert list(encode(b"ab", vocab)) == [256]


def test_decode_unknown_id():
    with pytest.raises(IndexError):
        decode([999], Vocabulary.base())


def test_roundtrip_random_byte_strings():
    rng = np.random.default_rng(0)
    corpus = zipf_corpus(12_000, seed=7)
    vocab = train_bpe(corpus, 350)
    freq = count_frequencies(corpus, vocab)
    compacted = compact_vocab(vocab, freq, coverage=0.9)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        blob = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        assert decode(encode(blob, vocab), vocab) == blob
        assert decode(encode(blob, compacted), compacted) == blob


# -------------------------------------------------------- compression_rate


def test_compression_base_vocab_is_one():
    assert compression_rate(b"hello world", Vocabulary.base()) == 1.0


def test_compression_pair_merge_halves():
    vocab = _vocab_with_merges([(b"a", b"b")])
    assert compression_rate(b"ab" * 20, vocab) == 0.5


def test_compression_unused_merge_no_effect():
    used = _vocab_with_merges([(b"a", b"b")])
    extra = _vocab_with_merges([(b"a", b"b"), (b"x", b"y")])
    corpus = b"abcabc" * 10
    assert compression_rate(corpus, used) == compression_rate(corpus, extra)


def test_compression_empty_corpus_raises():
    with pytest.raises(EmptyCorpusError):
        compression_rate(b"", Vocabulary.base())


def test_compression_nonincreasing_with_vocab_growth():
    corpus = zipf_corpus(9_000, seed=8)
    rates = [
        compression_rate(corpus, train_bpe(corpus, size))
        for size in (256, 280, 320, 380)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))


# ------------------------------------------------------------ serialization


def test_vocab_file_roundtrip(tmp_path):
    corpus = zipf_corpus(6_000, seed=9)
    vocab = train_bpe(corpus, 300)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.merges == vocab.merges
    text = path.read_text()
    assert "#MERGES" in text


def _vocab_bytes(path):
    vocab = _vocab_with_merges([(b"a", b"b"), (b"ab", b"c")])
    save_vocab(vocab, path)
    return vocab, path.read_bytes()


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_vocab_parser_accepts_text_mode_newlines(tmp_path, newline):
    vocab, data = _vocab_bytes(tmp_path / "vocab.txt")
    data = data.replace(b"\n", newline)
    (tmp_path / "vocab.txt").write_bytes(data)
    for loaded in (parse_vocab(data), load_vocab(tmp_path / "vocab.txt")):
        assert (loaded.tokens, loaded.merges) == (vocab.tokens, vocab.merges)


@pytest.mark.parametrize("separator", [b"\x0b", b"\x1c"], ids=["vt", "fs"])
def test_vocab_parser_rejects_a_line_holding_a_splitlines_separator(tmp_path, separator):
    # str.splitlines splits at these, and would read the file's own lines
    _, good = _vocab_bytes(tmp_path / "vocab.txt")
    data = good.replace(b"\n#MERGES", separator + b"#MERGES")
    assert data.decode().splitlines() == good.decode().splitlines()
    (tmp_path / "vocab.txt").write_bytes(data)
    with pytest.raises(ValueError, match="fromhex"):
        parse_vocab(data)
    with pytest.raises(ValueError, match="fromhex"):
        load_vocab(tmp_path / "vocab.txt")


@pytest.mark.parametrize("merge, product", [("-1 97 256", "787961"), ("97 -1 256", "617879")],
                         ids=["left", "right"])
def test_vocab_parser_rejects_a_negative_merge_operand(merge, product):
    # tokens[-1] is the last token, so the bytes check alone passed this
    # merge, whose product encode can never emit
    lines = [bytes([i]).hex() for i in range(BASE_SIZE)]
    lines += [product, "7879", "#MERGES", merge, "120 121 257"]
    with pytest.raises(ValueError, match=f"merge {merge}"):
        parse_vocab(("\n".join(lines) + "\n").encode("ascii"))


def test_vocab_parser_rejects_two_tokens_with_the_same_bytes():
    # 258 is ab+c and 259 is a+bc: encode emits only 258, and vocab_id_map
    # sent both to 259
    lines = [bytes([i]).hex() for i in range(BASE_SIZE)]
    lines += ["6162", "6263", "616263", "616263",
              "#MERGES", "97 98 256", "98 99 257", "256 99 258", "97 257 259"]
    with pytest.raises(ValueError, match="tokens 258 and 259 have the same bytes"):
        parse_vocab(("\n".join(lines) + "\n").encode("ascii"))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpus=st.one_of(SMALL_ALPHABET.filter(len), WORD_CORPUS))
def test_train_bpe_never_makes_two_tokens_with_the_same_bytes_property(corpus):
    train_bpe(corpus, 320).validate()


def test_vocab_id_map_matches_bytes():
    corpus = zipf_corpus(6_000, seed=10)
    parent = train_bpe(corpus, 330)
    freq = count_frequencies(corpus, parent)
    child = compact_vocab(parent, freq, size=290)
    mapping = vocab_id_map(child, parent)
    for child_id, parent_id in enumerate(mapping):
        assert child.tokens[child_id] == parent.tokens[parent_id]


def test_frequency_csv_shape():
    table = count_frequencies(b"aa", Vocabulary.base())
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "token_id,count"
    assert len(lines) == 1 + BASE_SIZE


def test_coverage_csv_terminal_row():
    table = count_frequencies(b"abcabc", Vocabulary.base())
    lines = coverage_curve(table).to_csv().strip().splitlines()
    assert lines[0] == "k,cumulative_fraction"
    assert lines[-1].split(",")[1] == "1.0"
