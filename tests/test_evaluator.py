import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from tinylm import evaluator
from tinylm.arch import PREFILL_CHUNK, KVCache, ModelConfig, ParamStore, forward, param_shapes
from tinylm.data import make_cloze_items
from tinylm.evaluator import (
    CLOZE_CHUNK,
    ClozeItem,
    cloze_accuracy,
    load_cloze_items,
    parse_cloze_items,
    perplexity,
    save_cloze_items,
    score_items,
)
from tinylm.initializers import InitScheme, initialize
from tinylm.tensor import Tensor
from tinylm.trainer import TrainPlan, train_round


def passthrough_model(vocab=256, hot=None, hot_value=50.0):
    """All layer weights zero, so logits = head(norm(embed)). With ``hot``
    set, the head puts all mass on that token."""
    cfg = ModelConfig(vocab_size=vocab, width=8, depth=1, n_heads=2, kv_groups=2,
                      ffn_hidden=4)
    tensors = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("_norm"):
            tensors[name] = Tensor(np.ones(shape))
        elif name == "embed":
            tensors[name] = Tensor(np.ones(shape))
        else:
            tensors[name] = Tensor(np.zeros(shape))
    if hot is not None:
        tensors["head"].data[:, hot] = hot_value
    store = ParamStore(tensors)
    store.validate(cfg)
    return cfg, store


def test_perplexity_uniform_logits_equals_vocab():
    cfg, params = passthrough_model(vocab=256)
    batches = [np.random.default_rng(0).integers(0, 256, size=(2, 9))]
    report = perplexity(cfg, params, batches)
    assert report.value == pytest.approx(256.0, rel=1e-12)


def test_perplexity_one_hot_model_is_one():
    cfg, params = passthrough_model(vocab=256, hot=7)
    batches = [np.full((2, 9), 7)]
    report = perplexity(cfg, params, batches)
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_perplexity_two_token_hand_example():
    cfg = ModelConfig(vocab_size=260, width=8, depth=1, n_heads=2, kv_groups=2,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=4))
    batch = np.array([[5, 9, 13]])
    logits = forward(cfg, params, batch[:, :-1]).data[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    logprobs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    hand = np.exp(-(logprobs[0, 9] + logprobs[1, 13]) / 2.0)
    report = perplexity(cfg, params, [batch])
    assert report.value == pytest.approx(hand, rel=1e-12)


def test_perplexity_matches_trainer_loss_exp():
    cfg = ModelConfig(vocab_size=260, width=8, depth=1, n_heads=2, kv_groups=2,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.05, seed=1))
    rng = np.random.default_rng(2)
    batches = [rng.integers(0, 260, size=(2, 7)) for _ in range(4)]
    _, ledger = train_round(cfg, params, batches, TrainPlan(lr=0.0, parts=2))
    mean_loss = np.mean([e.loss for e in ledger.entries])
    report = perplexity(cfg, params, batches)
    assert report.value == pytest.approx(np.exp(mean_loss), abs=1e-10)


def test_perplexity_needs_batches():
    cfg, params = passthrough_model()
    with pytest.raises(ValueError):
        perplexity(cfg, params, [])


def test_cloze_forced_choice():
    cfg, params = passthrough_model(vocab=256, hot=7)
    items = [ClozeItem(context=[1, 2], candidates=[[3, 3], [7, 7]], gold=1)]
    report = cloze_accuracy(cfg, params, items)
    assert report.value == 1.0


def test_cloze_random_model_near_chance():
    cfg = ModelConfig(vocab_size=300, width=8, depth=1, n_heads=2, kv_groups=2,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.02, seed=3))
    stream = np.random.default_rng(5).integers(0, 300, size=4000)
    k = 4
    items = make_cloze_items(stream, n_items=200, context_len=6, candidate_len=3,
                             n_candidates=k, vocab_size=300, seed=6)
    report = cloze_accuracy(cfg, params, items)
    se = (0.25 * 0.75 / 200) ** 0.5
    assert abs(report.value - 1 / k) < 3 * se


def test_cloze_single_item_hand_scores():
    cfg = ModelConfig(vocab_size=260, width=8, depth=1, n_heads=2, kv_groups=2,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=8))
    item = ClozeItem(context=[4, 1], candidates=[[9, 2], [0, 5], [7, 7]], gold=0)
    # hand-scored: full forward per candidate, mean log-softmax at its positions
    hand = []
    for cand in item.candidates:
        seq = np.array([item.context + cand])
        logits = forward(cfg, params, seq[:, :-1]).data[0]
        z = logits - logits.max(axis=-1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        hand.append(np.mean([lp[1, cand[0]], lp[2, cand[1]]]))
    lib = score_items(cfg, params, [item])[0]
    assert np.allclose(lib, hand, rtol=1e-12)
    report = cloze_accuracy(cfg, params, [item])
    assert report.rows[0]["choice"] == int(np.argmax(hand))


def test_batched_candidate_logliks_match_per_candidate_forwards():
    # unequal lengths: shorter rows are right-padded in the shared forward
    cfg = ModelConfig(vocab_size=260, width=8, depth=2, n_heads=2, kv_groups=1,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=10))
    context = [4, 1, 8]
    candidates = [[9], [0, 5, 3, 2], [7, 7], [255, 1, 6]]
    batched = score_items(cfg, params, [ClozeItem(context, candidates, gold=0)])[0]
    single = []
    for cand in candidates:
        seq = np.array([context + cand])
        logits = forward(cfg, params, seq[:, :-1]).data[0]
        z = logits - logits.max(axis=-1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        single.append(np.mean([lp[len(context) - 1 + j, c] for j, c in enumerate(cand)]))
    assert np.allclose(batched, single, rtol=1e-12, atol=0)


def _full_forward_logliks(cfg, params, context, candidates):
    """One uncached forward per candidate over context + candidate."""
    out = []
    for cand in candidates:
        logits = forward(cfg, params, np.array([context + cand])[:, :-1]).data[0]
        z = logits - logits.max(axis=-1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        out.append(np.mean([lp[len(context) - 1 + j, c] for j, c in enumerate(cand)]))
    return out


def _mixed_items(rng, n_items, context_lens):
    """Items cycling through context_lens, each with 2-4 candidates of
    1-4 tokens."""
    items = []
    for i in range(n_items):
        context = rng.integers(0, 260, size=context_lens[i % len(context_lens)]).tolist()
        candidates = [rng.integers(0, 260, size=rng.integers(1, 5)).tolist()
                      for _ in range(rng.integers(2, 5))]
        items.append(ClozeItem(context, candidates, gold=0))
    return items


def test_prefix_shared_scores_match_per_candidate_forwards():
    # interleaved context lengths (a single token, and one prefilled in two
    # forwards), unequal candidate lengths, and 17 items of context length 3,
    # more than one chunk holds
    cfg = ModelConfig(vocab_size=260, width=8, depth=2, n_heads=2, kv_groups=1,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=11))
    lengths = [3, 1, 5, 3, PREFILL_CHUNK + 8]
    items = _mixed_items(np.random.default_rng(12), 2 * CLOZE_CHUNK + 10, lengths)
    assert sum(len(it.context) == 3 for it in items) > CLOZE_CHUNK
    shared = score_items(cfg, params, items)
    assert [len(s) for s in shared] == [len(it.candidates) for it in items]
    choices = []
    for item, scores in zip(items, shared):
        reference = _full_forward_logliks(cfg, params, item.context, item.candidates)
        assert np.allclose(scores, reference, rtol=1e-12, atol=0)
        choices.append(int(np.argmax(reference)))
    report = cloze_accuracy(cfg, params, items)
    assert [row["choice"] for row in report.rows] == choices


def test_cloze_runs_two_forwards_per_chunk(monkeypatch):
    # prefill the contexts once, then score every candidate in one forward;
    # a one-token context has nothing to prefill
    cfg, params = passthrough_model(vocab=260)
    calls = []

    def counting_forward(*args, **kwargs):
        calls.append(kwargs.get("cache") is not None)
        return forward(*args, **kwargs)

    monkeypatch.setattr(evaluator, "forward", counting_forward)
    rng = np.random.default_rng(13)
    cloze_accuracy(cfg, params, _mixed_items(rng, CLOZE_CHUNK, [4]))
    assert calls == [True, True]
    calls.clear()
    cloze_accuracy(cfg, params, _mixed_items(rng, CLOZE_CHUNK + 1, [4]))
    assert len(calls) == 4
    calls.clear()
    cloze_accuracy(cfg, params, _mixed_items(rng, 3, [1]))
    assert calls == [True]


def test_kv_cache_repeat_copies_rows_in_order():
    cfg = ModelConfig(vocab_size=260, width=8, depth=2, n_heads=2, kv_groups=1,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=14))
    cache = KVCache(cfg, 3, 6)
    forward(cfg, params, np.random.default_rng(15).integers(0, 260, size=(3, 4)),
            cache=cache)
    counts = [2, 0, 3]
    rep = cache.repeat(counts)
    assert (rep.batch, rep.capacity, rep.length) == (5, 6, 4)
    for layer in range(cfg.depth):
        for got, base in ((rep.k[layer], cache.k[layer]), (rep.v[layer], cache.v[layer])):
            assert got.shape == (5, 1, 6, 4)
            assert np.array_equal(got, base[[0, 0, 2, 2, 2]])
    # the copy continues on its own: writing it leaves the original untouched
    before = [k.copy() for k in cache.k]
    forward(cfg, params, np.zeros((5, 2), dtype=int), cache=rep)
    assert rep.length == 6 and cache.length == 4
    assert all(np.array_equal(k, b) for k, b in zip(cache.k, before))
    with pytest.raises(ValueError):
        cache.repeat([1, 1])
    with pytest.raises(ValueError):
        cache.repeat([1, -1, 1])


def test_cloze_choice_affine_invariant():
    cfg = ModelConfig(vocab_size=260, width=8, depth=1, n_heads=2, kv_groups=2,
                      ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=9))
    item = ClozeItem(context=[4, 1], candidates=[[9, 2], [0, 5], [7, 7]], gold=0)
    scores = np.array(score_items(cfg, params, [item])[0])
    for a, b in ((1.0, 0.0), (3.5, 2.0), (0.25, -7.0)):
        assert np.argmax(a * scores + b) == np.argmax(scores)


def test_cloze_tie_prefers_lower_index():
    cfg, params = passthrough_model(vocab=256)  # uniform: all candidates tie
    items = [ClozeItem(context=[1], candidates=[[2, 2], [3, 3]], gold=1)]
    report = cloze_accuracy(cfg, params, items)
    assert report.rows[0]["choice"] == 0
    assert report.value == 0.0


def test_cloze_item_validation():
    with pytest.raises(ValueError):
        ClozeItem(context=[], candidates=[[1], [2]], gold=0).validate()
    with pytest.raises(ValueError):
        ClozeItem(context=[1], candidates=[[1]], gold=0).validate()
    with pytest.raises(ValueError):
        ClozeItem(context=[1], candidates=[[1], [2]], gold=2).validate()
    with pytest.raises(ValueError):
        ClozeItem(context=[1], candidates=[[1], []], gold=0)


def test_cloze_item_is_frozen():
    item = ClozeItem(context=[1], candidates=[[2], [3]], gold=0)
    with pytest.raises(FrozenInstanceError):
        item.gold = 1


@pytest.mark.parametrize("line", [
    '{"context": [1, 2], "candidates": [[3], [4]], "gold": 1.7}',
    '{"context": [1, 2], "candidates": [[3], [4]], "gold": "1"}',
    '{"context": [1, 2], "candidates": [[3], [4]], "gold": true}',
    '{"context": [1, 2.0], "candidates": [[3], [4]], "gold": 1}',
    '{"context": [1, 2], "candidates": [[3.5], [4]], "gold": 1}',
    '{"context": "ab", "candidates": [[3], [4]], "gold": 1}',
    '{"context": [1, 2], "candidates": [[3], [-1]], "gold": 1}',
    '{"context": [1, false], "candidates": [[3], [4]], "gold": 1}',
    '{"context": [1, 2], "candidates": [[3], [4]]}',
    '[[1, 2], [[3], [4]], 1]',
])
def test_load_cloze_items_rejects_non_integer_ids(tmp_path, line):
    path = tmp_path / "items.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        load_cloze_items(path)


@pytest.mark.parametrize("separator", ["\x1c", "\u2028"], ids=["fs", "line_separator"])
def test_cloze_parser_rejects_two_items_on_one_line(tmp_path, separator):
    # str.splitlines splits at these, and would read two items
    item = '{"context": [1], "candidates": [[2], [3]], "gold": 0}'
    data = (item + separator + item + "\n").encode()
    assert len(data.decode().splitlines()) == 2
    path = tmp_path / "items.jsonl"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="Extra data"):
        parse_cloze_items(data)
    with pytest.raises(ValueError, match="Extra data"):
        load_cloze_items(path)


def test_candidate_scoring_rejects_ids_outside_vocab():
    cfg, params = passthrough_model(vocab=260)
    for context, candidates in (([1, 2], [[5], [260]]), ([1, 260], [[5], [6]])):
        with pytest.raises(ValueError, match="cloze item 0"):
            score_items(cfg, params, [ClozeItem(context, candidates, gold=0)])
    items = [ClozeItem([1], [[2], [3]], gold=0), ClozeItem([1], [[2], [300]], gold=0)]
    with pytest.raises(ValueError, match="cloze item 1"):
        cloze_accuracy(cfg, params, items)


def test_cloze_items_file_roundtrip(tmp_path):
    stream = np.random.default_rng(1).integers(0, 100, size=500)
    items = make_cloze_items(stream, n_items=5, context_len=4, candidate_len=2,
                             n_candidates=3, vocab_size=100, seed=2)
    path = tmp_path / "items.jsonl"
    save_cloze_items(items, path)
    assert len(items) == 5 and load_cloze_items(path) == items


# The benchmark's decode_score set-up (perfbench/workloads.py) writes its cloze
# file with these calls, by keyword; a change to any of them fails every job.
def test_cloze_item_calls_keep_the_benchmark_contract(tmp_path):
    stream = np.arange(300) % 50
    items = make_cloze_items(stream, n_items=3, context_len=12, candidate_len=3,
                             n_candidates=4, vocab_size=50, seed=7)
    assert [type(item) for item in items] == [ClozeItem] * 3
    path = tmp_path / "cloze.jsonl"
    save_cloze_items(items, path)
    lines = path.read_text().splitlines()
    assert [list(json.loads(line)) for line in lines] == [["context", "candidates", "gold"]] * 3
    assert load_cloze_items(path) == items


def test_report_serialization():
    cfg, params = passthrough_model(vocab=256, hot=3)
    report = perplexity(cfg, params, [np.full((1, 5), 3)])
    assert '"metric": "perplexity"' in report.to_json()
    assert report.to_csv().startswith("index,loss")
