import json
import struct
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinylm.arch import (
    PREFILL_CHUNK,
    KVCache,
    ModelConfig,
    ParamStore,
    attention_block,
    batch_loss,
    forward,
    generate,
    lm_loss,
    load_checkpoint,
    param_count,
    parse_checkpoint,
    param_shapes,
    save_checkpoint,
    search_configs,
)
from tinylm.evaluator import perplexity
from tinylm.initializers import InitScheme, initialize
from tinylm.surgery import layer_skip_eval
from tinylm.tensor import Tape, Tensor, softmax_cross_entropy
from tinylm.trainer import BatchLossLedger, LedgerEntry, forgetting_scan


def small_config(**overrides):
    base = dict(vocab_size=300, width=16, depth=3, n_heads=2, kv_groups=2, ffn_hidden=24)
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def init_params(cfg, seed=0, sigma=0.4):
    return initialize(cfg, InitScheme("constant", sigma, seed=seed))


# --------------------------------------------------------------- accounting


def enumerate_shapes(cfg):
    """Test-local shape enumeration of the documented layout."""
    shapes = [(cfg.vocab_size, cfg.width), (cfg.width, cfg.vocab_size)]
    kv = cfg.kv_groups * cfg.head_dim
    for _ in range(cfg.depth):
        shapes += [
            (cfg.width,),
            (cfg.width, cfg.width),
            (cfg.width, kv),
            (cfg.width, kv),
            (cfg.width, cfg.width),
            (cfg.width,),
            (cfg.width, cfg.ffn_hidden),
            (cfg.width, cfg.ffn_hidden),
            (cfg.ffn_hidden, cfg.width),
        ]
    shapes.append((cfg.width,))
    return shapes


def test_param_count_matches_enumeration_50_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        head_dim = int(rng.choice([2, 4, 8]))
        heads = int(rng.integers(1, 5))
        groups = int(rng.choice([g for g in range(1, heads + 1) if heads % g == 0]))
        cfg = ModelConfig(
            vocab_size=int(rng.integers(256, 800)),
            width=heads * head_dim,
            depth=int(rng.integers(1, 7)),
            n_heads=heads,
            kv_groups=groups,
            ffn_hidden=int(rng.integers(1, 100)),
        )
        expected = sum(int(np.prod(s)) for s in enumerate_shapes(cfg))
        assert param_count(cfg).total_params == expected


def test_param_count_store_agreement():
    cfg = small_config()
    store = init_params(cfg)
    assert store.total_elements() == param_count(cfg).total_params


def test_param_count_table1_reference_point():
    # ~1B MHA model, 48k vocabulary, width 1792, depth 20, expansion 2.77
    cfg = ModelConfig(
        vocab_size=48000, width=1792, depth=20, n_heads=14, kv_groups=14,
        ffn_hidden=round(2.77 * 1792),
    )
    report = param_count(cfg)
    assert 0.9e9 < report.total_params < 1.1e9
    assert abs(report.pehl * 100 - 18.07) <= 1.5


def test_embedding_head_params_linear_in_vocab():
    cfg = small_config(vocab_size=400)
    doubled = small_config(vocab_size=800)
    assert (
        param_count(doubled).embedding_head_params
        == 2 * param_count(cfg).embedding_head_params
    )


def test_toy_config_hand_count():
    mha = ModelConfig(vocab_size=512, width=64, depth=4, n_heads=4, kv_groups=4,
                      ffn_hidden=160)
    gqa = ModelConfig(vocab_size=512, width=64, depth=4, n_heads=4, kv_groups=2,
                      ffn_hidden=128)
    for cfg, attention in (
        (mha, 4 * (4 * 64 * 64)),  # q, k, v, out per layer
        (gqa, 4 * (2 * 64 * 64 + 2 * 64 * 32)),  # k and v: 2 groups x head_dim 16
    ):
        by_hand = {
            "embedding": 512 * 64,
            "head": 64 * 512,
            "attention": attention,
            "ffn": 4 * (3 * 64 * cfg.ffn_hidden),  # gate, up, down per layer
            "norms": 4 * 2 * 64 + 64,  # two norm scales per layer, final norm
        }
        report = param_count(cfg)
        assert list(report.breakdown.items()) == list(by_hand.items()), cfg
        assert report.total_params == sum(by_hand.values())
        assert report.embedding_head_params == 2 * 512 * 64


def test_pehl_increases_with_vocab():
    values = [param_count(small_config(vocab_size=v)).pehl for v in (300, 500, 900, 1500)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 < p < 1 for p in values)


def test_breakdown_sums_to_total():
    rep = param_count(small_config())
    assert sum(rep.breakdown.values()) == rep.total_params


# ------------------------------------------------------------------- search


def test_search_exact_toy_budget():
    cfg = ModelConfig(vocab_size=512, width=32, depth=2, n_heads=2, kv_groups=2,
                      ffn_hidden=64)
    budget = param_count(cfg).total_params
    found = search_configs(budget, 512, [2], [2.0], tolerance=0.0, head_dim=16)
    assert len(found) == 1
    assert found[0].width == 32
    assert param_count(found[0]).total_params == budget


def test_search_mirrors_published_depth_width_tradeoff():
    found = search_configs(10**9, 48000, [20, 40], [2.77], tolerance=0.08, head_dim=128)
    widths = {c.depth: c.width for c in found}
    assert widths[20] == 1792
    assert widths[40] == 1280


def test_search_toy_budget_within_tolerance():
    found = search_configs(1_000_000, 512, [2, 3, 4, 6], [1.0, 2.0, 2.77, 4.0],
                           tolerance=0.02, head_dim=16)
    assert found
    for cfg in found:
        total = param_count(cfg).total_params
        assert abs(total - 1_000_000) / 1_000_000 <= 0.02
        assert cfg.width % 16 == 0


def test_search_infeasible_budget_empty():
    assert search_configs(1000, 512, [2, 4], [2.0], tolerance=0.05, head_dim=16) == []


@pytest.mark.parametrize("vocab, head_dim, depths, name", [
    (400, 15, [2, 3], "head_dim"),
    (255, 16, [2, 3], "vocab_size"),
    (np.int64(400), 16, [2, 3], "vocab_size"),
    (400, 16, [2, np.int64(3)], "depths"),
], ids=["odd_head_dim", "small_vocab", "numpy_vocab", "numpy_depth"])
def test_search_names_an_input_no_config_takes(vocab, head_dim, depths, name):
    # each used to drop every candidate and return [] without an error
    with pytest.raises(ValueError, match=f"^{name} must be"):
        search_configs(400_000, vocab, depths, [2.0, 2.77], 0.03, head_dim=head_dim)


# ------------------------------------------------------------------ forward


def test_skip_empty_equals_default():
    cfg = small_config()
    params = init_params(cfg)
    toks = np.arange(10).reshape(2, 5)
    a = forward(cfg, params, toks).data
    b = forward(cfg, params, toks, skip_layers=set()).data
    assert np.array_equal(a, b)


def test_skip_all_layers_is_embed_norm_head():
    cfg = small_config()
    params = init_params(cfg)
    toks = np.array([[3, 7, 11]])
    out = forward(cfg, params, toks, skip_layers=set(range(cfg.depth))).data
    x = params["embed"].data[toks]
    s = ((x * x).mean(axis=-1, keepdims=True) + 1e-6) ** -0.5
    expected = (x * s * params["final_norm"].data) @ params["head"].data
    assert np.allclose(out, expected, rtol=0, atol=0)


def test_token_out_of_range():
    cfg = small_config()
    with pytest.raises(IndexError):
        forward(cfg, init_params(cfg), np.array([[0, cfg.vocab_size]]))


@pytest.mark.parametrize("gated, skip", [(False, frozenset()), (True, frozenset()),
                                          (False, frozenset({1})), (True, frozenset({0, 2}))])
def test_lm_loss_is_the_inline_cross_entropy(gated, skip):
    cfg = small_config()
    params = init_params(cfg, sigma=0.2)
    batch = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(3, 7))
    rng = np.random.default_rng(6)
    kwargs = {"skip_layers": skip}
    if gated:
        kwargs["head_gates"] = [Tensor(rng.uniform(size=cfg.n_heads)) for _ in range(cfg.depth)]
        kwargs["ffn_gates"] = [Tensor(rng.uniform(size=cfg.ffn_hidden)) for _ in range(cfg.depth)]
    logits = forward(cfg, params, batch[:, :-1], **kwargs)
    b, t, v = logits.shape
    inline = softmax_cross_entropy(logits.reshape((b * t, v)), batch[:, 1:].reshape(-1))
    assert lm_loss(cfg, params, batch, **kwargs).data.tobytes() == inline.data.tobytes()


def test_batch_loss_is_the_no_tape_loss_of_every_scan():
    cfg = small_config()
    params = init_params(cfg, sigma=0.2)
    rng = np.random.default_rng(7)
    batches = [rng.integers(0, cfg.vocab_size, size=(2, 6)) for _ in range(3)]
    assert (batch_loss(cfg, params, batches[0], skip_layers={0})
            == float(lm_loss(cfg, params, batches[0], skip_layers={0}).data))

    losses = [batch_loss(cfg, params, b) for b in batches]
    weighted = 0.0
    for loss, b in zip(losses, batches):
        weighted += loss * b.shape[0] * (b.shape[1] - 1)
    report = perplexity(cfg, params, batches)
    assert report.value == float(np.exp(weighted / sum(b[:, 1:].size for b in batches)))
    assert [row["loss"] for row in report.rows] == losses

    ledger = BatchLossLedger([LedgerEntry(0, 0, 0.0), LedgerEntry(1, 0, 0.0),
                              LedgerEntry(2, 1, 0.0)], parts=2)
    assert forgetting_scan(cfg, params, batches, ledger) == [float(np.mean(losses[:2])),
                                                             float(np.mean(losses[2:]))]

    def metric(skip):
        return -float(np.mean([batch_loss(cfg, params, b, skip_layers=skip) for b in batches]))

    imp = layer_skip_eval(cfg, params, batches, windows=(1, 2))
    assert imp.baseline == metric(frozenset())
    assert imp.scores == {(w, s): metric(frozenset(range(s, s + w)))
                          for w in (1, 2) for s in range(cfg.depth - w + 1)}


def test_bad_skip_index():
    cfg = small_config()
    with pytest.raises(ValueError):
        forward(cfg, init_params(cfg), np.array([[0]]), skip_layers={cfg.depth})


def _reference_forward(cfg, params, tokens):
    """Independent plain-numpy forward pass (MHA only, loop over heads)."""
    w = {k: t.data for k, t in params.tensors.items()}
    hd = cfg.head_dim
    b, t = tokens.shape
    x = w["embed"][tokens]

    def rms(v, scale):
        s = ((v * v).mean(axis=-1, keepdims=True) + 1e-6) ** -0.5
        return v * s * scale

    half = hd // 2
    inv = 10000.0 ** (-np.arange(half) * 2.0 / hd)
    ang = np.arange(t)[:, None] * inv[None, :]
    cos, sin = np.cos(ang), np.sin(ang)

    def rope(v):  # [B,T,hd]
        v1, v2 = v[..., :half], v[..., half:]
        return np.concatenate([v1 * cos - v2 * sin, v2 * cos + v1 * sin], axis=-1)

    for i in range(cfg.depth):
        p = f"layers.{i}."
        hin = rms(x, w[p + "attn_norm"])
        attn_out = np.zeros_like(x)
        merged = np.zeros((b, t, cfg.width))
        for h in range(cfg.n_heads):
            cols = slice(h * hd, (h + 1) * hd)
            q = rope(hin @ w[p + "wq"][:, cols])
            k = rope(hin @ w[p + "wk"][:, cols])
            v = hin @ w[p + "wv"][:, cols]
            scores = q @ k.transpose(0, 2, 1) / hd**0.5
            scores = np.where(np.triu(np.ones((t, t)), k=1)[None] > 0, -np.inf, scores)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)
            merged[..., cols] = probs @ v
        attn_out = merged @ w[p + "wo"]
        x = x + attn_out
        fin = rms(x, w[p + "ffn_norm"])
        g = fin @ w[p + "wgate"]
        hid = (g / (1.0 + np.exp(-g))) * (fin @ w[p + "wup"])
        x = x + hid @ w[p + "wdown"]
    return rms(x, w["final_norm"]) @ w["head"]


def test_forward_matches_independent_reference():
    cfg = small_config(depth=2)
    params = init_params(cfg, seed=3)
    toks = np.random.default_rng(1).integers(0, cfg.vocab_size, size=(2, 6))
    ours = forward(cfg, params, toks).data
    ref = _reference_forward(cfg, params, toks)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_one_layer_minimal_width_hand_example():
    # d=2, h=1: tiny enough that the reference path is fully hand-auditable
    cfg = ModelConfig(vocab_size=256, width=2, depth=1, n_heads=1, kv_groups=1,
                      ffn_hidden=3)
    params = init_params(cfg, seed=5, sigma=0.7)
    toks = np.array([[65, 66]])
    ours = forward(cfg, params, toks).data
    ref = _reference_forward(cfg, params, toks)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_causality_exact():
    cfg = small_config(depth=2)
    params = init_params(cfg, seed=2)
    rng = np.random.default_rng(0)
    toks = rng.integers(0, cfg.vocab_size, size=(1, 7))
    base = forward(cfg, params, toks).data
    for t in range(1, 7):
        perturbed = toks.copy()
        perturbed[0, t] = (perturbed[0, t] + 13) % cfg.vocab_size
        out = forward(cfg, params, perturbed).data
        assert np.array_equal(out[:, :t], base[:, :t])


def test_mha_is_gqa_with_one_head_groups():
    cfg = small_config(n_heads=4, kv_groups=4, width=16)
    params = init_params(cfg, seed=7)
    toks = np.random.default_rng(2).integers(0, cfg.vocab_size, size=(2, 5))
    ours = forward(cfg, params, toks).data
    ref = _reference_forward(cfg, params, toks)  # reference is plain MHA
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_grouped_kv_shares_group_heads():
    # with kv_groups < n_heads, query heads in one group see the same kv
    cfg = small_config(n_heads=4, kv_groups=2, width=16)
    params = init_params(cfg, seed=8)
    toks = np.array([[1, 2, 3]])
    logits = forward(cfg, params, toks).data
    # widen the kv projections into an MHA layout by duplicating each group
    wide = {k: Tensor(t.data.copy()) for k, t in params.tensors.items()}
    for i in range(cfg.depth):
        for name in ("wk", "wv"):
            w = wide[f"layers.{i}.{name}"].data
            blocks = w.reshape(cfg.width, cfg.kv_groups, cfg.head_dim)
            dup = np.repeat(blocks, cfg.n_heads // cfg.kv_groups, axis=1)
            wide[f"layers.{i}.{name}"] = Tensor(dup.reshape(cfg.width, -1))
    mha_cfg = small_config(n_heads=4, kv_groups=4, width=16)
    ref = forward(mha_cfg, ParamStore(wide), toks).data
    assert np.allclose(logits, ref, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------- generate


def test_generate_deterministic():
    cfg = small_config()
    params = init_params(cfg, seed=11)
    prefix = np.array([4, 9])
    a = generate(cfg, params, prefix, 6)
    b = generate(cfg, params, prefix, 6)
    assert np.array_equal(a, b)


def test_generate_kv_cache_matches_full_reforward():
    cfg = small_config(depth=2, n_heads=4, kv_groups=2)
    params = init_params(cfg, seed=12)
    prefix = np.array([7, 3])
    n_new = 8
    cached = generate(cfg, params, prefix, n_new)
    # uncached: re-run the full training-path forward for every new token
    seq = list(prefix)
    for _ in range(n_new):
        logits = forward(cfg, params, np.array([seq])).data[0, -1]
        seq.append(int(logits.argmax()))
    assert np.array_equal(cached, np.array(seq))


def test_generate_batched_gqa_long_prefix_matches_full_reforward():
    # three rows, grouped KV, and a prefix spanning more than two prefill chunks
    cfg = small_config(depth=2, n_heads=4, kv_groups=2)
    params = init_params(cfg, seed=13)
    rng = np.random.default_rng(4)
    prefix = rng.integers(0, cfg.vocab_size, size=(3, 2 * PREFILL_CHUNK + 5))
    n_new = 6
    cached = generate(cfg, params, prefix, n_new)
    seq = prefix
    for _ in range(n_new):
        nxt = forward(cfg, params, seq).data[:, -1].argmax(axis=-1)
        seq = np.concatenate([seq, nxt[:, None]], axis=1)
    assert np.array_equal(cached, seq)


def test_chunked_prefill_logits_match_full_forward():
    cfg = small_config(depth=2, n_heads=4, kv_groups=2)
    params = init_params(cfg, seed=14)
    toks = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(2, 17))
    full = forward(cfg, params, toks).data
    cache = KVCache(cfg, batch=2, capacity=20)
    pieces = [forward(cfg, params, toks[:, a:b], cache=cache).data
              for a, b in ((0, 5), (5, 6), (6, 17))]
    assert cache.length == 17
    assert np.allclose(np.concatenate(pieces, axis=1), full, rtol=0, atol=1e-10)


def test_forward_past_cache_capacity_raises():
    cfg = small_config()
    params = init_params(cfg)
    cache = KVCache(cfg, batch=1, capacity=4)
    forward(cfg, params, np.array([[1, 2, 3]]), cache=cache)
    with pytest.raises(ValueError, match="KV cache"):
        forward(cfg, params, np.array([[4, 5]]), cache=cache)
    assert cache.length == 3
    with pytest.raises(ValueError, match="KV cache"):
        forward(cfg, params, np.array([[4], [5]]), cache=cache)  # batch of 2, cache of 1


def test_forward_with_cache_under_tape_raises():
    cfg = small_config()
    params = init_params(cfg)
    cache = KVCache(cfg, batch=1, capacity=4)
    with pytest.raises(RuntimeError, match="Tape"):
        with Tape():
            forward(cfg, params, np.array([[1, 2]]), cache=cache)
    assert cache.length == 0


def test_generate_needs_new_tokens():
    cfg = small_config()
    with pytest.raises(ValueError):
        generate(cfg, init_params(cfg), np.array([1]), 0)


def test_deeper_config_slower_at_equal_size():
    # ordering only; absolute throughput is machine-dependent
    deep = ModelConfig(vocab_size=300, width=16, depth=6, n_heads=2, kv_groups=2,
                       ffn_hidden=32)
    shallow = ModelConfig(vocab_size=300, width=44, depth=1, n_heads=2, kv_groups=2,
                          ffn_hidden=80)
    prefix = np.random.default_rng(0).integers(0, 300, size=(4, 2))

    def best_decode_s(cfg):
        params, times = init_params(cfg), []
        for _ in range(3):
            t0 = time.perf_counter()
            generate(cfg, params, prefix, 30)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_decode_s(shallow) < best_decode_s(deep)


# -------------------------------------------------------------- store / io


def test_store_validation_catches_missing_and_wrong_shape():
    cfg = small_config()
    store = init_params(cfg)
    bad = ParamStore(dict(store.tensors))
    del bad.tensors["head"]
    with pytest.raises(ValueError, match="head"):
        bad.validate(cfg)
    bad = ParamStore(dict(store.tensors))
    bad.tensors["embed"] = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="embed"):
        bad.validate(cfg)


def test_param_shapes_cover_store():
    cfg = small_config()
    store = init_params(cfg)
    assert set(param_shapes(cfg)) == set(store.tensors)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = small_config(depth=2)
    params = init_params(cfg, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, params)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg
    for name, t in params.tensors.items():
        assert np.array_equal(loaded[name].data, t.data), name


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    cfg = small_config(depth=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_params(cfg, seed=13))
    return path


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="8 trailing bytes after its last tensor"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [8, 3])
def test_checkpoint_rejects_truncation_naming_tensor(tmp_path, cut):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match="truncated in tensor 'layers.1.wv'"):
        load_checkpoint(path)


@st.composite
def small_models(draw):
    """A small random config and parameters drawn from a seed, each tensor
    led by a value that a lossy encoding would mangle."""
    head_dim = draw(st.sampled_from([2, 4]))
    kv_groups = draw(st.integers(1, 2))
    n_heads = kv_groups * draw(st.integers(1, 2))
    cfg = ModelConfig(vocab_size=draw(st.integers(256, 270)), width=n_heads * head_dim,
                      depth=draw(st.integers(1, 2)), n_heads=n_heads, kv_groups=kv_groups,
                      ffn_hidden=draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308]
    tensors = {}
    for name, shape in param_shapes(cfg).items():
        data = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        data.reshape(-1)[0] = special[rng.integers(len(special))]
        tensors[name] = Tensor(data)
    return cfg, ParamStore(tensors)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(model=small_models())
def test_checkpoint_roundtrip_exact_for_random_configs(tmp_path_factory, model):
    cfg, params = model
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, cfg, params)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert sorted(loaded.tensors) == sorted(params.tensors)
    for name, t in params.tensors.items():
        assert loaded[name].shape == t.shape
        assert loaded[name].data.tobytes() == t.data.tobytes(), name


@settings(derandomize=True, deadline=None, max_examples=30)
@given(model=small_models())
def test_float32_checkpoint_roundtrip_exact_for_random_configs(tmp_path_factory, model):
    cfg, params = model
    with np.errstate(over="ignore"):  # the specials overflow to inf, underflow or stay
        params = params.astype(np.float32)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, cfg, params)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg and loaded.dtype == np.float32
    assert sorted(loaded.tensors) == sorted(params.tensors)
    for name, t in params.tensors.items():
        assert loaded[name].shape == t.shape
        assert loaded[name].data.tobytes() == t.data.tobytes(), name


_DTYPE_VALUES = st.one_of(st.sampled_from(["float16", "Float32", "float32 ", "<f4", "f8", ""]),
                          st.none(), st.integers(), st.floats(allow_nan=False), st.booleans(),
                          st.lists(st.just("float32"), max_size=2),
                          st.dictionaries(st.just("float32"), st.just("float64"), max_size=1))


def _mutate_dtype(raw: bytes, value) -> bytes:
    """``raw`` with its manifest's dtype replaced by ``value``, or deleted when
    ``value`` is the string "delete"."""
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])
    if value == "delete":
        del manifest["dtype"]
    else:
        manifest["dtype"] = value
    new = json.dumps(manifest).encode()
    return raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + mlen:]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(model=small_models(), dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_parse_checkpoint_mutations_raise_only_value_error(tmp_path_factory, model, dtype, data):
    """Mutated checkpoints, of either dtype, parse or raise ValueError: a
    flipped, cut or inserted byte anywhere, or a dtype field that is missing,
    of a wrong type, unknown, or the other dtype."""
    cfg, params = model
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    with np.errstate(over="ignore"):
        save_checkpoint(path, cfg, params.astype(dtype))
    raw = path.read_bytes()
    kind = data.draw(st.sampled_from(["flip", "cut", "insert", "dtype", "swap"]), label="kind")
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if kind == "flip":
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    elif kind == "cut":
        raw = raw[:at] + raw[at + data.draw(st.integers(1, 16)):]
    elif kind == "insert":
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=16)) + raw[at:]
    else:
        other = "float64" if dtype == np.float32 else "float32"
        value = other if kind == "swap" else data.draw(st.one_of(st.just("delete"), _DTYPE_VALUES))
        with pytest.raises(ValueError, match=f"{other} payload" if kind == "swap"
                           else "'dtype' must be"):
            parse_checkpoint(_mutate_dtype(raw, value))
        return
    try:
        parse_checkpoint(raw)
    except ValueError:
        pass


@settings(derandomize=True, deadline=None, max_examples=30)
@given(model=small_models(), data=st.data())
def test_checkpoint_truncated_inside_payload_raises(tmp_path_factory, model, data):
    cfg, params = model
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, cfg, params)
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    cut = data.draw(st.integers(16 + mlen, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match="truncated in tensor"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [0, 5, 8, 12, 16, 40])
def test_checkpoint_truncated_before_payload_raises_value_error(tmp_path, cut):
    # inside the magic, the manifest length or the manifest itself
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _with_manifest(path, edit):
    """Rewrite a saved checkpoint's manifest through ``edit``, keeping its payload."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    new = json.dumps(edit(json.loads(raw[16 : 16 + mlen]))).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + mlen :])


def test_checkpoint_manifest_length_past_the_file_raises_value_error(tmp_path):
    # used to try to read all 10**12 bytes and die with MemoryError
    path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + struct.pack("<Q", 10**12) + raw[16:])
    with pytest.raises(ValueError, match="manifest length 1000000000000 exceeds"):
        load_checkpoint(path)


def test_checkpoint_manifest_without_config_raises_value_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _with_manifest(path, lambda m: {})
    with pytest.raises(ValueError, match="'config' object"):
        load_checkpoint(path)


@pytest.mark.parametrize("width", [16.0, 0, True])
def test_checkpoint_config_with_a_bad_width_raises_value_error_naming_it(tmp_path, width):
    # 16.0 and 0 used to load; a float width then broke surgery with a TypeError
    path = _saved_checkpoint(tmp_path)
    _with_manifest(path, lambda m: {**m, "config": {**m["config"], "width": width}})
    with pytest.raises(ValueError, match="checkpoint 'config' is invalid: width must be"):
        load_checkpoint(path)


@pytest.mark.parametrize("fields, message", [
    ((256, 0, 1, 1, 1, 1), "width must be >= 1, got 0"),
    ((256, -4, 1, 2, 2, 1), "width must be >= 1, got -4"),
    ((256, 16, 1.0, 2, 2, 8), "depth must be an integer, got 1.0"),
    ((256, 16, 1, 2, True, 8), "kv_groups must be an integer, got True"),
], ids=["width_zero", "width_negative", "depth_float", "kv_groups_bool"])
def test_model_config_checks_itself_when_built(fields, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(*fields)


def test_replace_checks_the_new_model_config():
    cfg = small_config(width=32, n_heads=4, kv_groups=4)
    with pytest.raises(ValueError, match="n_heads 4 not divisible by kv_groups 3"):
        replace(cfg, kv_groups=3)


def test_save_checkpoint_refuses_a_store_that_does_not_fit_its_config(tmp_path):
    # used to write a file that no loader could read
    cfg = small_config(depth=1)
    params = init_params(cfg, seed=13)
    two = ParamStore({name: params[name] for name in ("embed", "head")})
    with pytest.raises(ValueError, match="missing parameter"):
        save_checkpoint(tmp_path / "m.ckpt", cfg, two)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_manifest_with_a_tensor_table_is_refused(tmp_path):
    # the format before the table was derived from the config
    path = _saved_checkpoint(tmp_path)
    _with_manifest(path, lambda m: {**m, "tensors": []})
    with pytest.raises(ValueError, match="checkpoint manifest has the unknown key 'tensors'"):
        load_checkpoint(path)


def test_checkpoint_depth_beyond_its_bytes_is_refused_before_naming_tensors(tmp_path):
    # depth 10**5 used to build 900k names for 1.1 s before "missing parameter"
    path = _saved_checkpoint(tmp_path)
    _with_manifest(path, lambda m: {**m, "config": {**m["config"], "depth": 10**5}})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="checkpoint config depth 100000 at width 16 exceeds"):
        load_checkpoint(path)
    assert time.perf_counter() - start < 0.1
