"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values. Trend criteria run five seeds on toy models and
must hit on at least four.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines appear
in the terminal summary (and inline with `-s`).
"""

import json
import math
import sys
import time

import numpy as np
import pytest

import tinylm as tl
from tinylm.arch import attention_block, forward, param_count, param_shapes
from tinylm.data import batches_from_windows, windows_from_ids, zipf_corpus
from tinylm.initializers import InitScheme, initialize
from tinylm.pipeline import run, validate
from tinylm.surgery import (
    build_child,
    convert_to_gqa,
    identity_plan,
    layer_skip_eval,
    make_plan,
    score_neurons,
)
from tinylm.tensor import (
    Tensor,
    causal_attention,
    concat,
    exp,
    finite_diff_check,
    gather_rows,
    getitem,
    log,
    matmul,
    mul,
    neg,
    power,
    reshape,
    rms_norm,
    rms_normalize,
    rope,
    sigmoid,
    silu,
    softmax,
    softmax_cross_entropy,
    swiglu,
    take,
    tmean,
    transpose,
    tsum,
)
from tinylm.tokenizer import (
    compact_vocab,
    count_frequencies,
    coverage_curve,
    decode,
    encode,
    train_bpe,
)
from tinylm.trainer import (
    BatchLossLedger,
    LedgerEntry,
    ScalingRule,
    TrainPlan,
    batch_loss,
    forgetting_scan,
    part_assignment,
    part_probabilities,
    resample,
    scaled_lr,
    train_round,
)
import conftest
from conftest import deletion_oracle, make_planted_problem, train_toy_parent


# rotary tables for criterion 1's rope case: 3 positions, head_dim 4
ROPE_COS = np.cos(np.outer(np.arange(3), [1.0, 0.1]))
ROPE_SIN = np.sin(np.outer(np.arange(3), [1.0, 0.1]))


def check(number, ok, detail, elapsed, budget):
    in_time = elapsed < budget
    verdict = "PASS" if (ok and in_time) else "FAIL"
    line = f"[{verdict}] criterion {number}: {detail} ({elapsed:.1f}s / {budget:.0f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, detail
    assert in_time, f"criterion {number} runtime {elapsed:.1f}s over budget {budget}s"


def test_c01_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    row = Tensor(rng.standard_normal(4))
    mat = Tensor(rng.standard_normal((4, 3)))
    ops = {
        "neg": lambda t: neg(t),
        "add_bcast": lambda t: t + row,
        "mul_bcast": lambda t: mul(t, row),
        "matmul": lambda t: matmul(t, mat),
        "power": lambda t: power(t, 3.0),
        "exp": lambda t: exp(t),
        "log": lambda t: log(t + 3.0),
        "sigmoid": lambda t: sigmoid(t),
        "silu": lambda t: silu(t),
        "sum": lambda t: reshape(tsum(t, axis=1, keepdims=True), (3, 1)),
        "mean": lambda t: tmean(t, axis=0, keepdims=True),
        "reshape": lambda t: reshape(t, (4, 3)),
        "transpose": lambda t: transpose(t, (1, 0)),
        "getitem": lambda t: getitem(t, (slice(0, 2), slice(1, 4))),
        "take": lambda t: take(t, [0, 2, 2], axis=0),
        "concat": lambda t: concat([t, mul(t, 0.5)], axis=0),
        "softmax": lambda t: softmax(t),
        "rms_normalize": lambda t: rms_normalize(t),
        "cross_entropy": lambda t: softmax_cross_entropy(t, [1, 0, 3]),
        "gather_rows": lambda t: gather_rows(t, np.array([[0, 1], [2, 2]])),
        # q: 2 heads of 3 positions; one kv group sliced from the same input
        "causal_attention": lambda t: causal_attention(
            reshape(t, (1, 2, 3, 2)),
            reshape(getitem(t, (slice(None), slice(0, 2))), (1, 1, 3, 2)),
            reshape(getitem(t, (slice(None), slice(2, 4))), (1, 1, 3, 2)),
        ),
        # fused layer ops, appended so every entry above keeps its draws
        "rope": lambda t: rope(reshape(t, (1, 3, 4)), ROPE_COS, ROPE_SIN),
        "rms_norm": lambda t: rms_norm(t, getitem(t, 0)),
        "swiglu": lambda t: swiglu(t, mul(t, row)),
    }
    worst = {}
    for name, op in ops.items():
        errs = []
        for _ in range(100):
            x = Tensor(rng.uniform(-2, 2, size=(3, 4)))
            out_shape = op(Tensor(x.data)).shape
            probe = Tensor(rng.uniform(-1, 1, size=out_shape))
            errs.append(
                finite_diff_check(lambda t: tsum(mul(op(t), probe)), x, h=1e-5)
            )
        worst[name] = max(errs)
    ops_ok = all(e <= 1e-4 for e in worst.values())

    cfg = tl.ModelConfig(vocab_size=260, width=4, depth=1, n_heads=2, kv_groups=2,
                         ffn_hidden=6)
    params = initialize(cfg, InitScheme("constant", 0.4, seed=1))
    batch = np.random.default_rng(2).integers(0, 260, size=(2, 5))
    model_worst = 0.0
    for name in params.tensors:
        def loss_of(t, name=name):
            saved = params.tensors[name]
            params.tensors[name] = t
            logits = forward(cfg, params, batch[:, :-1])
            b, s, v = logits.shape
            out = softmax_cross_entropy(logits.reshape((b * s, v)),
                                        batch[:, 1:].reshape(-1))
            params.tensors[name] = saved
            return out

        model_worst = max(model_worst, finite_diff_check(loss_of, params.tensors[name],
                                                         h=1e-5))
    ok = ops_ok and model_worst <= 1e-3
    check(1, ok,
          f"op-level max rel err {max(worst.values()):.2e} (<=1e-4), "
          f"full-model {model_worst:.2e} (<=1e-3)",
          time.time() - t0, 60)


def test_c02_tokenizer_roundtrip_and_coverage():
    t0 = time.time()
    corpus = zipf_corpus(40_000, seed=11)
    vocab = train_bpe(corpus, 380)
    freq = count_frequencies(corpus, vocab)
    compacted = compact_vocab(vocab, freq, coverage=0.95)

    rng = np.random.default_rng(3)
    trips = 0
    for _ in range(1000):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 40)),
                                  dtype=np.uint8))
        if decode(encode(blob, vocab), vocab) == blob and \
           decode(encode(blob, compacted), compacted) == blob:
            trips += 1
    curve = coverage_curve(freq)
    fr = np.array(curve.fractions)
    curve_ok = (np.diff(fr) >= -1e-15).all() and abs(fr[-1] - 1.0) < 1e-12

    # exhaustive sort oracle: minimal top-k prefix reaching 95% of occurrences
    order = np.lexsort((np.arange(vocab.size), -freq.counts))
    cum = np.cumsum(freq.counts[order])
    k_needed = int(np.searchsorted(cum, 0.95 * freq.total_tokens - 1e-9) + 1)
    needed = {vocab.tokens[i] for i in order[:k_needed]}
    kept = set(compacted.tokens)
    retention_ok = needed <= kept
    kept_mass = sum(int(freq.counts[i]) for i in range(vocab.size)
                    if vocab.tokens[i] in kept)
    coverage_ok = kept_mass / freq.total_tokens >= 0.95 - 1e-12

    ok = trips == 1000 and curve_ok and retention_ok and coverage_ok
    check(2, ok,
          f"round-trips {trips}/1000, curve monotone/terminal {curve_ok}, "
          f"0.95-compaction keeps top-{k_needed} oracle set {retention_ok}",
          time.time() - t0, 60)


def test_c03_parameter_accounting():
    t0 = time.time()
    rng = np.random.default_rng(4)
    exact = 0
    for _ in range(50):
        head_dim = int(rng.choice([2, 4, 8]))
        heads = int(rng.integers(1, 5))
        groups = int(rng.choice([g for g in range(1, heads + 1) if heads % g == 0]))
        cfg = tl.ModelConfig(
            vocab_size=int(rng.integers(256, 900)),
            width=heads * head_dim,
            depth=int(rng.integers(1, 8)),
            n_heads=heads,
            kv_groups=groups,
            ffn_hidden=int(rng.integers(1, 120)),
        )
        v, d, L, f, kv = (cfg.vocab_size, cfg.width, cfg.depth, cfg.ffn_hidden,
                          cfg.kv_groups * cfg.head_dim)
        by_hand = (2 * v * d) + L * (2 * d * d + 2 * d * kv + 3 * d * f + 2 * d) + d
        if param_count(cfg).total_params == by_hand:
            exact += 1
    ref = tl.ModelConfig(vocab_size=48000, width=1792, depth=20, n_heads=14,
                         kv_groups=14, ffn_hidden=round(2.77 * 1792))
    pehl = param_count(ref).pehl * 100
    ref_ok = abs(pehl - 18.07) <= 1.5
    ok = exact == 50 and ref_ok
    check(3, ok,
          f"enumeration exact on {exact}/50 configs; 48k reference PEHL "
          f"{pehl:.2f}% within 18.07+-1.5",
          time.time() - t0, 60)


def test_c04_scaling_rule_arithmetic():
    t0 = time.time()
    ok = True
    for r in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        rule = ScalingRule(base_batch=1e6, base_lr=1e-4, increment_rate=r)
        for bs in (2.5e5, 1e6, 2e6, 4e6, 1.6e7):
            ok &= scaled_lr(rule, bs) == (bs / 1e6) ** r * 1e-4
    rule = ScalingRule(base_batch=1e6, base_lr=1e-4, increment_rate=0.5)
    ok &= scaled_lr(rule, 1e6) == 1e-4
    ok &= scaled_lr(rule, 4e6) == 2e-4
    check(4, ok, "lr = (bs/bs0)^r * lr0 exact on the full grid, "
                 "identity at bs0 and 4M@r=0.5 -> 2x", time.time() - t0, 60)


def test_c05_resampling_law():
    t0 = time.time()
    rng = np.random.default_rng(5)
    ledger = BatchLossLedger(parts=4)
    losses = rng.normal(2.0, 0.7, size=30)
    for i, part in enumerate(part_assignment(30, 4)):
        ledger.entries.append(LedgerEntry(i, int(part), float(losses[i])))
    sums_ok = all(
        abs(part_probabilities(ledger, p).sum() - 1.0) < 1e-12 for p in range(4)
    )
    everything = sorted(resample(ledger, 1.0, seed=0)) == list(range(30))

    tri = BatchLossLedger(parts=1)
    for i, l in enumerate([1.0, 0.3, 1.7]):
        tri.entries.append(LedgerEntry(i, 0, l))
    p = part_probabilities(tri, 0)
    counts = np.zeros(3)
    trials = 100_000
    for seed in range(trials):
        counts[resample(tri, 0.1, seed=seed)[0]] += 1  # ceil(0.1*3) = 1 draw
    gap = np.abs(counts / trials - p).max()
    ok = sums_ok and everything and gap < 0.01
    check(5, ok,
          f"per-part probabilities sum to 1 ({sums_ok}), rate=1 selects all "
          f"({everything}), empirical-vs-softmax gap {gap:.4f} (<0.01)",
          time.time() - t0, 60)


def test_c06_surgery_exactness():
    t0 = time.time()
    cfg = tl.ModelConfig(vocab_size=280, width=16, depth=3, n_heads=4, kv_groups=4,
                         ffn_hidden=12)
    params = initialize(cfg, InitScheme("constant", 0.25, seed=6))
    toks = np.random.default_rng(7).integers(0, 280, size=(2, 6))
    base = forward(cfg, params, toks).data

    child = build_child(cfg, params, identity_plan(cfg), cfg)
    identity_ok = all(
        np.array_equal(child[n].data, params[n].data) for n in params.tensors
    ) and np.array_equal(forward(cfg, child, toks).data, base)

    same_cfg, same = convert_to_gqa(cfg, params, groups=4)
    noop_ok = same_cfg == cfg and all(
        np.array_equal(same[n].data, params[n].data) for n in params.tensors
    )

    dup = params.copy()
    for i in range(cfg.depth):
        for name in ("wk", "wv"):
            w = dup[f"layers.{i}.{name}"].data
            blocks = w.reshape(cfg.width, 4, cfg.head_dim)
            blocks[:, 1] = blocks[:, 0]
            blocks[:, 3] = blocks[:, 2]
    before = forward(cfg, dup, toks).data
    gqa_cfg, gqa = convert_to_gqa(cfg, dup, groups=2)
    pooled_ok = np.array_equal(forward(gqa_cfg, gqa, toks).data, before)

    # head slicing vs zero-mask oracle on the attention sublayer
    rng = np.random.default_rng(8)
    d, hd = 12, 4
    wq, wk, wv = (Tensor(rng.normal(0, 0.4, size=(d, 3 * hd))) for _ in range(3))
    wo = Tensor(rng.normal(0, 0.4, size=(3 * hd, d)))
    x = Tensor(rng.normal(size=(1, 5, d)))
    gate = Tensor(np.array([0.0, 1.0, 1.0]))
    masked = attention_block(x, wq, wk, wv, wo, 3, 3, hd, head_gates=gate).data
    cols = np.arange(hd, 3 * hd)
    sliced = attention_block(
        x, Tensor(wq.data[:, cols]), Tensor(wk.data[:, cols]),
        Tensor(wv.data[:, cols]), Tensor(wo.data[cols, :]), 2, 2, hd,
    ).data
    head_gap = np.abs(sliced - masked).max()

    # channel slicing vs zero-mask oracle on the full model
    kept = [0, 3, 4, 7, 9, 11]
    child_cfg = tl.ModelConfig(vocab_size=280, width=16, depth=3, n_heads=4,
                               kv_groups=4, ffn_hidden=len(kept))
    plan = identity_plan(cfg)
    plan.ffn_indices = [kept] * cfg.depth
    ffn_child = build_child(cfg, params, plan, child_cfg)
    g = np.zeros(cfg.ffn_hidden)
    g[kept] = 1.0
    gated = forward(cfg, params, toks,
                    ffn_gates=[Tensor(g.copy()) for _ in range(cfg.depth)]).data
    chan_gap = np.abs(forward(child_cfg, ffn_child, toks).data - gated).max()

    ok = identity_ok and noop_ok and pooled_ok and head_gap <= 1e-12 and \
        chan_gap <= 1e-12
    check(6, ok,
          f"identity bit-exact {identity_ok}, g==h no-op {noop_ok}, pooled-KV "
          f"bit-exact {pooled_ok}, slicing gaps {head_gap:.1e}/{chan_gap:.1e} "
          "(<=1e-12)",
          time.time() - t0, 120)


def test_c07_pruning_criterion_oracle_agreement():
    t0 = time.time()
    hits = {c: 0 for c in ("l1", "l2", "taylor", "learned")}
    for seed in range(20):
        cfg, params, batches, _, _ = make_planted_problem(seed=seed)
        oracle_top = int(np.argmax(deletion_oracle(cfg, params, batches, "ffn")))
        for crit in hits:
            scores = score_neurons(cfg, params, batches, crit)
            hits[crit] += int(np.argmax(scores.ffn_scores[0])) == oracle_top
    ok = (hits["l1"] >= 18 and hits["l2"] >= 18 and hits["taylor"] >= 19
          and hits["learned"] >= 19)
    check(7, ok,
          f"oracle agreement l1={hits['l1']}/20 l2={hits['l2']}/20 (>=18), "
          f"taylor={hits['taylor']}/20 learned={hits['learned']}/20 (>=19)",
          time.time() - t0, 300)


def test_c08_inheritance_efficacy_trend():
    t0 = time.time()
    wins = 0
    margins = []
    for seed in range(5):
        cfg, params, train, holdout, _ = train_toy_parent(seed)
        child_cfg = tl.ModelConfig(vocab_size=cfg.vocab_size, width=16, depth=4,
                                   n_heads=1, kv_groups=1, ffn_hidden=32)
        plan = make_plan(cfg, params, child_cfg, train[:3], criterion="taylor",
                         keep_ends=(2, 2))
        inherited = build_child(cfg, params, plan, child_cfg)
        random_twin = initialize(child_cfg, InitScheme("constant", 0.02,
                                                       seed=seed + 100))
        budget = list(train[:40])
        probe = train[40:46]
        plan_t = TrainPlan(lr=4e-3, parts=4, seed=seed)
        results = {}
        for name, store in (("inherited", inherited), ("random", random_twin)):
            store, _ = train_round(child_cfg, store, budget, plan_t)
            results[name] = float(np.mean([batch_loss(child_cfg, store, b)
                                           for b in probe]))
        wins += results["inherited"] < results["random"]
        margins.append(results["random"] - results["inherited"])
    ok = wins >= 4
    check(8, ok,
          f"taylor-inherited child beat its random twin on {wins}/5 seeds "
          f"(mean margin {np.mean(margins):.3f} nats)",
          time.time() - t0, 900)


def test_c09_layer_importance_trend():
    t0 = time.time()
    wins = 0
    for seed in range(5):
        cfg, params, train, holdout, _ = train_toy_parent(seed)
        imp = layer_skip_eval(cfg, params, holdout, windows=(1,))
        vals = [imp.importance(1, i) for i in range(cfg.depth)]
        ends = np.mean([vals[0], vals[-1]])
        middle = np.mean(vals[cfg.depth // 3: 2 * cfg.depth // 3])
        wins += ends > middle
    ok = wins >= 4
    check(9, ok, f"first/last beat middle-third importance on {wins}/5 seeds",
          time.time() - t0, 600)


def test_c10_forgetting_and_multiround_trend():
    t0 = time.time()
    forget_wins = 0
    round_wins = 0
    for seed in range(5):
        corpus = zipf_corpus(40_000, seed=seed + 50)
        vocab = train_bpe(corpus, 300)
        ids = encode(corpus, vocab)
        all_b = batches_from_windows(windows_from_ids(ids, 24, seed=seed), 8)
        train, holdout = all_b[:48], all_b[48:52]
        cfg = tl.ModelConfig(vocab_size=vocab.size, width=96, depth=4, n_heads=2,
                             kv_groups=2, ffn_hidden=192)
        params = initialize(cfg, InitScheme("constant", 0.02, seed=seed))
        plan = TrainPlan(lr=1.5e-2, parts=8, seed=seed, cosine_floor=0.5)
        params, ledger = train_round(cfg, params, train, plan)
        scan = forgetting_scan(cfg, params, train, ledger)
        forget_wins += scan[0] > scan[-1]
        eval_r1 = float(np.mean([batch_loss(cfg, params, b) for b in holdout]))
        picked = resample(ledger, 0.5, seed=plan.seed + 1)
        second = params.copy()
        second, _ = train_round(cfg, second, [train[i] for i in picked],
                                TrainPlan(lr=1.5e-2, parts=8, seed=seed,
                                          cosine_floor=0.5))
        eval_r2 = float(np.mean([batch_loss(cfg, second, b) for b in holdout]))
        round_wins += eval_r2 < eval_r1
    ok = forget_wins >= 4 and round_wins >= 4
    check(10, ok,
          f"part1>part8 recomputed loss on {forget_wins}/5 seeds; round-2 "
          f"improved eval loss on {round_wins}/5 seeds",
          time.time() - t0, 1200)


def test_c11_pipeline_determinism(tmp_path):
    t0 = time.time()
    hashes = []
    for tag in ("a", "b"):
        raw = {
            "seed": 21,
            "output_dir": str(tmp_path / f"out_{tag}"),
            "corpus": {"synthetic": {"n_bytes": 25_000, "seed": 2}},
            "tokenizer": {"train": {"target_size": 300},
                          "compact": {"coverage": 0.97}},
            "architecture": {"config": {"width": 16, "depth": 2, "n_heads": 2,
                                        "ffn_hidden": 24}},
            "init": {"scheme": "constant", "sigma": 0.02, "seed": 3},
            "training": {"seq_len": 16, "batch_size": 4, "max_batches": 8,
                         "lr": 3e-3, "rounds": 2, "sampling_rate": 0.5,
                         "parts": 4},
            "evaluation": {"holdout_batches": 2,
                           "cloze": {"n_items": 6, "n_candidates": 3,
                                     "context_len": 6, "candidate_len": 2}},
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(raw))
        manifest = run(validate(path))
        hashes.append({a["name"]: a["sha256"] for a in manifest.artifacts})
    ok = hashes[0] == hashes[1] and len(hashes[0]) > 5
    check(11, ok,
          f"two identical runs reproduced {len(hashes[0])} artifact hashes "
          f"exactly ({ok})",
          time.time() - t0, 300)
