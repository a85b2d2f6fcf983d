import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinylm import arch, surgery
from tinylm.arch import (
    ModelConfig,
    ParamStore,
    attention_block,
    forward,
    lm_loss,
    param_count,
    param_shapes,
)
from tinylm.initializers import InitScheme, initialize
from tinylm.surgery import (
    InheritancePlan,
    LayerImportance,
    NeuronScores,
    PlanError,
    build_child,
    channel_importance,
    check_child,
    convert_to_gqa,
    identity_plan,
    layer_skip_eval,
    learn_masks,
    make_plan,
    score_neurons,
    select_layers,
)
from tinylm.tensor import (Tape, Tensor, matmul, mul, rms_normalize, sigmoid,
                           softmax_cross_entropy)
from conftest import deletion_oracle, make_planted_problem, traced_memory


def mha_config(**overrides):
    base = dict(vocab_size=280, width=16, depth=4, n_heads=2, ffn_hidden=10)
    base.update(overrides)
    base.setdefault("kv_groups", base["n_heads"])
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def rand_batches(cfg, n=2, bsz=2, seq=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, cfg.vocab_size, size=(bsz, seq + 1)) for _ in range(n)]


# ---------------------------------------------------------- layer_skip_eval


def test_skip_identity_layer_importance_zero():
    cfg = mha_config()
    params = initialize(cfg, InitScheme("constant", 0.1, seed=0))
    # make layer 2 a residual no-op: both branch outputs are zero
    params["layers.2.wo"].data[:] = 0.0
    params["layers.2.wdown"].data[:] = 0.0
    imp = layer_skip_eval(cfg, params, rand_batches(cfg), windows=(1,))
    assert imp.importance(1, 2) == pytest.approx(0.0, abs=1e-12)


def test_skip_enumeration_counts():
    cfg = mha_config(depth=5)
    params = initialize(cfg, InitScheme("constant", 0.05, seed=1))
    imp = layer_skip_eval(cfg, params, rand_batches(cfg, n=1), windows=(1, 2, 3))
    for w in (1, 2, 3):
        assert len([1 for (ww, _) in imp.scores if ww == w]) == cfg.depth - w + 1


def test_skip_window_exceeding_depth_not_enumerated():
    cfg = mha_config(depth=2)
    params = initialize(cfg, InitScheme("constant", 0.05, seed=2))
    imp = layer_skip_eval(cfg, params, rand_batches(cfg, n=1), windows=(1, 3))
    assert all(w != 3 for (w, _) in imp.scores)


def test_importance_csv():
    imp = LayerImportance(baseline=-1.0, scores={(1, 0): -2.0, (1, 1): -1.5}, depth=2)
    lines = imp.to_csv().strip().splitlines()
    assert lines[0] == "window,start,score,importance"
    assert len(lines) == 3


# ------------------------------------------------------------ select_layers


def _importance_from(middle, depth, f=1, b=1):
    scores = {}
    values = [0.0] * depth
    for i, v in enumerate(middle, start=f):
        values[i] = v
    for i in range(depth):
        scores[(1, i)] = -values[i]  # baseline 0: importance == values[i]
    return LayerImportance(baseline=0.0, scores=scores, depth=depth)


def test_select_identity_when_same_depth():
    imp = _importance_from([0.5, 0.2], depth=4)
    assert select_layers(imp, 4, keep_ends=(1, 1)) == [0, 1, 2, 3]


def test_select_documented_eight_layer_case():
    imp = _importance_from([0.1, 0.9, 0.2, 0.8, 0.3, 0.4], depth=8)
    assert select_layers(imp, 4, keep_ends=(1, 1)) == [0, 2, 4, 7]


def test_select_pure_topk_when_ends_disabled():
    imp = _importance_from([0.1, 0.9, 0.2, 0.8, 0.3, 0.4], depth=8, f=1, b=1)
    # with keep_ends (0,0) everything competes on importance alone
    picked = select_layers(imp, 3, keep_ends=(0, 0))
    assert picked == sorted(
        sorted(range(8), key=lambda i: (-imp.importance(1, i), i))[:3]
    )


def test_select_rejects_deeper_child():
    imp = _importance_from([0.1], depth=3)
    with pytest.raises(PlanError):
        select_layers(imp, 4)


def test_select_tie_breaks_to_lower_index():
    imp = _importance_from([0.5, 0.5, 0.5], depth=5)
    assert select_layers(imp, 3, keep_ends=(1, 1)) == [0, 1, 4]


# ------------------------------------------------------------ score_neurons


def test_zero_weight_unit_scores_zero():
    cfg = mha_config(depth=1)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=3))
    for name in ("wgate", "wup"):
        params[f"layers.0.{name}"].data[:, 4] = 0.0
    params["layers.0.wdown"].data[4, :] = 0.0
    batches = rand_batches(cfg, n=1)
    for criterion in ("l1", "l2", "taylor"):
        scores = score_neurons(cfg, params, batches, criterion)
        assert scores.ffn_scores[0][4] == pytest.approx(0.0, abs=1e-15)


def test_hand_norms_l1_l2():
    cfg = mha_config(depth=1)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=4))
    for name in ("wgate", "wup"):
        params[f"layers.0.{name}"].data[:, 2] = 0.0
    params["layers.0.wdown"].data[2, :] = 0.0
    params["layers.0.wgate"].data[0, 2] = 3.0
    params["layers.0.wgate"].data[1, 2] = -4.0
    l1 = score_neurons(cfg, params, [], "l1")
    l2 = score_neurons(cfg, params, [], "l2")
    assert l1.ffn_scores[0][2] == pytest.approx(7.0)
    assert l2.ffn_scores[0][2] == pytest.approx(5.0)


@pytest.mark.parametrize("criterion", ["taylor", "learned"])
def test_each_batch_gradients_are_freed_before_the_next_forward(monkeypatch, no_cyclic_gc,
                                                               criterion):
    cfg = mha_config(depth=2)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=5))
    returned = []  # per backward sweep, weakrefs to the gradients it returned
    gradients = Tape.gradients

    def spy_gradients(self, loss):
        grads = gradients(self, loss)
        returned.append([weakref.ref(g) for g in grads.values()])
        return grads

    def spy_loss(*args, **kwargs):
        for i, refs in enumerate(returned):
            assert all(r() is None for r in refs), f"batch {i}'s gradients outlive it"
        return lm_loss(*args, **kwargs)

    monkeypatch.setattr(Tape, "gradients", spy_gradients)
    monkeypatch.setattr(surgery, "lm_loss", spy_loss)
    score_neurons(cfg, params, rand_batches(cfg, n=3), criterion, mask_steps=3)
    assert len(returned) == 3 and all(returned)


def test_taylor_requires_data():
    cfg = mha_config(depth=1)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=5))
    with pytest.raises(ValueError):
        score_neurons(cfg, params, [], "taylor")


def test_unknown_criterion():
    cfg = mha_config(depth=1)
    with pytest.raises(ValueError):
        score_neurons(cfg, initialize(cfg, InitScheme("constant", 0.1, 0)), [], "l3")


def test_head_surgery_requires_mha():
    cfg = mha_config(depth=1, n_heads=4, kv_groups=2, width=16)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=6))
    with pytest.raises(PlanError):
        score_neurons(cfg, params, rand_batches(cfg, 1), "l1")


def test_all_criteria_find_planted_channel():
    cfg, params, batches, planted_c, planted_h = make_planted_problem(seed=1)
    oracle = deletion_oracle(cfg, params, batches, "ffn")
    assert int(np.argmax(oracle)) == planted_c
    for criterion in ("l1", "l2", "taylor", "learned"):
        scores = score_neurons(cfg, params, batches, criterion)
        assert int(np.argmax(scores.ffn_scores[0])) == planted_c, criterion


def test_criteria_find_planted_head():
    cfg, params, batches, planted_c, planted_h = make_planted_problem(seed=2)
    oracle = deletion_oracle(cfg, params, batches, "head")
    assert int(np.argmax(oracle)) == planted_h
    for criterion in ("l1", "l2", "taylor"):
        scores = score_neurons(cfg, params, batches, criterion)
        assert int(np.argmax(scores.head_scores[0])) == planted_h, criterion


def test_scores_nonnegative_finite():
    cfg, params, batches, _, _ = make_planted_problem(seed=3)
    for criterion in ("l1", "l2", "taylor", "learned"):
        scores = score_neurons(cfg, params, batches, criterion)
        for arr in scores.head_scores + scores.ffn_scores:
            assert np.isfinite(arr).all()
            assert (arr >= 0).all()


def _reference_unit_scores(cfg, params, batches, criterion):
    """Oracle: one Python sum per head and per FFN channel over its weight
    slices; taylor accumulates each batch's per-unit |w * dL/dw| sums."""
    hd = cfg.head_dim

    def head_parts(arrays, layer, h):
        p, cols = f"layers.{layer}.", slice(h * hd, (h + 1) * hd)
        return (arrays[p + "wq"][:, cols], arrays[p + "wk"][:, cols],
                arrays[p + "wv"][:, cols], arrays[p + "wo"][cols, :])

    def ffn_parts(arrays, layer, c):
        p = f"layers.{layer}."
        return arrays[p + "wgate"][:, c], arrays[p + "wup"][:, c], arrays[p + "wdown"][c, :]

    def unit_sums(arrays):
        heads = [np.array([sum(a.sum() for a in head_parts(arrays, layer, h))
                           for h in range(cfg.n_heads)]) for layer in range(cfg.depth)]
        chans = [np.array([sum(a.sum() for a in ffn_parts(arrays, layer, c))
                           for c in range(cfg.ffn_hidden)]) for layer in range(cfg.depth)]
        return heads, chans

    weights = {name: t.data for name, t in params.tensors.items()}
    if criterion == "l1":
        return unit_sums({k: np.abs(w) for k, w in weights.items()})
    if criterion == "l2":
        heads, chans = unit_sums({k: w * w for k, w in weights.items()})
        return [np.sqrt(x) for x in heads], [np.sqrt(x) for x in chans]
    heads = [np.zeros(cfg.n_heads) for _ in range(cfg.depth)]
    chans = [np.zeros(cfg.ffn_hidden) for _ in range(cfg.depth)]
    params.set_requires_grad(True)
    for batch in batches:
        with Tape() as tape:
            logits = forward(cfg, params, batch[:, :-1])
            b, t, v = logits.shape
            loss = softmax_cross_entropy(logits.reshape((b * t, v)), batch[:, 1:].reshape(-1))
        grads = tape.gradients(loss)
        batch_heads, batch_chans = unit_sums(
            {k: np.abs(t.data * grads[t]) for k, t in params.tensors.items()})
        heads = [x + y for x, y in zip(heads, batch_heads)]
        chans = [x + y for x, y in zip(chans, batch_chans)]
    params.set_requires_grad(False)
    return heads, chans


@pytest.mark.parametrize("criterion", ["l1", "l2", "taylor"])
@pytest.mark.parametrize("shape", [dict(depth=2), dict(depth=3, n_heads=4, ffn_hidden=7)])
def test_unit_scores_match_per_unit_reference(criterion, shape):
    cfg = mha_config(**shape)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=20))
    batches = rand_batches(cfg, n=3, seed=4)
    scores = score_neurons(cfg, params, batches, criterion)
    heads, chans = _reference_unit_scores(cfg, params, batches, criterion)
    expected = NeuronScores(criterion, heads, chans)
    for layer in range(cfg.depth):
        np.testing.assert_allclose(scores.head_scores[layer], heads[layer], rtol=1e-12)
        np.testing.assert_allclose(scores.ffn_scores[layer], chans[layer], rtol=1e-12)
        for n_heads, n_chans in ((1, 1), (cfg.n_heads // 2, cfg.ffn_hidden // 2)):
            assert (scores.top_units(layer, n_heads, n_chans)
                    == expected.top_units(layer, n_heads, n_chans))


# -------------------------------------------------------------- learn_masks


def test_mask_target_all_units_keeps_everything():
    logits = NeuronScores("learned", [np.array([-5.0, 3.0])], [np.array([0.4, -0.2, 1.0])])
    heads, chans = logits.top_units(0, 2, 3)
    assert heads == [0, 1]
    assert chans == [0, 1, 2]


def test_mask_tie_keeps_lower_index():
    logits = NeuronScores("learned", [np.array([1.0, 1.0])], [np.array([2.0, 2.0, 2.0])])
    heads, chans = logits.top_units(0, 1, 2)
    assert heads == [0]
    assert chans == [0, 1]


def test_learned_mask_retains_planted_channel():
    cfg, params, batches, planted_c, _ = make_planted_problem(seed=4)
    logits = learn_masks(cfg, params, batches, child_heads=cfg.n_heads,
                         child_channels=1, steps=60, seed=0)
    _, chans = logits.top_units(0, cfg.n_heads, 1)
    assert chans == [planted_c]


def _reference_learn_masks(cfg, params, batches, child_heads, child_channels, steps,
                           lr=0.1, temperature=(2.0, 0.5), seed=0):
    """Oracle: the mask learner with its own plain Adam (beta2 0.999)."""
    rng = np.random.default_rng(seed)
    logits = [Tensor(2.0 + rng.normal(0.0, 0.01, size=n), requires_grad=True)
              for n in [cfg.n_heads] * cfg.depth + [cfg.ffn_hidden] * cfg.depth]
    m = [np.zeros(t.shape) for t in logits]
    v = [np.zeros(t.shape) for t in logits]
    for step in range(steps):
        tau = temperature[0] + (temperature[1] - temperature[0]) * (step / max(1, steps - 1))
        batch = batches[step % len(batches)]
        with Tape() as tape:
            gates = [sigmoid(lg * (1.0 / tau)) for lg in logits]
            out = forward(cfg, params, batch[:, :-1], head_gates=gates[:cfg.depth],
                          ffn_gates=gates[cfg.depth:])
            b, t, vv = out.shape
            loss = softmax_cross_entropy(out.reshape((b * t, vv)), batch[:, 1:].reshape(-1))
            for i, g in enumerate(gates):
                target = child_heads if i < cfg.depth else child_channels
                loss = loss + (g.sum() - float(target)) ** 2
        grads = tape.gradients(loss)
        for i, lg in enumerate(logits):
            g = grads[lg]
            m[i] = 0.9 * m[i] + (1 - 0.9) * g
            v[i] = 0.999 * v[i] + (1 - 0.999) * g * g
            m_hat = m[i] / (1 - 0.9 ** (step + 1))
            v_hat = v[i] / (1 - 0.999 ** (step + 1))
            lg.data -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return [lg.data for lg in logits]


def test_learn_masks_matches_plain_adam_reference():
    cfg = mha_config(depth=2)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=8))
    batches = rand_batches(cfg, n=3, seed=9)
    logits = learn_masks(cfg, params, batches, child_heads=1, child_channels=4, steps=50)
    expected = _reference_learn_masks(cfg, params, batches, 1, 4, steps=50)
    assert logits.criterion == "learned"
    for got, want in zip(logits.head_scores + logits.ffn_scores, expected):
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_learn_masks_rejects_oversized_target():
    cfg, params, batches, _, _ = make_planted_problem(seed=5)
    with pytest.raises(ValueError):
        learn_masks(cfg, params, batches, child_heads=cfg.n_heads + 1,
                    child_channels=1, steps=1)


@pytest.mark.parametrize("heads, channels, message", [
    (0, 1, "0 heads and 1 FFN channels per layer make no child"),
    (1, 0, "1 heads and 0 FFN channels per layer make no child"),
])
def test_learn_masks_refuses_a_target_no_child_has(heads, channels, message):
    # a zero target used to train the gates toward a layer with no units
    cfg, params, batches, _, _ = make_planted_problem(seed=5)
    with pytest.raises(PlanError, match=message):
        learn_masks(cfg, params, batches, child_heads=heads, child_channels=channels, steps=1)


def _gated_parent():
    """The inherit workload's parent shape (width 96, depth 4, 6 heads, ffn
    192) with a [8, 32] batch and one gate logit per head and FFN channel."""
    cfg = mha_config(vocab_size=400, width=96, depth=4, n_heads=6, ffn_hidden=192)
    params = initialize(cfg, InitScheme("constant", 0.02, seed=0))
    rng = np.random.default_rng(0)
    batch = rng.integers(0, cfg.vocab_size, size=(8, 33))
    logits = [Tensor(2.0 + rng.normal(0.0, 0.01, size=n), requires_grad=True)
              for n in [cfg.n_heads] * cfg.depth + [cfg.ffn_hidden] * cfg.depth]
    return cfg, params, batch, logits


def _gated_loss(cfg, params, batch, logits):
    """One learn_masks forward: the task loss under sigmoid gates."""
    gates = [sigmoid(lg) for lg in logits]
    return lm_loss(cfg, params, batch, head_gates=gates[:cfg.depth],
                   ffn_gates=gates[cfg.depth:])


def test_frozen_weight_pass_keeps_no_projection_input(monkeypatch, no_cyclic_gc):
    cfg, params, batch, logits = _gated_parent()
    params.set_requires_grad(False)
    weights = {id(t) for t in params.tensors.values()}
    inputs = []

    def recording_matmul(a, b):
        if id(b) in weights:
            inputs.append(weakref.ref(a.data))
        return matmul(a, b)

    monkeypatch.setattr(arch, "matmul", recording_matmul)
    with Tape() as tape:
        loss = _gated_loss(cfg, params, batch, logits)
    assert len(inputs) == 7 * cfg.depth + 1  # seven projections a layer, and the head
    assert [ref() for ref in inputs] == [None] * len(inputs)
    frozen = tape.gradients(loss)
    monkeypatch.undo()
    # trainable weights keep their inputs; the gates' gradients are the same bits
    params.set_requires_grad(True)
    with Tape() as tape:
        loss = _gated_loss(cfg, params, batch, logits)
    trainable = tape.gradients(loss)
    for lg in logits:
        assert np.array_equal(frozen[lg], trainable[lg])


# traced bytes a gated forward at the inherit parent shape leaves on its tape:
# 10.5 MiB measured, 20.8 MiB when every node kept its inputs and output
GATED_FORWARD_HELD_BYTES = 12 * 2**20


def test_gated_forward_holds_only_what_backward_reads(no_cyclic_gc):
    cfg, params, batch, logits = _gated_parent()
    params.set_requires_grad(False)
    with traced_memory() as traced:
        with Tape() as tape:
            loss = _gated_loss(cfg, params, batch, logits)
        held = traced()[0]
    assert held < GATED_FORWARD_HELD_BYTES, held
    assert set(tape.gradients(loss)) == set(logits)


# -------------------------------------------------------------- build_child


def test_identity_surgery_bit_exact():
    cfg = mha_config()
    params = initialize(cfg, InitScheme("constant", 0.1, seed=7))
    child = build_child(cfg, params, identity_plan(cfg), cfg)
    for name, t in params.tensors.items():
        assert np.array_equal(child[name].data, t.data), name
    toks = np.array([[5, 6, 7]])
    assert np.array_equal(forward(cfg, params, toks).data,
                          forward(cfg, child, toks).data)


def test_head_slice_matches_zero_mask_oracle():
    rng = np.random.default_rng(8)
    d, hd, heads = 8, 4, 2
    wq = Tensor(rng.normal(0, 0.4, size=(d, heads * hd)))
    wk = Tensor(rng.normal(0, 0.4, size=(d, heads * hd)))
    wv = Tensor(rng.normal(0, 0.4, size=(d, heads * hd)))
    wo = Tensor(rng.normal(0, 0.4, size=(heads * hd, d)))
    x = Tensor(rng.normal(0, 1.0, size=(1, 5, d)))
    keep = 0
    masked = attention_block(x, wq, wk, wv, wo, heads, heads, hd,
                             head_gates=Tensor(np.array([1.0, 0.0]))).data
    cols = np.arange(keep * hd, (keep + 1) * hd)
    sliced = attention_block(
        x,
        Tensor(wq.data[:, cols]),
        Tensor(wk.data[:, cols]),
        Tensor(wv.data[:, cols]),
        Tensor(wo.data[cols, :]),
        1, 1, hd,
    ).data
    assert np.allclose(sliced, masked, rtol=0, atol=1e-12)


def test_ffn_slice_matches_zero_mask_oracle():
    cfg = mha_config(depth=2)
    params = initialize(cfg, InitScheme("constant", 0.25, seed=9))
    kept = [0, 2, 5, 6, 9]
    child_cfg = mha_config(depth=2, ffn_hidden=len(kept))
    plan = identity_plan(cfg)
    plan.ffn_indices = [kept, kept]
    child = build_child(cfg, params, plan, child_cfg)
    toks = np.array([[3, 9, 2, 7]])
    gate = np.zeros(cfg.ffn_hidden)
    gate[kept] = 1.0
    gates = [Tensor(gate.copy()) for _ in range(cfg.depth)]
    masked = forward(cfg, params, toks, ffn_gates=gates).data
    sliced = forward(child_cfg, child, toks).data
    assert np.allclose(sliced, masked, rtol=0, atol=1e-12)


def test_full_head_prune_slice_matches_gated_model():
    # keep head 0 of 2 in every layer: child width halves, so compare through
    # the attention sublayer on the shared residual channels
    cfg = mha_config(depth=1, n_heads=2, width=16)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=10))
    x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 16)))
    h = mul(rms_normalize(x), params["layers.0.attn_norm"])
    masked = attention_block(
        h, params["layers.0.wq"], params["layers.0.wk"], params["layers.0.wv"],
        params["layers.0.wo"], 2, 2, cfg.head_dim,
        head_gates=Tensor(np.array([1.0, 0.0])),
    ).data
    cols = np.arange(cfg.head_dim)
    sliced = attention_block(
        h,
        Tensor(params["layers.0.wq"].data[:, cols]),
        Tensor(params["layers.0.wk"].data[:, cols]),
        Tensor(params["layers.0.wv"].data[:, cols]),
        Tensor(params["layers.0.wo"].data[cols, :]),
        1, 1, cfg.head_dim,
    ).data
    assert np.allclose(sliced, masked, rtol=0, atol=1e-12)


def test_build_child_random_plans_validate():
    rng = np.random.default_rng(11)
    parent = mha_config(depth=5, n_heads=4, width=16, ffn_hidden=12,
                        vocab_size=300)
    params = initialize(parent, InitScheme("constant", 0.1, seed=12))
    for _ in range(10):
        child_depth = int(rng.integers(1, parent.depth + 1))
        child_heads = int(rng.integers(1, parent.n_heads + 1))
        child_width = child_heads * parent.head_dim
        child_ffn = int(rng.integers(1, parent.ffn_hidden + 1))
        child_vocab = int(rng.integers(256, parent.vocab_size + 1))
        child = ModelConfig(child_vocab, child_width, child_depth, child_heads,
                            child_heads, child_ffn)
        layers = sorted(rng.choice(parent.depth, size=child_depth, replace=False))
        plan = InheritancePlan(
            kept_layers=[int(i) for i in layers],
            head_indices=[
                sorted(int(i) for i in rng.choice(parent.n_heads, size=child_heads,
                                                  replace=False))
                for _ in range(child_depth)
            ],
            ffn_indices=[
                sorted(int(i) for i in rng.choice(parent.ffn_hidden, size=child_ffn,
                                                  replace=False))
                for _ in range(child_depth)
            ],
            channel_plan=sorted(
                int(i) for i in rng.choice(parent.width, size=child_width,
                                           replace=False)
            ),
            vocab_map=sorted(
                int(i) for i in rng.choice(parent.vocab_size, size=child_vocab,
                                           replace=False)
            ),
        )
        store = build_child(parent, params, plan, child)
        store.validate(child)  # exact shapes forced by the child config
        # the child lists its tensors in initialize's order, which fixes the
        # order of AdamW's clip-norm sum
        assert list(store.tensors) == list(param_shapes(child))
        # every tensor against slices written out per kind
        rows, chans = plan.vocab_map, plan.channel_plan
        assert np.array_equal(store["embed"].data, params["embed"].data[rows][:, chans])
        assert np.array_equal(store["head"].data, params["head"].data[chans][:, rows])
        assert np.array_equal(store["final_norm"].data, params["final_norm"].data[chans])
        for new_i, old_i in enumerate(plan.kept_layers):
            new, old = f"layers.{new_i}.", f"layers.{old_i}."
            heads = [h * parent.head_dim + j for h in plan.head_indices[new_i]
                     for j in range(parent.head_dim)]
            ffn = plan.ffn_indices[new_i]
            want = {"attn_norm": params[old + "attn_norm"].data[chans],
                    "ffn_norm": params[old + "ffn_norm"].data[chans],
                    "wo": params[old + "wo"].data[heads][:, chans],
                    "wdown": params[old + "wdown"].data[ffn][:, chans]}
            want.update({k: params[old + k].data[chans][:, heads] for k in ("wq", "wk", "wv")})
            want.update({k: params[old + k].data[chans][:, ffn] for k in ("wgate", "wup")})
            for kind, value in want.items():
                assert np.array_equal(store[new + kind].data, value), new + kind


def test_plan_validate_checks_kv_groups():
    # head pruning needs an MHA parent and an MHA child; without it the child
    # keeps the parent's kv_groups. validate_structure checks both, so a plan
    # file is refused at validate, and build_child through plan.validate
    mha, gqa = mha_config(depth=2, n_heads=4), mha_config(depth=2, n_heads=4, kv_groups=2)
    pruned = identity_plan(mha)
    pruned.head_indices, pruned.channel_plan = [[0, 1], [1, 3]], list(range(8))
    narrow = mha_config(depth=2, n_heads=2, width=8)
    pruned.validate_structure(mha, narrow)
    cases = [
        (gqa, narrow, pruned, "needs an MHA parent"),
        (mha, replace(narrow, kv_groups=1), pruned,
         "needs an MHA child, but child kv_groups 1 differs from n_heads 2"),
        (mha, gqa, identity_plan(mha), "child kv_groups 2 must match parent 4"),
    ]
    identity_plan(gqa).validate_structure(gqa, gqa)
    for parent, child, plan, message in cases:
        with pytest.raises(PlanError, match=message):
            plan.validate_structure(parent, child)
        params = initialize(parent, InitScheme("constant", 0.1, seed=13))
        with pytest.raises(PlanError, match=message):
            build_child(parent, params, plan, child)


def test_build_child_shape_mismatch_names_tensor():
    parent = mha_config(depth=2)
    params = initialize(parent, InitScheme("constant", 0.1, seed=13))
    child = mha_config(depth=2, ffn_hidden=6)
    plan = identity_plan(parent)  # ffn lists keep 10 channels, child wants 6
    with pytest.raises(PlanError, match="FFN channels"):
        build_child(parent, params, plan, child)


def test_plan_json_roundtrip():
    cfg = mha_config()
    plan = identity_plan(cfg)
    again = InheritancePlan.from_json(plan.to_json())
    assert again == plan


@pytest.mark.parametrize("field, value", [
    ("kept_layers", [0, 1.5]),
    ("kept_layers", [-1, 0]),
    ("head_indices", [[0, 0], [0, 1]]),
    ("head_indices", [[1, 0], [0, 1]]),
    ("ffn_indices", [[0, 1, 1], [0, 1, 2]]),
    ("ffn_indices", [[0, 1, 2.0], [0, 1, 2]]),
    ("channel_plan", [0, 1, True] + list(range(3, 16))),
    ("channel_plan", [0, 0] + list(range(2, 16))),
    ("vocab_map", [2.5] + list(range(1, 280))),
    ("vocab_map", [False] + list(range(1, 280))),
])
def test_plan_validate_rejects_bad_entries(field, value):
    parent = mha_config(depth=2)
    child = mha_config(depth=2, ffn_hidden=3)
    plan = identity_plan(parent)
    plan.ffn_indices = [[0, 1, 2], [0, 1, 2]]
    plan.validate(parent, child)
    setattr(plan, field, value)
    with pytest.raises(PlanError, match=field):
        plan.validate(parent, child)
    with pytest.raises(PlanError, match=field):
        InheritancePlan.from_json(plan.to_json()).validate(parent, child)


_FUZZ_PARENT = mha_config(depth=2, width=8, n_heads=2, ffn_hidden=3, vocab_size=256)
_FUZZ_ENTRY = st.one_of(st.integers(-2, 4), st.booleans(), st.floats(-1, 4), st.none())
_FUZZ_JSON = st.recursive(
    st.one_of(_FUZZ_ENTRY, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)
_FUZZ_FIELD = st.one_of(
    _FUZZ_JSON,
    st.lists(_FUZZ_ENTRY, min_size=2, max_size=3),
    st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=3), min_size=2, max_size=2),
)


@st.composite
def _plan_texts(draw):
    """Arbitrary text or JSON, or the parent's identity plan with one field
    replaced, one entry changed or one key dropped."""
    kind = draw(st.sampled_from(["text", "json", "field", "entry", "entry", "drop"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "json":
        return json.dumps(draw(_FUZZ_JSON))
    plan = json.loads(identity_plan(_FUZZ_PARENT).to_json())
    key = draw(st.sampled_from(sorted(plan)))
    if kind == "field":
        plan[key] = draw(_FUZZ_FIELD)
    elif kind == "entry":
        entries = plan[key]
        if key in ("head_indices", "ffn_indices"):
            entries = entries[draw(st.integers(0, len(entries) - 1))]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_FUZZ_ENTRY)
    else:
        del plan[key]
    return json.dumps(plan)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=_plan_texts())
def test_plan_from_json_fuzz_builds_or_raises_plan_error(text):
    params = initialize(_FUZZ_PARENT, InitScheme("constant", 0.1, seed=0))
    try:
        plan = InheritancePlan.from_json(text)
        plan.validate(_FUZZ_PARENT, _FUZZ_PARENT)
    except ValueError:  # PlanError, or text that is not JSON
        return
    store = build_child(_FUZZ_PARENT, params, plan, _FUZZ_PARENT)
    store.validate(_FUZZ_PARENT)


def test_make_plan_end_to_end_consistency():
    cfg, params, batches, planted_c, _ = make_planted_problem(seed=6)
    child = ModelConfig(vocab_size=cfg.vocab_size, width=cfg.width, depth=1,
                        n_heads=cfg.n_heads, kv_groups=cfg.n_heads, ffn_hidden=2)
    plan = make_plan(cfg, params, child, batches, criterion="taylor",
                     keep_ends=(0, 0))
    plan.validate(cfg, child)
    assert planted_c in plan.ffn_indices[0]
    store = build_child(cfg, params, plan, child)
    store.validate(child)


def test_make_plan_learned_keeps_the_top_units_of_learn_masks():
    cfg = mha_config(n_heads=4, depth=4)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=21))
    batches = rand_batches(cfg, n=2, seed=22)
    child = mha_config(width=8, depth=2, n_heads=2, ffn_hidden=4)
    plan = make_plan(cfg, params, child, batches, criterion="learned", keep_ends=(1, 0),
                     mask_steps=6, seed=3)
    logits = learn_masks(cfg, params, batches, child_heads=child.n_heads,
                         child_channels=child.ffn_hidden, steps=6, seed=3)
    assert len(plan.kept_layers) == child.depth
    for i, heads, chans in zip(plan.kept_layers, plan.head_indices, plan.ffn_indices):
        assert (heads, chans) == logits.top_units(i, child.n_heads, child.ffn_hidden)


@pytest.mark.parametrize("child, message", [
    (ModelConfig(300, 16, 2, 2, 2, 16), "child n_heads 2 exceeds parent n_heads 1"),
    (ModelConfig(300, 8, 2, 1, 1, 24), "child ffn_hidden 24 exceeds parent ffn_hidden 16"),
], ids=["more_heads", "more_ffn_channels"])
def test_make_plan_refuses_a_child_its_plan_cannot_build(child, message):
    # make_plan used to return these plans, and only build_child refused them
    parent = ModelConfig(300, 8, 2, 1, 1, 16)
    params = initialize(parent, InitScheme("constant", 0.3, seed=25))
    with pytest.raises(PlanError, match=message):
        make_plan(parent, params, child, rand_batches(parent, n=1, seed=26), criterion="l2",
                  keep_ends=(1, 1))


@pytest.mark.parametrize("keep_ends", [(-1, 3), (3, -1), (1,), (1, 1, 0), (1.0, 1)])
def test_make_plan_refuses_keep_ends_that_are_not_two_counts(keep_ends):
    # (-1, 3) into a depth-2 child used to fail only at the end, because the
    # selection held 3 layers
    parent, child = mha_config(depth=4), mha_config(depth=2)
    params = initialize(parent, InitScheme("constant", 0.1, seed=27))
    message = re.escape(f"keep_ends must be two non-negative integers [front, back], got "
                        f"{keep_ends!r}")
    with pytest.raises(PlanError, match=message) as err:
        make_plan(parent, params, child, rand_batches(parent, n=1), criterion="l1",
                  keep_ends=keep_ends)
    assert err.value.field == "keep_ends"
    with pytest.raises(PlanError, match=message):
        select_layers(_importance_from([0.1, 0.2], depth=4), 2, keep_ends)


@pytest.mark.parametrize("parent, child, field, message", [
    (mha_config(depth=2), mha_config(depth=2, width=8), "child.head_dim",
     "child head_dim 4 (width / n_heads) differs from parent head_dim 8"),
    (mha_config(depth=2), mha_config(depth=3), "child.depth",
     "child depth 3 exceeds parent depth 2"),
    (mha_config(depth=2, n_heads=4, kv_groups=2), mha_config(depth=2, n_heads=4),
     "parent.kv_groups", "head-level surgery needs an MHA parent, but parent kv_groups 2"),
    (mha_config(depth=2, n_heads=4), mha_config(depth=2, n_heads=4, kv_groups=1),
     "child.kv_groups", "head-level surgery needs an MHA child, but child kv_groups 1"),
], ids=["head_dim", "deeper", "grouped_kv_parent", "grouped_kv_child"])
def test_make_plan_refuses_an_impossible_child_before_any_forward(monkeypatch, parent, child,
                                                                  field, message):
    # a head_dim mismatch used to surface only in make_plan's final
    # plan.validate, after the layer scan and the unit scores
    def no_scan(*args, **kwargs):
        raise AssertionError("make_plan scanned the parent")

    monkeypatch.setattr(surgery, "layer_skip_eval", no_scan)
    params = initialize(parent, InitScheme("constant", 0.1, seed=28))
    with pytest.raises(PlanError, match=re.escape(message)) as err:
        make_plan(parent, params, child, rand_batches(parent, n=1), criterion="learned",
                  keep_ends=(1, 1))
    assert err.value.field == field


@st.composite
def _toy_shapes(draw):
    """An MHA or grouped-KV config of 1-3 heads of head_dim 2 or 4, 1-3
    layers and 1-4 FFN channels."""
    heads = draw(st.integers(1, 3))
    kv = draw(st.sampled_from([g for g in range(1, heads + 1) if heads % g == 0]))
    return ModelConfig(256, heads * draw(st.sampled_from([2, 4])), draw(st.integers(1, 3)),
                       heads, kv, draw(st.integers(1, 4)))


@st.composite
def _toy_pairs(draw):
    """A parent and a child, half the time an MHA child no larger than the
    parent and mostly of its head_dim."""
    parent = draw(_toy_shapes())
    if draw(st.booleans()):
        return parent, draw(_toy_shapes())
    heads = draw(st.integers(1, parent.n_heads))
    head_dim = draw(st.sampled_from([parent.head_dim] * 3 + [2, 4]))
    return parent, ModelConfig(256, heads * head_dim, draw(st.integers(1, parent.depth)),
                               heads, heads, draw(st.integers(1, parent.ffn_hidden)))


_TOY_ENDS = st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1])
_TOY_GROUPS = st.sampled_from([None, None, None, 1, 1, 2, 3, 0])


@settings(derandomize=True, deadline=None, max_examples=600)
@given(pair=_toy_pairs(), keep_ends=st.tuples(_TOY_ENDS, _TOY_ENDS), gqa_groups=_TOY_GROUPS)
def test_check_child_accepts_exactly_what_surgery_builds(pair, keep_ends, gqa_groups):
    parent, child = pair
    # make_plan -> build_child -> convert_to_gqa succeeds on every child
    # check_child accepts, and refuses every other with a PlanError
    try:
        check_child(parent, child, keep_ends, gqa_groups, head_level=True)
        accepted = True
    except PlanError:
        accepted = False
    params = initialize(parent, InitScheme("constant", 0.1, seed=29))
    try:
        plan = make_plan(parent, params, child, rand_batches(parent, n=1, bsz=1, seq=4),
                         criterion="l1", keep_ends=keep_ends)
        store = build_child(parent, params, plan, child)
        if gqa_groups is not None:
            child, store = convert_to_gqa(child, store, gqa_groups)
    except PlanError:
        assert not accepted
    else:
        assert accepted
        store.validate(child)


# The benchmark's inherit_gqa job counts the arch.forward spans nested in
# surgery.learn_masks and checks them against its configured mask steps
# (surgery.mask_steps == 40); a mask step that skips, splits or repeats its
# forward fails that check.
def test_make_plan_learned_runs_one_forward_per_mask_step(monkeypatch):
    cfg = mha_config(depth=2)
    params = initialize(cfg, InitScheme("constant", 0.3, seed=23))
    child = mha_config(depth=2, ffn_hidden=5)
    forward_fn, learn_masks_fn = arch.forward, surgery.learn_masks
    scopes, inside = [], []

    def counting_forward(*args, **kwargs):
        inside.append(bool(scopes))
        return forward_fn(*args, **kwargs)

    def scoped_learn_masks(*args, **kwargs):
        scopes.append("learn_masks")
        try:
            return learn_masks_fn(*args, **kwargs)
        finally:
            scopes.pop()

    monkeypatch.setattr(arch, "forward", counting_forward)
    monkeypatch.setattr(surgery, "learn_masks", scoped_learn_masks)
    make_plan(cfg, params, child, rand_batches(cfg, n=2, seed=24), criterion="learned",
              keep_ends=(1, 1), mask_steps=7)
    assert sum(inside) == 7


def test_channel_importance_shape():
    cfg = mha_config()
    params = initialize(cfg, InitScheme("constant", 0.1, seed=14))
    rank = channel_importance(cfg, params)
    assert rank.shape == (cfg.width,)
    assert (rank > 0).all()


# ----------------------------------------------------------- convert_to_gqa


def test_gqa_groups_equal_heads_noop():
    cfg = mha_config(n_heads=4, width=16)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=15))
    new_cfg, new_params = convert_to_gqa(cfg, params, groups=4)
    assert new_cfg == cfg
    for name, t in params.tensors.items():
        assert np.array_equal(new_params[name].data, t.data)


def test_gqa_identical_heads_bit_exact_logits():
    cfg = mha_config(n_heads=4, width=16, depth=2)
    params = initialize(cfg, InitScheme("constant", 0.2, seed=16))
    # make both heads of each group identical (group size 2: exact mean)
    for i in range(cfg.depth):
        for name in ("wk", "wv"):
            w = params[f"layers.{i}.{name}"].data
            blocks = w.reshape(cfg.width, 4, cfg.head_dim)
            blocks[:, 1] = blocks[:, 0]
            blocks[:, 3] = blocks[:, 2]
    toks = np.array([[4, 8, 15, 16]])
    before = forward(cfg, params, toks).data
    new_cfg, new_params = convert_to_gqa(cfg, params, groups=2)
    after = forward(new_cfg, new_params, toks).data
    assert new_cfg.kv_groups == 2
    assert np.array_equal(before, after)


def test_gqa_param_count_drop_exact():
    cfg = mha_config(n_heads=4, width=16, depth=3)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=17))
    new_cfg, new_params = convert_to_gqa(cfg, params, groups=2)
    drop = param_count(cfg).total_params - param_count(new_cfg).total_params
    assert drop == cfg.depth * 2 * (4 - 2) * cfg.head_dim * cfg.width
    assert new_params.total_elements() == param_count(new_cfg).total_params


def test_gqa_invalid_groups():
    cfg = mha_config(n_heads=4, width=16)
    params = initialize(cfg, InitScheme("constant", 0.1, seed=18))
    with pytest.raises(ValueError):
        convert_to_gqa(cfg, params, groups=3)
