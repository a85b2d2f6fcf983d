"""float32 runs: every array follows the parameters' dtype, a float32 run is
deterministic, and it stays within measured tolerances of float64.

The tolerances were set from measurement, with margin:
- on the same weights, float32 logits and gradients differ from float64 by
  at most 2.1e-6 of each array's largest magnitude: on the demo's init and
  trained weights, and (1.1e-6) at this file's shape with init sigma 0.1,
  seeds 0-5. RTOL is 1e-5. Sharper attention loses more: at sigma 0.4 the
  gap reached 9.6e-6;
- over the demo at seeds 7, 8 and 9, the final training loss moved by at
  most 0.0045 nats and hold-out perplexity by at most 1.2%, against 0.01
  nats and 2%.
"""

import json

import numpy as np
import pytest

from tinylm import arch, tensor
from tinylm.arch import KVCache, ModelConfig, forward, generate, lm_loss, load_checkpoint
from tinylm.initializers import InitScheme, initialize
from tinylm.pipeline import OUTPUT_ENV_VAR, report, run, validate
from tinylm.surgery import learn_masks
from tinylm.tensor import Tape, Tensor
from tinylm.trainer import AdamW, TrainPlan, forgetting_scan, train_round
from test_pipeline import DEMO, write_config

RTOL = 1e-5  # of an array's largest magnitude
LOSS_NATS, PPL_SHARE = 0.01, 0.02


def _model(dtype, seed=0, sigma=0.4):
    cfg = ModelConfig(vocab_size=300, width=32, depth=2, n_heads=2, kv_groups=2, ffn_hidden=48)
    return cfg, initialize(cfg, InitScheme("constant", sigma, seed=seed)).astype(dtype)


def _batches(cfg, n=3, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, cfg.vocab_size, size=(4, 17)) for _ in range(n)]


def test_a_python_number_never_promotes_a_float32_tensor():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with Tape() as tape:
        outs = [x * 0.5, 0.5 * x, x + 1, x - 1.0, x ** 2, (x - 2.0).sum()]
        loss = sum(outs[1:], outs[0]).sum()
    assert {o.data.dtype for o in outs} == {loss.data.dtype} == {np.dtype(np.float32)}
    assert tape.gradients(loss)[x].dtype == np.float32
    # anything but float32 or float64 still becomes float64
    assert Tensor([1, 2]).data.dtype == Tensor(np.float16(1)).data.dtype == np.float64


def test_a_float32_model_never_upcasts(monkeypatch):
    """Every op output and every gradient an op's backward returns, every
    parameter, leaf gradient and AdamW moment after each step, every KV cache
    buffer, rotary table and all logits stay float32: through a train_round
    step, a learn_masks step, forgetting_scan and generate. (A float64 table
    would not show in rope's output, which numpy computes in place.)"""
    seen: dict[str, set] = {key: set() for key in ("op", "op_grad", "param", "grad", "moment",
                                                   "logits", "cache", "table")}
    emit, step, fwd, rope = tensor._emit, AdamW.step, arch.forward, arch.rope

    def spy_emit(out, inputs, backward_fn):
        seen["op"].add(np.asarray(out).dtype)

        def checked(g):
            grads = backward_fn(g)
            seen["op_grad"].update(x.dtype for x in grads if x is not None)
            return grads

        return emit(out, inputs, checked)

    def spy_step(self, grads, lr):
        step(self, grads, lr)
        seen["grad"].update(g.dtype for g in grads.values())
        seen["param"].update(t.data.dtype for t in self.params.tensors.values())
        seen["moment"].update(m.dtype for m in (*self.m.values(), *self.v.values()))

    def spy_forward(config, params, tokens, **kwargs):
        logits = fwd(config, params, tokens, **kwargs)
        seen["logits"].add(logits.data.dtype)
        cache = kwargs.get("cache")
        if cache is not None:
            seen["cache"].update(b.dtype for b in (*cache.k, *cache.v))
        return logits

    def spy_rope(x, cos, sin):
        seen["table"].update((cos.dtype, sin.dtype))
        return rope(x, cos, sin)

    monkeypatch.setattr(arch, "rope", spy_rope)
    monkeypatch.setattr(tensor, "_emit", spy_emit)
    monkeypatch.setattr(AdamW, "step", spy_step)
    monkeypatch.setattr(arch, "forward", spy_forward)
    cfg, params = _model(np.float32)
    batches = _batches(cfg)
    params, ledger = train_round(cfg, params, batches[:1], TrainPlan(lr=1e-3, parts=1))
    learn_masks(cfg, params, batches[:1], child_heads=1, child_channels=24, steps=1)
    forgetting_scan(cfg, params, batches[:1], ledger)
    generate(cfg, params, batches[0][:2, :5], 3)
    assert params.dtype == np.float32
    assert seen == {key: {np.dtype(np.float32)} for key in seen}


def test_forward_refuses_a_cache_of_another_dtype():
    cfg, params = _model(np.float32)
    with pytest.raises(ValueError, match="a float64 KV cache for float32 parameters"):
        forward(cfg, params, np.zeros((1, 2), np.intp), cache=KVCache(cfg, 1, 4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_logits_and_gradients_match_float64_on_the_same_weights(seed):
    cfg, p64 = _model(np.float64, seed=seed, sigma=0.1)
    p32 = p64.astype(np.float32)
    batch = _batches(cfg, n=1, seed=seed)[0]
    out = {}
    for params in (p64, p32):
        params.set_requires_grad(True)
        with Tape() as tape:
            loss = lm_loss(cfg, params, batch)
        grads = tape.gradients(loss)
        params.set_requires_grad(False)
        out[params.dtype.name] = [forward(cfg, params, batch[:, :-1]).data,
                                  *(grads[t] for t in params.tensors.values())]
    for a32, a64 in zip(out["float32"], out["float64"]):
        assert a32.dtype == np.float32
        assert np.abs(a32 - a64).max() <= RTOL * np.abs(a64).max()


def test_two_float32_runs_give_identical_artifacts(tmp_path):
    manifests = [run(validate(write_config(tmp_path, name=f"{name}.json", dtype="float32",
                                           output_dir=str(tmp_path / name))))
                 for name in ("a", "b")]
    ha, hb = ({a["name"]: a["sha256"] for a in m.artifacts} for m in manifests)
    assert ha == hb
    assert manifests[0].numeric["dtype"] == "float32"
    _, params = load_checkpoint(tmp_path / "a" / "model.ckpt")
    assert params.dtype == np.float32
    assert "numeric: float32   numpy " in report(tmp_path / "a")[0]


def _demo(tmp_path, monkeypatch, seed, dtype):
    raw = json.loads(DEMO.read_text())
    raw.update(seed=seed, dtype=dtype, output_dir=f"{dtype}-{seed}")
    raw["corpus"]["synthetic"]["seed"] = seed
    path = tmp_path / f"{dtype}-{seed}.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "runs"))
    run(validate(path))
    out = tmp_path / "runs" / raw["output_dir"]
    final_loss = float((out / "curves.csv").read_text().split()[-1].split(",")[2])
    return final_loss, json.loads((out / "eval_perplexity.json").read_text())["value"]


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_the_float32_demo_tracks_the_float64_demo(tmp_path, monkeypatch, seed):
    loss64, ppl64 = _demo(tmp_path, monkeypatch, seed, "float64")
    loss32, ppl32 = _demo(tmp_path, monkeypatch, seed, "float32")
    assert abs(loss32 - loss64) <= LOSS_NATS
    assert abs(ppl32 / ppl64 - 1.0) <= PPL_SHARE
