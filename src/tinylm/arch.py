"""Decoder-only transformer: configuration, parameter store, forward pass
with optional layer skipping and unit gates, greedy generation, parameter
accounting, and budget-constrained config search.

The block is LLaMA-like: RMS pre-norm, rotary q/k, causal attention with
grouped KV heads (kv_groups == n_heads is plain MHA), and a gated-SiLU FFN.
Projections carry no biases; norms are scale-only. Embedding and output head
are separate tensors. Each elementwise chain is one tape op with a
handwritten backward: ``rms_norm`` (normalize and scale), ``rope`` (the
rotation of q and k, its cos/sin tables built once per forward),
``causal_attention`` (scores, mask, softmax and PV) and ``swiglu`` (the
gated activation). Each evaluates the same expressions as the chain it
replaces, so training is bit-identical to the composed ops.

There is one forward path for training, scoring and decoding. Given a
``KVCache``, ``forward`` treats its tokens as the continuation of the cached
sequences: they take positions ``cache.length`` onward, their rotated keys
and values are written into the cache's preallocated buffers, and attention
reads the buffers in place. ``generate`` prefills the prompt in chunks of
``PREFILL_CHUNK`` tokens, then feeds one token per forward.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .fileio import read_json, write_atomic
from .tensor import (
    DTYPES,
    Tensor,
    _active_tape,
    add,
    causal_attention,
    gather_rows,
    matmul,
    mul,
    reshape,
    rms_norm,
    rope,
    softmax_cross_entropy,
    swiglu,
    transpose,
)

ROPE_BASE = 10000.0
# prompt tokens per prefill forward; bounds the chunk's [B, T, V] logits and
# [B, H, T, S] attention probabilities, which dominate prefill memory
PREFILL_CHUNK = 32


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    width: int
    depth: int
    n_heads: int
    kv_groups: int
    ffn_hidden: int

    @property
    def head_dim(self) -> int:
        return self.width // self.n_heads

    def validate(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int:  # a bool or a float is refused too
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.vocab_size < 256:
            raise ValueError(f"vocab_size must be >= 256, got {self.vocab_size}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.ffn_hidden < 1:
            raise ValueError(f"ffn_hidden must be >= 1, got {self.ffn_hidden}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.n_heads < 1 or self.width % self.n_heads != 0:
            raise ValueError(f"width {self.width} not divisible by n_heads {self.n_heads}")
        if self.kv_groups < 1 or self.n_heads % self.kv_groups != 0:
            raise ValueError(
                f"n_heads {self.n_heads} not divisible by kv_groups {self.kv_groups}"
            )
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for rotary encoding, got {self.head_dim}")

    __post_init__ = validate  # so every instance, replace()'s too, is valid

    def to_dict(self) -> dict:
        return asdict(self)


# The role of each axis of every parameter kind, in store order (embedding, one
# layer's kinds, final norm, head): vocabulary rows, residual channels,
# query-head columns (the width), KV-head columns (kv_groups * head_dim) or FFN
# channels. Shapes, child slicing, channel ranking and KV pooling all read it.
AXES: dict[str, tuple[str, ...]] = {
    "embed": ("vocab", "width"),
    "attn_norm": ("width",),
    "wq": ("width", "heads"),
    "wk": ("width", "kv"),
    "wv": ("width", "kv"),
    "wo": ("heads", "width"),
    "ffn_norm": ("width",),
    "wgate": ("width", "ffn"),
    "wup": ("width", "ffn"),
    "wdown": ("ffn", "width"),
    "final_norm": ("width",),
    "head": ("width", "vocab"),
}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every named tensor the config requires, with its exact shape."""
    size = {"vocab": config.vocab_size, "width": config.width, "heads": config.width,
            "kv": config.kv_groups * config.head_dim, "ffn": config.ffn_hidden}
    first, *layer, final, head = AXES
    names = [first, *(f"layers.{i}.{k}" for i in range(config.depth) for k in layer), final, head]
    return {name: tuple(size[r] for r in AXES[name.rsplit(".", 1)[-1]]) for name in names}


class ParamStore:
    """Named map layer-path -> Tensor holding one model's weights."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def validate(self, config: ModelConfig) -> None:
        expected = param_shapes(config)
        for name, shape in expected.items():
            if name not in self.tensors:
                raise ValueError(f"missing parameter {name}")
            got = self.tensors[name].shape
            if got != shape:
                raise ValueError(f"parameter {name}: shape {got}, config requires {shape}")
        extra = set(self.tensors) - set(expected)
        if extra:
            raise ValueError(f"unexpected parameters: {sorted(extra)}")

    def total_elements(self) -> int:
        return sum(t.size for t in self.tensors.values())

    @property
    def dtype(self) -> np.dtype:
        """The dtype every tensor holds; ValueError if they differ."""
        dtypes = {t.data.dtype for t in self.tensors.values()}
        if len(dtypes) != 1:
            raise ValueError(f"parameters hold the dtypes {sorted(map(str, dtypes))}, not one")
        return dtypes.pop()

    def astype(self, dtype) -> "ParamStore":
        """The store with every tensor in ``dtype``; a tensor already in it is
        shared, not copied."""
        return ParamStore({k: Tensor(t.data.astype(dtype, copy=False), t.requires_grad)
                           for k, t in self.tensors.items()})

    def copy(self) -> "ParamStore":
        return ParamStore(
            {k: Tensor(t.data.copy(), requires_grad=t.requires_grad) for k, t in self.tensors.items()}
        )

    def set_requires_grad(self, flag: bool) -> None:
        for t in self.tensors.values():
            t.requires_grad = flag


@dataclass
class ArchReport:
    total_params: int
    embedding_head_params: int
    pehl: float
    breakdown: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


# the report bucket of each parameter kind, in breakdown order
_BUCKETS = {"embed": "embedding", "head": "head",
            **dict.fromkeys(("wq", "wk", "wv", "wo"), "attention"),
            **dict.fromkeys(("wgate", "wup", "wdown"), "ffn"),
            **dict.fromkeys(("attn_norm", "ffn_norm", "final_norm"), "norms")}


def param_count(config: ModelConfig) -> ArchReport:
    """Exact parameter counts of ``param_shapes(config)``: no biases,
    scale-only norms, untied embedding and head."""
    breakdown = dict.fromkeys(_BUCKETS.values(), 0)
    for name, shape in param_shapes(config).items():
        breakdown[_BUCKETS[name.rsplit(".", 1)[-1]]] += math.prod(shape)
    embed_head = breakdown["embedding"] + breakdown["head"]
    total = sum(breakdown.values())
    return ArchReport(total_params=total, embedding_head_params=embed_head,
                      pehl=embed_head / total, breakdown=breakdown)


def search_configs(
    budget: int,
    vocab_size: int,
    depths: list[int],
    expansion_rates: list[float],
    tolerance: float,
    head_dim: int = 64,
) -> list[ModelConfig]:
    """For each (depth, expansion) pair, solve the width that lands the total
    parameter count on ``budget``, round it to a multiple of head_dim (ties
    toward the smaller width), and keep configs within relative tolerance.
    Every config is MHA (kv_groups == n_heads). An input no config can take
    raises ValueError, its message led by the parameter's name; a width the
    solve cannot represent raises OverflowError."""
    if type(vocab_size) is not int or vocab_size < 256:
        raise ValueError(f"vocab_size must be an integer >= 256, got {vocab_size!r}")
    if type(head_dim) is not int or head_dim < 2 or head_dim % 2:
        raise ValueError(f"head_dim must be even and >= 2 for rotary encoding, got {head_dim!r}")
    for L in depths:
        if type(L) is not int or L < 1:
            raise ValueError(f"depths must be integers >= 1, got {L!r}")

    def gap(cfg: ModelConfig) -> int:
        return abs(param_count(cfg).total_params - budget)

    out: list[ModelConfig] = []
    for L in depths:
        for rho in expansion_rates:
            # total(d) ~= a d^2 + b d with ffn = rho * d (MHA)
            a = L * (4.0 + 3.0 * rho)
            b = 2.0 * vocab_size + 2.0 * L + 1.0
            disc = b * b + 4.0 * a * budget
            d_real = (-b + disc**0.5) / (2.0 * a)
            if not math.isfinite(d_real):
                raise OverflowError(f"width solve for depth {L}, expansion {rho} is {d_real}")
            k = int(d_real // head_dim)
            # the head counts either side of d_real, at least one; min keeps
            # the first, narrower config on a tie
            cfg = min((ModelConfig(vocab_size, h * head_dim, L, h, h,
                                   max(1, round(rho * (h * head_dim))))
                       for h in range(max(k, 1), k + 2)), key=gap)
            if gap(cfg) / budget <= tolerance:
                out.append(cfg)
    return out


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def _rope_tables(n_positions: int, head_dim: int, offset: int = 0, dtype=np.float64):
    """cos and sin of the rotary angles, each [n_positions, head_dim // 2],
    for positions offset onward: computed in float64, returned in ``dtype``."""
    half = head_dim // 2
    inv_freq = ROPE_BASE ** (-np.arange(half) * 2.0 / head_dim)
    pos = np.arange(offset, offset + n_positions)
    angles = np.outer(pos, inv_freq)  # [T, half]
    return np.cos(angles).astype(dtype, copy=False), np.sin(angles).astype(dtype, copy=False)


class KVCache:
    """Preallocated key/value buffers for decoding with ``forward``.

    ``k[i]`` and ``v[i]`` are layer i's [B, kv_groups, capacity, head_dim]
    buffers, in the parameters' ``dtype``. Their first ``length`` positions
    hold the rotated keys and the values of every token fed so far;
    ``forward(..., cache=cache)`` writes its tokens at [length, length + T)
    and then advances ``length``.
    """

    def __init__(self, config: ModelConfig, batch: int, capacity: int, dtype=np.float64):
        shape = (batch, config.kv_groups, capacity, config.head_dim)
        self.k = [np.zeros(shape, dtype) for _ in range(config.depth)]
        self.v = [np.zeros(shape, dtype) for _ in range(config.depth)]
        self.batch = batch
        self.capacity = capacity
        self.length = 0

    def repeat(self, counts) -> "KVCache":
        """A new cache whose rows are this cache's rows, row i repeated
        counts[i] times in order, with the same capacity and length."""
        counts = np.asarray(counts, dtype=np.intp)
        if counts.shape != (self.batch,) or (counts < 0).any():
            raise ValueError(f"repeat counts {counts.tolist()} for a cache of {self.batch} rows")
        out = copy.copy(self)
        out.k = [np.repeat(buf, counts, axis=0) for buf in self.k]
        out.v = [np.repeat(buf, counts, axis=0) for buf in self.v]
        out.batch = int(counts.sum())
        return out


def attention_block(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    kv_groups: int,
    head_dim: int,
    head_gates: Tensor | None = None,
    cache: KVCache | None = None,
    layer: int = 0,
    rope_tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Causal rotary attention sublayer on a normalized input [B,T,d_in].

    ``n_heads`` query heads of ``head_dim`` share ``kv_groups`` key/value
    heads; the caller passes all three, and the projections must match. With
    ``cache``, the tokens sit at positions cache.length onward: their keys
    and values are stored in the cache's buffers for ``layer``, and
    attention reads every cached position. ``rope_tables`` are the tokens'
    rotary cos/sin tables; ``forward`` builds them once for all layers, and
    they are built here when not given.
    """
    b, t, _ = x.shape
    q = reshape(matmul(x, wq), (b, t, n_heads, head_dim))
    k = reshape(matmul(x, wk), (b, t, kv_groups, head_dim))
    v = reshape(matmul(x, wv), (b, t, kv_groups, head_dim))
    q = transpose(q, (0, 2, 1, 3))  # [B,H,T,hd]
    k = transpose(k, (0, 2, 1, 3))  # [B,G,T,hd]
    v = transpose(v, (0, 2, 1, 3))
    offset = 0 if cache is None else cache.length
    cos, sin = rope_tables or _rope_tables(t, head_dim, offset, x.data.dtype)
    q = rope(q, cos, sin)
    k = rope(k, cos, sin)
    if cache is None:
        heads = causal_attention(q, k, v)  # [B,H,T,hd]
    else:
        cache.k[layer][:, :, offset : offset + t] = k.data
        cache.v[layer][:, :, offset : offset + t] = v.data
        heads = causal_attention(
            q, Tensor(cache.k[layer]), Tensor(cache.v[layer]), offset + t
        )
    if head_gates is not None:
        heads = mul(heads, reshape(head_gates, (1, n_heads, 1, 1)))
    merged = reshape(transpose(heads, (0, 2, 1, 3)), (b, t, n_heads * head_dim))
    return matmul(merged, wo)


def ffn_block(
    x: Tensor,
    wgate: Tensor,
    wup: Tensor,
    wdown: Tensor,
    channel_gates: Tensor | None = None,
) -> Tensor:
    """Gated-SiLU FFN sublayer on a normalized input."""
    hidden = swiglu(matmul(x, wgate), matmul(x, wup))
    if channel_gates is not None:
        hidden = mul(hidden, channel_gates)
    return matmul(hidden, wdown)


def forward(
    config: ModelConfig,
    params: ParamStore,
    tokens: np.ndarray,
    skip_layers: frozenset[int] | set[int] = frozenset(),
    head_gates: list[Tensor | None] | None = None,
    ffn_gates: list[Tensor | None] | None = None,
    cache: KVCache | None = None,
) -> Tensor:
    """Logits [B,T,V] for token ids [B,T]. Layers in ``skip_layers`` are
    bypassed entirely (their residual contribution omitted). Optional
    per-layer gates multiply head outputs / FFN hidden channels.

    With ``cache`` the tokens continue the cached sequences (positions
    cache.length onward) and are appended to the cache. A cache is for
    inference only: it cannot be used under an active Tape, and its buffers
    must hold the embedding's dtype.
    """
    tokens = np.asarray(tokens)
    bad = set(skip_layers) - set(range(config.depth))
    if bad:
        raise ValueError(f"skip_layers {sorted(bad)} outside [0, {config.depth})")
    if cache is not None:
        if _active_tape() is not None:
            raise RuntimeError("forward with a KV cache cannot run under an active Tape")
        b, t = tokens.shape
        if b != cache.batch:
            raise ValueError(f"batch of {b} sequences for a KV cache of {cache.batch}")
        if cache.k[0].dtype != params["embed"].data.dtype:
            raise ValueError(f"a {cache.k[0].dtype} KV cache for "
                             f"{params['embed'].data.dtype} parameters")
        if cache.length + t > cache.capacity:
            raise ValueError(
                f"{t} tokens do not fit a KV cache holding {cache.length} of "
                f"{cache.capacity} positions"
            )
    x = gather_rows(params["embed"], tokens)
    tables = _rope_tables(tokens.shape[1], config.head_dim,
                          0 if cache is None else cache.length, x.data.dtype)
    for i in range(config.depth):
        if i in skip_layers:
            continue
        p = f"layers.{i}."
        h = rms_norm(x, params[p + "attn_norm"])
        x = add(
            x,
            attention_block(
                h,
                params[p + "wq"],
                params[p + "wk"],
                params[p + "wv"],
                params[p + "wo"],
                config.n_heads,
                config.kv_groups,
                config.head_dim,
                head_gates[i] if head_gates is not None else None,
                cache,
                i,
                tables,
            ),
        )
        f = rms_norm(x, params[p + "ffn_norm"])
        x = add(
            x,
            ffn_block(
                f,
                params[p + "wgate"],
                params[p + "wup"],
                params[p + "wdown"],
                ffn_gates[i] if ffn_gates is not None else None,
            ),
        )
    x = rms_norm(x, params["final_norm"])
    logits = matmul(x, params["head"])
    if cache is not None:
        cache.length += tokens.shape[1]
    return logits


def lm_loss(config: ModelConfig, params: ParamStore, batch: np.ndarray, **forward_kwargs) -> Tensor:
    """Mean next-token cross entropy of one [B, T+1] batch: positions
    [:, :-1] are the inputs and [:, 1:] the targets. ``forward_kwargs``
    (skip_layers, head_gates, ffn_gates) pass through to ``forward``. Under
    an active Tape the result is differentiable."""
    logits = forward(config, params, batch[:, :-1], **forward_kwargs)
    b, t, v = logits.shape
    return softmax_cross_entropy(logits.reshape((b * t, v)), batch[:, 1:].reshape(-1))


def batch_loss(config: ModelConfig, params: ParamStore, batch: np.ndarray, **forward_kwargs) -> float:
    """``lm_loss`` of one batch as a float, for use outside a Tape: the loss
    helper of perplexity, the layer-skip scan and the forgetting scan."""
    return float(lm_loss(config, params, batch, **forward_kwargs).data)


# ---------------------------------------------------------------------------
# inference: greedy decoding
# ---------------------------------------------------------------------------


def generate(
    config: ModelConfig,
    params: ParamStore,
    prefix: np.ndarray,
    n_new: int,
) -> np.ndarray:
    """Greedy continuation of ``prefix`` ids ([T] or [B,T]) by n_new tokens.
    The prefix is prefilled into a KV cache ``PREFILL_CHUNK`` tokens per
    forward; each new token then costs one single-position forward."""
    if n_new < 1:
        raise ValueError(f"n_new must be >= 1, got {n_new}")
    prefix = np.asarray(prefix)
    squeeze = prefix.ndim == 1
    if squeeze:
        prefix = prefix[None, :]
    b, t = prefix.shape
    if t < 1:
        raise ValueError("prefix must contain at least one token")
    cache = KVCache(config, b, t + n_new - 1, params.dtype)  # the last new token is never fed
    for start in range(0, t, PREFILL_CHUNK):
        logits = forward(config, params, prefix[:, start : start + PREFILL_CHUNK], cache=cache)
    cur = logits.data[:, -1].argmax(axis=-1)
    out = [prefix, cur[:, None]]
    for _ in range(n_new - 1):
        cur = forward(config, params, cur[:, None], cache=cache).data[:, -1].argmax(axis=-1)
        out.append(cur[:, None])
    full = np.concatenate(out, axis=1)
    return full[0] if squeeze else full


# ---------------------------------------------------------------------------
# checkpoint file: JSON manifest + raw little-endian float32 or float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"TLMCKPT1"
_PAYLOAD = {name: np.dtype(name).newbyteorder("<") for name in DTYPES}  # "dtype" -> its bytes


def save_checkpoint(path, config: ModelConfig, params: ParamStore) -> tuple[str, int]:
    """Write the checkpoint one tensor at a time, in sorted-name order and the
    parameters' dtype; returns write_atomic's (sha256, byte count). A store
    that does not fit ``config`` raises ValueError and writes nothing."""
    params.validate(config)
    dtype = params.dtype.name
    manifest = json.dumps({"config": config.to_dict(), "dtype": dtype}).encode()
    header = _MAGIC + struct.pack("<Q", len(manifest)) + manifest
    tensors = (np.ascontiguousarray(params.tensors[name].data, dtype=_PAYLOAD[dtype])
               for name in sorted(params.tensors))
    return write_atomic(path, itertools.chain([header], tensors))


def parse_checkpoint(data: bytes) -> tuple[ModelConfig, ParamStore]:
    """A checkpoint file's bytes as its config and parameters: the payload
    holds every tensor of ``param_shapes(config)``, in sorted-name order,
    back to back. Every defect raises a ValueError that names it."""
    magic = data[:8]
    if magic != _MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    if len(data) < 16:
        raise ValueError("checkpoint truncated in its manifest length")
    (mlen,) = struct.unpack_from("<Q", data, 8)
    start = 16 + mlen  # the payload's first byte
    if start > len(data):
        raise ValueError(f"checkpoint manifest length {mlen} exceeds the {len(data) - 16} "
                         f"bytes after it")
    manifest = read_json(data[16:start], "checkpoint manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ValueError("checkpoint manifest must be an object with a 'config' object")
    extra = sorted(set(manifest) - {"config", "dtype"})
    if extra:
        raise ValueError(f"checkpoint manifest has the unknown key {extra[0]!r}")
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ValueError) as err:  # unknown keys or ill-typed values
        raise ValueError(f"checkpoint 'config' is invalid: {err}") from err
    dtype = manifest.get("dtype")
    if not isinstance(dtype, str) or dtype not in _PAYLOAD:
        raise ValueError(f"checkpoint 'dtype' must be one of {DTYPES}, got {dtype!r}")
    if config.depth * config.width > len(data):  # each layer stores over width bytes
        raise ValueError(f"checkpoint config depth {config.depth} at width {config.width} "
                         f"exceeds the file's {len(data)} bytes")
    payload, size, shapes = _PAYLOAD[dtype], len(data) - start, param_shapes(config)
    tensors, offset = {}, 0  # tensors are stored back to back from offset 0
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        nbytes = count * payload.itemsize
        if offset + nbytes > size:
            raise ValueError(f"checkpoint truncated in tensor {name!r}: needs bytes [{offset}, "
                             f"{offset + nbytes}) of a {size}-byte {dtype} payload")
        arr = np.frombuffer(data, dtype=payload, count=count, offset=start + offset)
        tensors[name] = Tensor(arr.reshape(shapes[name]).astype(dtype))
        offset += nbytes
    if size != offset:
        raise ValueError(f"checkpoint has {size - offset} trailing bytes after its last "
                         f"tensor {name!r} of its {dtype} payload")
    return config, ParamStore(tensors)


def load_checkpoint(path) -> tuple[ModelConfig, ParamStore]:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())
