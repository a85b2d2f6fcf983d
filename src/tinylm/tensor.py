"""Dense float32 or float64 tensors with tape-based reverse-mode autodiff.

Everything is numpy under the hood. An op computes in its inputs' dtype:
float64 unless the parameters are float32, and a plain Python number never
promotes a float32 tensor. Operations executed while a Tape is
active (and touching at least one requires_grad tensor) are recorded in
execution order; Tape.gradients walks the record once, in reverse, and
returns the gradients of the leaf tensors. A tape is consumed by its
backward pass.

Memory is freed by reference counting alone, and the record holds no
cycle. A recorded output points at its tape and at its producer node; a node
points at the producer nodes of its inputs (or at the inputs themselves when
they are leaves), never at an output. Each node keeps only what its backward
reads: a shape where that is all it reads, and an operand of a product only
when the other operand's gradient is needed (so a pass through frozen
weights keeps no projection input). The sweep pops each node, drops its
inputs and closure once its backward has run, and drops each intermediate
gradient once it is consumed, so a caller that still holds the loss holds
nothing of the swept graph. A forward that raises inside ``with Tape()``
drops its record the same way.

So at the end of a step every activation is freed, and glibc's malloc would
give the freed top of the heap back to the kernel and fault it in again on
the next step: about 4k minor page faults per mask step for a width-96,
depth-4 model at batch 8 x 32. Importing this module therefore sets two
fixed malloc thresholds, where the C library has ``mallopt``: arrays up to
32 MB come from the heap, and freed heap memory is trimmed only past 64 MB.
Both are needed, because setting the trim threshold alone turns off glibc's
dynamic mmap threshold and every array over 128 KB gets its own ``mmap``.
This holds for every caller, where keeping one step's array (such as its
``logits``) alive until the next step pins the heap top only for the loop
that holds it. It is not a buffer arena either: reusing activation buffers
by hand would take hundreds of lines and alias arrays the tape still reads.

The active tape is thread-local: one forward/backward pair per thread.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Callable, Sequence

import numpy as np


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2**20  # glibc's largest on 64-bit


def _keep_freed_heap() -> bool:
    """Fix the mmap and trim thresholds (see the module docstring); False
    where there is no ``mallopt`` or it refuses a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or no mallopt in it
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold only after the mmap threshold took: alone it makes things worse
    return (
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD) == 1
    )


HEAP_KEPT = _keep_freed_heap()

# (prefix, suffix) of the OpenBLAS entry points in the builds numpy ships
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


def blas_info() -> tuple[str | None, int | None]:
    """The OpenBLAS config string numpy runs (it names the runtime kernel)
    and its current thread count; None for each that cannot be read."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)  # resolves its BLAS's symbols too
    except (OSError, AttributeError):
        return None, None
    for prefix, suffix in _OPENBLAS_NAMES:
        try:
            config = getattr(lib, f"{prefix}get_config{suffix}")
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
        except AttributeError:
            continue
        config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
        return " ".join(config().decode(errors="replace").split()), threads()
    return None, None


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class TapeConsumedError(RuntimeError):
    """Tape.gradients was called on a tape that already ran its backward pass."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is inf or nan."""


DTYPES = ("float64", "float32")  # the compute dtypes, the default first
_KEPT = frozenset(map(np.dtype, DTYPES))


class Tensor:
    """A dense float32 or float64 array, optionally tracked for gradients.

    A float32 or float64 array is kept as given, not copied, so ``.data``
    may be a strided view, such as a transpose's output; reshape, BLAS and
    ufuncs all take one. Anything else becomes float64.
    Tensors are immutable once created; the only sanctioned mutation is an
    optimizer updating ``.data`` in place between forward passes.
    """

    __slots__ = ("data", "requires_grad", "_tape", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _KEPT else data.astype(np.float64)
        self.requires_grad = requires_grad
        self._tape: Tape | None = None  # the tape that recorded it, if any
        self._node: _Node | None = None  # its producer on that tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def copy(self, requires_grad: bool | None = None) -> "Tensor":
        rg = self.requires_grad if requires_grad is None else requires_grad
        return Tensor(self.data.copy(), requires_grad=rg)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all routed through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_operands(self, other)[1]))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


class _Node:
    """One recorded op. ``inputs`` holds a key per input: its producer node
    when that is on the same tape, the input itself when it is a leaf, and
    None when it needs no gradient. ``backward_fn`` maps the output's
    gradient to the inputs'. Both are dropped once the node is swept."""

    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs: tuple, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn

    def drop(self) -> None:
        self.inputs = self.backward_fn = None


_STATE = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


class Tape:
    """Execution record for one forward pass; consumed by one backward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False
        self._released = 0  # ops recorded before the record was released

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        if exc_type is not None:
            # a failed forward has nothing to differentiate: free it now
            for node in self._release():
                node.drop()
            self._consumed = True
        return False

    def __len__(self) -> int:
        """Number of ops recorded, also after the record was released."""
        return self._released + len(self._nodes)

    def _release(self) -> list[_Node]:
        nodes, self._nodes = self._nodes, []
        self._released += len(nodes)
        return nodes

    def gradients(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Reverse sweep from ``loss``; returns grads for every requires_grad
        leaf tensor that influenced it. The tape releases its record as it
        sweeps, so each node and each intermediate gradient is freed as soon
        as it is used. Marks the tape consumed."""
        if self._consumed:
            raise TapeConsumedError("tape already consumed by a backward pass")
        self._consumed = True
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        nodes = self._release()
        # gradients are keyed by producer node, and by tensor for leaves
        root = loss._node if loss._tape is self else loss
        grads: dict = {root: np.ones_like(loss.data)}
        while nodes:
            node = nodes.pop()
            # every consumer of the node's output was recorded later, so was swept already
            g_out = grads.pop(node, None)
            inputs, backward_fn = node.inputs, node.backward_fn
            node.drop()  # a caller holding the output must not hold the graph
            if g_out is None:
                continue
            for key, g_in in zip(inputs, backward_fn(g_out)):
                if key is None or g_in is None:
                    continue
                existing = grads.get(key)
                if existing is None:
                    grads[key] = g_in
                else:
                    grads[key] = existing + g_in
        return grads


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as tensors. An operand that is not a
    Tensor takes the other's dtype, so ``x * 0.5`` stays float32 for a
    float32 ``x``."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype) if isinstance(b, Tensor) else a)
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, b


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap a forward result, recording it when a tape is live and needed.
    ``backward_fn`` holds only what it reads: a shape rather than the tensor
    it came from, and no operand that no requested gradient reads."""
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        keys = tuple(
            None if not t.requires_grad else t._node if t._tape is tape else t
            for t in inputs
        )
        out._tape = tape
        out._node = _Node(keys, backward_fn)
        tape._nodes.append(out._node)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach its shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    shape_a, shape_b = a.shape, b.shape

    def bw(g):
        return (
            _unbroadcast(g, shape_a) if need_a else None,
            _unbroadcast(g, shape_b) if need_b else None,
        )

    return _emit(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    shape_a, shape_b = a.shape, b.shape
    # each operand is kept only for the other one's gradient
    data_a = a.data if need_b else None
    data_b = b.data if need_a else None

    def bw(g):
        return (
            _unbroadcast(g * data_b, shape_a) if need_a else None,
            _unbroadcast(g * data_a, shape_b) if need_b else None,
        )

    return _emit(out, (a, b), bw)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _emit(-a.data, (a,), lambda g: (-g,))


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    p = float(exponent)
    out = a.data**p

    def bw(g):
        return (g * p * a.data ** (p - 1.0),)

    return _emit(out, (a,), bw)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _emit(np.log(a.data), (a,), lambda g: (g / a.data,))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def silu(a) -> Tensor:
    """x * sigmoid(x), the gated-FFN activation."""
    a = _as_tensor(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * sig

    def bw(g):
        return (g * sig * (1.0 + a.data * (1.0 - sig)),)

    return _emit(out, (a,), bw)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(out, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    # a Python int, which does not promote a float32 gradient
    n = a.data.size if axis is None else math.prod(
        shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))
    )

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)

    return _emit(out, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)
    shape_a = a.shape
    return _emit(out, (a,), lambda g: (g.reshape(shape_a),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = np.argsort(axes)
    return _emit(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def getitem(a, key) -> Tensor:
    """Basic (slice/int) indexing with scatter-style backward."""
    a = _as_tensor(a)
    out = a.data[key]
    shape, dtype = a.shape, a.data.dtype

    def bw(g):
        gx = np.zeros(shape, dtype)
        gx[key] += g
        return (gx,)

    return _emit(out, (a,), bw)


def concat(tensors: Sequence["Tensor"], axis: int = 0) -> Tensor:
    tensors = tuple(_as_tensor(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        pieces = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return _emit(out, tensors, bw)


def take(a, indices, axis: int) -> Tensor:
    """Gather along ``axis`` by integer indices (repeats allowed)."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take(a.data, idx, axis=axis)
    shape, dtype = a.shape, a.data.dtype

    def bw(g):
        gx = np.zeros(shape, dtype)
        np.add.at(np.moveaxis(gx, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (gx,)

    return _emit(out, (a,), bw)


def gather_rows(table, ids) -> Tensor:
    """table[V, d] indexed by an integer id array; embedding lookup."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"id out of range: [{ids.min()}, {ids.max()}] vs table rows {table.shape[0]}"
        )
    out = table.data[ids]
    shape, dtype = table.shape, table.data.dtype

    def bw(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _emit(out, (table,), bw)


# ---------------------------------------------------------------------------
# linear algebra and fused network ops
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """A projection ``a[..., k] @ b[k, n]``: one 2-D GEMM over all of a's
    leading axes, in training, scoring and decoding alike."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: need a[..., k] @ b[k, n], got {a.shape} @ {b.shape}")
    a2 = a.data.reshape(-1, a.shape[-1])
    out = (a2 @ b.data).reshape(*a.shape[:-1], -1)
    need_a, need_b = a.requires_grad, b.requires_grad
    shape_a = a.shape
    # each operand is kept only for the other one's gradient: a pass through
    # frozen weights keeps no projection input
    data_a = a2 if need_b else None
    data_b = b.data if need_a else None

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        ga = (g2 @ data_b.T).reshape(shape_a) if need_a else None
        gb = data_a.T @ g2 if need_b else None
        return ga, gb

    return _emit(out, (a, b), bw)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit(out, (a,), bw)


MASK_VALUE = -1e30  # additive causal mask; exp() underflows to exactly 0
RMS_EPS = 1e-6  # rms_normalize and rms_norm add it to the mean square


def causal_attention(q, k, v, length: int | None = None) -> Tensor:
    """softmax(q kᵀ / sqrt(hd) + causal mask) v, recorded as one tape node.

    q is [B,H,T,hd]; k and v are [B,G,S,hd] with H a multiple of G, and
    query head h reads kv head h // (H/G) (G == H is plain MHA). Only keys
    [:length] are read (default S), and query i sits at absolute position
    length - T + i, so it sees keys 0 .. length - T + i. A preallocated
    cache whose first ``length`` rows are filled can thus be read in place.

    Backward reuses the saved probabilities; keys past ``length`` get zero
    gradient. With whole keys (length == S) every GEMM sees the operand
    layouts of the unfused composition (q @ contiguous kᵀ, scale, mask,
    softmax, @ v), so forward and backward are bit-identical to it.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 4 or k.data.ndim != 4 or k.shape != v.shape:
        raise ShapeError(f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    b, h, t, hd = q.shape
    _, g, s, _ = k.shape
    if k.shape[0] != b or k.shape[3] != hd or h % g != 0:
        raise ShapeError(f"causal_attention: q {q.shape} does not fit k/v {k.shape}")
    length = s if length is None else int(length)
    if not 1 <= t <= length <= s:
        raise ShapeError(f"causal_attention: need 1 <= T={t} <= length={length} <= S={s}")
    r = h // g
    scale = 1.0 / hd**0.5
    q5 = q.data.reshape(b, g, r, t, hd)
    k5 = k.data[:, :, None, :length]  # [B,G,1,L,hd], broadcast over the group's heads
    v5 = v.data[:, :, None, :length]
    kt = np.swapaxes(k5, -1, -2)
    if length == s:
        # whole keys (training, scoring) get the unfused chain's contiguous
        # kᵀ, which keeps results bit-identical to it; a cache prefix is read
        # in place, so a decode step copies nothing
        kt = np.ascontiguousarray(kt)
    p = q5 @ kt
    p *= scale
    if t > 1:
        p += np.triu(np.full((t, length), MASK_VALUE, p.dtype), k=length - t + 1)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v5).reshape(b, h, t, hd)
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad
    q_shape, k_shape = q.shape, k.shape
    # keep only what the requested gradients read: dq reads kᵀ, dk reads q,
    # and both read v
    if not need_q:
        kt = None
    if not need_k:
        q5 = None
    if not (need_q or need_k):
        v5 = None

    def fold(x):
        """[B,G,r,L,hd] -> [B,G,S,hd]: sum over each group's query heads."""
        x = x[:, :, 0] if r == 1 else x.sum(axis=2)
        if length == s:
            return x
        full = np.zeros(k_shape, x.dtype)
        full[:, :, :length] = x
        return full

    def bw(g_out):
        g5 = g_out.reshape(b, g, r, t, hd)
        dv = fold(np.swapaxes(p, -1, -2) @ g5) if need_v else None
        if v5 is None:
            return None, None, dv
        dp = g5 @ np.swapaxes(v5, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= scale
        dq = (ds @ np.swapaxes(kt, -1, -2)).reshape(q_shape) if need_q else None
        dk = fold(np.swapaxes(np.swapaxes(q5, -1, -2) @ ds, -1, -2)) if need_k else None
        return dq, dk, dv

    return _emit(out, (q, k, v), bw)


def rope(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position encoding as one tape node.

    Rotates the (first-half, second-half) pairs of x's last axis: the output
    halves are x1*c - x2*s and x2*c + x1*s. x is [..., T, hd]; cos and sin
    are [T, hd // 2] tables, broadcast over the leading axes. Backward is
    the inverse rotation. Both directions compute x*[c, c] + swap_halves(x)
    * [-s, s] (backward with [s, -s]) in full-width passes: passes over one
    half at a time run numpy inner loops only hd/2 long, which costs more
    than the arithmetic. x1*c + x2*(-s) equals x1*c - x2*s exactly in IEEE
    arithmetic, so forward and backward are bit-identical to composing the
    rotation from slices, products, sums and a concat.
    """
    x = _as_tensor(x)
    half = x.shape[-1] // 2
    if x.data.ndim < 2 or x.shape[-1] % 2 or not cos.shape == sin.shape == (x.shape[-2], half):
        raise ShapeError(f"rope: x {x.shape} with tables {cos.shape} and {sin.shape}")
    cc = np.concatenate((cos, cos), axis=-1)
    signed_sin = np.concatenate((-sin, sin), axis=-1)

    def rotate(a, s):
        """a*[c, c] + swap_halves(a)*s, with s [-sin, sin] or [sin, -sin]."""
        out = np.concatenate((a[..., half:], a[..., :half]), axis=-1)
        out *= s
        out += a * cc
        return out

    return _emit(rotate(x.data, signed_sin), (x,), lambda g: (rotate(g, -signed_sin),))


def rms_normalize(a) -> Tensor:
    """Scale rows (last axis) to unit RMS; multiply by a learned scale outside."""
    a = _as_tensor(a)
    n = a.shape[-1]
    ms = (a.data * a.data).mean(axis=-1, keepdims=True) + RMS_EPS
    s = ms**-0.5
    out = a.data * s

    def bw(g):
        xg = (a.data * g).sum(axis=-1, keepdims=True)
        return (s * (g - a.data * (xg * s * s / n)),)

    return _emit(out, (a,), bw)


def rms_norm(x, scale) -> Tensor:
    """rms_normalize(x) * scale as one tape node; scale is [d] for x [..., d].

    Forward and backward evaluate the same expressions, in the same order, as
    that two-op composition, so they are bit-identical to it. The output is
    the only new [..., d] array: backward recomputes the normalized x rather
    than keeping it, so fewer large arrays are live at once.
    """
    x, scale = _as_tensor(x), _as_tensor(scale)
    n = x.shape[-1]
    ms = (x.data * x.data).mean(axis=-1, keepdims=True) + RMS_EPS
    s = ms**-0.5
    out = x.data * s
    out *= scale.data
    need_x, need_scale = x.requires_grad, scale.requires_grad

    def bw(g):
        g_scale = _unbroadcast(g * (x.data * s), scale.shape) if need_scale else None
        if not need_x:
            return None, g_scale
        g_normed = g * scale.data
        xg = (x.data * g_normed).sum(axis=-1, keepdims=True)
        return s * (g_normed - x.data * (xg * s * s / n)), g_scale

    return _emit(out, (x, scale), bw)


def swiglu(gate, up) -> Tensor:
    """silu(gate) * up, the gated-FFN hidden activation, as one tape node.

    gate and up have the same shape. Forward and backward evaluate the same
    expressions, in the same order, as that two-op composition, so they are
    bit-identical to it. The output is the only new array of that shape:
    backward recomputes the sigmoid rather than keeping it, so fewer large
    arrays are live at once.
    """
    gate, up = _as_tensor(gate), _as_tensor(up)
    if gate.shape != up.shape:
        raise ShapeError(f"swiglu: gate {gate.shape} and up {up.shape} differ")
    need_gate, need_up = gate.requires_grad, up.requires_grad
    gate_data = gate.data
    up_data = up.data if need_gate else None  # only the gate's gradient reads it

    def sigmoid():
        """1 / (1 + exp(-gate)), computed in one new array."""
        sig = np.negative(gate_data)
        np.exp(sig, out=sig)
        sig += 1.0
        return np.divide(1.0, sig, out=sig)

    out = sigmoid()
    out *= gate_data
    out *= up.data

    def bw(g):
        sig = sigmoid()
        g_gate = g * up_data * sig * (1.0 + gate_data * (1.0 - sig)) if need_gate else None
        return g_gate, g * (gate_data * sig) if need_up else None

    return _emit(out, (gate, up), bw)


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]; max-stabilized.

    logits: [N, V]; targets: integer ids [N].
    """
    logits = _as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.intp).reshape(-1)
    n, v = logits.shape
    if tgt.shape[0] != n:
        raise ShapeError(f"targets length {tgt.shape[0]} != logits rows {n}")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise IndexError(f"target id out of range for vocab {v}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    rows = e.sum(axis=1, keepdims=True)
    out = np.asarray((np.log(rows[:, 0]) - z[np.arange(n), tgt]).mean())

    def bw(g):
        p = e / rows
        p[np.arange(n), tgt] -= 1.0
        return (p * (g / n),)

    return _emit(out, (logits,), bw)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    point: Tensor,
    h: float = 1e-3,
) -> float:
    """Max over coordinates of |analytic - central difference| / (|cd| + 1e-6).

    ``f`` maps a tensor to a scalar Tensor. The analytic gradient comes from
    the tape; the central differences use the fourth-order five-point
    stencil (f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h)) / 12h, exact for
    polynomials up to degree 4, re-evaluating ``f`` at each point.
    The 1e-6 floors the denominator so coordinates with a near-zero true
    derivative are judged on absolute error at that scale.
    """
    x = Tensor(point.data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f(x)
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("f(point) is not finite")
    analytic = tape.gradients(loss).get(x)
    if analytic is None:
        analytic = np.zeros(x.shape)

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        values = []
        for step in (-2.0, -1.0, 1.0, 2.0):
            flat[i] = orig + step * h
            values.append(float(f(Tensor(x.data)).data))
        flat[i] = orig
        if not np.isfinite(values).all():
            raise NonFiniteError(f"f not finite near coordinate {i}")
        cd = (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) / (12.0 * h)
        err = abs(analytic.reshape(-1)[i] - cd) / (abs(cd) + 1e-6)
        worst = max(worst, err)
    return worst
