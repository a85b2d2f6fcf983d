import math
import weakref
import zlib

import numpy as np
import pytest

from tinylm.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    TapeConsumedError,
    Tensor,
    add,
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


def test_matmul_identity():
    b = Tensor([[5.0, 1.0], [2.0, 7.0]])
    out = matmul(Tensor(np.eye(2)), b)
    assert np.array_equal(out.data, b.data)


def test_matmul_hand_product():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_zero():
    out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_matmul_is_one_2d_gemm_over_leading_axes():
    rng = np.random.default_rng(13)
    w = rng.normal(size=(3, 4))
    # a decode step, a training batch, plain rows
    for shape in [(5, 1, 3), (4, 6, 3), (7, 3)]:
        a = rng.normal(size=shape)
        out = matmul(Tensor(a), Tensor(w)).data
        assert out.shape == (*shape[:-1], 4)
        assert np.array_equal(out, (a.reshape(-1, 3) @ w).reshape(*shape[:-1], 4))
    a = rng.normal(size=(4, 6, 3))
    probe = Tensor(rng.uniform(-1, 1, size=(4, 6, 4)))
    err_a = finite_diff_check(lambda t: tsum(mul(matmul(t, Tensor(w)), probe)), Tensor(a))
    err_w = finite_diff_check(lambda t: tsum(mul(matmul(Tensor(a), t), probe)), Tensor(w))
    assert err_a < 1e-4 and err_w < 1e-4
    for bad in [(3,), (2, 3, 4)]:
        with pytest.raises(ShapeError, match=rf"\(4, 6, 3\) @ \({bad[0]},"):
            matmul(Tensor(a), Tensor(np.ones(bad)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
    assert loss.item() == pytest.approx(math.log(4.0), rel=1e-12)


def test_cross_entropy_hand_value():
    # -log softmax([10, -10])[0] = log(1 + e^-20) = 2.0611536e-9
    loss = softmax_cross_entropy(Tensor([[10.0, -10.0]]), [0])
    assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
    assert loss.item() == pytest.approx(2.061153622e-9, rel=1e-6)


def test_cross_entropy_single_class():
    loss = softmax_cross_entropy(Tensor([[3.0], [7.0]]), [0, 0])
    assert loss.item() == 0.0


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        softmax_cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])


def test_backward_linear_gives_ones():
    w = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(w)
    grads = tape.gradients(loss)
    assert np.array_equal(grads[w], np.ones((3, 4)))


def test_backward_square_hand_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(w, w))
    grads = tape.gradients(loss)
    assert np.allclose(grads[w], [2.0, 4.0], rtol=0, atol=0)


def test_backward_constant_loss_no_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0])
    with Tape() as tape:
        loss = tsum(mul(c, c)) + 0.0 * tsum(w)
    grads = tape.gradients(loss)
    assert np.array_equal(grads[w], np.zeros(2))


def test_backward_twice_raises():
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(w)
    tape.gradients(loss)
    with pytest.raises(TapeConsumedError):
        tape.gradients(loss)


def test_fan_out_accumulates():
    w = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(add(mul(w, w), w))  # w^2 + w -> 2w + 1 = 7
    assert tape.gradients(loss)[w] == pytest.approx([7.0])


def test_finite_diff_quadratic():
    err = finite_diff_check(lambda t: tsum(mul(t, t)), Tensor([3.0]))
    assert err < 1e-6


def test_finite_diff_linear_exact():
    err = finite_diff_check(lambda t: tsum(t), Tensor([0.3, -1.2, 2.0]), h=1e-4)
    assert err < 1e-10


def test_finite_diff_cross_entropy():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(size=(4, 8)))
    targets = rng.integers(0, 8, size=4)
    err = finite_diff_check(lambda t: softmax_cross_entropy(t, targets), logits)
    assert err < 1e-4


def test_finite_diff_nonfinite_raises():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            finite_diff_check(lambda t: log(t), Tensor([-1.0]))


def test_softmax_rows_normalized():
    rng = np.random.default_rng(1)
    for _ in range(20):
        out = softmax(Tensor(rng.normal(size=(5, 9), scale=4.0))).data
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12


def test_forward_determinism():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(6, 6))
    for a in (rng.normal(size=(6, 6)), rng.normal(size=(3, 8, 6))):
        first = matmul(Tensor(a), Tensor(b)).data
        for _ in range(3):
            again = matmul(Tensor(a.copy()), Tensor(b.copy())).data
            assert np.array_equal(first, again)


def _scalarized(op, n_inputs=1):
    """Wrap an op into a scalar function of its first input for grad checks."""

    def build(case_rng, shape):
        extras = [Tensor(case_rng.uniform(-2, 2, size=shape)) for _ in range(n_inputs - 1)]
        probe = Tensor(case_rng.uniform(-2, 2, size=shape))

        def f(t):
            return tsum(mul(op(t, *extras), probe))

        return f

    return build


OPS_UNARY = [
    ("neg", lambda t: neg(t), (-2.0, 2.0)),
    ("exp", lambda t: exp(t), (-2.0, 2.0)),
    ("log", lambda t: log(t), (0.5, 2.5)),
    ("sigmoid", lambda t: sigmoid(t), (-2.0, 2.0)),
    ("silu", lambda t: silu(t), (-2.0, 2.0)),
    ("power3", lambda t: power(t, 3.0), (-2.0, 2.0)),
    ("sum", lambda t: reshape(tsum(t, axis=1, keepdims=True), (3, 1)), (-2.0, 2.0)),
    ("mean", lambda t: tmean(t, axis=0, keepdims=True), (-2.0, 2.0)),
    ("reshape", lambda t: reshape(t, (4, 3)), (-2.0, 2.0)),
    ("transpose", lambda t: transpose(t, (1, 0)), (-2.0, 2.0)),
    ("getitem", lambda t: getitem(t, (slice(1, 3), slice(None))), (-2.0, 2.0)),
    ("take", lambda t: take(t, [0, 2, 2, 1], axis=0), (-2.0, 2.0)),
    ("softmax", lambda t: softmax(t), (-2.0, 2.0)),
    ("rms_normalize", lambda t: rms_normalize(t), (-2.0, 2.0)),
    ("concat_self", lambda t: concat([t, mul(t, 2.0)], axis=1), (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,box", OPS_UNARY, ids=[o[0] for o in OPS_UNARY])
def test_unary_op_gradients_100_cases(name, op, box):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lo, hi = box
    for _ in range(100):
        x = Tensor(rng.uniform(lo, hi, size=(3, 4)))
        probe = Tensor(rng.uniform(-1, 1, size=op(Tensor(x.data)).shape))
        err = finite_diff_check(lambda t: tsum(mul(op(t), probe)), x)
        assert err < 1e-4, f"{name}: {err}"


@pytest.mark.parametrize("side", ["left", "right"])
def test_binary_op_gradients_100_cases(side):
    rng = np.random.default_rng(99 if side == "left" else 100)
    for _ in range(100):
        probe = Tensor(rng.uniform(-1, 1, size=(3, 3)))
        if side == "left":
            other = Tensor(rng.uniform(-2, 2, size=(4, 3)))
            f = lambda t: tsum(mul(matmul(t, other), probe))
            shape = (3, 4)
        else:
            other = Tensor(rng.uniform(-2, 2, size=(3, 4)))
            f = lambda t: tsum(mul(matmul(other, t), probe))
            shape = (4, 3)
        err = finite_diff_check(f, Tensor(rng.uniform(-2, 2, size=shape)))
        assert err < 1e-4


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(11)
    for _ in range(100):
        small = Tensor(rng.uniform(-2, 2, size=(4,)))
        probe = Tensor(rng.uniform(-1, 1, size=(3, 4)))

        def f(t):
            return tsum(mul(add(mul(t, small), small), probe))

        err = finite_diff_check(f, Tensor(rng.uniform(-2, 2, size=(3, 4))))
        assert err < 1e-4


def test_gather_rows_gradient():
    rng = np.random.default_rng(12)
    ids = np.array([[0, 2], [2, 1]])
    for _ in range(100):
        probe = Tensor(rng.uniform(-1, 1, size=(2, 2, 3)))

        def f(t):
            return tsum(mul(gather_rows(t, ids), probe))

        err = finite_diff_check(f, Tensor(rng.uniform(-2, 2, size=(4, 3))))
        assert err < 1e-4


def test_gather_rows_id_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.ones((4, 3))), np.array([0, 4]))


def test_tensor_shape_invariant():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.prod(t.shape) == t.data.size
    assert t.data.flags["C_CONTIGUOUS"]


def test_transpose_is_a_view():
    # a Tensor keeps a strided array as it is: the attention block's q/k/v
    # transposes copy nothing
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    out = transpose(x, (1, 0, 2))
    assert np.shares_memory(out.data, x.data)
    assert np.array_equal(out.data, np.transpose(x.data, (1, 0, 2)))


def test_values_finite_after_masked_softmax():
    scores = Tensor(np.zeros((2, 2)))
    masked = add(scores, Tensor([[0.0, -1e30], [0.0, 0.0]]))
    out = softmax(masked).data
    assert np.isfinite(out).all()
    assert out[0, 1] == 0.0


def test_tapes_are_thread_local():
    import threading

    w = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
    results = {}
    errors = []

    def worker(scale):
        try:
            with Tape() as tape:
                loss = tsum(mul(mul(w, w), float(scale)))
            results[scale] = tape.gradients(loss)[w]
        except Exception as err:  # noqa: BLE001 - surfaced via the main thread
            errors.append(err)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2, 3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for scale, grad in results.items():
        assert np.array_equal(grad, 2.0 * scale * w.data)


# ------------------------------------------------------------ causal_attention


def _reference_attention(q, k, v, length):
    """Loop over heads and queries: query i at absolute position
    length - T + i reads keys 0 .. that position of its kv group."""
    b, h, t, hd = q.shape
    r = h // k.shape[1]
    out = np.zeros(q.shape)
    for bi in range(b):
        for hi in range(h):
            for i in range(t):
                pos = length - t + i
                keys, vals = k[bi, hi // r, : pos + 1], v[bi, hi // r, : pos + 1]
                s = keys @ q[bi, hi, i] / math.sqrt(hd)
                w = np.exp(s - s.max())
                out[bi, hi, i] = (w / w.sum()) @ vals
    return out


# (b, h, g, t, s, hd, length): MHA, grouped KV (H=4, G=2), one query after a
# history (a decode step), and a cache prefix (length < S)
ATTENTION_CASES = {
    "mha": (2, 2, 2, 3, 3, 4, None),
    "gqa": (1, 4, 2, 3, 3, 2, None),
    "t1": (2, 2, 1, 1, 4, 2, None),
    "prefix": (1, 2, 1, 2, 5, 2, 3),
}


def _attention_inputs(rng, b, h, g, t, s, hd):
    return (rng.uniform(-2, 2, size=(b, h, t, hd)), rng.uniform(-2, 2, size=(b, g, s, hd)),
            rng.uniform(-2, 2, size=(b, g, s, hd)))


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_causal_attention_matches_reference(case):
    b, h, g, t, s, hd, length = ATTENTION_CASES[case]
    q, k, v = _attention_inputs(np.random.default_rng(21), b, h, g, t, s, hd)
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), length).data
    ref = _reference_attention(q, k, v, s if length is None else length)
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("wrt", ["q", "k", "v"])
@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_causal_attention_gradients(case, wrt):
    b, h, g, t, s, hd, length = ATTENTION_CASES[case]
    rng = np.random.default_rng(22)
    index = "qkv".index(wrt)
    for _ in range(10):
        inputs = _attention_inputs(rng, b, h, g, t, s, hd)
        probe = Tensor(rng.uniform(-1, 1, size=(b, h, t, hd)))

        def f(x):
            args = [Tensor(a) for a in inputs]
            args[index] = x
            return tsum(mul(causal_attention(*args, length), probe))

        err = finite_diff_check(f, Tensor(inputs[index]))
        assert err < 1e-4, f"{case} d/d{wrt}: {err}"


def test_causal_attention_never_reads_keys_past_length():
    b, h, g, t, s, hd, length = ATTENTION_CASES["prefix"]
    q, k, v = _attention_inputs(np.random.default_rng(23), b, h, g, t, s, hd)
    qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
    with Tape() as tape:
        out = causal_attention(qt, kt, vt, length)
        loss = tsum(mul(out, out))
    grads = tape.gradients(loss)
    assert not grads[kt][:, :, length:].any() and not grads[vt][:, :, length:].any()
    junk_k, junk_v = k.copy(), v.copy()
    junk_k[:, :, length:] = np.nan
    junk_v[:, :, length:] = np.nan
    again = causal_attention(Tensor(q), Tensor(junk_k), Tensor(junk_v), length).data
    assert np.array_equal(again, out.data)


@pytest.mark.parametrize(
    "q_shape, kv_shape, length",
    [
        ((1, 3, 2, 2), (1, 2, 2, 2), None),  # heads not a multiple of kv groups
        ((1, 2, 2, 2), (1, 1, 2, 4), None),  # head_dim differs
        ((1, 2, 3, 2), (1, 1, 4, 2), 2),  # more queries than keys read
        ((1, 2, 1, 2), (1, 1, 4, 2), 5),  # length past the buffer
    ],
)
def test_causal_attention_rejects_bad_shapes(q_shape, kv_shape, length):
    with pytest.raises(ShapeError):
        causal_attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(kv_shape)),
                         Tensor(np.zeros(kv_shape)), length)


# ------------------------------------------------------------ fused layer ops


def _rope_chain(x, cos, sin):
    """The rotation composed from slices, products, sums and a concat."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return concat([mul(x1, cos) - mul(x2, sin), mul(x2, cos) + mul(x1, sin)], axis=-1)


def _rope_tables(rng, t, half):
    angles = rng.uniform(-math.pi, math.pi, size=(t, half))
    return np.cos(angles), np.sin(angles)


def _value_and_grads(build, arrays):
    """build(*leaves) under a tape, reduced against a fixed random probe:
    its output and the gradient of every leaf."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*leaves)
        probe = np.random.default_rng(0).uniform(-1, 1, size=out.shape)
        loss = tsum(mul(out, probe))
    grads = tape.gradients(loss)
    return out.data, [grads[t] for t in leaves]


def _assert_bit_identical(fused, chain, arrays):
    out_fused, grads_fused = _value_and_grads(fused, arrays)
    out_chain, grads_chain = _value_and_grads(chain, arrays)
    assert np.array_equal(out_fused, out_chain)
    assert len(grads_fused) == len(grads_chain) == len(arrays)
    for g_fused, g_chain in zip(grads_fused, grads_chain):
        assert np.array_equal(g_fused, g_chain)


# [B, heads, T, hd]: query heads, grouped kv heads (G=2 of H=4), one position
ROPE_SHAPES = {"heads": (2, 4, 5, 6), "kv_groups": (2, 2, 5, 6), "t1": (3, 4, 1, 6)}


@pytest.mark.parametrize("case", ROPE_SHAPES)
def test_rope_bit_identical_to_composed_rotation(case):
    rng = np.random.default_rng(31)
    shape = ROPE_SHAPES[case]
    cos, sin = _rope_tables(rng, shape[2], shape[3] // 2)
    x = rng.uniform(-2, 2, size=shape)
    _assert_bit_identical(lambda t: rope(t, cos, sin), lambda t: _rope_chain(t, cos, sin), [x])


@pytest.mark.parametrize("kv_groups", [2, 4])
def test_rope_bit_identical_under_grouped_kv_attention(kv_groups):
    # keys feed causal_attention, whose dk fold hands rope a non-contiguous
    # gradient (strides of a swapaxes view); check that layout is what arrives
    rng = np.random.default_rng(34)
    q, k, v = (rng.uniform(-2, 2, size=(2, h, 5, 6)) for h in (4, kv_groups, kv_groups))
    cos, sin = _rope_tables(rng, 5, 3)
    k_leaf = Tensor(k, requires_grad=True)
    with Tape() as tape:
        loss = tsum(causal_attention(Tensor(q), k_leaf, Tensor(v)))
    assert not tape.gradients(loss)[k_leaf].flags["C_CONTIGUOUS"]
    _assert_bit_identical(
        lambda qt, kt: causal_attention(qt, rope(kt, cos, sin), Tensor(v)),
        lambda qt, kt: causal_attention(qt, _rope_chain(kt, cos, sin), Tensor(v)),
        [q, k],
    )


def test_rope_bit_identical_at_a_decode_step():
    # one position, tables taken at a nonzero offset, as forward builds them
    # for a token appended to a KV cache
    from tinylm.arch import _rope_tables as model_tables

    cos, sin = model_tables(1, 8, offset=37)
    x = np.random.default_rng(35).uniform(-2, 2, size=(3, 2, 1, 8))
    _assert_bit_identical(lambda t: rope(t, cos, sin), lambda t: _rope_chain(t, cos, sin), [x])


def test_rope_backward_is_inverse_rotation():
    rng = np.random.default_rng(32)
    cos, sin = _rope_tables(rng, 4, 3)
    x = Tensor(rng.uniform(-2, 2, size=(2, 3, 4, 6)), requires_grad=True)
    with Tape() as tape:
        out = rope(x, cos, sin)
        loss = tsum(mul(out, Tensor(out.data)))  # gradient: the rotated x itself
    assert np.allclose(tape.gradients(loss)[x], x.data, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x_shape, cos_shape", [((2, 3, 5), (3, 2)), ((2, 3, 4), (3, 3)),
                                                ((2, 3, 4), (2, 2))])
def test_rope_rejects_bad_shapes(x_shape, cos_shape):
    table = np.ones(cos_shape)
    with pytest.raises(ShapeError):
        rope(Tensor(np.zeros(x_shape)), table, table)


# each case: x shape and how the scale is built from its leaf; the residual
# case feeds x to a later op too, so gradients accumulate at x in sweep order
RMS_NORM_CASES = {
    "leaf_scale": ((2, 5, 8), lambda w: w, False),
    "t1": ((3, 1, 8), lambda w: w, False),
    "computed_scale": ((2, 5, 8), lambda w: exp(mul(w, 0.5)), False),
    "residual": ((2, 5, 8), lambda w: w, True),
}


@pytest.mark.parametrize("case", RMS_NORM_CASES)
def test_rms_norm_bit_identical_to_normalize_then_scale(case):
    shape, make_scale, residual = RMS_NORM_CASES[case]
    rng = np.random.default_rng(33)
    arrays = [rng.uniform(-2, 2, size=shape), rng.uniform(0.5, 1.5, size=shape[-1:])]

    def wrap(norm):
        def build(x, w):
            out = norm(x, make_scale(w))
            return add(x, out) if residual else out
        return build

    _assert_bit_identical(wrap(rms_norm), wrap(lambda x, s: mul(rms_normalize(x), s)), arrays)


@pytest.mark.parametrize("shape", [(2, 5, 8), (3, 1, 8)], ids=["tokens", "t1"])
def test_swiglu_bit_identical_to_silu_times_up(shape):
    rng = np.random.default_rng(34)
    arrays = [rng.uniform(-3, 3, size=shape), rng.uniform(-2, 2, size=shape)]
    _assert_bit_identical(swiglu, lambda g, u: mul(silu(g), u), arrays)


def test_fused_ops_skip_gradients_nobody_needs():
    rng = np.random.default_rng(35)
    x = Tensor(rng.uniform(-2, 2, size=(2, 3, 4)), requires_grad=True)
    const = Tensor(rng.uniform(-2, 2, size=(2, 3, 4)))
    with Tape() as tape:
        loss = tsum(add(rms_norm(x, Tensor(np.ones(4))), swiglu(const, x)))
    grads = tape.gradients(loss)
    assert set(grads) == {x}
    with pytest.raises(ShapeError):
        swiglu(x, Tensor(np.zeros((2, 3, 5))))


def _two_layer_loss(x, w1, w2):
    hidden = silu(matmul(x, w1))
    return tsum(mul(matmul(hidden, w2), matmul(hidden, w2))), hidden


def _leaf_params(seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 3)))
    w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    return x, w1, w2


def test_backward_frees_activations_without_cyclic_gc(no_cyclic_gc):
    x, w1, w2 = _leaf_params()
    with Tape() as tape:
        loss, hidden = _two_layer_loss(x, w1, w2)
    activation = weakref.ref(hidden.data)
    del hidden
    assert activation() is not None  # the tape's record holds it until backward
    grads = tape.gradients(loss)
    del loss
    assert activation() is None
    assert set(grads) == {w1, w2}


def test_swept_graph_is_freed_while_the_loss_is_held(no_cyclic_gc):
    # the loss points at its producer node, so a swept node must let go of
    # its inputs and closure, or the caller's loss keeps every activation
    x, w1, w2 = _leaf_params()
    with Tape() as tape:
        loss, hidden = _two_layer_loss(x, w1, w2)
    activation = weakref.ref(hidden.data)
    del hidden
    grads = tape.gradients(loss)
    assert activation() is None
    assert set(grads) == {w1, w2}
    assert np.isfinite(loss.data)


def test_len_counts_recorded_ops_after_backward():
    x, w1, w2 = _leaf_params()
    with Tape() as tape:
        loss, _ = _two_layer_loss(x, w1, w2)
    recorded = len(tape)
    assert recorded == 6  # matmul, silu, matmul, matmul, mul, sum
    tape.gradients(loss)
    assert len(tape) == recorded


def test_gradient_map_holds_only_leaves():
    x, w1, w2 = _leaf_params()
    x.requires_grad = True
    with Tape() as tape:
        loss, _ = _two_layer_loss(x, w1, w2)
    grads = tape.gradients(loss)
    assert set(grads) == {x, w1, w2}
    assert all(t._tape is None for t in grads)


def test_failed_forward_releases_tape(no_cyclic_gc):
    x, w1, w2 = _leaf_params()
    refs = []
    with pytest.raises(ShapeError):
        with Tape() as tape:
            loss, hidden = _two_layer_loss(x, w1, w2)
            refs.append(weakref.ref(hidden.data))
            del hidden
            matmul(loss.reshape((1, 1)), w1)  # inner dimensions disagree
    assert len(tape) == 7  # the six ops of the loss and the reshape
    del loss
    assert refs[0]() is None
    with pytest.raises(TapeConsumedError):
        tape.gradients(Tensor(0.0))
