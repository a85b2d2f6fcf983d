import gc
import math
import weakref

import numpy as np
import pytest

from tinylm.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    TapeConsumedError,
    Tensor,
    add,
    backward,
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
    rms_normalize,
    sigmoid,
    silu,
    softmax,
    softmax_cross_entropy,
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
    with Tape():
        loss = tsum(w)
    grads = backward(loss)
    assert np.array_equal(grads[w], np.ones((3, 4)))


def test_backward_square_hand_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = tsum(mul(w, w))
    grads = backward(loss)
    assert np.allclose(grads[w], [2.0, 4.0], rtol=0, atol=0)


def test_backward_constant_loss_no_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0])
    with Tape():
        loss = tsum(mul(c, c)) + 0.0 * tsum(w)
    grads = backward(loss)
    assert np.array_equal(grads[w], np.zeros(2))


def test_backward_twice_raises():
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(w)
    tape.gradients(loss)
    with pytest.raises(TapeConsumedError):
        tape.gradients(loss)


def test_backward_without_tape_raises():
    w = Tensor([1.0], requires_grad=True)
    loss = tsum(w)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_fan_out_accumulates():
    w = Tensor([3.0], requires_grad=True)
    with Tape():
        loss = tsum(add(mul(w, w), w))  # w^2 + w -> 2w + 1 = 7
    assert backward(loss)[w] == pytest.approx([7.0])


def test_finite_diff_quadratic():
    err = finite_diff_check(lambda t: tsum(mul(t, t)), Tensor([3.0]), h=1e-5)
    assert err < 1e-6


def test_finite_diff_linear_exact():
    err = finite_diff_check(lambda t: tsum(t), Tensor([0.3, -1.2, 2.0]), h=1e-4)
    assert err < 1e-10


def test_finite_diff_cross_entropy():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(size=(4, 8)))
    targets = rng.integers(0, 8, size=4)
    err = finite_diff_check(
        lambda t: softmax_cross_entropy(t, targets), logits, h=1e-5
    )
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
    a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
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
    rng = np.random.default_rng(hash(name) % 2**32)
    lo, hi = box
    for _ in range(100):
        x = Tensor(rng.uniform(lo, hi, size=(3, 4)))
        probe = Tensor(rng.uniform(-1, 1, size=op(Tensor(x.data)).shape))
        err = finite_diff_check(lambda t: tsum(mul(op(t), probe)), x, h=1e-5)
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
        err = finite_diff_check(f, Tensor(rng.uniform(-2, 2, size=shape)), h=1e-5)
        assert err < 1e-4


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(11)
    for _ in range(100):
        small = Tensor(rng.uniform(-2, 2, size=(4,)))
        probe = Tensor(rng.uniform(-1, 1, size=(3, 4)))

        def f(t):
            return tsum(mul(add(mul(t, small), small), probe))

        err = finite_diff_check(f, Tensor(rng.uniform(-2, 2, size=(3, 4))), h=1e-5)
        assert err < 1e-4


def test_gather_rows_gradient():
    rng = np.random.default_rng(12)
    ids = np.array([[0, 2], [2, 1]])
    for _ in range(100):
        probe = Tensor(rng.uniform(-1, 1, size=(2, 2, 3)))

        def f(t):
            return tsum(mul(gather_rows(t, ids), probe))

        err = finite_diff_check(f, Tensor(rng.uniform(-2, 2, size=(4, 3))), h=1e-5)
        assert err < 1e-4


def test_gather_rows_id_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.ones((4, 3))), np.array([0, 4]))


def test_tensor_shape_invariant():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.prod(t.shape) == t.data.size
    assert t.data.flags["C_CONTIGUOUS"]


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


# ------------------------------------------------------ release by refcount


@pytest.fixture
def no_cyclic_gc():
    """Run with the cyclic collector off, so only refcounting frees memory."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
