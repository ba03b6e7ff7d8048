import sys
import threading

import numpy as np
import pytest

from protobank import numerics as nm
from protobank.errors import NumericError, ShapeError
from protobank.numerics import OptimizerState, Tensor, grad_check, opt_step, zero_grads


def test_softmax_uniform():
    out = nm.softmax(Tensor([1.0, 1.0, 1.0]), axis=0)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        out = nm.softmax(Tensor(rng.normal(size=(4, 7)) * 10), axis=1)
        assert np.all(out.data > 0)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5))
    a = nm.softmax(Tensor(x), axis=1).data
    b = nm.softmax(Tensor(x + 123.456), axis=1).data
    assert np.allclose(a, b, atol=1e-12)


def single_pass_softmax(a, axis: int = -1) -> Tensor:
    """Softmax with a fresh array for every step (oracle for the in-place one)."""
    a = nm._wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return nm._node(out, (a,), vjp)


@pytest.mark.parametrize("shape, axis", [((7,), 0), ((5, 9), 1), ((5, 9), 0), ((3, 1), 1)])
def test_softmax_in_place_matches_oracle_and_keeps_input(shape, axis):
    rng = np.random.default_rng(sum(shape) + axis)
    x = rng.normal(size=shape) * 30
    x.flat[0] = -0.0
    a = Tensor(x.copy(), requires_grad=True)
    b = Tensor(x.copy(), requires_grad=True)
    got, want = nm.softmax(a, axis=axis), single_pass_softmax(b, axis=axis)
    assert a.data.tobytes() == x.tobytes()
    assert got.data.tobytes() == want.data.tobytes()
    g = rng.normal(size=shape)
    nm.reduce_sum(nm.mul(got, Tensor(g))).backward()
    nm.reduce_sum(nm.mul(want, Tensor(g))).backward()
    assert a.grad.tobytes() == b.grad.tobytes()
    assert a.data.tobytes() == x.tobytes()


def test_outer_definition():
    out = nm.outer(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
    assert np.array_equal(out.data, [[[3.0, 4.0], [6.0, 8.0]]])


def test_relu_subgradient():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    nm.reduce_sum(nm.relu(x)).backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 9))
    out = nm.l2_normalize(Tensor(x), axis=1)
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_conv2d_identity_kernel():
    kernel = np.zeros((1, 3, 3))
    kernel[0, 1, 1] = 1.0
    img = np.arange(30.0).reshape(1, 5, 6)
    out = nm.conv2d(Tensor(img), Tensor(kernel), Tensor(np.zeros(1)))
    assert np.array_equal(out.data[:, 0], img)


def test_conv2d_shape_errors():
    with pytest.raises(ShapeError):
        nm.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros(1)))
    with pytest.raises(ShapeError):
        nm.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros(3)))


def loop_conv2d(x, kernels, bias):
    """The per-tap broadcast conv2d forward, kept as the bit-exact oracle."""
    c, kh, kw = kernels.shape
    n, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, c, h, w))
    for a in range(kh):
        for b in range(kw):
            out += kernels[:, a, b][None, :, None, None] * xp[:, None, a : a + h, b : b + w]
    out += bias[None, :, None, None]
    return out


@pytest.mark.parametrize("n", [1, nm._CONV_BLOCK + 3, 1024])
@pytest.mark.parametrize("kshape", [(2, 1, 1), (8, 3, 3), (3, 5, 3)])
@pytest.mark.parametrize("random_bias", [False, True])
def test_conv2d_forward_bit_identical_to_loop(n, kshape, random_bias):
    # random_bias=False runs the zero bias every encoder starts from
    rng = np.random.default_rng([n, *kshape, int(random_bias)])
    x = rng.normal(size=(n, 16, 12))
    x[x > 1.2] = 0.0
    x[x < -1.2] = -0.0
    x[0] = -0.0  # an all-negative-zero record: the sum must start from +0.0
    kernels = rng.normal(size=kshape)
    kernels[0, 0, 0] = 0.0
    bias = rng.normal(size=kshape[0]) if random_bias else np.zeros(kshape[0])
    got = nm.conv2d(Tensor(x), Tensor(kernels), Tensor(bias))
    want = loop_conv2d(x, kernels, bias)
    assert got.data.shape == want.shape
    assert got.data.tobytes() == want.tobytes()


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_nonfinite_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        nm.log(Tensor([0.0]))


def test_fanout_accumulates_gradients():
    # q = (x + y) * (x + 1): dq/dx = (x + y) + (x + 1)
    x = Tensor([2.0], requires_grad=True)
    y = Tensor([-4.0], requires_grad=True)
    q = nm.mul(nm.add(x, y), nm.add(x, Tensor([1.0])))
    nm.reduce_sum(q).backward()
    assert np.allclose(x.grad, [1.0])
    assert np.allclose(y.grad, [3.0])


def test_fanout_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 3))

    def shared_input_expr(t):
        # t feeds three branches; gradients must sum across them
        a = nm.relu(t)
        b = nm.sigmoid(nm.matmul(t, t))
        c = nm.mul(t, t)
        return nm.reduce_sum(nm.add(nm.add(a, b), c))

    assert grad_check(shared_input_expr, Tensor(x), eps=1e-5) <= 1e-5


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_grad_check_sum_of_squares():
    err = grad_check(lambda t: nm.reduce_sum(nm.mul(t, t)), Tensor([1.0, 2.0, 3.0]), eps=1e-5)
    assert err < 1e-8


def test_grad_check_softmax_dot():
    v = np.array([0.7, -1.1, 0.4, 0.2])
    err = grad_check(
        lambda t: nm.reduce_sum(nm.mul(nm.softmax(t, axis=0), Tensor(v))),
        Tensor(np.array([0.1, 0.9, -0.4, 0.3])),
        eps=1e-5,
    )
    assert err < 1e-6


def test_grad_check_negative_control():
    # deliberately wrong backward: claims d(x^3)/dx = x
    def bad_cube(t: Tensor) -> Tensor:
        out = Tensor(t.data**3)
        out._parents = (t,)
        out._vjp = lambda g: (g * t.data,)
        return out

    err = grad_check(lambda t: nm.reduce_sum(bad_cube(t)), Tensor([1.5, -2.0]), eps=1e-5)
    assert err > 1e-2


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_primitives_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(m, n))
    w = rng.normal(size=(n, n))

    cases = [
        lambda t: nm.reduce_sum(nm.mul(nm.matmul(t, Tensor(b)), Tensor(w))),
        lambda t: nm.reduce_sum(nm.relu(nm.add(t, Tensor(a * 0.5)))),
        lambda t: nm.reduce_sum(nm.mul(nm.sigmoid(t), Tensor(a))),
        lambda t: nm.reduce_sum(nm.mul(nm.tanh(t), Tensor(a))),
        lambda t: nm.reduce_sum(nm.mul(nm.l2_normalize(t, axis=1), Tensor(a))),
        lambda t: nm.reduce_sum(nm.mul(nm.softmax(t, axis=1), Tensor(a))),
        lambda t: nm.reduce_mean(nm.exp(nm.mul(t, 0.3))),
        lambda t: nm.reduce_sum(nm.log(nm.add(nm.mul(t, t), 1.0))),
        lambda t: nm.reduce_sum(nm.mul(nm.concat([t, t], axis=1), Tensor(np.hstack([a, a])))),
        lambda t: nm.reduce_sum(nm.mul(nm.transpose(t), Tensor(a.T))),
    ]
    for f in cases:
        assert grad_check(f, Tensor(a), eps=1e-5) <= 1e-5


def test_grad_check_div_and_outer():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 4))
    b = rng.uniform(1.0, 2.0, size=(3, 4))
    err = grad_check(
        lambda t: nm.reduce_sum(nm.div(t, Tensor(b))), Tensor(a), eps=1e-5
    )
    assert err <= 1e-5
    v = rng.normal(size=(3, 4))
    err = grad_check(
        lambda t: nm.reduce_sum(nm.mul(nm.outer(t, Tensor(v)), 0.5)), Tensor(a), eps=1e-5
    )
    assert err <= 1e-5


def test_grad_check_gather_rows():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(5, 4))
    idx = np.array([0, 2, 2, 4])
    w = rng.normal(size=(4, 4))
    err = grad_check(
        lambda t: nm.reduce_sum(nm.mul(nm.gather_rows(t, idx), Tensor(w))),
        Tensor(table),
        eps=1e-5,
    )
    assert err <= 1e-5


def test_grad_check_conv2d_batched():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 4, 4))
    k = rng.normal(size=(3, 3, 3))
    bias = rng.normal(size=3)
    err = grad_check(
        lambda t: nm.reduce_sum(
            nm.mul(nm.conv2d(nm.reshape(t, (2, 4, 4)), Tensor(k), Tensor(bias)), 0.1)
        ),
        Tensor(x.ravel()),
        eps=1e-5,
    )
    assert err <= 1e-5
    err = grad_check(
        lambda t: nm.reduce_sum(nm.conv2d(Tensor(x), nm.reshape(t, (3, 3, 3)), Tensor(bias))),
        Tensor(k.ravel()),
        eps=1e-5,
    )
    assert err <= 1e-5


def test_bce_matches_hand_value():
    pred = Tensor(np.array([[0.9], [0.2]]))
    label = Tensor(np.array([[1.0], [0.0]]))
    expected = -(np.log(0.9) + np.log(0.8)) / 2
    assert abs(nm.bce(pred, label).item() - expected) < 1e-12


def test_optimizer_zero_grad_no_motion():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    state = OptimizerState(weight_decay=0.0)
    opt_step({"p": p}, state)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.step_count == 1


def test_optimizer_descends_constant_gradient():
    p = Tensor([0.0], requires_grad=True)
    state = OptimizerState(weight_decay=0.0)
    for _ in range(50):
        p.grad = np.array([3.0])
        opt_step({"p": p}, state)
    assert p.data[0] < 0  # moves opposite the gradient sign


def test_optimizer_decoupled_decay_recurrence():
    # zero gradient: parameter follows p0 * (1 - lr*wd)^t exactly
    p = Tensor([2.0], requires_grad=True)
    state = OptimizerState(learning_rate=0.005, weight_decay=0.01)
    steps = 17
    for _ in range(steps):
        p.grad = np.zeros(1)
        opt_step({"p": p}, state)
    expected = 2.0 * (1 - 0.005 * 0.01) ** steps
    assert abs(p.data[0] - expected) < 1e-12


def test_optimizer_shape_mismatch():
    p = Tensor([1.0, 2.0], requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(ShapeError):
        opt_step({"p": p}, OptimizerState())


def test_zero_grads():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.ones(1)
    zero_grads({"p": p})
    assert p.grad is None


def test_no_grad_records_no_graph_and_keeps_flags():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert nm.grad_enabled()
    with nm.no_grad():
        with nm.no_grad():
            inner = nm.mul(x, x)
        outer = nm.mul(x, x)  # still off after the nested block ends
        assert not nm.grad_enabled()
    after = nm.mul(x, x)
    assert nm.grad_enabled()
    assert inner._vjp is None and inner._parents == ()
    assert outer._vjp is None and outer._parents == ()
    assert after._vjp is not None
    assert x.requires_grad
    assert np.array_equal(outer.data, after.data)


def _grads_of(w):
    w.grad = None
    nm.reduce_sum(nm.mul(nm.tanh(nm.matmul(Tensor([[1.0, -2.0]]), w)), 3.0)).backward()
    return w.grad.copy()


def test_no_grad_is_per_thread():
    w = Tensor(np.array([[0.5, -0.25], [0.75, 1.5]]), requires_grad=True)
    expected = _grads_of(w)
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def scorer():
        with nm.no_grad():
            entered.set()
            release.wait(timeout=30)
            seen["graph"] = nm.matmul(Tensor([[1.0, 1.0]]), w)._vjp
            seen["enabled"] = nm.grad_enabled()
        seen["after"] = nm.matmul(Tensor([[1.0, 1.0]]), w)._vjp

    t = threading.Thread(target=scorer)
    t.start()
    assert entered.wait(timeout=30)
    try:
        assert np.array_equal(_grads_of(w), expected)  # other thread sits inside no_grad
        assert nm.grad_enabled()
    finally:
        release.set()
        t.join(timeout=30)
    assert not t.is_alive()
    assert seen["graph"] is None and seen["after"] is not None
    assert seen["enabled"] is False
    assert w.requires_grad


def test_no_grad_overlapping_scopes_across_threads():
    # a enters, b enters, a exits, b exits: each thread leaves with its graph back
    w = Tensor([1.0], requires_grad=True)
    steps = [threading.Event() for _ in range(4)]
    graphs = {}

    def scope(name, enter_after, entered, exit_after, exited):
        if enter_after is not None:
            steps[enter_after].wait(timeout=30)
        with nm.no_grad():
            steps[entered].set()
            steps[exit_after].wait(timeout=30)
        graphs[name] = nm.mul(w, w)._vjp
        if exited is not None:
            steps[exited].set()

    a = threading.Thread(target=scope, args=("a", None, 0, 1, 2))
    b = threading.Thread(target=scope, args=("b", 0, 1, 2, None))
    a.start()
    b.start()
    a.join(timeout=30)
    b.join(timeout=30)
    assert not a.is_alive() and not b.is_alive()
    assert graphs["a"] is not None and graphs["b"] is not None
    assert w.requires_grad
    assert nm.mul(w, w)._vjp is not None


def test_no_grad_stress_training_and_scoring_threads():
    w = Tensor(np.array([[0.5, -0.25], [0.75, 1.5]]), requires_grad=True)
    expected = _grads_of(w)
    errors = []

    def trainer():
        local = Tensor(w.data.copy(), requires_grad=True)
        for _ in range(200):
            if not np.array_equal(_grads_of(local), expected):
                errors.append("gradient lost")

    def scorer():
        for _ in range(200):
            with nm.no_grad():
                if nm.matmul(Tensor([[1.0, 1.0]]), w)._vjp is not None:
                    errors.append("graph recorded inside no_grad")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=f) for f in (trainer, scorer, trainer, scorer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert w.requires_grad
