"""Dense float64 tensors with reverse-mode differentiation.

Small tape-based engine in the micrograd style, but over numpy arrays:
each op returns a new Tensor that remembers its parents and a closure
computing the local vector-Jacobian product. Every op validates that its
output is finite; a NaN/Inf anywhere raises NumericError instead of
silently propagating through a training step.

Whether an op records its place in the graph is decided here and only
here: inside `no_grad()` the calling thread's ops build no graph, whatever
their inputs' `requires_grad` flags say, and those flags are never touched.

Also hosts the finite-difference gradient checker and the adaptive-moment
optimizer with decoupled weight decay used by both training stages.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray


def _as_f64(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite values in tensor data")
    return arr


class Tensor:
    """A float64 array plus an optional position in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None  # callable(out_grad) -> tuple of parent grads

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) node into the graph."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative topo sort; graphs can be deep
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None or node._vjp is None:
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Ops run by this thread inside the block record no graph; nestable."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled() -> bool:
    """Whether ops run by this thread record a graph (False inside `no_grad`)."""
    return _grad_mode.enabled


def _node(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad or p._vjp is not None for p in parents):
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum grad down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data
    return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data
    return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data
    return _node(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data / b.data
    return _node(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a) -> Tensor:
    a = _wrap(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
    out = a.data @ b.data
    return _node(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ShapeError("transpose expects a matrix")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T,))


def outer(u, v) -> Tensor:
    """Batched outer product of matching rows: (N, k) x (N, k) -> (N, k, k)."""
    u, v = _wrap(u), _wrap(v)
    if u.data.ndim != 2 or v.data.ndim != 2 or u.shape[0] != v.shape[0]:
        raise ShapeError(f"outer shapes {u.shape} x {v.shape}")
    out = np.einsum("ni,nj->nij", u.data, v.data)
    return _node(
        out,
        (u, v),
        lambda g: (np.einsum("nij,nj->ni", g, v.data), np.einsum("nij,ni->nj", g, u.data)),
    )


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)
    return _node(out.copy(), (a,), lambda g: (g.reshape(a.shape),))


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    if not np.all(np.isfinite(out)):
        raise NumericError("exp overflow")
    return _node(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _wrap(a)
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out = np.log(a.data)
        except FloatingPointError as e:
            raise NumericError(f"log of non-positive value: {e}") from None
    return _node(out, (a,), lambda g: (g / a.data,))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(tensors), vjp)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(out, (a,), vjp)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.data.size if axis is None else np.prod(
        [a.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / denom, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / denom, a.shape).copy(),)

    return _node(out, (a,), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    out = a.data - a.data.max(axis=axis, keepdims=True)  # a fresh array; `a` is never written
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _node(out, (a,), vjp)


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Rows scaled to unit norm; smooth at zero via a tiny floor inside the sqrt."""
    a = _wrap(a)
    sq = (a.data * a.data).sum(axis=axis, keepdims=True) + 1e-24
    inv = 1.0 / np.sqrt(sq)
    out = a.data * inv

    def vjp(g):
        dot = (g * a.data).sum(axis=axis, keepdims=True)
        return (g * inv - a.data * dot * inv / sq,)

    return _node(out, (a,), vjp)


def gather_rows(table, idx) -> Tensor:
    """Row lookup table[idx]; backward scatter-adds into the table gradient."""
    table = _wrap(table)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a 1-d index array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather_rows index out of range")
    out = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _node(out, (table,), vjp)


_CONV_BLOCK = 64  # records per accumulation block of the conv2d forward


def conv2d(x, kernels, bias) -> Tensor:
    """Single-channel 2-d convolution of a batch, stride 1, zero 'same' padding.

    x: (N, H, W); kernels: (C, kh, kw) with odd kh, kw; bias: (C,).
    Output: (N, C, H, W).
    """
    x, kernels, bias = _wrap(x), _wrap(kernels), _wrap(bias)
    if x.data.ndim != 3 or kernels.data.ndim != 3:
        raise ShapeError(f"conv2d shapes {x.shape}, {kernels.shape}")
    c, kh, kw = kernels.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d kernels must have odd extents")
    if bias.shape != (c,):
        raise ShapeError("conv2d bias must be (channels,)")
    n, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    # Read row-major, a block of padded records is one vector, and tap (a, b)
    # for every output of the block is one contiguous slice of it, shifted
    # by a*wp + b. Positions past column w or row h of a record are junk
    # (they mix in the next record) and are dropped; the slices end just
    # after the block's last real output, so they stay inside `xp`. Every
    # output element sums the same products in the same tap order, from 0.0
    # with the bias last, as a per-tap broadcast over the whole batch.
    wp = w + 2 * pw
    size = (h + 2 * ph) * wp  # one padded record
    flat = xp.reshape(-1)
    out = np.empty((n, c, h, w))
    acc = np.empty(_CONV_BLOCK * size)
    tmp = np.empty(_CONV_BLOCK * size)
    for s in range(0, n, _CONV_BLOCK):
        m = min(_CONV_BLOCK, n - s)
        span = m * size - 2 * ph * wp - 2 * pw
        live, t_live = acc[:span], tmp[:span]
        for ch in range(c):
            live.fill(0.0)
            for a in range(kh):
                for b in range(kw):
                    off = s * size + a * wp + b
                    np.multiply(flat[off : off + span], kernels.data[ch, a, b], out=t_live)
                    live += t_live
            live += bias.data[ch]
            out[s : s + m, ch] = acc[: m * size].reshape(m, h + 2 * ph, wp)[:, :h, :w]

    def vjp(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernels.data)
        for a in range(kh):
            for b in range(kw):
                gxp[:, a : a + h, b : b + w] += np.einsum("ncij,c->nij", g, kernels.data[:, a, b])
                gk[:, a, b] += np.einsum("ncij,nij->c", g, xp[:, a : a + h, b : b + w])
        return gxp[:, ph : ph + h, pw : pw + w], gk, g.sum(axis=(0, 2, 3))

    return _node(out, (x, kernels, bias), vjp)


def bce(pred, label) -> Tensor:
    """Mean binary cross-entropy; predictions are clamped away from {0, 1}."""
    pred, label = _wrap(pred), _wrap(label)
    if pred.shape != label.shape:
        raise ShapeError(f"bce shapes {pred.shape} vs {label.shape}")
    eps = 1e-12
    p = np.clip(pred.data, eps, 1.0 - eps)
    y = label.data
    out = np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    n = p.size

    def vjp(g):
        interior = (pred.data > eps) & (pred.data < 1.0 - eps)
        gp = g * interior * (p - y) / (p * (1.0 - p)) / n
        gy = g * (np.log(1.0 - p) - np.log(p)) / n
        return (gp, gy)

    return _node(np.asarray(out), (pred, label), vjp)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor. Relative error uses
    |ga - gn| / max(1, |ga|, |gn|) per entry, so tiny gradients are
    compared absolutely.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    base = x.data.copy()
    leaf = Tensor(base.copy(), requires_grad=True)
    out = f(leaf)
    out.backward()
    ga = leaf.grad if leaf.grad is not None else np.zeros_like(base)
    gn = np.zeros_like(base)
    flat = gn.reshape(-1)
    for i in range(base.size):
        bump = base.reshape(-1).copy()
        bump[i] += eps
        f_plus = f(Tensor(bump.reshape(base.shape))).item()
        bump[i] -= 2 * eps
        f_minus = f(Tensor(bump.reshape(base.shape))).item()
        flat[i] = (f_plus - f_minus) / (2 * eps)
    denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gn)))
    return float(np.max(np.abs(ga - gn) / denom)) if base.size else 0.0


# ---------------------------------------------------------------------------
# optimizer: adaptive moments + decoupled weight decay


@dataclass
class OptimizerState:
    """Per-parameter moment accumulators for the adaptive update."""

    learning_rate: float = 0.005
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def opt_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place adaptive-moment step; decay is decoupled from the gradient."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape mismatch for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p.data -= state.learning_rate * update
        if state.weight_decay:
            p.data *= 1.0 - state.learning_rate * state.weight_decay
        if not np.all(np.isfinite(p.data)):
            raise NumericError(f"non-finite parameter {name!r} after update")


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
