"""Central-difference gradient checking for the autodiff tests."""

import numpy as np

from protobank.numerics import Tensor


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
