"""Optimizers with parameter groups.

The paper's Alternate Training uses *different hyperparameters* for PAF
coefficients and for the other layers (Tab. 5: Adam, lr 1e-4 / weight
decay 0.01 for PAFs; lr 1e-5 / weight decay 0.1 for everything else), so
the optimizers here support torch-style parameter groups with per-group
``lr`` and ``weight_decay``.

Both optimizers skip parameters whose ``requires_grad`` is False — that is
how AT freezing composes with a single long-lived optimizer.
"""

from __future__ import annotations


import numpy as np


__all__ = ["SGD", "Adam"]


def _normalise_groups(params, lr: float, weight_decay: float) -> list:
    """Accept a flat param list or a list of group dicts."""
    params = list(params)
    if params and isinstance(params[0], dict):
        groups = []
        for g in params:
            group = {
                "params": list(g["params"]),
                "lr": float(g.get("lr", lr)),
                "weight_decay": float(g.get("weight_decay", weight_decay)),
            }
            groups.append(group)
        return groups
    return [{"params": params, "lr": float(lr), "weight_decay": float(weight_decay)}]


class Optimizer:
    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.groups = _normalise_groups(params, lr, weight_decay)
        if not any(g["params"] for g in self.groups):
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        for g in self.groups:
            for p in g["params"]:
                p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum and decoupled weight decay."""

    def __init__(
        self,
        params,
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        for g in self.groups:
            lr, wd = g["lr"], g["weight_decay"]
            for p in g["params"]:
                if p.grad is None or not p.requires_grad:
                    continue
                grad = p.grad
                if wd:
                    grad = grad + wd * p.data
                if self.momentum:
                    v = self._velocity.get(id(p))
                    v = self.momentum * v + grad if v is not None else grad
                    self._velocity[id(p)] = v
                    grad = v
                p.data = p.data - lr * grad


class Adam(Optimizer):
    """Adam with bias correction and (coupled) L2 weight decay.

    The paper's Tab. 5 specifies Adam for both PAF-coefficient training and
    the other layers, with different lr / weight decay per group.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.betas = betas
        self.eps = eps
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def step(self) -> None:
        b1, b2 = self.betas
        for g in self.groups:
            lr, wd = g["lr"], g["weight_decay"]
            for p in g["params"]:
                if p.grad is None or not p.requires_grad:
                    continue
                grad = p.grad
                if wd:
                    grad = grad + wd * p.data
                key = id(p)
                t = self._t.get(key, 0) + 1
                m = self._m.get(key, np.zeros_like(p.data))
                v = self._v.get(key, np.zeros_like(p.data))
                m = b1 * m + (1 - b1) * grad
                v = b2 * v + (1 - b2) * grad * grad
                self._m[key], self._v[key], self._t[key] = m, v, t
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)
