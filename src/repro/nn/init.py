"""Weight initialisation (Kaiming)."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_normal", "zeros", "ones"]


def _fan_in(shape: tuple) -> int:
    if len(shape) == 2:  # linear (out, in)
        return shape[1]
    if len(shape) == 4:  # conv (oc, ic, kh, kw)
        return shape[1] * shape[2] * shape[3]
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He initialisation for ReLU networks: N(0, sqrt(2/fan_in))."""
    fan_in = _fan_in(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple) -> np.ndarray:
    return np.ones(shape)
