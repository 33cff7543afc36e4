"""Standard layers: Conv2d, BatchNorm2d, Linear, pooling, dropout, etc.

These are the "other layers" of the paper (everything except the
non-polynomial operators); ``ReLU`` and ``MaxPool2d`` here are the *exact*
non-polynomial versions that SMART-PAF's model surgery later replaces with
PAF layers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "GELU",
    "Softmax",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "TokenMeanPool",
    "Flatten",
    "Dropout",
    "Identity",
]


class Conv2d(Module):
    """2D convolution with optional bias."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class Linear(Module):
    """Fully-connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalisation; tracking disabled by default per Tab. 5."""

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        track_running_stats: bool = False,
    ):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.track_running_stats = track_running_stats
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
            track_running_stats=self.track_running_stats,
        )


class ReLU(Module):
    """Exact ReLU — a non-polynomial operator (replaced by PAF under FHE)."""

    #: marker used by model surgery to find replacement sites
    is_nonpolynomial = True

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:  # pragma: no cover
        return "ReLU()"


class GELU(Module):
    """Exact tanh-form GELU — replaced by a dense-polynomial PAF under FHE."""

    is_nonpolynomial = True

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)

    def __repr__(self) -> str:  # pragma: no cover
        return "GELU()"


class Softmax(Module):
    """Exact softmax — replaced by the mean-stabilised PAF under FHE."""

    is_nonpolynomial = True

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return F.softmax(x, axis=self.axis)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Softmax(axis={self.axis})"


class MaxPool2d(Module):
    """Exact max pooling — a non-polynomial operator."""

    is_nonpolynomial = True

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride}, p={self.padding})"


class AvgPool2d(Module):
    """Average pooling (polynomial, FHE-friendly)."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Adaptive average pooling to 1×1 (ResNet head)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class TokenMeanPool(Module):
    """Mean over the token axis: ``(N, T, D) -> (N, D)`` (transformer head)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=1)


class Flatten(Module):
    """NCHW -> N,(CHW)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_from(1)


class Dropout(Module):
    """Inverted dropout; the scheduler toggles ``p`` on overfitting."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None):
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dropout(p={self.p})"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
