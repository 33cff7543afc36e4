"""Self-contained numpy autograd NN framework (the paper's DL substrate)."""

from repro.nn import functional
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GELU,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Softmax,
    TokenMeanPool,
)
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam
from repro.nn.swa import SWAAverager
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Sequential",
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
    "SGD",
    "Adam",
    "SWAAverager",
    "functional",
]
