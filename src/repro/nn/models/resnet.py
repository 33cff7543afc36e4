"""ResNet-18 (He et al. 2015) with the paper's non-polynomial layout.

The paper evaluates ResNet-18 on ImageNet-1k: **17 ReLU + 1 MaxPooling**
(Sec. 5.1).  The topology here preserves exactly those counts and their
inference order; width and classes are configurable so the reproduction can
train on CPU-sized synthetic data (the paper-scale constructor is
``resnet18(base_width=64, num_classes=1000)``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor

__all__ = ["BasicBlock", "ResNet18", "ToyResNet", "resnet18", "toy_resnet"]


class BasicBlock(Module):
    """Two 3×3 convs with a residual connection; 2 ReLUs.

    ``track_running_stats=True`` builds every BatchNorm (including the
    downsample's) with frozen-statistics tracking, which the FHE
    lowering (:func:`repro.fhe.lower.lower`) requires so the BNs
    fold into their convs; the default matches the paper's Tab. 5
    training configuration (batch statistics).
    """

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
        track_running_stats: bool = False,
    ):
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_ch, track_running_stats=track_running_stats)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_ch, out_ch, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_ch, track_running_stats=track_running_stats)
        self.relu2 = ReLU()
        if stride != 1 or in_ch != out_ch:
            self.downsample = Sequential(
                Conv2d(in_ch, out_ch, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_ch, track_running_stats=track_running_stats),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = out + self.downsample(x)
        return self.relu2(out)


class ResNet18(Module):
    """ResNet-18: stem (1 ReLU, 1 MaxPool) + 8 BasicBlocks (16 ReLU).

    Total: 17 ReLU + 1 MaxPooling, matching the paper's Sec. 5.1 inventory.
    """

    def __init__(
        self,
        num_classes: int = 10,
        base_width: int = 64,
        in_channels: int = 3,
        seed: Optional[int] = None,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        w = base_width
        self.conv1 = Conv2d(in_channels, w, 7, stride=2, padding=3, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(w)
        self.relu = ReLU()
        self.maxpool = MaxPool2d(3, stride=2, padding=1)
        self.layer1 = Sequential(
            BasicBlock(w, w, 1, rng=rng), BasicBlock(w, w, 1, rng=rng)
        )
        self.layer2 = Sequential(
            BasicBlock(w, 2 * w, 2, rng=rng), BasicBlock(2 * w, 2 * w, 1, rng=rng)
        )
        self.layer3 = Sequential(
            BasicBlock(2 * w, 4 * w, 2, rng=rng), BasicBlock(4 * w, 4 * w, 1, rng=rng)
        )
        self.layer4 = Sequential(
            BasicBlock(4 * w, 8 * w, 2, rng=rng), BasicBlock(8 * w, 8 * w, 1, rng=rng)
        )
        self.avgpool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.fc = Linear(8 * w, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.maxpool(self.relu(self.bn1(self.conv1(x))))
        x = self.layer4(self.layer3(self.layer2(self.layer1(x))))
        return self.fc(self.flatten(self.avgpool(x)))


def resnet18(
    num_classes: int = 10,
    base_width: int = 64,
    in_channels: int = 3,
    seed: Optional[int] = None,
) -> ResNet18:
    """Factory matching the paper's model (full width by default)."""
    return ResNet18(
        num_classes=num_classes,
        base_width=base_width,
        in_channels=in_channels,
        seed=seed,
    )


class ToyResNet(Module):
    """CPU/FHE-sized residual CNN: stem conv + 2 BasicBlocks + head.

    The smallest topology exercising everything the multi-ciphertext
    lowering must handle: an identity skip (block1), a stride-2
    downsample with a 1×1-projection skip (block2), a global pool and a
    dense head.  Every BatchNorm tracks running statistics so the whole
    net compiles via :func:`repro.fhe.network.compile_network`; the stem has
    no ReLU (one PAF fewer keeps the FHE level budget at 31 with the
    default f1∘g2 activation — the four block ReLUs remain).
    """

    def __init__(
        self,
        num_classes: int = 3,
        width: int = 2,
        in_channels: int = 1,
        seed: Optional[int] = None,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv1 = Conv2d(in_channels, width, 3, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(width, track_running_stats=True)
        self.block1 = BasicBlock(width, width, 1, rng=rng, track_running_stats=True)
        self.block2 = BasicBlock(width, 2 * width, 2, rng=rng, track_running_stats=True)
        self.avgpool = GlobalAvgPool2d()
        self.flatten = Flatten()
        self.fc = Linear(2 * width, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.bn1(self.conv1(x))
        x = self.block2(self.block1(x))
        return self.fc(self.flatten(self.avgpool(x)))


def toy_resnet(
    num_classes: int = 3,
    width: int = 2,
    in_channels: int = 1,
    seed: Optional[int] = None,
) -> ToyResNet:
    """Factory for the toy residual CNN (see :class:`ToyResNet`)."""
    return ToyResNet(
        num_classes=num_classes, width=width, in_channels=in_channels, seed=seed
    )
