"""Shared experiment infrastructure.

Each paper table/figure has a runner module here; the
``python -m repro.experiments`` CLI and the examples call the same
runners.  Pretrained baselines are cached per process so one CLI run
pretrains each model once.

Scale: ``quick`` (default — CI-sized synthetic data, reduced widths and
epoch budgets; minutes for the full suite) vs ``full`` (larger synthetic
data and budgets; set ``REPRO_SCALE=full``).  Both exercise identical code
paths; only sizes differ.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from repro.core import SmartPAFConfig, pretrain
from repro.data.synthetic import Dataset, cifar10_like, imagenet_like
from repro.nn.models import resnet18, small_cnn, vgg19

__all__ = [
    "scale_mode",
    "is_quick",
    "PAPER_FORMS",
    "resnet_imagenet_baseline",
    "vgg_cifar_baseline",
    "smallcnn_cifar_baseline",
    "fresh_model",
    "quick_config",
    "default_baseline",
]

#: the five PAF forms the paper's accuracy tables sweep (Tab. 3 order)
PAPER_FORMS = ["f1f1g1g1", "alpha7", "f2g3", "f2g2", "f1g2"]


def scale_mode() -> str:
    """``REPRO_SCALE`` (default ``quick``); any value other than
    ``quick``/``full`` is a ``ValueError``, not a silent quick run."""
    mode = os.environ.get("REPRO_SCALE", "quick")
    if mode not in ("quick", "full"):
        raise ValueError(f"REPRO_SCALE must be 'quick' or 'full', got {mode!r}")
    return mode


def is_quick() -> bool:
    return scale_mode() != "full"


@dataclass
class Baseline:
    """A pretrained model checkpoint + its dataset."""

    arch: str
    kwargs: dict
    state: dict
    dataset: Dataset
    accuracy: float


def _build(arch: str, **kwargs):
    if arch == "resnet18":
        return resnet18(**kwargs)
    if arch == "vgg19":
        return vgg19(**kwargs)
    if arch == "small_cnn":
        return small_cnn(**kwargs)
    raise ValueError(arch)


def fresh_model(baseline: Baseline):
    """A new model instance loaded with the baseline checkpoint."""
    model = _build(baseline.arch, **baseline.kwargs)
    model.load_state_dict(baseline.state)
    return model


@lru_cache(maxsize=None)
def resnet_imagenet_baseline(seed: int = 0) -> Baseline:
    """ResNet-18 on the ImageNet-1k stand-in (the paper's headline pair)."""
    if is_quick():
        ds = imagenet_like(n_train=700, n_val=250, image_size=24, num_classes=10, seed=seed)
        kwargs = dict(num_classes=10, base_width=6, seed=seed + 1)
        epochs = 6
    else:
        ds = imagenet_like(n_train=3000, n_val=800, image_size=32, num_classes=20, seed=seed)
        kwargs = dict(num_classes=20, base_width=12, seed=seed + 1)
        epochs = 15
    model = _build("resnet18", **kwargs)
    acc = pretrain(model, ds, epochs=epochs, lr=2e-3, seed=seed)
    return Baseline("resnet18", kwargs, model.state_dict(), ds, acc)


@lru_cache(maxsize=None)
def vgg_cifar_baseline(seed: int = 0) -> Baseline:
    """VGG-19 on the CIFAR-10 stand-in (the paper's second pair)."""
    if is_quick():
        ds = cifar10_like(n_train=500, n_val=200, image_size=32, seed=seed)
        kwargs = dict(num_classes=10, base_width=4, input_size=32, seed=seed + 1)
        epochs = 5
    else:
        ds = cifar10_like(n_train=2500, n_val=600, image_size=32, seed=seed)
        kwargs = dict(num_classes=10, base_width=8, input_size=32, seed=seed + 1)
        epochs = 12
    model = _build("vgg19", **kwargs)
    acc = pretrain(model, ds, epochs=epochs, lr=1e-3, seed=seed)
    return Baseline("vgg19", kwargs, model.state_dict(), ds, acc)


@lru_cache(maxsize=None)
def smallcnn_cifar_baseline(seed: int = 0) -> Baseline:
    """Small CNN pair for the fastest grid experiments / tests."""
    ds = cifar10_like(n_train=600, n_val=200, image_size=16, seed=seed)
    kwargs = dict(num_classes=10, base_width=8, input_size=16, seed=seed + 1)
    model = _build("small_cnn", **kwargs)
    acc = pretrain(model, ds, epochs=4, lr=2e-3, seed=seed)
    return Baseline("small_cnn", kwargs, model.state_dict(), ds, acc)


def default_baseline(seed: int = 0) -> Baseline:
    """Baseline for the training-heavy runners (Fig. 8/9, Tab. 3/4).

    The ResNet-18 / ImageNet-like pair at both scales: error compounding
    across its 18 non-polynomial sites is what makes the paper's
    degradation/recovery dynamics visible (a 4-site CNN barely degrades).
    Quick mode shrinks the dataset/width, not the topology.
    """
    return resnet_imagenet_baseline(seed)


def quick_config(**overrides) -> SmartPAFConfig:
    """Fine-tuning budget matched to the scale mode."""
    if is_quick():
        return SmartPAFConfig.quick(
            epochs_per_group=overrides.pop("epochs_per_group", 1),
            max_groups_per_step=overrides.pop("max_groups_per_step", 1),
            **overrides,
        )
    return SmartPAFConfig.quick(
        epochs_per_group=overrides.pop("epochs_per_group", 4),
        max_groups_per_step=overrides.pop("max_groups_per_step", 3),
        **overrides,
    )
