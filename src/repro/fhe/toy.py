"""The canonical toy serving models, shared by tests, benchmarks and CI.

Four builds, each used by the fhe/serve test suites, the serving
benchmarks and the CI op-count summary so the toy geometry (and the
op-count regression anchors derived from it) cannot silently diverge
between them:

* :func:`compiled_toy` — an 8 → 6 → 3 MLP with an f1∘g2 PAF.  Compiles
  in ~1 s; one encrypted forward ≈ 0.5 s at n=512.
* :func:`compiled_toy_cnn` — a *trained* 2-conv CNN on 1×8×8 pattern
  images (conv-BN-PAF → avgpool → conv → dense, 3 classes).  Compiles
  in a few seconds; one encrypted forward ≈ 5 s at n=1024.
* :func:`compiled_toy_resnet` — a *trained* 2-block residual CNN
  (stem conv-BN → BasicBlock(identity skip) → BasicBlock(stride-2,
  1×1-projection skip) → global pool → dense) on the same pattern
  images, channel-sharded across 2 ciphertexts.  Depth 31; one
  encrypted forward is a few seconds at n=512.
* :func:`compiled_toy_transformer` — a *trained* token-sharded
  transformer (``num_blocks`` attention + GELU-MLP blocks, 1 by
  default) on synthetic 4-token sequences.  Depth 33; one encrypted
  forward ≈ 3 s at n=512; ``num_blocks=2`` compiles through a refresh.

Every build goes through :func:`repro.fhe.network.compile_network` with
a :class:`~repro.fhe.ir.CompilePolicy`, like any user model.
"""

from __future__ import annotations

import numpy as np

from repro.ckks import CkksParams
from repro.fhe.ir import CompilePolicy
from repro.fhe.network import EncryptedNetwork, compile_network

__all__ = [
    "compiled_toy",
    "compiled_toy_cnn",
    "compiled_toy_resnet",
    "compiled_toy_transformer",
    "toy_cnn_model",
    "toy_resnet_model",
    "toy_transformer_model",
    "TOY_PARAMS",
    "TOY_CNN_PARAMS",
    "TOY_CNN_INPUT_SHAPE",
    "TOY_RESNET_PARAMS",
    "TOY_RESNET_INPUT_SHAPE",
    "TOY_RESNET_SHARDS",
    "TOY_TRANSFORMER_PARAMS",
]

#: the toy MLP's CKKS parameter set (small ring, depth for one f1∘g2 PAF)
TOY_PARAMS = CkksParams(n=512, scale_bits=25, depth=9)

#: the toy CNN's CKKS parameter set — depth 10 covers conv(1) + PAF(6) +
#: pool(1) + conv(1) + dense(1); n=1024 gives two SIMD request blocks at
#: the CNN's square size of 128
TOY_CNN_PARAMS = CkksParams(n=1024, scale_bits=26, depth=10)

#: single-image shape of the toy CNN (1 channel, 8×8 pixels)
TOY_CNN_INPUT_SHAPE = (1, 8, 8)

#: the toy ResNet's CKKS parameter set — depth 31 covers stem conv(1) +
#: 2 BasicBlocks of conv(1)+PAF(6)+conv(1)+merge(0)+PAF(6) + pool(1) +
#: dense(1); n=512 gives two SIMD request blocks at the square size 64.
#: ``scale_tracking`` is mandatory at this depth: nearest-to-Δ primes let
#: the canonical scale schedule collapse past ~20 levels
TOY_RESNET_PARAMS = CkksParams(n=512, scale_bits=27, depth=31, scale_tracking=True)

#: single-image shape of the toy ResNet (1 channel, 8×8 pixels)
TOY_RESNET_INPUT_SHAPE = (1, 8, 8)

#: ciphertexts the toy ResNet's channels shard across
TOY_RESNET_SHARDS = 2

#: the toy transformer's CKKS parameter set — depth 33 covers the
#: identity embed(1) + attention(25: 9 fixed + deg-5 exp(3) + 3
#: squarings + 5 Newton iterations(10)) + fc1(1) + deg-12 GELU(4) +
#: fc2(1) + head(1); n=512 gives 8 SIMD request blocks at square size
#: 16.  ``scale_tracking`` is mandatory past ~20 levels
TOY_TRANSFORMER_PARAMS = CkksParams(n=512, scale_bits=27, depth=33, scale_tracking=True)


def compiled_toy(with_model: bool = False) -> EncryptedNetwork | tuple:
    """Build, PAF-replace, calibrate and compile the toy MLP.

    ``with_model`` also returns the plaintext model (in eval mode).
    """
    # imported here: repro.core pulls in the full training stack, which
    # ordinary repro.fhe users (and its import time) should not pay for
    from repro.core import calibrate_static_scales, convert_to_static, replace_all
    from repro.nn.models import mlp
    from repro.paf import get_paf

    rng = np.random.default_rng(0)
    model = mlp(8, hidden=(6,), num_classes=3, seed=0)
    replace_all(model, get_paf("f1g2"), np.zeros((1, 8)))
    calibrate_static_scales(model, [rng.normal(size=(64, 8))])
    convert_to_static(model)
    enc = compile_network(model, TOY_PARAMS, policy=CompilePolicy(seed=0))
    model.eval()
    return (model, enc) if with_model else enc


def _sgd(model, data, lr: float, epochs: int) -> None:
    """The toys' shared training schedule: minibatch SGD (batch 16,
    momentum 0.9) over ``data``'s training split, in order."""
    from repro.nn.functional import cross_entropy
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    opt = SGD(model.parameters(), lr=lr, momentum=0.9)
    batch = 16
    for _ in range(epochs):
        for start in range(0, data.n_train, batch):
            xb = data.x_train[start : start + batch]
            yb = data.y_train[start : start + batch]
            loss = cross_entropy(model(Tensor(xb)), yb)
            opt.zero_grad()
            loss.backward()
            opt.step()


def toy_cnn_model(epochs: int = 2, seed: int = 0):
    """Train the plaintext toy CNN on synthetic 8×8 pattern images.

    Architecture: Conv(1→2, 3×3, pad 1) - BN - ReLU - AvgPool(2) -
    Conv(2→2, 3×3, pad 1) - Flatten - Linear(32→3).  BatchNorm tracks
    running statistics (``track_running_stats=True``) so its frozen
    stats can be folded into the conv at FHE compile time; a couple of
    SGD epochs on the pattern dataset both train the weights and
    populate those statistics.  Deterministic for a fixed ``seed``.

    Returns ``(model, dataset)`` with the model left in train mode
    (callers decide when to PAF-replace and freeze).
    """
    from repro.data.synthetic import make_pattern_dataset
    from repro.nn.layers import (
        AvgPool2d,
        BatchNorm2d,
        Conv2d,
        Flatten,
        Linear,
        ReLU,
    )
    from repro.nn.module import Sequential

    rng = np.random.default_rng(seed)
    model = Sequential(
        Conv2d(1, 2, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(2, track_running_stats=True),
        ReLU(),
        AvgPool2d(2),
        Conv2d(2, 2, 3, padding=1, rng=rng),
        Flatten(),
        Linear(32, 3, rng=rng),
    )
    data = make_pattern_dataset(
        num_classes=3, n_train=96, n_val=24, image_size=8, channels=1, seed=seed
    )
    _sgd(model, data, lr=0.05, epochs=epochs)
    return model, data


def toy_resnet_model(epochs: int = 2, seed: int = 0):
    """Train the plaintext toy ResNet on synthetic 8×8 pattern images.

    Architecture: :class:`repro.nn.models.resnet.ToyResNet` at width 2 —
    stem Conv(1→2, 3×3, pad 1)-BN, BasicBlock(2→2, identity skip),
    BasicBlock(2→4, stride 2, 1×1-projection skip), GlobalAvgPool,
    Linear(4→3).  All BatchNorms track running statistics so they fold
    at FHE compile time.  Deterministic for a fixed ``seed``; returns
    ``(model, dataset)`` with the model left in train mode.
    """
    from repro.data.synthetic import make_pattern_dataset
    from repro.nn.models.resnet import toy_resnet

    model = toy_resnet(num_classes=3, width=2, in_channels=1, seed=seed)
    data = make_pattern_dataset(
        num_classes=3, n_train=96, n_val=24, image_size=8, channels=1, seed=seed
    )
    _sgd(model, data, lr=0.05, epochs=epochs)
    return model, data


def compiled_toy_resnet(
    with_model: bool = False,
    num_shards: int = TOY_RESNET_SHARDS,
    params: CkksParams | None = None,
) -> EncryptedNetwork | tuple:
    """Train, PAF-replace, calibrate and compile the toy ResNet.

    The shared fixture behind the residual differential tests, the
    sharded op-count gate and the ladder's ``resnet_forward`` workload
    (``benchmarks/ladder``).  Channels shard across ``num_shards``
    ciphertexts (2 by default — the acceptance geometry); ``with_model``
    also returns the plaintext model (in eval mode).
    """
    from repro.core import calibrate_static_scales, convert_to_static, replace_all
    from repro.paf import get_paf

    model, data = toy_resnet_model()
    replace_all(model, get_paf("f1g2"), data.x_train[:2])
    calibrate_static_scales(model, [data.x_train])
    convert_to_static(model)
    model.eval()
    enc = compile_network(
        model,
        params or TOY_RESNET_PARAMS,
        policy=CompilePolicy(
            input_shape=TOY_RESNET_INPUT_SHAPE, num_shards=num_shards, seed=0
        ),
    )
    return (model, enc) if with_model else enc


def toy_transformer_model(epochs: int = 2, seed: int = 0, num_blocks: int = 1):
    """Train the plaintext toy transformer on synthetic token sequences.

    Architecture: :class:`repro.nn.models.transformer.ToyTransformer`
    with seq=4, dim=8, ff=16, 3 classes — ``num_blocks`` residual
    self-attention + GELU-MLP blocks mean-pooled into a linear head.  The
    light schedule (2 epochs, lr 0.02) reaches full validation accuracy
    while leaving the centred attention scores and GELU pre-activations
    inside the ranges the dense PAFs approximate to ~1e-4 — heavier
    training sharpens attention into exp ranges no low-degree
    polynomial tracks.  Deterministic for a fixed ``seed``; returns
    ``(model, dataset)`` with the model left in train mode (callers
    decide when to PAF-replace).
    """
    from repro.data.synthetic import make_sequence_dataset
    from repro.nn.models import toy_transformer

    model = toy_transformer(
        seq=4, dim=8, ff=16, num_classes=3, num_blocks=num_blocks, seed=seed
    )
    data = make_sequence_dataset(
        num_classes=3, n_train=96, n_val=24, seq=4, dim=8, seed=seed
    )
    _sgd(model, data, lr=0.02, epochs=epochs)
    return model, data


def compiled_toy_transformer(
    with_model: bool = False,
    params: CkksParams | None = None,
    num_blocks: int = 1,
) -> EncryptedNetwork | tuple:
    """Train, PAF-replace, calibrate and compile the toy transformer.

    The shared fixture behind the encrypted-attention differential
    tests, the transformer op-count gate and the ladder's
    ``transformer_forward`` workload: trains the plaintext model, swaps
    its softmax / GELU for calibrated dense PAFs
    (:func:`repro.core.surgery.replace_transformer_nonpoly` on the
    training set), and lowers it through :func:`repro.fhe.lower.lower`'s
    one module walk, one token per input shard.  ``with_model`` also
    returns the PAF-approximated plaintext model (in eval mode) — the
    rtol reference for decrypted logits.

    ``num_blocks=2`` is the depth-wall fixture: both blocks together
    validate to ~64 levels against a 33-level chain, so the policy's
    automatic placement must insert a :class:`repro.fhe.ir.RefreshNode`
    between the blocks for compilation to succeed at all; the refresh
    is exactness-gated, and decrypted logits are pinned against the
    plaintext model at rtol 1e-3 like the one-block model's.
    """
    from repro.core.surgery import replace_transformer_nonpoly

    model, data = toy_transformer_model(num_blocks=num_blocks)
    # deg-12 GELU costs the same 4 levels as deg-8 (ceil(log2(d+1)));
    # 5 Newton iterations cover the calibrated sum interval's ~12x ratio
    replace_transformer_nonpoly(
        model,
        data.x_train,
        exp_degree=5,
        exp_squarings=3,
        gelu_degree=12,
        recip_iters=5,
    )
    model.eval()
    enc = compile_network(
        model,
        params or TOY_TRANSFORMER_PARAMS,
        policy=CompilePolicy(seed=0),
    )
    return (model, enc) if with_model else enc


def compiled_toy_cnn(with_model: bool = False) -> EncryptedNetwork | tuple:
    """Train, PAF-replace, calibrate and compile the toy CNN.

    The shared fixture behind the CNN differential tests, the serving
    suite and the CI op-count gate; ``with_model`` also returns the
    plaintext model (in eval mode).
    """
    from repro.core import calibrate_static_scales, convert_to_static, replace_all
    from repro.paf import get_paf

    model, data = toy_cnn_model()
    replace_all(model, get_paf("f1g2"), data.x_train[:2])
    calibrate_static_scales(model, [data.x_train])
    convert_to_static(model)
    model.eval()
    enc = compile_network(
        model,
        TOY_CNN_PARAMS,
        policy=CompilePolicy(input_shape=TOY_CNN_INPUT_SHAPE, seed=0),
    )
    return (model, enc) if with_model else enc
