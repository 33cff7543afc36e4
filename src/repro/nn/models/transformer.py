"""The toy transformer for the encrypted-attention pipeline.

Residual self-attention + GELU-MLP blocks, mean-pooled into a linear
classification head.  One block is the smallest model that exercises
every operator of the encrypted transformer lowering (matmul as
batched matvec over token shards, the mean-stabilised softmax PAF, the
dense GELU PAF and shard-sum pooling).

LayerNorm is deliberately absent: the rsqrt PAF it needs exists (and is
tested) in ``repro.paf.transformer``, but normalising between residual
adds would spend ~4 more ciphertext levels without changing which
operators the lowering has to prove out.  In its place the model uses
the standard normalisation-free discipline — ``1/dim`` attention-score
scaling (the muP variant of ``1/sqrt(dim)``) and scaled initialisation
of the residual-stream writers — which keeps the centred attention
scores and the GELU pre-activations inside ranges a low-degree
polynomial can approximate tightly; the encrypted lowering inherits
those bounds through PAF calibration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import GELU, Linear, Softmax, TokenMeanPool
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["ToyTransformer", "TransformerBlock", "toy_transformer"]


class TransformerBlock(Module):
    """One residual attention + GELU-MLP block, no classification head.

    The per-block unit of :class:`ToyTransformer`.
    """

    def __init__(
        self,
        seq: int,
        dim: int,
        ff: int,
        rng: np.random.Generator,
        proj_init_scale: float,
    ):
        super().__init__()
        self.seq = seq
        self.dim = dim
        self.ff = ff
        self.proj_init_scale = proj_init_scale
        self.wq = Linear(dim, dim, rng=rng)
        self.wk = Linear(dim, dim, rng=rng)
        self.wv = Linear(dim, dim, rng=rng)
        self.wo = Linear(dim, dim, rng=rng)
        self.softmax = Softmax(axis=-1)
        self.fc1 = Linear(dim, ff, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(ff, dim, rng=rng)
        #: scalar applied to the raw q·k dot products (read by the FHE
        #: lowering, which folds it into the score placement masks)
        self.score_scale = 1.0 / dim
        for lin in (self.wo, self.fc1):
            lin.weight.data *= self.proj_init_scale

    def attention_scores(self, x: Tensor) -> Tensor:
        """Scaled dot-product scores ``(batch, seq, seq)``.

        Scores scale by ``1/dim`` (muP attention scaling) rather than
        ``1/sqrt(dim)``: the centred scores stay within a few units, so
        the softmax PAF's range-reduced exp and the Newton reciprocal
        of the sum both operate on well-conditioned intervals.
        """
        q = self.wq(x)
        k = self.wk(x)
        return (q @ k.transpose(0, 2, 1)) * self.score_scale

    def forward(self, x: Tensor) -> Tensor:
        probs = self.softmax(self.attention_scores(x))
        x = x + self.wo(probs @ self.wv(x))
        return x + self.fc2(self.act(self.fc1(x)))


class ToyTransformer(Module):
    """``num_blocks`` residual transformer blocks + mean-pool head.

    Input ``(batch, seq, dim)``; output ``(batch, num_classes)`` logits.
    Blocks register as child modules ``block0``, ``block1``, … (the
    :attr:`blocks` property walks them in order), then the token
    mean-``pool`` and the linear ``head``; each block carries its
    own softmax/GELU sites, so
    :func:`repro.core.surgery.replace_transformer_nonpoly` calibrates a
    PAF per site.  At two blocks the encrypted lowering costs more
    levels than any practical prime chain carries, so compilation
    succeeds only through refresh placement
    (:class:`repro.fhe.ir.CompilePolicy`).
    """

    #: init-time shrink of the residual-stream writers (wo, fc1): with no
    #: LayerNorm, kaiming-scale projections push GELU pre-activations to
    #: ~3x the input range, past what a low-degree polynomial can track
    proj_init_scale = 0.35

    def __init__(
        self,
        seq: int = 4,
        dim: int = 8,
        ff: int = 16,
        num_classes: int = 3,
        num_blocks: int = 1,
        seed: Optional[int] = None,
    ):
        super().__init__()
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        rng = np.random.default_rng(seed)
        self.seq = seq
        self.dim = dim
        self.ff = ff
        self.num_classes = num_classes
        self.num_blocks = num_blocks
        # residual-stream writers shrink with depth (the 1/sqrt(blocks)
        # discipline): the stream's variance stays put as blocks stack,
        # which keeps every block's GELU pre-activations and attention
        # scores inside the narrow ranges low-degree PAFs evaluate
        # accurately under fixed-point CKKS arithmetic
        proj = self.proj_init_scale / float(np.sqrt(num_blocks))
        for b in range(num_blocks):
            setattr(
                self,
                f"block{b}",
                TransformerBlock(seq, dim, ff, rng=rng, proj_init_scale=proj),
            )
        self.pool = TokenMeanPool()
        self.head = Linear(dim, num_classes, rng=rng)

    @property
    def blocks(self) -> list:
        """The blocks, in execution order."""
        return [getattr(self, f"block{b}") for b in range(self.num_blocks)]

    def forward(self, x: Tensor) -> Tensor:
        for blk in self.blocks:
            x = blk(x)
        return self.head(self.pool(x))


def toy_transformer(**kwargs) -> ToyTransformer:
    return ToyTransformer(**kwargs)
