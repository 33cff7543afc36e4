"""Conv/BN/Pool layers as slot arithmetic: the pure-numpy layer lowerings.

The paper's headline workloads are CNNs, but CKKS has no native
convolution: everything must become slot arithmetic.  These helpers turn
one ``repro.nn`` layer at a time into the slot-space matrices, vectors
and rotation steps the graph IR carries; :func:`repro.fhe.lower.lower`
threads a :class:`~repro.fhe.packing.MultiGridLayout` through a model
and calls them layer by layer.

* **Conv2d → structured sparse matvec.**  im2col happens at *lowering
  time*: the convolution over a ``(C, H, W)`` activation is materialised
  as a matrix acting on the slot vector (``out[(oc, oh, ow)] = Σ
  w[oc, ic, i, j] · x[slot_of(ic, oh·s+i-p, ow·s+j-p)]``), whose
  generalised diagonals are few and banded — exactly what
  :func:`~repro.fhe.linear.plan_matvec` turns into an ``O(√D)``-keyswitch
  BSGS plan.  Against a channel-sharded activation the matrix splits
  into a ``K_out × K_in`` grid of per-shard-pair blocks.
* **BatchNorm2d → folded into the adjacent conv.**  With frozen
  statistics BN is the per-channel affine ``y = s_c·x + t_c``; folding
  multiplies the conv's output-channel rows by ``s_c`` and adjusts the
  bias — zero runtime cost.  Every BatchNorm must therefore directly
  follow a conv; the lowering rejects any other.
* **AvgPool2d / GlobalAvgPool2d → rotate-and-sum plans.**  Window sums
  are separable: ``k-1`` hoisted rotations by the column stride, then
  ``k-1`` by the row stride, then a single masked plaintext multiply by
  ``1/k²``.  The output is *not* compacted — each pooled value stays at
  its window's corner slot, tracked by
  :class:`~repro.fhe.packing.GridLayout`, and the next layer's matrix is
  lowered against that strided grid (garbage slots meet zero matrix
  columns).
* **Linear → column-permuted matvec** reading the current grid (an
  explicit ``Flatten`` is a pure relabelling — slot positions don't
  move).
"""

from __future__ import annotations

import numpy as np

from repro.fhe.packing import GridLayout, MultiGridLayout
from repro.nn.layers import BatchNorm2d

__all__ = [
    "conv2d_layout_matrix",
    "linear_layout_matrix",
    "conv2d_shard_matrices",
    "linear_shard_matrices",
    "fold_bn_into_conv",
    "avg_pool_shifts",
]


def conv2d_layout_matrix(
    weight: np.ndarray,
    bias: np.ndarray | None,
    layout: GridLayout,
    stride: int = 1,
    padding: int = 0,
) -> tuple:
    """Lower one Conv2d to a slot-space matrix (compile-time im2col).

    ``weight`` is ``(OC, IC, KH, KW)``; the returned matrix has one row
    per output element ``(oc, oh, ow)`` (dense channel-major order) and
    one column per *slot* of the input grid, so it composes with any
    strided :class:`GridLayout` a previous pool left behind.  Returns
    ``(matrix, bias_vector, output_layout)`` — the output layout is
    always dense.
    """
    oc, ic, kh, kw = weight.shape
    if ic != layout.channels:
        raise ValueError(f"channel mismatch: layout {layout.channels} vs weight {ic}")
    oh = (layout.height + 2 * padding - kh) // stride + 1
    ow = (layout.width + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {kh}x{kw} exceeds padded input {layout}")
    mat = np.zeros((oc * oh * ow, layout.span))
    for o_c in range(oc):
        for o_h in range(oh):
            for o_w in range(ow):
                row = (o_c * oh + o_h) * ow + o_w
                for i_c in range(ic):
                    for i in range(kh):
                        h_in = o_h * stride + i - padding
                        if not 0 <= h_in < layout.height:
                            continue
                        for j in range(kw):
                            w_in = o_w * stride + j - padding
                            if not 0 <= w_in < layout.width:
                                continue
                            col = layout.slot_of(i_c, h_in, w_in)
                            mat[row, col] += weight[o_c, i_c, i, j]
    bias_vec = None
    if bias is not None:
        bias_vec = np.repeat(np.asarray(bias, dtype=np.float64), oh * ow)
    return mat, bias_vec, GridLayout.dense(oc, oh, ow)


def linear_layout_matrix(weight: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Lower a Linear layer reading its inputs from ``positions``.

    ``positions[j]`` is the slot holding logical input ``j`` (the
    flattened NCHW order of the preceding grid); the returned matrix has
    the weight columns scattered to those slots, zero everywhere a
    garbage slot would be read.
    """
    positions = np.asarray(positions, dtype=np.int64).ravel()
    out_f, in_f = weight.shape
    if in_f != len(positions):
        raise ValueError(
            f"linear expects {in_f} inputs, layout provides {len(positions)}"
        )
    mat = np.zeros((out_f, int(positions.max()) + 1))
    mat[:, positions] = weight
    return mat


def conv2d_shard_matrices(
    weight: np.ndarray,
    bias: np.ndarray | None,
    mgrid: MultiGridLayout,
    stride: int = 1,
    padding: int = 0,
    num_shards: int = 1,
) -> tuple:
    """Lower one Conv2d against a channel-sharded input to block matrices.

    The convolution splits along both channel axes: input channels are
    already sharded by ``mgrid``; output channels shard across
    ``min(num_shards, OC)`` ciphertexts with a balanced contiguous split.
    Block ``(j, i)`` is :func:`conv2d_layout_matrix` of the weight slice
    ``W[oc_j, ic_i]`` against input shard ``i``'s grid — all-zero blocks
    come back as ``None`` so the executor skips them.  Returns
    ``(blocks, bias_shards, output multi-grid)``; output shards are
    dense, and the per-output-shard bias lands once per shard (not once
    per block).
    """
    oc, ic, kh, kw = weight.shape
    if ic != mgrid.total_channels:
        raise ValueError(
            f"channel mismatch: multi-grid {mgrid.total_channels} vs weight {ic}"
        )
    out_parts = np.array_split(np.arange(oc), min(max(num_shards, 1), oc))
    in_offsets = mgrid.channel_offsets
    blocks: list = []
    bias_shards: list = []
    out_grids: list = []
    for part in out_parts:
        row: list = []
        out_grid = None
        for i, g in enumerate(mgrid.shards):
            w_block = weight[
                np.ix_(part, np.arange(in_offsets[i], in_offsets[i] + g.channels))
            ]
            mat, _, out_grid = conv2d_layout_matrix(
                w_block, None, g, stride=stride, padding=padding
            )
            row.append(mat if np.any(mat) else None)
        blocks.append(row)
        out_grids.append(out_grid)
        if bias is None:
            bias_shards.append(None)
        else:
            bias_shards.append(
                np.repeat(
                    np.asarray(bias, dtype=np.float64)[part],
                    out_grid.height * out_grid.width,
                )
            )
    return blocks, bias_shards, MultiGridLayout(tuple(out_grids))


def linear_shard_matrices(weight: np.ndarray, mgrid: MultiGridLayout) -> list:
    """Lower a Linear head reading a sharded activation to a 1 × K row.

    Logical input ``j`` is the ``j``-th element of the concatenated
    per-shard NCHW flattenings (the same order
    :meth:`MultiGridLayout.split_values` packs inputs in); each shard's
    weight columns scatter to that shard's slot positions.  The output
    lands whole on shard 0 — classifier heads are narrow, so the result
    of a sharded network is always a single ciphertext.
    """
    out_f, in_f = weight.shape
    if in_f != mgrid.num_elements:
        raise ValueError(
            f"linear expects {in_f} inputs, sharded layout provides "
            f"{mgrid.num_elements}"
        )
    row: list = []
    start = 0
    for g in mgrid.shards:
        cols = weight[:, start : start + g.num_elements]
        start += g.num_elements
        mat = linear_layout_matrix(cols, g.positions().ravel())
        row.append(mat if np.any(mat) else None)
    return [row]


def fold_bn_into_conv(
    weight: np.ndarray, bias: np.ndarray | None, bn: BatchNorm2d
) -> tuple:
    """Fold a frozen BatchNorm2d into the preceding conv's weights.

    ``bn(conv(x)) = (s_c · W) x + (s_c · b + t_c)`` — the scale multiplies
    every kernel of output channel ``c``, the shift lands in the bias.
    Returns the folded ``(weight, bias)``.

    Requires frozen statistics: with ``track_running_stats=False`` the
    layer normalises by *batch* statistics even in eval mode (the
    paper's Tab. 5 training configuration), which is data-dependent and
    has no FHE equivalent.
    """
    if not bn.track_running_stats:
        raise ValueError(
            "BatchNorm2d must be built with track_running_stats=True to be "
            "compiled: batch statistics are data-dependent, and CKKS has no "
            "data-dependent ops (freeze the running statistics first)"
        )
    s = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    t = bn.beta.data - bn.running_mean * s
    if len(s) != weight.shape[0]:
        raise ValueError(
            f"BN features {len(s)} != conv output channels {weight.shape[0]}"
        )
    folded_w = weight * s[:, None, None, None]
    folded_b = t if bias is None else s * bias + t
    return folded_w, folded_b


def avg_pool_shifts(layout: GridLayout, kernel_h: int, kernel_w: int) -> tuple:
    """Rotate-and-sum steps for a pooling window over ``layout``.

    Separable accumulation: ``(column shifts, row shifts)`` in slot
    units — each stage's rotations act on one ciphertext, so they share
    a hoisted keyswitch decomposition at runtime.
    """
    if kernel_h > layout.height or kernel_w > layout.width:
        raise ValueError(f"pool window {kernel_h}x{kernel_w} exceeds grid {layout}")
    cols = tuple(j * layout.col_stride for j in range(1, kernel_w))
    rows = tuple(i * layout.row_stride for i in range(1, kernel_h))
    return cols, rows
