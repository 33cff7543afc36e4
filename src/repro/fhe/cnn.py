"""Compile Conv/BN/Pool networks to encrypted CKKS inference.

The paper's headline workloads are CNNs, but CKKS has no native
convolution: everything must become slot arithmetic.  This module lowers
a ``repro.nn`` conv stack onto the exact machinery the encrypted MLP
path already uses, so one executor (:class:`~repro.fhe.network.EncryptedNetwork`)
serves both workloads:

* **Conv2d → structured sparse matvec.**  im2col happens at *compile
  time*: the convolution over a ``(C, H, W)`` activation is materialised
  as a matrix acting on the slot vector (``out[(oc, oh, ow)] = Σ
  w[oc, ic, i, j] · x[slot_of(ic, oh·s+i-p, ow·s+j-p)]``), whose
  generalised diagonals are few and banded — exactly what
  :func:`~repro.fhe.linear.plan_matvec` turns into an ``O(√D)``-keyswitch
  BSGS plan.
* **BatchNorm2d → folded into the adjacent conv.**  With frozen
  statistics BN is the per-channel affine ``y = s_c·x + t_c``; folding
  multiplies the conv's output-channel rows by ``s_c`` and adjusts the
  bias — zero runtime cost.  ``fold_bn=False`` keeps BN as a standalone
  slot-wise ``affine`` layer instead (one plaintext multiply + add, one
  level), which the differential tests compare against.
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

Exact ``ReLU``/``MaxPool2d`` are rejected like in :func:`compile_mlp`
(replace with PAF layers first); ``PAFMaxPool2d`` lowering (a tournament
of ciphertext multiplies over shifted copies) is not implemented yet.
"""

from __future__ import annotations

import numpy as np

from repro.ckks import CkksParams
from repro.core.paf_layer import PAFMaxPool2d, PAFReLU
from repro.fhe.ir import (
    AffineNode,
    ConvNode,
    Graph,
    IRNode,
    MatvecNode,
    MergeNode,
    PafNode,
    PoolNode,
    ResidualTapNode,
)
from repro.fhe.network import EncryptedNetwork
from repro.fhe.packing import GridLayout, MultiGridLayout
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.models.resnet import BasicBlock
from repro.nn.module import Module

__all__ = [
    "conv2d_layout_matrix",
    "linear_layout_matrix",
    "conv2d_shard_matrices",
    "linear_shard_matrices",
    "fold_bn_into_conv",
    "bn_affine_vectors",
    "avg_pool_shifts",
    "compile_cnn",
    "compile_resnet",
]


# ----------------------------------------------------------------------
# layer lowering (pure numpy, compile time only)
# ----------------------------------------------------------------------
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


def _bn_scale_shift(bn: BatchNorm2d) -> tuple:
    """Frozen per-channel ``(s, t)`` with ``bn(x) = s·x + t``.

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
    return s, t


def fold_bn_into_conv(
    weight: np.ndarray, bias: np.ndarray | None, bn: BatchNorm2d
) -> tuple:
    """Fold a frozen BatchNorm2d into the preceding conv's weights.

    ``bn(conv(x)) = (s_c · W) x + (s_c · b + t_c)`` — the scale multiplies
    every kernel of output channel ``c``, the shift lands in the bias.
    Returns the folded ``(weight, bias)``.
    """
    s, t = _bn_scale_shift(bn)
    if len(s) != weight.shape[0]:
        raise ValueError(
            f"BN features {len(s)} != conv output channels {weight.shape[0]}"
        )
    folded_w = weight * s[:, None, None, None]
    folded_b = t if bias is None else s * bias + t
    return folded_w, folded_b


def bn_affine_vectors(bn: BatchNorm2d, layout: GridLayout) -> tuple:
    """Slot-wise ``(scale, shift)`` vectors for an *unfolded* BatchNorm.

    Each occupied slot of the grid gets its channel's ``s_c`` / ``t_c``;
    garbage slots get zero (so the affine layer also re-zeroes whatever
    it scales outside the grid, and shifts nothing there).
    """
    s, t = _bn_scale_shift(bn)
    if len(s) != layout.channels:
        raise ValueError(f"BN features {len(s)} != layout channels {layout.channels}")
    scale_vec = np.zeros(layout.span)
    shift_vec = np.zeros(layout.span)
    pos = layout.positions()
    for c in range(layout.channels):
        scale_vec[pos[c].ravel()] = s[c]
        shift_vec[pos[c].ravel()] = t[c]
    return scale_vec, shift_vec


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


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------
_SKIPPED = (Dropout, Identity)
_MATCHED = (
    Conv2d,
    BatchNorm2d,
    PAFReLU,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Linear,
)


def _op_sequence(model: Module) -> list:
    """The compilable leaf modules of ``model`` in definition order.

    Containers are traversed (the compiler assumes, like ``compile_mlp``,
    that they execute their children sequentially in definition order);
    matched layers are taken whole (a ``PAFReLU``'s internal ``PAFSign``
    is part of its lowering, not a separate op); inference no-ops
    (Dropout, Identity) are dropped.  Any *other* leaf is an operation
    this compiler cannot lower — silently skipping it would produce a
    network that decrypts to wrong logits, so it raises instead.
    """
    ops: list = []

    def visit(name: str, mod: Module) -> None:
        if isinstance(mod, ReLU):
            raise TypeError(
                f"layer {name!r} is an exact ReLU — run SMART-PAF replacement "
                "before compiling to FHE (CKKS has no non-polynomial ops)"
            )
        if isinstance(mod, MaxPool2d):
            raise TypeError(
                f"layer {name!r} is an exact MaxPool2d — replace it with a PAF "
                "max-pool (or retrain with AvgPool2d) before compiling to FHE"
            )
        if isinstance(mod, PAFMaxPool2d):
            raise NotImplementedError(
                f"layer {name!r}: encrypted PAF max-pool lowering (a tournament "
                "of ciphertext multiplies over shifted copies) is not compiled "
                "yet — retrain the model with AvgPool2d"
            )
        if isinstance(mod, BasicBlock):
            # kept whole: the skip connection is part of its lowering
            ops.append((name, mod))
            return
        if isinstance(mod, _MATCHED):
            ops.append((name, mod))
            return
        if isinstance(mod, _SKIPPED):
            return
        if mod._modules:  # container: recurse in definition order
            for attr, child in mod._modules.items():
                visit(f"{name}.{attr}" if name else attr, child)
            return
        raise TypeError(
            f"layer {name!r} ({type(mod).__name__}) has no encrypted lowering — "
            "the CNN compiler supports Conv2d, BatchNorm2d, PAFReLU, AvgPool2d, "
            "GlobalAvgPool2d, Flatten, Linear (plus Dropout/Identity no-ops)"
        )

    visit("", model)
    return ops


def compile_cnn(
    model: Module,
    input_shape: tuple,
    params: CkksParams,
    seed: int = 0,
    fold_bn: bool = True,
    policy=None,
) -> EncryptedNetwork:
    """Compile a (PAF-approximated) conv net for encrypted inference.

    ``input_shape`` is the single-image ``(C, H, W)``; the client packs
    the flattened image exactly like an MLP input vector
    (:meth:`EncryptedNetwork.encrypt_batch` / ``pack_batch``).  The
    module tree may contain Conv2d, BatchNorm2d (frozen statistics),
    PAFReLU, AvgPool2d, GlobalAvgPool2d, Flatten and Linear layers
    (Dropout/Identity are inference no-ops and skipped).  ``fold_bn``
    folds each BatchNorm into the directly preceding conv (the default —
    zero runtime cost); otherwise BN compiles to a standalone slot-wise
    affine layer costing one extra level.

    Every conv/linear is lowered to a slot-space matrix against the
    running :class:`~repro.fhe.packing.GridLayout` and compiled to a
    :class:`~repro.fhe.linear.MatvecPlan` by the shared
    :class:`EncryptedNetwork` machinery; pools become rotate-and-sum
    plans.
    """
    if policy is not None:
        seed, fold_bn = policy.seed, policy.fold_bn
    if len(input_shape) != 3:
        raise ValueError(f"input_shape must be (C, H, W), got {input_shape}")
    ops = _op_sequence(model)
    grid: GridLayout | None = GridLayout.dense(*input_shape)
    positions: np.ndarray | None = None  # set once the activation is flat
    layers: list[IRNode] = []
    spans: list[int] = [grid.span]

    def _require_grid(name: str) -> GridLayout:
        if grid is None:
            raise TypeError(f"layer {name!r} needs an image grid, but the "
                            "activation was already flattened")
        return grid

    i = 0
    while i < len(ops):
        name, mod = ops[i]
        if isinstance(mod, BasicBlock):
            raise TypeError(
                f"layer {name!r} is a residual block — compile_cnn lowers "
                "straight-line networks only; use compile_resnet (it also "
                "handles channel sharding)"
            )
        if isinstance(mod, Conv2d):
            g = _require_grid(name)
            w = mod.weight.data.copy()
            b = mod.bias.data.copy() if mod.bias is not None else None
            if fold_bn and i + 1 < len(ops) and isinstance(ops[i + 1][1], BatchNorm2d):
                w, b = fold_bn_into_conv(w, b, ops[i + 1][1])
                i += 1  # the BN is consumed by the fold
            mat, bias_vec, grid = conv2d_layout_matrix(
                w, b, g, stride=mod.stride, padding=mod.padding
            )
            layers.append(
                ConvNode(
                    weight=mat,
                    bias=bias_vec,
                    in_channels=g.channels,
                    out_channels=grid.channels,
                    kernel_size=mod.kernel_size,
                    stride=mod.stride,
                    padding=mod.padding,
                    layout=grid,
                )
            )
            spans.extend(mat.shape)
        elif isinstance(mod, BatchNorm2d):
            g = _require_grid(name)
            scale_vec, shift_vec = bn_affine_vectors(mod, g)
            layers.append(
                AffineNode(affine_scale=scale_vec, affine_shift=shift_vec)
            )
        elif isinstance(mod, PAFReLU):
            layers.append(
                PafNode(paf=mod.sign.to_composite(), scale=mod.static_scale)
            )
        elif isinstance(mod, AvgPool2d):
            g = _require_grid(name)
            k = mod.kernel_size
            grid = g.pooled(k, mod.stride)
            layers.append(
                PoolNode(
                    shifts=avg_pool_shifts(g, k, k),
                    pool_scale=1.0 / (k * k),
                    layout=grid,
                )
            )
        elif isinstance(mod, GlobalAvgPool2d):
            g = _require_grid(name)
            grid = g.global_pooled()
            layers.append(
                PoolNode(
                    shifts=avg_pool_shifts(g, g.height, g.width),
                    pool_scale=1.0 / (g.height * g.width),
                    layout=grid,
                )
            )
        elif isinstance(mod, Flatten):
            positions = _require_grid(name).positions().ravel()
            grid = None
        elif isinstance(mod, Linear):
            if positions is None:
                # implicit flatten (e.g. GlobalAvgPool2d straight into the head)
                positions = _require_grid(name).positions().ravel()
                grid = None
            mat = linear_layout_matrix(mod.weight.data, positions)
            bias_vec = mod.bias.data.copy() if mod.bias is not None else None
            layers.append(MatvecNode(weight=mat, bias=bias_vec))
            spans.extend(mat.shape)
            positions = np.arange(mod.out_features)
        i += 1

    if not any(isinstance(layer, MatvecNode) for layer in layers):
        raise ValueError("model has no Conv2d or Linear layers to compile")
    size = max(spans)
    # zero-pad every lowered matrix to square so the diagonal layout is uniform
    for layer in layers:
        if isinstance(layer, MatvecNode):
            padded = np.zeros((size, size))
            padded[: layer.weight.shape[0], : layer.weight.shape[1]] = layer.weight
            layer.weight = padded
    return EncryptedNetwork(
        Graph(layers, size=size), params=params, seed=seed, policy=policy
    )


def compile_resnet(
    model: Module,
    input_shape: tuple,
    params: CkksParams,
    num_shards: int = 2,
    seed: int = 0,
    policy=None,
) -> EncryptedNetwork:
    """Compile a (PAF-approximated) residual CNN to multi-ciphertext FHE.

    The channel-sharded sibling of :func:`compile_cnn`: activations are channel-
    sharded across up to ``num_shards`` ciphertexts
    (:class:`~repro.fhe.packing.MultiGridLayout` — never more shards than
    channels, so a 1-channel input still enters as one ciphertext), every
    conv/linear lowers to a ``K_out × K_in`` grid of per-shard-pair
    matvec blocks, and :class:`~repro.nn.models.resnet.BasicBlock`
    modules lower to ``residual``-tap / ``merge`` layer pairs:

    * the tap saves the live shard list (zero cost, zero levels);
    * the main branch is ``conv1 (+BN folded) → PAF → conv2 (+BN
      folded)``;
    * the merge applies the block's downsample — the folded
      1×1-projection conv for stride/width changes, nothing for an
      identity skip — to the *saved* branch, aligns it to the main
      branch's exact (level, scale) and adds shard-wise;
    * the post-add PAF follows.

    Strided convolutions (``conv1`` of a downsampling block and its 1×1
    projection) emit dense output grids at the reduced resolution through
    the ordinary :class:`GridLayout` machinery, so both branches of a
    downsampling block meet in the same layout.  BatchNorm is always
    folded into its preceding conv here (a standalone sharded affine is
    not lowered); exact ReLU / MaxPool are rejected exactly like in
    :func:`compile_cnn`.  The model must open with a stem conv (or
    linear) — the packed input carries its wraparound replica, and only
    a matvec re-establishes the replica-zero invariant taps rely on.
    """
    if policy is not None:
        seed = policy.seed
    if len(input_shape) != 3:
        raise ValueError(f"input_shape must be (C, H, W), got {input_shape}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ops = _op_sequence(model)
    mgrid = MultiGridLayout.split(*input_shape, num_shards=num_shards)
    input_mgrid = mgrid
    layers: list[IRNode] = []
    spans: list[int] = [mgrid.span]

    def lower_conv(conv: Conv2d, bn: BatchNorm2d | None, grid_in: MultiGridLayout):
        w = conv.weight.data.copy()
        b = conv.bias.data.copy() if conv.bias is not None else None
        if bn is not None:
            w, b = fold_bn_into_conv(w, b, bn)
        blocks, bias_shards, out = conv2d_shard_matrices(
            w, b, grid_in, stride=conv.stride, padding=conv.padding,
            num_shards=num_shards,
        )
        for row in blocks:
            for mat in row:
                if mat is not None:
                    spans.extend(mat.shape)
        return blocks, bias_shards, out

    def lower_paf(name: str, mod) -> PafNode:
        if isinstance(mod, ReLU):
            raise TypeError(
                f"layer {name!r} is an exact ReLU — run SMART-PAF replacement "
                "before compiling to FHE (CKKS has no non-polynomial ops)"
            )
        if not isinstance(mod, PAFReLU):
            raise TypeError(f"layer {name!r}: expected a PAF activation")
        return PafNode(paf=mod.sign.to_composite(), scale=mod.static_scale)

    def consume_bn(seq: list, idx: int) -> tuple:
        """(BN to fold or None, next index) — BN must follow its conv."""
        if idx + 1 < len(seq) and isinstance(seq[idx + 1][1], BatchNorm2d):
            _bn_scale_shift(seq[idx + 1][1])  # validate frozen stats early
            return seq[idx + 1][1], idx + 2
        return None, idx + 1

    i = 0
    while i < len(ops):
        name, mod = ops[i]
        if isinstance(mod, Conv2d):
            bn, i = consume_bn(ops, i)
            in_channels = mgrid.total_channels
            blocks, bias_shards, mgrid = lower_conv(mod, bn, mgrid)
            layers.append(
                ConvNode(
                    blocks=blocks,
                    bias_shards=bias_shards,
                    in_channels=in_channels,
                    out_channels=mgrid.total_channels,
                    kernel_size=mod.kernel_size,
                    stride=mod.stride,
                    padding=mod.padding,
                    layout=mgrid,
                )
            )
            continue
        if isinstance(mod, BasicBlock):
            if not layers:
                raise TypeError(
                    f"block {name!r} is the first compiled layer — the sharded "
                    "compiler needs a stem conv before the first residual tap "
                    "(the packed input still carries its replica half)"
                )
            tap_grid = mgrid
            layers.append(ResidualTapNode())
            tap_idx = len(layers) - 1
            inner = [
                (f"{name}.conv1", mod.conv1), (f"{name}.bn1", mod.bn1),
                (f"{name}.relu1", mod.relu1),
                (f"{name}.conv2", mod.conv2), (f"{name}.bn2", mod.bn2),
            ]
            j = 0
            while j < len(inner):
                iname, imod = inner[j]
                if isinstance(imod, Conv2d):
                    bn, j = consume_bn(inner, j)
                    in_channels = mgrid.total_channels
                    blocks, bias_shards, mgrid = lower_conv(imod, bn, mgrid)
                    layers.append(
                        ConvNode(
                            blocks=blocks,
                            bias_shards=bias_shards,
                            in_channels=in_channels,
                            out_channels=mgrid.total_channels,
                            kernel_size=imod.kernel_size,
                            stride=imod.stride,
                            padding=imod.padding,
                            layout=mgrid,
                        )
                    )
                    continue
                layers.append(lower_paf(iname, imod))
                j += 1
            if isinstance(mod.downsample, Identity):
                if tap_grid != mgrid:
                    raise ValueError(
                        f"block {name!r}: identity skip but the main branch "
                        f"changed the layout ({tap_grid} -> {mgrid}) — the "
                        "block needs a projection downsample"
                    )
                layers.append(MergeNode(tap=tap_idx))
            else:
                ds = list(mod.downsample._modules.values())
                if len(ds) != 2 or not isinstance(ds[0], Conv2d) \
                        or not isinstance(ds[1], BatchNorm2d):
                    raise TypeError(
                        f"block {name!r}: downsample must be Conv2d + BatchNorm2d"
                    )
                proj_blocks, proj_bias, proj_grid = lower_conv(ds[0], ds[1], tap_grid)
                if proj_grid != mgrid:
                    raise ValueError(
                        f"block {name!r}: projection lands on {proj_grid} but "
                        f"the main branch on {mgrid}"
                    )
                layers.append(
                    MergeNode(
                        blocks=proj_blocks, bias_shards=proj_bias, tap=tap_idx
                    )
                )
            layers.append(lower_paf(f"{name}.relu2", mod.relu2))
            i += 1
            continue
        if isinstance(mod, BatchNorm2d):
            raise TypeError(
                f"layer {name!r}: a standalone BatchNorm has no sharded "
                "lowering — place it directly after a conv so it folds"
            )
        if isinstance(mod, PAFReLU):
            layers.append(lower_paf(name, mod))
        elif isinstance(mod, AvgPool2d):
            k = mod.kernel_size
            shifts = avg_pool_shifts(mgrid.shards[0], k, k)
            mgrid = mgrid.pooled(k, mod.stride)
            layers.append(
                PoolNode(shifts=shifts, pool_scale=1.0 / (k * k), layout=mgrid)
            )
        elif isinstance(mod, GlobalAvgPool2d):
            g = mgrid.shards[0]
            shifts = avg_pool_shifts(g, g.height, g.width)
            mgrid = mgrid.global_pooled()
            layers.append(
                PoolNode(
                    shifts=shifts,
                    pool_scale=1.0 / (g.height * g.width),
                    layout=mgrid,
                )
            )
        elif isinstance(mod, Flatten):
            pass  # pure relabelling: linear heads read the grid directly
        elif isinstance(mod, Linear):
            blocks = linear_shard_matrices(mod.weight.data, mgrid)
            bias_vec = mod.bias.data.copy() if mod.bias is not None else None
            layers.append(MatvecNode(blocks=blocks, bias_shards=[bias_vec]))
            for row in blocks:
                for mat in row:
                    if mat is not None:
                        spans.extend(mat.shape)
            mgrid = MultiGridLayout.split(mod.out_features, 1, 1, num_shards=1)
        else:
            raise TypeError(
                f"layer {name!r} ({type(mod).__name__}) has no sharded "
                "encrypted lowering"
            )
        i += 1

    if not any(isinstance(layer, MatvecNode) for layer in layers):
        raise ValueError("model has no Conv2d or Linear layers to compile")
    if not isinstance(layers[0], MatvecNode):
        raise TypeError(
            "the sharded compiler needs the first compiled layer to be a "
            "conv/linear (the packed input still carries its replica half)"
        )
    size = max(spans)
    for layer in layers:
        if layer.blocks is not None:
            for row in layer.blocks:
                for k, mat in enumerate(row):
                    if mat is None:
                        continue
                    padded = np.zeros((size, size))
                    padded[: mat.shape[0], : mat.shape[1]] = mat
                    row[k] = padded
    return EncryptedNetwork(
        Graph(
            layers,
            size=size,
            input_shards=input_mgrid.num_shards,
            input_splits=[g.num_elements for g in input_mgrid.shards],
        ),
        params=params,
        seed=seed,
        policy=policy,
    )
