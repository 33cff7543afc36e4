"""The one lowering: ``repro.nn`` model + :class:`CompilePolicy` → :class:`Graph`.

Pure numpy — no CKKS context, no keys, no executor.  Every model family
takes the same road: :func:`lower` walks the module tree
(:func:`_op_sequence`) against a :class:`~repro.fhe.packing.MultiGridLayout`
channel-sharded across ``policy.num_shards`` ciphertexts.  In that walk

* a plain CNN is the ``K = 1`` case (every matvec a ``1 × 1`` block grid);
* an MLP is the ``(in_features, 1, 1)`` "image" (``input_shape`` may be
  omitted for a model that opens with a ``Linear``);
* a :class:`~repro.nn.models.resnet.BasicBlock` is one more case:
  ``residual`` tap, the main branch ``conv1 + BN → PAF → conv2 + BN``
  lowered by the same walk, a ``merge`` that applies the block's
  downsample (the folded 1×1-projection conv for stride/width changes,
  nothing for an identity skip) to the *saved* branch, and the post-add
  PAF.  Strided convs emit dense output grids at the reduced resolution,
  so both branches of a downsampling block meet in the same layout;
* a :class:`~repro.nn.models.transformer.TransformerBlock` is another:
  it reads the ``(seq, dim, 1)`` grid sharded one token per ciphertext
  (what a model that opens with a block infers) and emits the residual
  attention and GELU-MLP pairs; a :class:`~repro.nn.layers.TokenMeanPool`
  is a shard-sum ``reduce`` whose ``1/seq`` folds into the ``Linear``
  after it.

The layer-level arithmetic (conv/linear matrices, BN folding, pool
rotation steps) lives in :mod:`repro.fhe.cnn`; structural legality —
bracket pairing, level gaps, the replica-zero invariant — is
:meth:`Graph.validate`'s, checked when the graph is built.
:class:`~repro.fhe.network.EncryptedNetwork` plans, keys and executes
the result.
"""

from __future__ import annotations

import numpy as np

from repro.core.paf_layer import PAFGELU, PAFMaxPool2d, PAFReLU, PAFSoftmax
from repro.fhe.cnn import (
    avg_pool_shifts,
    conv2d_shard_matrices,
    fold_bn_into_conv,
    linear_shard_matrices,
)
from repro.fhe.ir import (
    AttentionNode,
    CompilePolicy,
    Graph,
    MatvecNode,
    MergeNode,
    PafNode,
    PolyNode,
    PoolNode,
    ReduceNode,
    ResidualTapNode,
)
from repro.fhe.packing import MultiGridLayout
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
    TokenMeanPool,
)
from repro.nn.models.resnet import BasicBlock
from repro.nn.models.transformer import TransformerBlock
from repro.nn.module import Module

__all__ = ["lower"]

_SKIPPED = (Dropout, Identity)
#: leaves (and the composites, BasicBlock and TransformerBlock) the walk
#: lowers whole — a ``PAFReLU``'s internal ``PAFSign`` is part of its
#: lowering, a block's skip connections part of its
_MATCHED = (
    Conv2d,
    BatchNorm2d,
    PAFReLU,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Linear,
    BasicBlock,
    TransformerBlock,
    TokenMeanPool,
)


def _op_sequence(model: Module, prefix: str = "") -> list:
    """The compilable modules of ``model`` as ``(name, module)`` in
    definition order.

    Containers are traversed (assumed to execute their children
    sequentially in definition order); matched layers are taken whole;
    inference no-ops (Dropout, Identity) are dropped.  Any *other* leaf
    is an operation with no encrypted lowering — silently skipping it
    would produce a network that decrypts to wrong logits, so it raises
    instead, naming the layer.
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
        if isinstance(mod, _MATCHED):
            ops.append((name, mod))
        elif isinstance(mod, _SKIPPED):
            pass
        elif mod._modules:  # container: recurse in definition order
            for attr, child in mod._modules.items():
                visit(f"{name}.{attr}" if name else attr, child)
        else:
            raise TypeError(
                f"layer {name!r} ({type(mod).__name__}) has no encrypted lowering — "
                "the module walk supports Conv2d, BatchNorm2d, PAFReLU, AvgPool2d, "
                "GlobalAvgPool2d, Flatten, Linear, BasicBlock, TransformerBlock "
                "and TokenMeanPool (plus Dropout/Identity no-ops)"
            )

    visit(prefix, model)
    return ops


def _graph(nodes: list, min_size: int, **geometry) -> Graph:
    """Zero-pad every matvec / projection block to the common square
    ``size`` (the widest block side, at least ``min_size``) so all
    diagonals share one index space, and build the validated graph."""
    grids = [
        n.blocks
        for n in nodes
        if isinstance(n, (MatvecNode, MergeNode)) and n.blocks is not None
    ]
    mats = [m for grid in grids for row in grid for m in row if m is not None]
    size = max([min_size, *(side for m in mats for side in m.shape)])
    for grid in grids:
        for row in grid:
            for k, mat in enumerate(row):
                if mat is not None:
                    row[k] = np.zeros((size, size))
                    row[k][: mat.shape[0], : mat.shape[1]] = mat
    return Graph(nodes, size=size, **geometry)


def _lower_modules(model: Module, policy: CompilePolicy) -> Graph:
    """Walk the module tree against the running channel-sharded grid."""
    ops = _op_sequence(model)
    if not any(isinstance(mod, (Conv2d, Linear, BasicBlock, TransformerBlock)) for _, mod in ops):
        raise ValueError("model has no Conv2d or Linear layers to compile")
    first = ops[0][1]
    shape, num_shards = policy.input_shape, policy.num_shards
    if isinstance(first, TransformerBlock):  # one dim-element shard per token
        shape = shape or (first.seq, first.dim, 1)
        num_shards = num_shards or first.seq
    elif shape is None:
        if not isinstance(first, Linear):
            raise ValueError("convolutional models need input_shape=(C, H, W)")
        shape = (first.in_features, 1, 1)
    num_shards = num_shards or 1
    if len(shape) != 3:
        raise ValueError(f"input_shape must be (C, H, W), got {shape}")
    input_mgrid = MultiGridLayout.split(*shape, num_shards=num_shards)
    mgrid = input_mgrid
    min_size = input_mgrid.span
    flat = False  # set once a Flatten / Linear consumed the image grid
    nodes: list = []

    def require_grid(name: str) -> None:
        if flat:
            raise TypeError(
                f"layer {name!r} needs an image grid, but the activation was "
                "already flattened"
            )

    def conv_blocks(conv: Conv2d, bn: BatchNorm2d | None, grid_in) -> tuple:
        w = conv.weight.data.copy()
        b = conv.bias.data.copy() if conv.bias is not None else None
        if bn is not None:
            w, b = fold_bn_into_conv(w, b, bn)
        return conv2d_shard_matrices(
            w, b, grid_in, stride=conv.stride, padding=conv.padding,
            num_shards=num_shards,
        )

    def merge(name: str, downsample: Module, tap_grid) -> MergeNode:
        if isinstance(downsample, Identity):
            if tap_grid != mgrid:
                raise ValueError(
                    f"block {name!r}: identity skip but the main branch "
                    f"changed the layout ({tap_grid} -> {mgrid}) — the "
                    "block needs a projection downsample"
                )
            return MergeNode()
        ds = list(downsample._modules.values())
        if (
            len(ds) != 2
            or not isinstance(ds[0], Conv2d)
            or not isinstance(ds[1], BatchNorm2d)
        ):
            raise TypeError(f"block {name!r}: downsample must be Conv2d + BatchNorm2d")
        blocks, bias_shards, proj_grid = conv_blocks(ds[0], ds[1], tap_grid)
        if proj_grid != mgrid:
            raise ValueError(
                f"block {name!r}: projection lands on {proj_grid} but "
                f"the main branch on {mgrid}"
            )
        return MergeNode(blocks=blocks, bias_shards=bias_shards)

    def linear(lin: Linear, weight: np.ndarray) -> MatvecNode:
        nonlocal mgrid, flat
        blocks = linear_shard_matrices(weight, mgrid)
        bias_vec = lin.bias.data.copy() if lin.bias is not None else None
        # the output lands whole on one shard: heads are narrow
        mgrid = MultiGridLayout.split(lin.out_features, 1, 1, num_shards=1)
        flat = True
        return MatvecNode(blocks=blocks, bias_shards=[bias_vec])

    def transformer_block(name: str, blk: TransformerBlock) -> None:
        nonlocal min_size
        seq, dim = blk.seq, blk.dim
        tokens = MultiGridLayout.split(seq, dim, 1, num_shards=seq)
        if flat or mgrid != tokens:
            raise ValueError(
                f"block {name!r} needs one {dim}-element shard per token "
                f"(input_shape=({seq}, {dim}, 1), num_shards={seq}), got {mgrid}"
            )
        if not isinstance(blk.softmax, PAFSoftmax) or not isinstance(blk.act, PAFGELU):
            raise ValueError(
                f"block {name!r}: transformer compilation needs calibrated PAF "
                "modules — run replace_transformer_nonpoly(model, samples) first"
            )
        # the request block (2·size slots) must also hold the attention
        # executor's seq windows of dim lanes
        min_size = max(min_size, -(-seq * dim // 2))

        def diag_grid(w: np.ndarray) -> list:  # the same weights on every token
            return [[w if i == j else None for j in range(seq)] for i in range(seq)]

        def token_matvec(lin: Linear) -> MatvecNode:
            bias = lin.bias.data.copy()
            return MatvecNode(blocks=diag_grid(lin.weight.data.copy()), bias_shards=[bias] * seq)

        if not nodes:
            # identity "embed": its masked diagonal-0 multiply zeroes the
            # input's live replica halves, so the first tap saves a clean copy
            nodes.append(MatvecNode(blocks=diag_grid(np.eye(dim))))
        sm = blk.softmax
        attention = AttentionNode(
            seq=seq,
            dim=dim,
            score_scale=blk.score_scale,
            wq=blk.wq.weight.data.copy(),
            wk=blk.wk.weight.data.copy(),
            wv=blk.wv.weight.data.copy(),
            wo=blk.wo.weight.data.copy(),
            bq=blk.wq.bias.data.copy(),
            bk=blk.wk.bias.data.copy(),
            bv=blk.wv.bias.data.copy(),
            bo=blk.wo.bias.data.copy(),
            exp_poly=sm.exp.poly,
            exp_squarings=sm.exp.squarings,
            recip_init=sm.recip_init,
            recip_iters=sm.recip_iters,
        )
        nodes.extend([ResidualTapNode(), attention, MergeNode()])
        nodes.extend(
            [
                ResidualTapNode(),
                token_matvec(blk.fc1),
                PolyNode(poly=blk.act.poly),
                token_matvec(blk.fc2),
                MergeNode(),
            ]
        )

    def walk(seq: list) -> None:
        nonlocal mgrid, flat
        i = 0
        while i < len(seq):
            name, mod = seq[i]
            i += 1
            if isinstance(mod, Conv2d):
                require_grid(name)
                bn = None
                if i < len(seq) and isinstance(seq[i][1], BatchNorm2d):
                    bn = seq[i][1]  # consumed by the fold
                    i += 1
                blocks, bias_shards, mgrid = conv_blocks(mod, bn, mgrid)
                nodes.append(MatvecNode(blocks=blocks, bias_shards=bias_shards))
            elif isinstance(mod, BatchNorm2d):
                raise TypeError(
                    f"layer {name!r}: a BatchNorm2d must directly follow a "
                    "Conv2d to fold into it — there is no standalone "
                    "BatchNorm lowering"
                )
            elif isinstance(mod, BasicBlock):
                require_grid(name)
                tap_grid = mgrid
                nodes.append(ResidualTapNode())
                walk(
                    [
                        op
                        for attr in ("conv1", "bn1", "relu1", "conv2", "bn2")
                        for op in _op_sequence(getattr(mod, attr), f"{name}.{attr}")
                    ]
                )
                nodes.append(merge(name, mod.downsample, tap_grid))
                walk(_op_sequence(mod.relu2, f"{name}.relu2"))
            elif isinstance(mod, PAFReLU):
                nodes.append(PafNode(paf=mod.sign.to_composite(), scale=mod.static_scale))
            elif isinstance(mod, (AvgPool2d, GlobalAvgPool2d)):
                require_grid(name)
                g = mgrid.shards[0]  # every shard shares the spatial geometry
                if isinstance(mod, AvgPool2d):
                    kh = kw = mod.kernel_size
                    mgrid = mgrid.pooled(kh, mod.stride)
                else:
                    kh, kw = g.height, g.width
                    mgrid = mgrid.global_pooled()
                nodes.append(
                    PoolNode(
                        shifts=avg_pool_shifts(g, kh, kw),
                        pool_scale=1.0 / (kh * kw),
                    )
                )
            elif isinstance(mod, TransformerBlock):
                transformer_block(name, mod)
            elif isinstance(mod, TokenMeanPool):
                if flat or any(g.channels != 1 for g in mgrid.shards):
                    raise ValueError(f"layer {name!r}: a token mean-pool needs one token per shard")
                if i == len(seq) or not isinstance(seq[i][1], Linear):
                    raise TypeError(
                        f"layer {name!r}: a TokenMeanPool must directly precede "
                        "a Linear to fold its 1/seq into it"
                    )
                head = seq[i][1]  # consumed: the mean's 1/seq folds into it
                i += 1
                weight = head.weight.data / mgrid.num_shards
                mgrid = MultiGridLayout(mgrid.shards[:1])  # shard sum: one token's grid
                nodes.extend([ReduceNode(), linear(head, weight)])
            elif isinstance(mod, Flatten):
                flat = True  # pure relabelling: linear heads read the grid directly
            elif isinstance(mod, Linear):
                nodes.append(linear(mod, mod.weight.data))

    walk(ops)
    return _graph(
        nodes,
        min_size,
        input_shards=input_mgrid.num_shards,
        # K = 1 packs like a plain vector: anything up to `size`, zero-padded
        input_splits=(
            None if num_shards == 1 else [g.num_elements for g in input_mgrid.shards]
        ),
    )


def lower(model, policy: CompilePolicy | None = None) -> Graph:
    """Lower any supported ``repro.nn`` model into the graph IR.

    One way in: a walk of the module tree — Linear / PAF stacks, conv
    stacks, residual nets and transformer blocks alike — against the
    ``policy.input_shape`` image channel-sharded across
    ``policy.num_shards`` ciphertexts (default 1; never more shards than
    channels).  A model that opens with a ``Linear`` infers
    ``(in_features, 1, 1)``; one that opens with a ``TransformerBlock``
    infers ``(seq, dim, 1)`` across ``seq`` shards, one token each — the
    only layout a block accepts (``ValueError`` naming the block
    otherwise).  Each BatchNorm folds into the directly preceding conv
    (zero runtime cost); one that does not directly follow a conv has
    no lowering and raises ``TypeError``.  Exact ``ReLU`` /
    ``MaxPool2d`` — and a transformer block whose softmax / GELU were
    never PAF-replaced — are rejected: replace them with PAF layers
    first; that is the whole point of the paper.

    Returns the validated :class:`~repro.fhe.ir.Graph`; no CKKS context
    or key is touched.
    """
    return _lower_modules(model, policy or CompilePolicy())
