"""Typed graph IR for encrypted-network compilation.

Every compiled network — MLP, CNN, ResNet, transformer block — is a
linear sequence of **typed nodes**, each carrying its payload (weights,
polynomial plans, rotation shifts) and its **level consumption** on the
canonical CKKS scale schedule (:meth:`IRNode.level_cost`).
:func:`repro.fhe.lower.lower` is the one producer — every model family
lowers INTO this IR through it — and
:class:`~repro.fhe.network.EncryptedNetwork` executes the node list by
*type* dispatch — one handler per node class — instead of string
``kind`` comparisons.

Node taxonomy (see ``docs/graph-ir.md``):

========================  ======  ======================================
node                      levels  executes as
========================  ======  ======================================
:class:`MatvecNode`       1       Halevi-Shoup matvec over a ``K_out x
                                  K_in`` block grid, each block grouped
                                  by its BSGS :class:`~repro.fhe.linear.MatvecPlan`
                                  (per-diagonal = the ``n1 = size`` plan);
                                  Linear layers and lowered convs alike,
                                  one ciphertext is the 1 x 1 grid
:class:`PoolNode`         1       rotate-and-sum average pool + masked
                                  ``1/window`` multiply
:class:`PafNode`          d+1     composite sign-PAF ReLU via its
                                  :class:`~repro.ckks.poly_plan.ReluPlan`
:class:`PolyNode`         dep(p)  dense (non-odd) polynomial via its
                                  :class:`~repro.ckks.poly_plan.PolyPlan`
                                  — the GELU / exp tier
:class:`ResidualTapNode`  0       pushes the live shard list on the
                                  branch stack
:class:`MergeNode`        0       pops the matching tap, optional
                                  projection, exact align + add
:class:`ReduceNode`       0       cross-shard sum (sequence pooling);
                                  any scalar is folded into the next
                                  matvec, so only ct-ct adds execute
:class:`AttentionNode`    17+     one self-attention block: fused per-
                                  token Q/K/V grid, keys and values
                                  token-packed once per layer, one
                                  ct-ct score product and one rotate-
                                  and-sum reduce per query, mean-
                                  stabilised PS-evaluated softmax (exp
                                  poly, range-reduction squarings,
                                  Newton reciprocal), one ct-ct value
                                  product, window fold and the output
                                  projection
:class:`RefreshNode`      0*      exactness-gated level refresh
                                  (:func:`repro.ckks.bootstrap.refresh`)
                                  — *raises* the chain level back to the
                                  top minus its ``pipeline_levels``
                                  instead of consuming any, resetting
                                  the depth budget for the nodes after
                                  it (see ``docs/bootstrapping.md``)
========================  ======  ======================================

The **level/scale metadata contract**: a node's :meth:`~IRNode.level_cost`
is the number of chain levels it consumes on the *main* branch, and
every execution path through a node must consume exactly that many
rescales — the static schedule (:meth:`Graph.input_levels`, the refresh
placement and the slack gate) is derived from these numbers without
running a forward pass.  Skip
branches ride the main branch's level gap via exact ``align_to``
corrections and consume zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.paf.polynomial import CompositePAF, Polynomial
from repro.paf.relu import relu_mult_depth

__all__ = [
    "IRNode",
    "MatvecNode",
    "PoolNode",
    "PafNode",
    "PolyNode",
    "ResidualTapNode",
    "MergeNode",
    "ReduceNode",
    "AttentionNode",
    "RefreshNode",
    "Graph",
    "CompilePolicy",
    "apply_refresh_policy",
]


@dataclass
class IRNode:
    """Base class for graph-IR nodes; subclasses declare their payload
    as dataclass fields."""

    #: span / schedule label (stable across the IR redesign: trace span
    #: names and slack-baseline keys are ``layer{i:02d}:{kind}``)
    kind = "node"

    def level_cost(self) -> int:
        """Chain levels this node consumes on the main branch."""
        return 1


@dataclass
class MatvecNode(IRNode):
    """A Halevi-Shoup matvec: a ``K_out x K_in`` grid of ``size x size``
    slot-space ``blocks`` (``None`` marks an all-zero block) with
    per-output-shard ``bias_shards`` (``None`` without any).  Linear
    layers and convs (im2col at lowering time) both land here; a
    single-ciphertext layer is the 1 x 1 grid."""

    kind = "linear"
    blocks: list
    bias_shards: list | None = None


@dataclass
class PoolNode(IRNode):
    """Average pool: per-stage nonzero rotation steps ``shifts``
    (column shifts, then row shifts) and the ``1/window`` scalar."""

    kind = "pool"
    shifts: tuple = ()
    pool_scale: float = 1.0


@dataclass
class PafNode(IRNode):
    """A composite sign-PAF ReLU activation with its static scale."""

    kind = "paf"
    paf: CompositePAF | None = None
    scale: float = 1.0

    def level_cost(self) -> int:
        return relu_mult_depth(self.paf)


@dataclass
class PolyNode(IRNode):
    """A dense (non-odd) polynomial activation — the exp/GELU tier.

    ``poly`` is a :class:`repro.paf.polynomial.Polynomial` whose
    ``interval`` declares the domain it approximates over — a contract
    no compile path checks yet (ROADMAP item 3).
    """

    kind = "poly"
    poly: Polynomial | None = None

    def level_cost(self) -> int:
        from repro.paf.polynomial import mult_depth_of_degree

        return mult_depth_of_degree(self.poly.degree)


@dataclass
class ResidualTapNode(IRNode):
    """Pushes the live shard list onto the branch stack (free)."""

    kind = "residual"

    def level_cost(self) -> int:
        return 0


@dataclass
class MergeNode(IRNode):
    """Pops the matching tap, optionally projects the skip branch
    (1x1-conv block grid), aligns it exactly to the main branch's
    (level, scale) and adds shard-by-shard.  Taps and merges pair like
    brackets, so the matching :class:`ResidualTapNode` is the innermost
    open one."""

    kind = "merge"
    blocks: list | None = None
    bias_shards: list | None = None

    def level_cost(self) -> int:
        return 0


@dataclass
class ReduceNode(IRNode):
    """Cross-shard reduction (sequence pooling for the transformer
    head): sums the live shards into one.  Any scalar factor (e.g. the
    ``1/T`` of a mean) must be folded into the adjacent matvec by the
    compiler, so execution is pure ct-ct adds and consumes no level."""

    kind = "reduce"

    def level_cost(self) -> int:
        return 0


@dataclass
class AttentionNode(IRNode):
    """One encrypted self-attention block over token shards.

    Input: ``seq`` token shards, each a replicated-packed vector of
    ``dim`` model features.  Executes the fused per-token Q/K/V matvec
    grid (weights below, zero-padded square), then the token-packed
    attention of :mod:`repro.fhe.transformer`: mean-centred keys and
    values parked one token per ``dim``-lane *window* of a request block
    (which therefore needs ``block_stride >= seq * dim``), one score
    product and one lane reduction per query (``score_scale / seq`` in
    the strided score mask), the mean-stabilised softmax PAF
    (``exp_poly`` evaluated by its Paterson-Stockmeyer plan, then
    ``exp_squarings`` range-reduction squarings, then the affine-seeded
    Newton reciprocal ``recip_init`` / ``recip_iters`` with its
    constants at the score slots only), one product with the packed
    values, the window fold and the output projection.
    """

    kind = "attention"
    seq: int = 0
    dim: int = 0
    #: scalar folded into the strided score mask (``1/dim`` for the
    #: muP-scaled toy model; ``1/sqrt(dim)`` for classic attention)
    score_scale: float = 0.0
    wq: np.ndarray | None = None
    wk: np.ndarray | None = None
    wv: np.ndarray | None = None
    wo: np.ndarray | None = None
    bq: np.ndarray | None = None
    bk: np.ndarray | None = None
    bv: np.ndarray | None = None
    bo: np.ndarray | None = None
    #: dense polynomial approximating exp(z / 2**exp_squarings) on the
    #: stabilised score interval
    exp_poly: Polynomial | None = None
    exp_squarings: int = 2
    #: affine Newton seed ``y0 = a + b * S`` for 1/S over the calibrated
    #: sum interval
    recip_init: tuple = (0.0, 0.0)
    recip_iters: int = 2

    def level_cost(self) -> int:
        """Exact level consumption of token-packed attention.

        qkv grid(1) + score mul(1) + strided score mask(1) +
        exp poly + squarings + exp sum mask(1) +
        recip: strided affine seed(1) + 2 per Newton iteration +
        probs mul(1) + value mul(1) + window-0 mask(1) + Wo matvec(1).
        """
        from repro.paf.polynomial import mult_depth_of_degree

        return (
            9
            + mult_depth_of_degree(self.exp_poly.degree)
            + self.exp_squarings
            + 2 * self.recip_iters
        )


@dataclass
class RefreshNode(IRNode):
    """An exactness-gated level refresh (simplified CKKS bootstrapping).

    Executes :func:`repro.ckks.bootstrap.refresh` under the plan the
    network compiles for it: the ciphertext re-enters the schedule at
    ``max_level - pipeline_levels`` regardless of how far it had
    descended, and the decrypted values are gated to stay within
    ``rtol`` of the pre-refresh values
    (:class:`~repro.ckks.bootstrap.RefreshPrecisionError` on breach).

    ``level_cost()`` is 0 on the *declared-consumption* axis the other
    nodes use — a refresh never descends below where it starts — but
    :meth:`Graph.validate` treats it as a schedule *reset*: the depth
    requirement of a graph with refreshes is the maximum over the
    segments between them, each post-refresh segment charged the
    refresh's own ``pipeline_levels`` (0 for ``recrypt``, the full
    CtS → EvalMod → StC pipeline for ``evalmod``).
    """

    kind = "refresh"
    #: ``"recrypt"`` (decrypt/re-encrypt simulation, exact byte-identical
    #: across backends) or ``"evalmod"`` (homomorphic CtS/EvalMod/StC)
    method: str = "recrypt"
    #: levels the refresh pipeline itself consumes below the top
    pipeline_levels: int = 0
    #: precision gate on the decrypted values (None = method default)
    rtol: float | None = None

    def level_cost(self) -> int:
        return 0


@dataclass
class Graph:
    """A validated node sequence plus its packing geometry.

    ``size`` is the square slot span every matvec was padded to;
    ``input_shards`` / ``input_splits`` describe the multi-ciphertext
    input packing (1 / ``None`` for single-ciphertext networks).
    """

    nodes: list
    size: int
    input_shards: int = 1
    input_splits: list | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> int:
        """Validate structure; return the required chain depth.

        Taps and merges must pair up like brackets, and a merge whose
        skip branch carries a projection needs a main-branch gap of at
        least one level (the projection's own rescale descends through
        it; the alignment correction needs no level of its own).

        The packed input carries a *live* wraparound replica; a matvec
        or a pool mask leaves the replica half zero, and the
        executor's ``_replicate`` (before every matvec past node 0, every
        merge projection and every attention block) relies on that — a
        live replica reaching it is doubled and decrypts ~2x wrong.
        Slot-wise nodes (PAF, poly) keep whatever replica they are
        given, so one that runs before the first replica-zeroing node
        hands the live input on; the consumer that would re-replicate it
        is rejected here.

        A :class:`RefreshNode` resets the descent: the returned depth is
        the maximum over the segments between refreshes, each
        post-refresh segment charged the refresh's ``pipeline_levels``
        up front (the refreshed ciphertext re-enters at ``max_level -
        pipeline_levels``).  A refresh inside an open residual bracket
        is rejected — the saved tap branch would sit *below* the
        refreshed main branch and the merge's exact alignment could
        never recover the gap.
        """
        level = 0
        peak = 0
        offset = 0  # pipeline levels charged at the current segment's start
        live = True  # the main branch still carries the input's replica half
        stack: list = []

        def live_replica(i, node) -> ValueError:
            return ValueError(
                f"node {i} ({node.kind}) would re-replicate a live input "
                "replica: only a matvec at node 0 or a pool zeroes the "
                "packed input's replica half — open the graph "
                "with one (a stem conv, an identity embed)"
            )

        for i, node in enumerate(self.nodes):
            if isinstance(node, ResidualTapNode):
                stack.append((level, live))
            elif isinstance(node, MergeNode):
                if not stack:
                    raise ValueError(f"merge node {i} has no open residual tap")
                tap_level, skip_live = stack.pop()
                gap = level - tap_level
                if node.blocks is not None:
                    if gap < 1:
                        raise ValueError(
                            f"merge node {i}: projection skip needs a main-branch "
                            f"depth of >= 1 level, got {gap}"
                        )
                    if skip_live:
                        raise live_replica(i, node)
                live = live or skip_live
            elif isinstance(node, RefreshNode):
                if stack:
                    raise ValueError(
                        f"refresh node {i} inside an open residual tap — "
                        "refreshes are only legal between bracket pairs"
                    )
                peak = max(peak, offset + level)
                level = 0
                offset = node.pipeline_levels
            else:
                replicates = isinstance(node, AttentionNode) or (
                    isinstance(node, MatvecNode) and i > 0
                )
                if replicates and live:
                    raise live_replica(i, node)
                if isinstance(node, (MatvecNode, AttentionNode, PoolNode)):
                    live = False
                level += node.level_cost()
        if stack:
            raise ValueError(f"{len(stack)} residual tap(s) never merged")
        return max(peak, offset + level)

    def input_levels(self, max_level: int) -> dict:
        """Chain level at which the ciphertext enters each node.

        A refresh re-enters the schedule at ``max_level -
        pipeline_levels``; every other node descends by its
        ``level_cost``.
        """
        level = max_level
        levels = {}
        for i, node in enumerate(self.nodes):
            levels[i] = level
            if isinstance(node, RefreshNode):
                level = max_level - node.pipeline_levels
            else:
                level -= node.level_cost()
        return levels


# ----------------------------------------------------------------------
# compile policy + refresh placement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompilePolicy:
    """Everything a compile decides beyond the model and the CKKS params.

    The single policy object accepted by :func:`repro.fhe.lower.lower`
    and :func:`repro.fhe.network.compile_network` (a server takes the
    result: ``InferenceServer(compile_network(model, params, policy=...))``):
    packing geometry (``input_shape`` / ``num_shards``), ``seed`` and
    the refresh policy that decides how a model deeper than the prime
    chain still compiles (``docs/bootstrapping.md``):

    * ``refresh="auto"`` (default) — if the graph's required depth
      exceeds the schedule, search insertion points greedily by level
      slack (latest bracket-depth-0 boundary before each underflow) and
      insert :class:`RefreshNode`\\ s there; a model that fits compiles
      exactly as before, with no refresh.
    * ``refresh="never"`` — never insert; a too-deep model fails to
      compile (the pre-refresh behaviour).
    * ``refresh=(i, j, ...)`` — explicit insertion points: refresh
      *before* the node at each listed index of the lowered graph.

    ``rtol=None`` leaves the precision gate at the refresh method's
    default (1e-3 for ``recrypt``, 5e-2 for ``evalmod``).
    """

    refresh: str | tuple = "auto"
    refresh_method: str = "recrypt"
    rtol: float | None = None
    input_shape: tuple | None = None
    num_shards: int | None = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.refresh, list):
            object.__setattr__(self, "refresh", tuple(self.refresh))
        if isinstance(self.refresh, str):
            if self.refresh not in ("auto", "never"):
                raise ValueError(
                    f'refresh must be "auto", "never" or explicit positions, '
                    f"got {self.refresh!r}"
                )
        elif not (
            isinstance(self.refresh, tuple)
            and all(isinstance(p, int) and p >= 0 for p in self.refresh)
        ):
            raise ValueError(
                f"explicit refresh positions must be non-negative node "
                f"indices, got {self.refresh!r}"
            )
        if self.refresh_method not in ("recrypt", "evalmod"):
            raise ValueError(
                f'refresh_method must be "recrypt" or "evalmod", '
                f"got {self.refresh_method!r}"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1 (or None for one), got {self.num_shards!r}"
            )


def _auto_refresh_positions(nodes, max_level: int, pipeline_levels: int) -> list:
    """Greedy insertion search: positions (pre-insertion indices) where a
    refresh must run so the descent never underflows the chain.

    Simulates the level descent from ``max_level``; on underflow,
    inserts at the *last* bracket-depth-0 boundary seen (greedy by level
    slack — refreshing as late as possible minimises the refresh count,
    since every refresh buys the full ``max_level - pipeline_levels``
    budget for the nodes after it) and replays.  Raises when a single
    bracket-enclosed segment is deeper than the refreshed budget itself.
    """
    refreshed = max_level - pipeline_levels
    if refreshed <= 0:
        raise ValueError(
            f"refresh pipeline consumes {pipeline_levels} levels — the whole "
            f"depth-{max_level} schedule; deepen the chain"
        )
    positions: list = []
    while True:
        level = max_level
        bracket = 0
        boundary = None
        underflow = None
        for i, node in enumerate(nodes):
            if i in positions:
                level = refreshed
            if bracket == 0 and level < refreshed and i not in positions:
                boundary = i
            if isinstance(node, ResidualTapNode):
                bracket += 1
            elif isinstance(node, MergeNode):
                bracket -= 1
            level -= node.level_cost()
            if level < 0:
                underflow = i
                break
        if underflow is None:
            return positions
        if boundary is None:
            raise ValueError(
                f"node {underflow} underflows the chain and no refresh "
                f"boundary precedes it: one segment needs more than the "
                f"refreshed budget of {refreshed} levels"
            )
        positions.append(boundary)


def apply_refresh_policy(
    graph: Graph,
    max_level: int,
    policy: CompilePolicy,
    *,
    pipeline_levels: int = 0,
    rtol: float | None = None,
) -> tuple:
    """Insert :class:`RefreshNode`\\ s into ``graph`` per ``policy``.

    ``pipeline_levels`` / ``rtol`` come from the compiled
    :class:`~repro.ckks.bootstrap.RefreshPlan` (the caller plans once
    per network).  Returns the inserted node indices (post-insertion).
    """
    if policy.refresh == "never":
        return ()
    if policy.refresh == "auto":
        positions = _auto_refresh_positions(graph.nodes, max_level, pipeline_levels)
    else:
        positions = sorted(set(policy.refresh))
        if any(p >= len(graph.nodes) for p in positions):
            raise ValueError(
                f"explicit refresh positions {positions} exceed the graph's "
                f"{len(graph.nodes)} nodes"
            )
    if not positions:
        return ()
    positions = sorted(positions)
    inserted = []
    for n_before, p in enumerate(positions):
        idx = p + n_before
        graph.nodes.insert(
            idx,
            RefreshNode(
                method=policy.refresh_method,
                pipeline_levels=pipeline_levels,
                rtol=rtol,
            ),
        )
        inserted.append(idx)
    graph.validate()  # bracket structure + segment depths still coherent
    return tuple(inserted)
