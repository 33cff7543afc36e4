"""Execute graph-IR-compiled networks on fully-encrypted CKKS ciphertexts.

The end-to-end private-inference path of the paper's Fig. 2: the client
encrypts an input vector; the server evaluates linear layers (Halevi-Shoup
matmul) and PAF activations (depth-preserving Paterson–Stockmeyer
composite evaluation) on ciphertexts only; the client decrypts logits.

Square layer layout: every linear-algebra layer (Linear weights, and the
compile-time-lowered Conv2d matrices from :mod:`repro.fhe.cnn`) is
zero-padded to ``size×size`` (``size`` = max layer slot span) so rotations
align.  Slots are divided into ``max_batch`` disjoint *blocks* of
``2·size`` slots each; block ``b`` carries one input vector packed with
wraparound replication (``slots[b·2s : b·2s+size]`` = x,
``slots[b·2s+size : b·2s+2s]`` = x), so a single ciphertext serves up to
``slots // (2·size)`` independent requests through the same sequence of
homomorphic ops — the SIMD batching that :mod:`repro.serve` builds on.
Diagonals are tiled across all blocks once at compile time; rotation
steps (and hence the Galois key set) are identical to the
single-request layout.

Wide CNNs overflow a single request block, so activations live in a
**list of ``K`` ciphertexts** (channel-parallel packing,
:class:`~repro.fhe.packing.MultiGridLayout`): linear layers are
``K_out × K_in`` grids of per-shard-pair matvec blocks executed by
:func:`~repro.fhe.linear.encrypted_matvec_shards` (per-input-shard
hoisted baby rotations, cross-shard accumulation via ct-ct adds, one
rescale per output shard), and pools / activations apply
shard-by-shard.  A single-ciphertext network is the ``K = 1`` case —
every matvec a ``1 × 1`` grid with a one-element bias list — so
:meth:`EncryptedNetwork.forward_shards` is the one executor and
:meth:`forward` its list-wrap for one ciphertext.

Networks are **typed node sequences** from :mod:`repro.fhe.ir`.  The
executor dispatches on node *type*: each :class:`~repro.fhe.ir.IRNode`
subclass has one compile handler (builds the per-node caches: matvec
plan grids, pre-rotated diagonal groups, activation plans, masks) and
one execution handler; see ``docs/graph-ir.md`` for the taxonomy, the
level/scale metadata contract, and how to add an op.
:func:`compile_network` is the single compile entrypoint:
:func:`repro.fhe.lower.lower` produces the graph, this module plans,
keys and executes it.
"""

from __future__ import annotations

import numpy as np

from repro.ckks import (
    Ciphertext,
    CkksContext,
    CkksEncoder,
    CkksEvaluator,
    CkksParams,
    PlaintextStore,
    ShadowEvaluator,
    eval_paf_relu,
    eval_poly,
    keygen,
    plan_paf_relu,
    plan_poly,
)
from repro.ckks.instrumentation import CountingEvaluator
from repro.ckks.instrumentation import span as trace_span
from repro.fhe.ir import (
    AttentionNode,
    CompilePolicy,
    Graph,
    IRNode,
    MatvecNode,
    MergeNode,
    PafNode,
    PolyNode,
    PoolNode,
    ReduceNode,
    RefreshNode,
    ResidualTapNode,
    apply_refresh_policy,
)
from repro.fhe.linear import (
    diagonals_of,
    encrypted_matvec_shards,
    grouped_diagonals,
    plan_matvec,
    tile_blocks,
)
from repro.fhe.lower import lower
from repro.fhe.packing import BlockLayout, pack_batch, unpack_blocks
from repro.fhe.transformer import attention_forward, compile_attention_state

__all__ = ["EncryptedNetwork", "compile_network"]


def _dispatch(table: dict, node: IRNode):
    """Resolve a handler for ``node`` by walking its class MRO."""
    for klass in type(node).__mro__:
        if klass in table:
            return table[klass]
    raise ValueError(f"no handler for IR node type {type(node).__name__}")


class EncryptedNetwork:
    """A network compiled for encrypted inference (single or SIMD-batched).

    Built from a :class:`repro.fhe.ir.Graph` — the output of
    :func:`repro.fhe.lower.lower` (what :func:`compile_network` passes
    in) or one assembled by hand from IR nodes — under a
    :class:`~repro.fhe.ir.CompilePolicy`, which supplies the refresh
    placement and the keygen ``seed``.

    The network owns its plaintexts: compile encodes every constant a
    forward meets once, into :attr:`plaintexts`, and every evaluator
    built by :meth:`evaluator` (its own :attr:`ev`, a server's workers,
    a tenant's) reads them from there.
    """

    def __init__(
        self,
        graph: Graph,
        params: CkksParams,
        policy: CompilePolicy | None = None,
    ):
        self.graph = graph
        self.size = graph.size
        #: ciphertexts per request (1 = single-ciphertext network)
        self.num_input_shards = graph.input_shards
        #: element counts per input shard (the flat input splits
        #: contiguously into these); None = one vector of up to ``size``
        self.input_splits = graph.input_splits
        self.ctx = CkksContext(params)
        #: the policy this network compiled under
        self.policy = policy or CompilePolicy()
        #: per-(method, rtol) :class:`~repro.ckks.bootstrap.RefreshPlan`
        self._refresh_plan_cache: dict = {}
        self._place_refreshes()
        self.layers = self.graph.nodes
        depth_needed = self.graph.validate()
        if params.depth < depth_needed:
            raise ValueError(
                f"context depth {params.depth} < required {depth_needed}"
            )
        # suffix depths of the static schedule: levels the nodes *after* i
        # still need — a traced forward reports each layer's remaining
        # level slack (exit level minus this) against them.  A refresh
        # resets the requirement: nodes before it need nothing held back.
        self._depth_after = [0] * len(self.layers)
        req = 0
        for i in range(len(self.layers) - 1, -1, -1):
            self._depth_after[i] = req
            node = self.layers[i]
            req = 0 if isinstance(node, RefreshNode) else req + node.level_cost()
        slots = self.ctx.slots
        #: SIMD block geometry (:mod:`repro.fhe.packing`)
        self.layout = BlockLayout(size=self.size, slots=slots)
        #: one request occupies ``2·size`` slots (vector + wraparound replica)
        self.block_stride = self.layout.stride
        #: SIMD capacity: how many requests fit one ciphertext
        self.max_batch = self.layout.max_batch
        # Diagonals / biases are tiled across *all* blocks once; a partial
        # batch leaves trailing blocks at zero input, which just compute
        # f(0) in-range — so every batch size shares these plaintexts.
        #: per linear / merge-projection node: the ``K_out × K_in`` grid
        #: of :class:`~repro.fhe.linear.MatvecPlan` (``None`` = all-zero
        #: block; a single-ciphertext layer is the ``1 × 1`` grid)
        self.matvec_plans: dict[int, list] = {}
        #: the matching grids of grouped ``{giant: {baby: vector}}``
        #: diagonal payloads, pre-rotated per each block's plan
        self.matvec_groups: dict[int, list] = {}
        #: per-output-shard tiled biases (no entry = the node has no bias)
        self.matvec_bias_slots: dict[int, list] = {}
        #: per-activation :class:`~repro.ckks.poly_plan.ReluPlan`
        #: (one Paterson–Stockmeyer plan per component, with the static
        #: scale and the ReLU ½ already folded into coefficients)
        self.paf_plans: dict = {}
        #: per-PolyNode :class:`~repro.ckks.poly_plan.PolyPlan`
        self.poly_plans: dict = {}
        #: pool masks: ``1/window`` over ``[0, size)`` of every block, zero
        #: elsewhere — the pool's scalar multiply doubles as the cleanup
        #: that re-zeroes replica halves after the rotate-and-sum stages
        self.pool_masks: dict[int, np.ndarray] = {}
        #: per-AttentionNode compiled state (projection plans/groups,
        #: strided and window masks, softmax plan and constants)
        self.attention_states: dict = {}
        #: per-RefreshNode :class:`~repro.ckks.bootstrap.RefreshPlan`
        self.refresh_plans: dict = {}
        # Galois keys cover exactly the planned rotation steps: every
        # block's nonzero baby + giant steps, pool shifts, the attention
        # dance and the refresh pipelines — every compile handler
        # registers its own here.
        self._galois_steps: set = set()
        self._needs_conj = False
        for i, node in enumerate(self.layers):
            _dispatch(self._COMPILE, node)(self, i, node)
        # right-rotation by `size` restores the wraparound replica block
        # before each linear layer (the matvec zeroes slots >= size within
        # each block, so the shifted-in neighbour-block slots are zero)
        self._replicate_step = slots - self.size
        self._galois_steps.add(self._replicate_step)
        galois: tuple = tuple(sorted(self._galois_steps))
        if self._needs_conj:
            # evalmod refreshes separate conjugate halves homomorphically
            galois = galois + ("conj",)
        #: every constant of a forward, encoded once (filled just below)
        self.plaintexts = PlaintextStore(CkksEncoder(self.ctx))
        shadow = ShadowEvaluator(self.ctx)
        shadow.plaintexts = self.plaintexts
        self.forward_shards(
            [shadow.encrypt(None) for _ in range(self.num_input_shards)], ev=shadow
        )
        self.keys = keygen(self.ctx, seed=self.policy.seed, galois_steps=galois)
        self.ev = self.evaluator(self.keys)

    def evaluator(self, keys, seed: int | None = 1) -> CkksEvaluator:
        """A new evaluator over ``keys`` (the network's own, or a
        tenant's) that reads this network's :attr:`plaintexts` and
        shares its encoder — plaintexts are key-independent, so every
        evaluator of one network reads the same ones."""
        ev = CkksEvaluator(self.ctx, keys, seed=seed)
        ev.encoder = self.plaintexts.encoder
        ev.plaintexts = self.plaintexts
        return ev

    def warm(self) -> "EncryptedNetwork":
        """Hold every plaintext in NTT form, so a forward lifts none.

        What a server does with each network it serves; a bare network
        keeps the coefficients (``1/(level+1)`` of the bytes) and pays
        one RNS lift and NTT per plaintext use.
        """
        self.plaintexts.warm()
        return self

    # ------------------------------------------------------------------
    # refresh placement
    # ------------------------------------------------------------------
    def _refresh_plan_for(self, method: str, rtol: float | None):
        """Plan (and memoise) one refresh configuration against the context."""
        from repro.ckks.bootstrap import plan_refresh

        key = (method, rtol)
        plan = self._refresh_plan_cache.get(key)
        if plan is None:
            plan = plan_refresh(self.ctx, method=method, rtol=rtol)
            self._refresh_plan_cache[key] = plan
            # a None rtol resolves to the method default: alias the
            # resolved key so the node-level lookup reuses this plan
            self._refresh_plan_cache.setdefault((method, plan.rtol), plan)
        return plan

    def _place_refreshes(self) -> None:
        """Insert :class:`~repro.fhe.ir.RefreshNode`\\ s per the policy.

        ``refresh="auto"`` plans the refresh pipeline only when the
        graph actually overflows the schedule, so fitting models skip
        the (evalmod-expensive) planning entirely and compile with an
        unchanged node list.
        """
        policy = self.policy
        if policy.refresh == "never":
            return
        if (
            policy.refresh == "auto"
            and self.graph.validate() <= self.ctx.max_level
        ):
            return
        plan = self._refresh_plan_for(policy.refresh_method, policy.rtol)
        apply_refresh_policy(
            self.graph,
            self.ctx.max_level,
            policy,
            pipeline_levels=plan.pipeline_levels,
            rtol=plan.rtol,
        )

    # ------------------------------------------------------------------
    # per-node-type compilation
    # ------------------------------------------------------------------
    def _plan_grid(self, i: int, blocks: list, bias_shards: list | None) -> tuple:
        """Plan a ``K_out × K_in`` grid of matvec blocks.

        Shared by linear layers, merge projections and the attention
        projections: returns ``(plans, groups, bias slots)`` — the
        per-block :class:`~repro.fhe.linear.MatvecPlan` grid (``None``
        where a block is all zero), the matching grouped-diagonal
        payloads, and the per-output-shard tiled biases (``None`` without
        any) — and registers every planned rotation step for keygen.
        ``bias_shards`` must name one entry per output shard.
        """
        if bias_shards is not None and len(bias_shards) != len(blocks):
            raise ValueError(
                f"layer {i}: {len(bias_shards)} bias shard(s) for "
                f"{len(blocks)} output shard(s)"
            )
        slots = self.ctx.slots
        plans_grid: list = []
        groups_grid: list = []
        for row in blocks:
            plan_row: list = []
            group_row: list = []
            for mat in row:
                if mat is None or not np.any(mat):
                    plan_row.append(None)
                    group_row.append(None)
                    continue
                diags = diagonals_of(
                    mat,
                    slots,
                    num_blocks=self.max_batch,
                    block_stride=self.block_stride,
                )
                plan = plan_matvec(diags.keys(), self.size)
                plan_row.append(plan)
                group_row.append(grouped_diagonals(diags, plan))
                self._galois_steps.update(plan.rotation_steps())
            if not any(g is not None for g in group_row):
                # fail at compile, not at forward time
                raise ValueError(
                    f"layer {i}: output shard {len(plans_grid)} reads "
                    "no nonzero block (all-zero weight row)"
                )
            plans_grid.append(plan_row)
            groups_grid.append(group_row)
        tiled = None
        if bias_shards is not None:
            tiled = []
            for vec in bias_shards:
                if vec is None:
                    tiled.append(None)
                    continue
                base = np.zeros(self.size)
                base[: len(vec)] = vec
                tiled.append(
                    tile_blocks(base, slots, self.max_batch, self.block_stride)
                )
        return plans_grid, groups_grid, tiled

    def _compile_grid(self, i: int, node: MatvecNode | MergeNode) -> None:
        if node.blocks is None:  # an identity merge: nothing to plan
            return
        plans, groups, biases = self._plan_grid(i, node.blocks, node.bias_shards)
        self.matvec_plans[i] = plans
        self.matvec_groups[i] = groups
        if biases is not None:
            self.matvec_bias_slots[i] = biases

    def _compile_paf(self, i: int, node: PafNode) -> None:
        self.paf_plans[i] = plan_paf_relu(node.paf, node.scale)

    def _compile_poly(self, i: int, node: PolyNode) -> None:
        self.poly_plans[i] = plan_poly(node.poly)

    def _compile_pool(self, i: int, node: PoolNode) -> None:
        for stage in node.shifts:
            self._galois_steps.update(s for s in stage if s)
        self.pool_masks[i] = tile_blocks(
            np.full(self.size, node.pool_scale),
            self.ctx.slots,
            self.max_batch,
            self.block_stride,
        )

    def _compile_noop(self, i: int, node) -> None:
        pass

    def _compile_attention(self, i: int, node: AttentionNode) -> None:
        self.attention_states[i] = compile_attention_state(self, i, node)

    def _compile_refresh(self, i: int, node: RefreshNode) -> None:
        plan = self._refresh_plan_for(node.method, node.rtol)
        if node.pipeline_levels != plan.pipeline_levels:
            raise ValueError(
                f"refresh node {i} declares {node.pipeline_levels} pipeline "
                f"levels but the plan consumes {plan.pipeline_levels}"
            )
        self.refresh_plans[i] = plan
        for step in plan.galois_steps():
            if step == "conj":
                self._needs_conj = True
            else:
                self._galois_steps.add(step)

    _COMPILE = {
        MatvecNode: _compile_grid,
        MergeNode: _compile_grid,
        PafNode: _compile_paf,
        PolyNode: _compile_poly,
        PoolNode: _compile_pool,
        ResidualTapNode: _compile_noop,
        ReduceNode: _compile_noop,
        AttentionNode: _compile_attention,
        RefreshNode: _compile_refresh,
    }

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    def pack_batch(self, xs) -> np.ndarray:
        """Pack up to ``max_batch`` input vectors into one slot vector.

        Each vector lands in its own ``2·size`` block with wraparound
        replication so the cyclic diagonals line up per block.
        """
        return pack_batch(xs, self.layout)

    def split_input(self, x) -> list:
        """Split one flat input vector into per-shard flat vectors.

        Also the width check the server runs at its door: a network
        that records ``input_splits`` takes exactly their total, any
        other one anything up to its layer size (zero-padded).
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        if self.input_splits is None:
            if len(x) > self.size:
                raise ValueError(
                    f"input dim {len(x)} exceeds layer size {self.size}"
                )
            return [x]
        if len(x) != sum(self.input_splits):
            raise ValueError(
                f"input dim {len(x)} != sharded input dim {sum(self.input_splits)}"
            )
        return list(np.split(x, np.cumsum(self.input_splits)[:-1]))

    def encrypt_batch_shards(self, xs, ev: CkksEvaluator | None = None) -> list:
        """Pack + encrypt a batch into one ciphertext *per input shard*.

        Every shard uses the same :class:`BlockLayout` (request ``b`` of
        every shard sits in block ``b``), so the SIMD batch geometry —
        and the serving layer built on it — is unchanged by sharding.
        """
        ev = ev or self.ev
        parts = [self.split_input(x) for x in xs]
        return [
            ev.encrypt(pack_batch([p[s] for p in parts], self.layout))
            for s in range(self.num_input_shards)
        ]

    def encrypt_input_shards(self, x: np.ndarray) -> list:
        """Pack + encrypt one input as a list of shard ciphertexts."""
        return self.encrypt_batch_shards([x])

    def encrypt_batch(self, xs, ev: CkksEvaluator | None = None) -> Ciphertext:
        """Pack + encrypt a batch of a single-ciphertext network's inputs."""
        (ct,) = self.encrypt_batch_shards(xs, ev=ev)
        return ct

    def encrypt_input(self, x: np.ndarray) -> Ciphertext:
        """Pack + encrypt one input vector (block 0 of the batched layout)."""
        return self.encrypt_batch([x])

    # ------------------------------------------------------------------
    # encrypted forward
    # ------------------------------------------------------------------
    def _replicate(self, ct: Ciphertext, ev: CkksEvaluator) -> Ciphertext:
        """Restore every block's replica half: out[i+size] = in[i]."""
        return ev.add(ct, ev.rotate(ct, self._replicate_step))

    def forward_shards(self, cts, *, ev: CkksEvaluator | None = None) -> list:
        """Encrypted forward over the ciphertext list — the one executor.

        ``cts`` is one ciphertext per input shard
        (``encrypt_batch_shards``; a single-ciphertext network's list
        has one element), and the return value one per output shard of
        the last layer (a compiled classifier head always lands on a
        single shard).  One loop over the typed nodes, one handler per
        node type: matvec nodes (Linear weights and compile-time-lowered
        convs alike) run :func:`~repro.fhe.linear.encrypted_matvec_shards`
        over their ``K_out × K_in`` grouped-diagonal blocks — each
        block's BSGS plan, its baby rotations hoisted per input shard;
        ``residual`` taps push the live shard list onto a branch stack;
        ``merge`` pops it, applies the projection blocks (if any) to the
        *saved* branch at its own — higher — level, aligns the skip to
        the main branch's exact (level, scale) via ``align_to`` and adds
        shard-wise.  PAF activations follow their compiled
        :class:`~repro.ckks.poly_plan.ReluPlan` (Paterson–Stockmeyer per
        component), pools their rotate-and-sum plan
        (:meth:`_pool_forward`), dense polynomials and refreshes their
        plans — each per shard; attention runs its own dance; ``reduce``
        sums the live shards into one.

        Every plaintext reaches the evaluator the same way: the handlers
        hand the compiled *raw* values (grouped diagonals, biases, masks,
        PAF coefficients) to ``ev.mul_plain`` / ``ev.add_plain`` and the
        evaluator resolves them through its ``plaintexts`` — the store
        compile filled, for every evaluator :meth:`evaluator` builds.
        ``ev`` overrides the evaluator (worker pools run one evaluator
        per thread; compile and ``op_counts`` pass a shadow).
        """
        ev = ev or self.ev
        cts = list(cts)
        if len(cts) != self.num_input_shards:
            raise ValueError(
                f"this network takes {self.num_input_shards} input "
                f"ciphertext(s) (encrypt_batch_shards), got {len(cts)}"
            )
        stack: list = []
        with trace_span(
            ev,
            "forward",
            kind="forward",
            layers=len(self.layers),
            shards=len(cts),
            backend=self.ctx.backend.name,
        ) as root:
            root.ct_entry(cts)
            for i, node in enumerate(self.layers):
                with trace_span(
                    ev, f"layer{i:02d}:{node.kind}", kind="layer", layer=i, op=node.kind
                ) as sp:
                    sp.ct_entry(cts)
                    handler = _dispatch(self._EXEC, node)
                    cts = handler(self, i, node, cts, ev, stack)
                    sp.ct_exit(cts, level_slack=cts[0].level - self._depth_after[i])
            root.ct_exit(cts)
        return cts

    def forward(self, ct: Ciphertext, *, ev: CkksEvaluator | None = None) -> Ciphertext:
        """:meth:`forward_shards` for a single-ciphertext network: one
        ciphertext in, one out."""
        (out,) = self.forward_shards([ct], ev=ev)
        return out

    # --- node handlers -------------------------------------------------
    def _grid_matvec(self, i, cts, ev) -> list:
        """Node ``i``'s block-grid matvec over replicated shards."""
        return encrypted_matvec_shards(
            ev,
            cts,
            self.matvec_groups[i],
            bias_slots=self.matvec_bias_slots.get(i),
        )

    def _exec_matvec(self, i, node, cts, ev, stack):
        if i > 0:
            cts = [self._replicate(ct, ev) for ct in cts]
        return self._grid_matvec(i, cts, ev)

    def _exec_residual(self, i, node, cts, ev, stack):
        stack.append(cts)
        return cts

    def _exec_merge(self, i, node, cts, ev, stack):
        skip = stack.pop()
        if node.blocks is not None:
            skip = [self._replicate(ct, ev) for ct in skip]
            skip = self._grid_matvec(i, skip, ev)
        if len(skip) != len(cts):
            raise ValueError(
                f"merge layer {i}: skip branch has {len(skip)} shards, "
                f"main branch {len(cts)}"
            )
        target = cts[0]
        # the skip must land on the main branch's scale precisely, or
        # the embedded mismatch rides every later squaring
        with trace_span(
            ev, "merge:align", kind="exec", shards=len(cts)
        ) as msp:
            msp.ct_entry(skip)
            skip = [ev.align_to(s, target.level, target.scale) for s in skip]
            cts = [ev.add(c, s) for c, s in zip(cts, skip)]
            msp.ct_exit(cts)
        return cts

    def _exec_pool(self, i, node, cts, ev, stack):
        return [self._pool_forward(ct, i, ev) for ct in cts]

    def _exec_paf(self, i, node, cts, ev, stack):
        plan = self.paf_plans[i]
        return [
            eval_paf_relu(ev, ct, node.paf, scale=node.scale, plan=plan)
            for ct in cts
        ]

    def _exec_poly(self, i, node, cts, ev, stack):
        plan = self.poly_plans[i]
        return [eval_poly(ev, ct, node.poly, plan=plan) for ct in cts]

    def _exec_reduce(self, i, node, cts, ev, stack):
        with trace_span(ev, "reduce:shards", kind="exec", shards=len(cts)) as sp:
            sp.ct_entry(cts)
            acc = cts[0]
            for ct in cts[1:]:
                acc = ev.add(acc, ct)
            sp.ct_exit(acc)
        return [acc]

    def _exec_attention(self, i, node, cts, ev, stack):
        return attention_forward(self, i, node, cts, ev)

    def _exec_refresh(self, i, node, cts, ev, stack):
        from repro.ckks.bootstrap import refresh

        plan = self.refresh_plans[i]
        return [refresh(ev, ct, plan) for ct in cts]

    _EXEC = {
        MatvecNode: _exec_matvec,
        ResidualTapNode: _exec_residual,
        MergeNode: _exec_merge,
        PoolNode: _exec_pool,
        PafNode: _exec_paf,
        PolyNode: _exec_poly,
        ReduceNode: _exec_reduce,
        AttentionNode: _exec_attention,
        RefreshNode: _exec_refresh,
    }

    def _pool_forward(self, ct: Ciphertext, i: int, ev: CkksEvaluator) -> Ciphertext:
        """Average pool: rotate-and-sum per axis, then one masked scalar mult.

        Stage 1 sums the window columns (``k-1`` hoisted rotations by the
        column stride), stage 2 the window rows — separable, so ``2(k-1)``
        keyswitches instead of ``k²-1``.  Each stage's rotations act on
        one ciphertext and share a hoisted decomposition.  Valid sums land
        at the window-corner slots of the input grid (the compile-time
        :class:`~repro.fhe.packing.GridLayout` the next layer's matrix is
        lowered against); everything else — including the replica halves
        and the neighbour-block spill the full-slot rotations produce —
        is garbage, and the final ``1/window`` multiply is *masked* to
        ``[0, size)`` of each block so the replica halves leave this
        layer exactly zero again, preserving the invariant
        :meth:`_replicate` relies on.  One rescale: the pool consumes one
        level, like a linear layer.
        """
        stages = [
            [s for s in stage if s] for stage in self.layers[i].shifts
        ]
        with trace_span(
            ev, "pool:reduce", kind="exec", stages=sum(1 for s in stages if s)
        ) as sp:
            sp.ct_entry(ct)
            for stage in stages:
                if not stage:
                    continue
                rotated = ev.rotate_many(ct, stage)
                for s in stage:
                    ct = ev.add(ct, rotated[s])
            ct = ev.rescale(ev.mul_plain(ct, self.pool_masks[i]))
            sp.ct_exit(ct)
        return ct

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def op_counts(self) -> dict:
        """HE-op counts of one forward — the cost model.

        Runs :meth:`forward_shards` itself over
        :class:`~repro.ckks.shadow.ShadowEvaluator` ciphertexts under a
        :class:`~repro.ckks.instrumentation.CountingEvaluator`: no keys,
        no encryption, no ring arithmetic, milliseconds per model — and
        equal to the counts of a measured forward by construction, since
        the executor, its handlers and the counter are the ones a real
        forward runs.  Dot the result with per-op seconds
        (:func:`repro.fhe.latency.cost_from_counts`) to price it.
        """
        shadow = ShadowEvaluator(self.ctx)
        counting = CountingEvaluator(shadow)
        cts = [shadow.encrypt(None) for _ in range(self.num_input_shards)]
        self.forward_shards(cts, ev=counting)
        return dict(counting.counts)

    # ------------------------------------------------------------------
    # decrypt
    # ------------------------------------------------------------------
    def decrypt_logits(
        self,
        ct: Ciphertext,
        num_classes: int,
        batch: int | None = None,
        ev: CkksEvaluator | None = None,
    ) -> np.ndarray:
        """Decrypt logits; 1-D for a single request, ``(batch, C)`` when
        ``batch`` is given (demultiplexes the per-client slot blocks)."""
        ev = ev or self.ev
        if batch is None:
            return ev.decrypt(ct, num_values=num_classes)
        if not 1 <= batch <= self.max_batch:
            raise ValueError(f"batch {batch} out of range 1..{self.max_batch}")
        span = self.layout.offset(batch - 1) + num_classes
        values = ev.decrypt(ct, num_values=span)
        return unpack_blocks(values, self.layout, num_classes, batch)

    def predict_batch(self, xs, num_classes: int) -> np.ndarray:
        """One SIMD round trip for up to ``max_batch`` inputs; argmax per row."""
        (ct,) = self.forward_shards(self.encrypt_batch_shards(xs))
        logits = self.decrypt_logits(ct, num_classes, batch=len(xs))
        return logits.argmax(axis=1)

    def predict(self, x: np.ndarray, num_classes: int) -> int:
        """Full round trip: encrypt -> encrypted forward -> decrypt -> argmax."""
        return int(self.predict_batch([x], num_classes)[0])


def compile_network(
    model, params: CkksParams, *, policy: CompilePolicy | None = None
) -> EncryptedNetwork:
    """Compile any supported ``repro.nn`` model for encrypted inference.

    The single entrypoint of the FHE compilation pipeline:
    :func:`repro.fhe.lower.lower` turns the model into the graph IR (pure
    numpy) and :class:`EncryptedNetwork` plans, keys and wraps it.
    Everything beyond the model and params rides in ``policy``
    (:class:`~repro.fhe.ir.CompilePolicy`) — packing geometry
    (``input_shape`` for anything convolutional, ``num_shards``), seed,
    and the refresh policy that lets a model deeper
    than the prime chain compile by inserting
    :class:`~repro.fhe.ir.RefreshNode`\\ s.
    """
    return EncryptedNetwork(lower(model, policy), params, policy)
