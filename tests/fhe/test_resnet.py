"""Differential suite for multi-ciphertext residual compilation.

Four rings of verification, cheapest first:

* **multi-grid geometry**: :class:`~repro.fhe.packing.MultiGridLayout`
  sharding/pooling invariants, no crypto;
* **pure-numpy sharded lowering differentials** (hypothesis-driven): the
  per-shard-pair conv/linear block matrices reproduce
  ``repro.nn.functional`` across shard counts K ∈ {1, 2, 4};
* **encrypted residual differentials**: level-alignment edge cases
  (branch gaps of 0, 1 and 2 levels), identity and 1×1-projection
  BasicBlocks on real ciphertexts vs the plaintext forward;
* **the trained toy ResNet end to end**: 2 residual blocks, a stride-2
  projection downsample, channels sharded across 2 ciphertexts — single
  and SIMD-batched through :class:`repro.serve.artifact.ModelArtifact`,
  decrypting to plaintext logits within rtol 1e-3.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksEvaluator, CkksParams, ShadowEvaluator
from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe.cnn import conv2d_shard_matrices, linear_shard_matrices
from repro.fhe.ir import (
    CompilePolicy,
    Graph,
    MatvecNode,
    MergeNode,
    PoolNode,
    ResidualTapNode,
)
from repro.fhe.latency import cost_from_counts
from repro.fhe.linear import grouped_diagonals, shard_hoist_steps
from repro.fhe.lower import lower
from repro.fhe.network import EncryptedNetwork, compile_network
from repro.fhe.packing import GridLayout, MultiGridLayout
from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
)
from repro.nn.models.resnet import BasicBlock
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor
from repro.obs import TracingEvaluator
from repro.serve.artifact import ModelArtifact

# deep-chain contexts need the scale-tracking prime schedule
MINI_PARAMS = CkksParams(n=256, scale_bits=25, depth=4, scale_tracking=True)
BLOCK_PARAMS = CkksParams(n=256, scale_bits=27, depth=16, scale_tracking=True)


def _policy(shape=(1, 4, 4), num_shards=2, **kw) -> CompilePolicy:
    return CompilePolicy(input_shape=shape, num_shards=num_shards, **kw)


def _shared_giant_rotations(grid) -> int:
    """Standalone rotations one matvec plan grid executes: per output
    shard, the union of its live blocks' nonzero giant steps — a step
    several input shards share rotates once, on their summed inner
    products (``n1 = size`` blocks are the giant-0 group: none)."""
    return sum(
        len(
            {
                g
                for plan in row
                if plan is not None
                for g in plan.giant_steps
                if g
            }
        )
        for row in grid
    )


# ----------------------------------------------------------------------
# MultiGridLayout geometry
# ----------------------------------------------------------------------
class TestMultiGridLayout:
    def test_split_balances_contiguous_channels(self):
        mg = MultiGridLayout.split(5, 4, 4, 2)
        assert [g.channels for g in mg.shards] == [3, 2]
        assert mg.channel_offsets == (0, 3)
        assert mg.total_channels == 5
        assert mg.shard_of(0) == (0, 0)
        assert mg.shard_of(3) == (1, 0)
        assert mg.shard_of(4) == (1, 1)

    def test_never_more_shards_than_channels(self):
        assert MultiGridLayout.split(1, 8, 8, 4).num_shards == 1
        assert MultiGridLayout.split(3, 8, 8, 8).num_shards == 3

    def test_pooled_keeps_shared_geometry(self):
        mg = MultiGridLayout.split(4, 8, 8, 2).pooled(2, 2)
        for g in mg.shards:
            assert (g.height, g.width) == (4, 4)
            assert (g.row_stride, g.col_stride) == (16, 2)
        assert mg.span == mg.shards[0].span

    def test_global_pooled_one_slot_per_channel(self):
        mg = MultiGridLayout.split(4, 4, 4, 2).global_pooled()
        np.testing.assert_array_equal(mg.shards[0].positions().ravel(), [0, 16])

    def test_split_values_is_contiguous_nchw(self):
        mg = MultiGridLayout.split(3, 2, 2, 2)
        parts = mg.split_values(np.arange(12))
        np.testing.assert_array_equal(parts[0], np.arange(8))
        np.testing.assert_array_equal(parts[1], np.arange(8, 12))

    def test_mismatched_geometry_rejected(self):
        with pytest.raises(ValueError, match="geometries disagree"):
            MultiGridLayout(
                (GridLayout.dense(1, 4, 4), GridLayout.dense(1, 2, 2))
            )

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            MultiGridLayout.split(2, 2, 2, 2).split_values(np.arange(9))


# ----------------------------------------------------------------------
# pure-numpy sharded lowering differentials (no crypto)
# ----------------------------------------------------------------------
def _apply_blocks(blocks, biases, in_mg, parts):
    """Numpy model of encrypted_matvec_shards on scattered slot vectors."""
    outs = []
    for j, row in enumerate(blocks):
        acc = None
        for i, mat in enumerate(row):
            if mat is None:
                continue
            g = in_mg.shards[i]
            vec = np.zeros(mat.shape[1])
            vec[g.positions().ravel()] = parts[i]
            y = mat @ vec
            acc = y if acc is None else acc + y
        if biases is not None and biases[j] is not None:
            acc = acc + biases[j]
        outs.append(acc)
    return outs


conv_cases = st.tuples(
    st.sampled_from([1, 2, 4]),  # shard count K
    st.integers(1, 4),           # in channels
    st.integers(1, 4),           # out channels
    st.sampled_from([4, 5, 6]),  # H = W
    st.sampled_from([1, 2]),     # stride
    st.integers(0, 1),           # padding
)


class TestShardedConvLowering:
    @settings(max_examples=60, deadline=None)
    @given(conv_cases, st.integers(0, 10_000))
    def test_blocks_match_functional_conv(self, case, seed):
        k_shards, ic, oc, hw, stride, padding = case
        if 3 > hw + 2 * padding:
            return
        rng = np.random.default_rng(seed)
        conv = Conv2d(ic, oc, 3, stride=stride, padding=padding, rng=rng)
        conv.bias.data = rng.normal(size=oc)
        x = rng.normal(size=(1, ic, hw, hw))
        ref = F.conv2d(
            Tensor(x), conv.weight, conv.bias, stride, padding
        ).data.ravel()

        mg = MultiGridLayout.split(ic, hw, hw, k_shards)
        blocks, biases, out_mg = conv2d_shard_matrices(
            conv.weight.data, conv.bias.data, mg,
            stride=stride, padding=padding, num_shards=k_shards,
        )
        got = np.concatenate(
            _apply_blocks(blocks, biases, mg, mg.split_values(x.ravel()))
        )
        np.testing.assert_allclose(got, ref, atol=1e-10)
        assert out_mg.num_elements == len(ref)
        assert out_mg.num_shards == min(k_shards, oc)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([1, 2, 4]),
        st.integers(2, 4),
        st.integers(2, 5),
        st.integers(0, 10_000),
    )
    def test_linear_head_reads_all_shards(self, k_shards, c, out_f, seed):
        rng = np.random.default_rng(seed)
        mg = MultiGridLayout.split(c, 4, 4, k_shards).pooled(2, 2)
        w = rng.normal(size=(out_f, mg.num_elements))
        blocks = linear_shard_matrices(w, mg)
        assert len(blocks) == 1 and len(blocks[0]) == mg.num_shards
        x = rng.normal(size=mg.num_elements)
        bounds = np.cumsum([g.num_elements for g in mg.shards[:-1]])
        got = _apply_blocks(blocks, None, mg, np.split(x, bounds))[0]
        np.testing.assert_allclose(got, w @ x, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        conv = Conv2d(2, 1, 3)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_shard_matrices(
                conv.weight.data, None, MultiGridLayout.split(1, 4, 4, 1)
            )

    def test_grouped_diagonals_cover_both_plan_kinds(self):
        """Blocks planned at ``n1 = size`` regroup as one giant-step-0
        group whose hoist steps are exactly the nonzero diagonal
        indices."""
        from repro.fhe.linear import diagonals_of, plan_matvec

        w = np.eye(6) + np.diag(np.ones(5), 1)  # 2 diagonals: no factoring helps
        diags = diagonals_of(w, 32)
        plan = plan_matvec(diags.keys(), 6)
        assert plan.n1 == 6
        groups = grouped_diagonals(diags, plan)
        assert set(groups) == {0}
        assert shard_hoist_steps([[groups]], 0) == [1]


# ----------------------------------------------------------------------
# encrypted residual differentials
# ----------------------------------------------------------------------
def _eater():
    """A level-eater layer: masked identity multiply, one level, no rotation."""
    return PoolNode(shifts=((), ()), pool_scale=1.0)


def _two_shard_graph(layers, size) -> Graph:
    """A hand-built graph whose input is two ``size``-wide shards."""
    return Graph(layers, size=size, input_shards=2, input_splits=[size, size])


class TestLevelAlignment:
    @pytest.mark.parametrize("gap", [0, 1, 2])
    def test_identity_merge_across_level_gaps(self, gap):
        """Residual add where the branches differ by 0, 1 and 2 levels:
        the skip aligns to the main branch exactly, the output is
        ``2·x``, and the merge consumes no level of its own."""
        size = 8
        layers = [MatvecNode(blocks=[[np.eye(size)]])]
        layers.append(ResidualTapNode())
        for _ in range(gap):
            layers.append(_eater())
        layers.append(MergeNode())
        enc = EncryptedNetwork(Graph(layers, size=size), MINI_PARAMS)
        x = np.random.default_rng(gap).normal(size=size)
        out = enc.forward_shards(enc.encrypt_batch_shards([x]))
        got = enc.decrypt_logits(out[0], size)
        np.testing.assert_allclose(got, 2 * x, atol=1e-3)
        assert enc.ctx.max_level - out[0].level == 1 + gap

    @pytest.mark.parametrize("gap", [1, 2])
    def test_sharded_identity_merge_across_level_gaps(self, gap):
        """The same alignment edge cases with K=2 shards: each shard's
        skip aligns and adds independently."""
        size = 4
        eye = np.eye(size)
        blocks = [[eye, None], [None, eye]]
        layers = [MatvecNode(blocks=[row[:] for row in blocks])]
        layers.append(ResidualTapNode())
        for _ in range(gap):
            layers.append(_eater())
        layers.append(MergeNode())
        enc = EncryptedNetwork(_two_shard_graph(layers, size), MINI_PARAMS)
        rng = np.random.default_rng(gap)
        x = rng.normal(size=2 * size)
        out = enc.forward_shards(enc.encrypt_batch_shards([x]))
        got = np.concatenate(
            [enc.decrypt_logits(ct, size) for ct in out]
        )
        np.testing.assert_allclose(got, 2 * x, atol=1e-3)

    def test_2x2_grid_sums_inner_products_across_shards(
        self, giant_set_blocks, planned_matvec
    ):
        """A row whose blocks plan different giant sets ({0,4} beside
        {4,6}) and a row of an ``n1 = size`` and a ``None`` block, on a
        full SIMD batch: every block reaches its output shard, and each
        shared giant step is rotated once."""
        gs = giant_set_blocks
        size = 8
        rng = np.random.default_rng(11)
        biases = rng.normal(size=(2, size))
        blocks = [[gs.a, gs.c], [gs.n, None]]
        node = MatvecNode(blocks=[row[:] for row in blocks], bias_shards=list(biases))
        enc = EncryptedNetwork(_two_shard_graph([node], size), MINI_PARAMS)
        assert _shared_giant_rotations(enc.matvec_plans[0]) == 2  # {4, 6}; per block: 3
        xs = rng.normal(size=(enc.max_batch, 2 * size))
        counting = CountingEvaluator(enc.ev)
        cts = enc.encrypt_batch_shards(xs)
        outs = enc.forward_shards(cts, ev=counting)
        assert dict(counting.counts) == enc.op_counts()
        assert counting.counts["rotate"] == 2
        for j, row in enumerate(blocks):
            got = enc.decrypt_logits(outs[j], size, batch=enc.max_batch)
            want = biases[j] + sum(
                xs[:, i * size : (i + 1) * size] @ w.T
                for i, w in enumerate(row)
                if w is not None
            )
            np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-3)
            per_block = None
            for i in range(2):
                groups = enc.matvec_groups[0][j][i]
                if groups is None:
                    continue
                part = planned_matvec(enc.ev, cts[i], groups=groups)
                per_block = part if per_block is None else enc.ev.add(per_block, part)
            np.testing.assert_allclose(
                got - biases[j],
                enc.decrypt_logits(per_block, size, batch=enc.max_batch),
                atol=1e-3,
            )

    def test_projection_merge_needs_level_gap(self):
        """A projection skip with a 0-level main branch cannot rescale
        into alignment — rejected at construction."""
        size = 4
        layers = [
            MatvecNode(blocks=[[np.eye(size)]]),
            ResidualTapNode(),
            MergeNode(blocks=[[np.eye(size)]]),
        ]
        with pytest.raises(ValueError, match="projection skip needs"):
            Graph(layers, size=size)

    def test_all_zero_output_shard_rejected_at_compile(self):
        """An output shard whose every weight block is zero fails at
        compile (like the single-ct all-zero-weight rejection), not on
        the first encrypted forward."""
        layers = [MatvecNode(blocks=[[np.zeros((4, 4))]])]
        with pytest.raises(ValueError, match="no nonzero block"):
            EncryptedNetwork(Graph(layers, size=4), MINI_PARAMS)

    def test_bias_shard_count_must_match_output_shards(self):
        """One bias per output shard, checked at compile: too few used to
        compile and then raise a bare ``IndexError`` mid-forward, too
        many were silently dropped.  Matvec and merge projection alike."""
        eye, bias = np.eye(4), np.ones(4)
        bad = [
            [MatvecNode(blocks=[[eye], [eye]], bias_shards=[bias])],
            [MatvecNode(blocks=[[eye]], bias_shards=[bias, bias])],
        ]
        for layers in bad:
            with pytest.raises(ValueError, match="layer 0: .* bias shard"):
                EncryptedNetwork(Graph(layers, size=4), MINI_PARAMS)
        grid = [[eye, None], [None, eye]]
        layers = [
            MatvecNode(blocks=grid),
            ResidualTapNode(),
            _eater(),
            MergeNode(blocks=grid, bias_shards=[bias]),
        ]
        with pytest.raises(ValueError, match="layer 3: 1 bias shard"):
            EncryptedNetwork(_two_shard_graph(layers, 4), MINI_PARAMS)

    def test_unbalanced_taps_rejected(self):
        size = 4
        layers = [
            MatvecNode(blocks=[[np.eye(size)]]),
            ResidualTapNode(),
        ]
        with pytest.raises(ValueError, match="never merged"):
            Graph(layers, size=size)
        with pytest.raises(ValueError, match="no open residual tap"):
            Graph([layers[0], MergeNode()], size=size)


def _trained_block_net(stride: int, ch_out: int, seed: int = 3):
    """Stem conv-BN + one BasicBlock + head, PAF-replaced and frozen."""
    from repro.core import calibrate_static_scales, convert_to_static, replace_all
    from repro.paf import get_paf

    rng = np.random.default_rng(seed)
    model = Sequential(
        Conv2d(1, 2, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(2, track_running_stats=True),
        BasicBlock(2, ch_out, stride, rng=rng, track_running_stats=True),
        Flatten(),
        Linear(ch_out * (16 // (stride * stride)), 3, rng=rng),
    )
    xs = rng.normal(size=(8, 1, 4, 4))
    model.train()
    for _ in range(3):
        model(Tensor(xs))  # populate BN running statistics
    replace_all(model, get_paf("f1g2"), xs[:2])
    calibrate_static_scales(model, [xs])
    convert_to_static(model)
    model.eval()
    return model, rng


class TestEncryptedBasicBlock:
    def test_identity_skip_matches_plaintext(self):
        model, rng = _trained_block_net(stride=1, ch_out=2)
        enc = compile_network(model, BLOCK_PARAMS, policy=_policy())
        kinds = [layer.kind for layer in enc.layers]
        assert kinds == [
            "linear", "residual", "linear", "paf", "linear", "merge",
            "paf", "linear",
        ]
        assert enc.layers[5].blocks is None  # identity skip: no projection
        x = rng.normal(size=(1, 1, 4, 4))
        ref = model(Tensor(x)).data.ravel()
        out = enc.forward_shards(enc.encrypt_input_shards(x.ravel()))
        got = enc.decrypt_logits(out[0], 3)
        np.testing.assert_allclose(got, ref, atol=2e-3)

    def test_projection_skip_matches_plaintext(self):
        """Stride-2 downsampling block: the 1×1-projection conv (BN
        folded) runs on the saved branch and lands on the main branch's
        reduced-resolution layout."""
        model, rng = _trained_block_net(stride=2, ch_out=4)
        enc = compile_network(model, BLOCK_PARAMS, policy=_policy())
        merge = next(layer for layer in enc.layers if layer.kind == "merge")
        assert merge.blocks is not None  # projection skip compiled
        x = rng.normal(size=(1, 1, 4, 4))
        ref = model(Tensor(x)).data.ravel()
        out = enc.forward_shards(enc.encrypt_input_shards(x.ravel()))
        got = enc.decrypt_logits(out[0], 3)
        np.testing.assert_allclose(got, ref, atol=2e-3)

    def test_branch_schedule_exposed(self):
        """Read off the lowered graph alone — no keys needed."""
        model, _ = _trained_block_net(stride=2, ch_out=4)
        graph = lower(model, _policy())
        levels = graph.input_levels(BLOCK_PARAMS.depth)
        (tap_idx,) = [
            i for i, n in enumerate(graph.nodes) if isinstance(n, ResidualTapNode)
        ]
        (merge_idx,) = [
            i for i, n in enumerate(graph.nodes) if isinstance(n, MergeNode)
        ]
        assert tap_idx < merge_idx
        # the skip branch is read at the tap's level, 8 levels above the
        # main branch (conv + PAF + conv)
        assert levels[tap_idx] - levels[merge_idx] == 8


class TestCompilerRejections:
    def test_residual_blocks_lower_at_one_shard(self):
        """A residual net is no separate compiler's business: at
        ``num_shards=1`` the same walk emits the same node sequence with
        every matvec a 1 x 1 grid."""
        model, _ = _trained_block_net(stride=1, ch_out=2)
        one, two = lower(model, _policy(num_shards=1)), lower(model, _policy())
        assert [n.kind for n in one.nodes] == [n.kind for n in two.nodes]
        grids = [n.blocks for n in one.nodes if isinstance(n, MatvecNode)]
        assert all(len(g) == 1 and len(g[0]) == 1 for g in grids)
        assert one.validate() == two.validate() == 16

    def test_leading_residual_block_rejected(self):
        """A model opening with a block has no stem to zero the packed
        input's replica half — the graph must refuse."""
        from repro.core import replace_all
        from repro.paf import get_paf

        model = Sequential(BasicBlock(1, 1, 1, track_running_stats=True))
        replace_all(model, get_paf("f1g2"), np.zeros((1, 1, 4, 4)))
        model.eval()
        with pytest.raises(ValueError, match="live input replica"):
            lower(model, _policy(num_shards=1))

    def test_standalone_bn_rejected(self):
        """A BatchNorm only lowers by folding into the conv directly before
        it: after a pool or as the first layer it is a ``TypeError`` naming
        the layer, at every shard count."""
        after_pool = Sequential(
            Conv2d(2, 2, 3, padding=1),
            AvgPool2d(2),
            BatchNorm2d(2, track_running_stats=True),
            Flatten(),
            Linear(8, 2),
        )
        first = Sequential(
            BatchNorm2d(2, track_running_stats=True),
            Conv2d(2, 2, 3, padding=1),
            Flatten(),
            Linear(32, 2),
        )
        for num_shards in (None, 1, 2):
            for model, name in ((after_pool, "2"), (first, "0")):
                with pytest.raises(TypeError, match=f"layer '{name}'.*directly follow"):
                    lower(model, _policy((2, 4, 4), num_shards=num_shards))


# ----------------------------------------------------------------------
# analytic cost model consistency
# ----------------------------------------------------------------------
class TestShardedCostModel:
    def test_predict_round_trip(self):
        """encrypt shards -> forward -> decrypt -> argmax matches the
        plaintext prediction on a fast PAF-free mini net."""
        rng = np.random.default_rng(5)
        model = Sequential(
            Conv2d(2, 4, 3, padding=1, rng=rng),
            AvgPool2d(2),
            Flatten(),
            Linear(16, 3, rng=rng),
        )
        model.eval()
        enc = compile_network(model, MINI_PARAMS, policy=_policy((2, 4, 4)))
        x = rng.normal(size=32)
        ref = model(Tensor(x.reshape(1, 2, 4, 4))).data.ravel()
        assert enc.predict(x, 3) == int(np.argmax(ref))

    def test_sharded_counts_match_measured_mini_net(self):
        """The shadow forward's op tally is the measured one, key for key
        — replication rotations, cross-shard adds and all."""
        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(2, 4, 3, padding=1, rng=rng),
            Flatten(),
            Linear(64, 3, rng=rng),
        )
        model.eval()
        enc = compile_network(model, MINI_PARAMS, policy=_policy((2, 4, 4)))
        counting = CountingEvaluator(enc.ev)
        cts = enc.encrypt_batch_shards([np.zeros(32)])
        counting.reset()
        enc.forward_shards(cts, ev=counting)
        assert enc.op_counts() == dict(counting.counts)
        # rotate == Σ_rows |∪_i giants_{j,i} \ {0}| + replicates: the head
        # layer replicates each of the conv's 2 output shards
        shared = sum(_shared_giant_rotations(g) for g in enc.matvec_plans.values())
        assert counting.counts["rotate"] == shared + 2
        per_block = sum(
            sum(1 for g in plan.giant_steps if g)
            for grid in enc.matvec_plans.values()
            for row in grid
            for plan in row
            if plan is not None
        )
        assert shared < per_block  # the grids here do share giant steps

    @staticmethod
    def _merge_ops(gap: int, projection: bool = False) -> tuple:
        """``(shadow ops, measured ops, projection plan grid)`` of the merge
        layer of a 2-shard tap / ``gap`` level-eaters / merge net, from
        traced forwards."""
        size = 8
        eye = np.eye(size)
        proj = None
        if projection:
            w = np.random.default_rng(1).normal(size=(size, size))
            proj = [[w, None], [None, w]]
        layers = [MatvecNode(blocks=[[eye, None], [None, eye]]), ResidualTapNode()]
        layers += [_eater() for _ in range(gap)]
        layers.append(MergeNode(blocks=proj))
        enc = EncryptedNetwork(_two_shard_graph(layers, size), MINI_PARAMS)
        ops = []
        for ev in (ShadowEvaluator(enc.ctx), CkksEvaluator(enc.ctx, enc.keys)):
            tev = TracingEvaluator(ev)
            cts = enc.encrypt_batch_shards([np.zeros(2 * size)], ev=tev)
            enc.forward_shards(cts, ev=tev)
            ops.append(tev.tracer.layer_spans()[-1].ops)
        return ops[0], ops[1], enc.matvec_plans.get(len(layers) - 1)

    def test_merge_counts_identity_and_projection(self):
        identity, measured, _ = self._merge_ops(gap=1)
        assert identity == measured == {
            # one exact alignment correction and one add per shard
            "align_correction": 2, "mul_plain": 2, "rescale": 2, "add": 2,
        }
        gap0, measured, _ = self._merge_ops(gap=0)
        assert gap0 == measured == {"add": 2}  # equal levels: adds only
        # the projection's own rescale spends one level of the gap, so
        # two eaters leave one level for the alignment to ride
        proj, measured, grid = self._merge_ops(gap=2, projection=True)
        assert proj == measured
        # per shard: the replication rotation plus its row's giant steps
        assert proj["rotate"] == _shared_giant_rotations(grid) + 2
        assert proj["rescale"] == 2 + 2
        assert proj["align_correction"] == 2
        flush, measured, _ = self._merge_ops(gap=1, projection=True)
        assert flush == measured and "align_correction" not in flush

    def test_costs_price_every_charged_op(self):
        """Unit prices make the cost equal the op total, and a projection
        merge charges at least as much of every op as an identity one."""
        identity, _, _ = self._merge_ops(gap=1)
        proj, _, _ = self._merge_ops(gap=2, projection=True)
        gap0, _, _ = self._merge_ops(gap=0)
        for ops in (identity, proj, gap0):
            assert cost_from_counts(ops, dict.fromkeys(ops, 1.0)) == sum(ops.values())
        # gap 0 drops the alignment ops but never the per-shard adds
        assert Counter() < Counter(gap0) < Counter(identity) < Counter(proj)


# ----------------------------------------------------------------------
# the trained toy ResNet, end to end (session-scoped compile)
# ----------------------------------------------------------------------
class TestToyResnetEndToEnd:
    def test_acceptance_geometry(self, toy_resnet):
        """≥2 residual blocks, ≥1 stride-2 downsample (projection merge),
        channels sharded across ≥2 ciphertexts."""
        _, enc = toy_resnet
        kinds = [layer.kind for layer in enc.layers]
        assert kinds.count("residual") == 2 and kinds.count("merge") == 2
        merges = [layer for layer in enc.layers if layer.kind == "merge"]
        assert sum(1 for m in merges if m.blocks is not None) == 1
        widest = max(
            len(plans) for plans in enc.matvec_plans.values()
        )
        assert widest >= 2  # some layer writes >= 2 output shards

    def test_single_request_matches_plaintext_logits(self, toy_resnet):
        model, enc = toy_resnet
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 1, 8, 8))
        ref = model(Tensor(x)).data.ravel()
        out = enc.forward_shards(enc.encrypt_input_shards(x.ravel()))
        got = enc.decrypt_logits(out[0], 3)
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-4)

    def test_batched_via_serve_artifact(self, toy_resnet):
        """The acceptance path: SIMD-batched requests through the
        pre-encoded ModelArtifact match per-row plaintext logits, and a
        second batch is a pure cache hit."""
        model, enc = toy_resnet
        rng = np.random.default_rng(12)
        xs = [rng.normal(size=64) for _ in range(enc.max_batch)]
        ref = model(Tensor(np.stack(xs).reshape(-1, 1, 8, 8))).data
        artifact = ModelArtifact(enc).warm()
        out = enc.forward_shards(enc.encrypt_batch_shards(xs))
        got = enc.decrypt_logits(out[0], 3, batch=len(xs))
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-4)
        misses_before = artifact.cache.misses
        enc.forward_shards(enc.encrypt_batch_shards(xs))
        assert artifact.cache.misses == misses_before

    def test_inference_server_detects_sharded_model(self, toy_resnet):
        """The full serving stack: InferenceServer routes sharded models
        through encrypt_batch_shards/forward_shards and validates the
        sharded input width at the door."""
        from repro.serve import InferenceServer

        model, enc = toy_resnet
        rng = np.random.default_rng(13)
        xs = [rng.normal(size=64) for _ in range(enc.max_batch)]
        ref = model(Tensor(np.stack(xs).reshape(-1, 1, 8, 8))).data
        with InferenceServer(
            ModelArtifact(enc), num_classes=3, num_workers=1, max_wait_ms=50,
        ) as srv:
            with pytest.raises(ValueError, match="sharded input dim"):
                srv.submit(np.zeros(63))
            results = srv.predict_many(xs)
        for row, res in zip(ref, results):
            np.testing.assert_allclose(res.logits, row, rtol=1e-3, atol=1e-4)
            assert res.prediction == int(np.argmax(row))

    def test_level_schedule_consumed_exactly(self, toy_resnet):
        _, enc = toy_resnet
        out = enc.forward_shards(enc.encrypt_input_shards(np.zeros(64)))
        depth_needed = enc.graph.validate()
        assert enc.ctx.max_level - out[0].level == depth_needed == 31

    def test_galois_keys_cover_forward(self, toy_resnet, per_diagonal_steps):
        """The compiled key set suffices (no KeyError in the fixture's
        forwards) and stays far below one key per nonzero diagonal."""
        _, enc = toy_resnet
        assert len(enc.keys.galois) < len(per_diagonal_steps(enc))

    def test_key_material_is_one_small_tensor_pair_per_family(self, toy_resnet):
        """Every family is one level-independent ``(key_b, key_a)`` pair
        built at compile time: the whole compiled key set stays under
        30 MB (per-(family, level) key sets reached 482 MB)."""
        _, enc = toy_resnet
        ctx = enc.ctx
        families = [enc.keys.relin, *enc.keys.galois.values()]
        shape = (ctx.params.dnum, ctx.alpha + ctx.max_level + 1, ctx.n)
        assert all(f.key_b.shape == f.key_a.shape == shape for f in families)
        assert sum(f.key_b.nbytes + f.key_a.nbytes for f in families) <= 30e6
