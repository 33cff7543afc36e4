"""The typed graph IR: structure validation and the oracle.

The api_redesign contract in two parts:

* **structural validation**: residual taps/merges must pair like
  brackets, projection merges need a main-branch level gap, and no
  live input replica may reach a re-replicating node;
* **executor vs oracle**: the one IR executor against the straight-line
  naive interpreter in ``conftest.py`` (per-diagonal matvecs, ladder
  activations, nothing shared with the compiled plans) — decrypted
  logits must agree.  That the executor's *bytes* did not move when
  dispatch was redesigned is pinned separately by
  ``test_golden_forward.py``.

Plus the :class:`CompilePolicy` surface the refresh redesign added —
validation and refresh placement.
"""

import numpy as np
import pytest

from repro.fhe.ir import (
    CompilePolicy,
    Graph,
    MatvecNode,
    MergeNode,
    PafNode,
    PolyNode,
    PoolNode,
    RefreshNode,
    ResidualTapNode,
    apply_refresh_policy,
)
from repro.fhe.network import compile_network
from repro.paf import get_paf
from repro.paf.polynomial import Polynomial


def _eye_node(size=4):
    return MatvecNode(blocks=[[np.eye(size)]])


# ----------------------------------------------------------------------
# structural validation
# ----------------------------------------------------------------------
class TestGraphValidation:
    def test_total_depth_sums_level_costs(self):
        g = Graph([_eye_node(), PolyNode(poly=Polynomial((0.0, 1.0, 1.0)))], size=4)
        assert g.validate() == 1 + 2

    def test_merge_without_tap_rejected(self):
        with pytest.raises(ValueError, match="no open residual tap"):
            Graph([_eye_node(), MergeNode()], size=4)

    def test_unmerged_tap_rejected(self):
        with pytest.raises(ValueError, match="never merged"):
            Graph([_eye_node(), ResidualTapNode()], size=4)

    def test_projection_merge_needs_level_gap(self):
        proj = MergeNode(blocks=[[np.eye(4)]])
        with pytest.raises(ValueError, match="depth of >= 1"):
            Graph([ResidualTapNode(), proj], size=4)

    def test_balanced_residual_accepted(self):
        g = Graph(
            [_eye_node(), ResidualTapNode(), _eye_node(), MergeNode()], size=4
        )
        assert g.validate() == 2

    def test_input_levels_descend_by_cost(self):
        g = Graph([_eye_node(), PolyNode(poly=Polynomial((0.0, 1.0, 1.0)))], size=4)
        levels = g.input_levels(10)
        assert levels == {0: 10, 1: 9}

    def test_live_replica_reaching_replicate_rejected(self):
        """The packed input's replica half is live until a matvec at node
        0 or a pool mask zeroes it; a slot-wise node that runs
        first hands it on, and the matvec behind it would double it
        (decrypting ~2x wrong) — one check for every producer."""
        paf = PafNode(paf=get_paf("f1g2"), scale=1.0)
        with pytest.raises(ValueError, match="live input replica"):
            Graph([paf, _eye_node()], size=4)
        with pytest.raises(ValueError, match="live input replica"):
            Graph([PolyNode(poly=Polynomial((0.0, 1.0, 1.0))), _eye_node()], size=4)
        # a tap that saves the live input poisons the branch it merges into
        with pytest.raises(ValueError, match="live input replica"):
            Graph([ResidualTapNode(), _eye_node(), MergeNode()], size=4)
        # a projection replicates the saved branch itself
        proj = MergeNode(blocks=[[np.eye(4)]])
        with pytest.raises(ValueError, match="live input replica"):
            Graph([ResidualTapNode(), PoolNode(shifts=((), ())), proj], size=4)
        # pool-first is legal: its mask zeroes the replica half
        Graph([PoolNode(shifts=((), ())), paf, _eye_node()], size=4)
        # and a slot-wise chain that no matvec follows never replicates
        Graph([paf], size=4)


# ----------------------------------------------------------------------
# the IR executor vs the test-side naive oracle
# ----------------------------------------------------------------------
#: share of a sign PAF's static scale its pre-activation may reach — the
#: ladder's plaintext ``in_domain`` rule (``benchmarks/ladder/workloads.py``)
DOMAIN_SHARE = 0.65


def _in_domain_input(enc, rng) -> np.ndarray:
    """A N(0, 1) input the toy MLP's PAF was calibrated for, judged on the
    plaintext side only: the pre-activation ``W·x + b`` stays within
    ``DOMAIN_SHARE`` of the PAF node's static scale."""
    first, paf = enc.layers[0], enc.layers[1]
    ((weight,),), (bias,) = first.blocks, first.bias_shards
    while True:
        x = rng.normal(0.0, 1.0, weight.shape[1])
        pre = (weight @ x)[: len(bias)] + bias
        if np.max(np.abs(pre)) <= DOMAIN_SHARE * paf.scale:
            return x


class TestExecutorVsOracle:
    def test_decrypted_logits_agree_with_oracle(self, toy_plain_enc, oracle):
        """Planned and naive forwards decrypt alike — on an in-domain input.

        The first ``default_rng(8)`` draw puts the PAF pre-activation at
        0.78 of the layer's static scale: past the edge of the composite
        sign PAF's accurate range, where the two evaluation orders amplify
        keyswitch noise differently and whether they agree to rtol 1e-3
        is decided by the key bytes (any re-keying can flip it), not by
        the executor.  What this test compares is the executors, so it
        draws until the input is inside the domain.
        """
        enc = toy_plain_enc
        rng = np.random.default_rng(8)
        ct = enc.encrypt_input(_in_domain_input(enc, rng))
        got = enc.ev.decrypt(enc.forward(ct), num_values=3)
        ref_ct = oracle.forward(enc, ct, oracle.evaluator(enc))
        want = enc.ev.decrypt(ref_ct, num_values=3)
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-3)

    def test_single_ciphertext_forward_is_the_one_shard_list(self, toy_plain_enc):
        """``forward(ct)`` is ``forward_shards([ct])`` unwrapped — same
        loop, same bytes; a wrong shard count is a typed error."""
        enc = toy_plain_enc
        ct = enc.encrypt_input(np.random.default_rng(9).normal(0.0, 1.0, 8))
        a = enc.forward(ct)
        (b,) = enc.forward_shards([ct])
        assert a.level == b.level and a.scale == b.scale
        assert np.array_equal(a.data, b.data)
        with pytest.raises(ValueError, match="takes 1 input ciphertext"):
            enc.forward_shards([ct, ct])


# ----------------------------------------------------------------------
# compile policy: validation, refresh placement
# ----------------------------------------------------------------------
class TestCompilePolicy:
    def test_bad_refresh_string_rejected(self):
        with pytest.raises(ValueError, match="refresh must be"):
            CompilePolicy(refresh="sometimes")

    def test_bad_refresh_positions_rejected(self):
        with pytest.raises(ValueError, match="non-negative node"):
            CompilePolicy(refresh=(2, -1))

    def test_bad_refresh_method_rejected(self):
        with pytest.raises(ValueError, match="refresh_method"):
            CompilePolicy(refresh_method="modraise")

    def test_refresh_list_normalised_to_tuple(self):
        assert CompilePolicy(refresh=[3, 1]).refresh == (3, 1)

    def test_non_positive_num_shards_rejected(self):
        """``num_shards=0`` is an error like ``-1``, not a silent one shard."""
        for bad in (0, -1):
            with pytest.raises(ValueError, match="num_shards must be >= 1"):
                CompilePolicy(num_shards=bad)
        assert CompilePolicy(num_shards=1).num_shards == 1

    def test_policy_seed_reaches_the_compile(self, paf_mlp_model):
        from repro.fhe.toy import TOY_PARAMS

        enc = compile_network(
            paf_mlp_model, TOY_PARAMS, policy=CompilePolicy(seed=3)
        )
        assert enc.policy.seed == 3
        assert not any(isinstance(n, RefreshNode) for n in enc.graph.nodes)


def _poly_chain(n, depth_each=2):
    """``n`` PolyNodes costing ``depth_each`` levels apiece."""
    poly = Polynomial((0.0, 1.0, 1.0))  # degree 2 -> 2 levels
    return [PolyNode(poly=poly) for _ in range(n)]


class TestRefreshPlacement:
    def test_fitting_graph_gets_no_refresh(self):
        g = Graph(_poly_chain(2), size=4)
        assert apply_refresh_policy(g, 10, CompilePolicy()) == ()
        assert not any(isinstance(n, RefreshNode) for n in g.nodes)

    def test_never_policy_skips_even_when_too_deep(self):
        g = Graph(_poly_chain(6), size=4)
        assert apply_refresh_policy(g, 5, CompilePolicy(refresh="never")) == ()

    def test_auto_inserts_latest_possible_refresh(self):
        # 6 nodes x 2 levels = 12 > 9; refreshed budget 9-1=8 covers four
        # nodes, so the greedy search refreshes right before node 4
        g = Graph(_poly_chain(6), size=4)
        inserted = apply_refresh_policy(
            g, 9, CompilePolicy(), pipeline_levels=1
        )
        assert inserted == (4,)
        assert isinstance(g.nodes[4], RefreshNode)
        assert g.nodes[4].level_cost() == 0
        assert g.nodes[4].pipeline_levels == 1

    def test_auto_inserts_multiple_refreshes_for_very_deep_chains(self):
        g = Graph(_poly_chain(10), size=4)  # 20 levels over a 6-chain
        inserted = apply_refresh_policy(
            g, 6, CompilePolicy(), pipeline_levels=0
        )
        assert len(inserted) >= 3
        level, budget = 6, 6
        for node in g.nodes:
            if isinstance(node, RefreshNode):
                level = budget
            level -= node.level_cost()
            assert level >= 0  # placement actually rescues the descent

    def test_refresh_never_lands_inside_residual_bracket(self):
        poly = Polynomial((0.0, 1.0, 1.0))
        nodes = [
            ResidualTapNode(),
            PolyNode(poly=poly),
            PolyNode(poly=poly),
            MergeNode(),
            PolyNode(poly=poly),
        ]
        g = Graph(nodes, size=4)  # 6 levels of cost
        inserted = apply_refresh_policy(g, 5, CompilePolicy())
        # only legal boundary past the deficit is after the merge
        assert inserted == (4,)
        assert isinstance(g.nodes[4], RefreshNode)

    def test_tap_to_merge_gap_unchanged_by_refresh(self):
        """A refresh inserted before a bracket shifts the tap and the
        merge alike: the level gap the merge aligns across is the same."""
        poly = Polynomial((0.0, 1.0, 1.0))
        nodes = [
            PolyNode(poly=poly),
            PolyNode(poly=poly),
            ResidualTapNode(),
            PolyNode(poly=poly),
            MergeNode(),
        ]
        g = Graph(nodes, size=4)

        def tap_to_merge_gap() -> int:
            levels = g.input_levels(7)
            (tap,) = [i for i, n in enumerate(g.nodes) if isinstance(n, ResidualTapNode)]
            (merge,) = [i for i, n in enumerate(g.nodes) if isinstance(n, MergeNode)]
            return levels[tap] - levels[merge]

        before = tap_to_merge_gap()
        inserted = apply_refresh_policy(g, 7, CompilePolicy(refresh=(2,)))
        assert inserted == (2,)
        assert isinstance(g.nodes[2], RefreshNode)
        assert tap_to_merge_gap() == before == 2
        g.validate()

    def test_segment_deeper_than_budget_rejected(self):
        g = Graph(_poly_chain(4), size=4)
        with pytest.raises(ValueError, match="deepen the chain"):
            apply_refresh_policy(g, 3, CompilePolicy(), pipeline_levels=3)

    def test_explicit_positions_out_of_range_rejected(self):
        g = Graph(_poly_chain(2), size=4)
        with pytest.raises(ValueError, match="exceed the graph"):
            apply_refresh_policy(g, 10, CompilePolicy(refresh=(7,)))
