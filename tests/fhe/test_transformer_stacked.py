"""The depth-wall demo: a 2-block transformer that only compiles refreshed.

The headline of the refresh redesign.  One transformer block costs ~32
encrypted levels — two stacked blocks need ~64 against the same 33-level
chain, so compilation is *impossible* without a mid-network level
refresh.  This suite pins every layer of that story:

* the stack genuinely does not compile under ``refresh="never"``;
* automatic placement inserts exactly one exactness-gated
  :class:`~repro.fhe.ir.RefreshNode` at the block boundary and the
  refreshed schedule fits the unchanged chain;
* decrypted logits still track the plaintext PAF model within the same
  rtol 1e-3 the single-block suite enforces — single request and
  SIMD-batched — i.e. the refresh is numerically invisible end to end.
"""

import numpy as np
import pytest

from repro.data.synthetic import make_sequence_dataset
from repro.fhe.ir import CompilePolicy, MergeNode, RefreshNode, apply_refresh_policy
from repro.fhe.lower import lower
from repro.fhe.network import compile_network
from repro.fhe.toy import TOY_TRANSFORMER_PARAMS
from repro.nn.tensor import Tensor

RTOL = 1e-3


def _val_data():
    return make_sequence_dataset(
        num_classes=3, n_train=96, n_val=24, seq=4, dim=8, seed=0
    )


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(scope="module")
def single_run(toy_transformer_stacked):
    """One plan-path encrypted forward, shared across tests."""
    model, enc = toy_transformer_stacked
    x = _val_data().x_val[0]
    cts = enc.encrypt_input_shards(x.ravel())
    out = enc.forward_shards(cts)[0]
    logits = enc.decrypt_logits(out, model.num_classes)
    return model, enc, x, out, logits


class TestDepthWall:
    def test_stack_cannot_compile_without_refresh(self, toy_transformer_stacked):
        model, _ = toy_transformer_stacked
        with pytest.raises(ValueError, match="context depth"):
            compile_network(
                model,
                TOY_TRANSFORMER_PARAMS,
                policy=CompilePolicy(refresh="never"),
            )

    def test_auto_policy_inserts_one_block_boundary_refresh(
        self, toy_transformer_stacked
    ):
        model, enc = toy_transformer_stacked
        refreshes = [
            i for i, n in enumerate(enc.graph.nodes) if isinstance(n, RefreshNode)
        ]
        assert refreshes == [9]
        # the boundary sits right after block 0's MLP merge
        assert isinstance(enc.graph.nodes[8], MergeNode)
        node = enc.graph.nodes[9]
        assert (node.method, node.pipeline_levels) == ("recrypt", 0)
        # the placement on its own: the policy over the bare lowered graph
        placed = apply_refresh_policy(lower(model), enc.ctx.max_level, enc.policy)
        assert placed == (9,)

    def test_refreshed_schedule_fits_unchanged_chain(
        self, toy_transformer_stacked
    ):
        _, enc = toy_transformer_stacked
        # segment-max depth, not the ~64-level sum the stack costs raw
        assert enc.graph.validate() <= TOY_TRANSFORMER_PARAMS.depth
        raw = sum(n.level_cost() for n in enc.graph.nodes)
        assert raw > TOY_TRANSFORMER_PARAMS.depth  # the wall is real


class TestEncryptedForward:
    def test_single_request_within_rtol(self, single_run):
        model, enc, x, out, logits = single_run
        want = model(Tensor(x[None])).data[0]
        assert _rel(logits, want) < RTOL
        assert int(np.argmax(logits)) == int(np.argmax(want))

    def test_simd_batch_within_rtol(self, toy_transformer_stacked):
        model, enc = toy_transformer_stacked
        batch = enc.max_batch
        xs = _val_data().x_val[:batch]
        cts = enc.encrypt_batch_shards([x.ravel() for x in xs])
        out = enc.forward_shards(cts)[0]
        got = enc.decrypt_logits(out, model.num_classes, batch=batch)
        want = model(Tensor(xs)).data
        assert _rel(got, want) < RTOL
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
