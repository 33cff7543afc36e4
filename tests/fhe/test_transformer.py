"""Differential suite for the encrypted transformer lowering.

Three rings, cheapest first:

* **static schedule checks** (no crypto): the compiled graph's level
  costs sum exactly to the parameter depth, with the attention node's
  budget decomposing into its documented steps;
* **plaintext PAF accuracy**: the PAF-approximated model (range-reduced
  exp softmax, dense GELU, Newton reciprocal) tracks the exact model's
  logits over the validation set;
* **the trained toy transformer end to end**: decrypted logits match
  the plaintext PAF model within rtol 1e-3, single and SIMD-batched,
  with the chain consumed exactly (exit level 0); the naive/ladder
  reference path agrees with the compiled plans.
"""

import numpy as np
import pytest

from repro.data.synthetic import make_sequence_dataset
from repro.fhe.ir import AttentionNode, PolyNode
from repro.fhe.toy import TOY_TRANSFORMER_PARAMS, toy_transformer_model
from repro.nn.tensor import Tensor

RTOL = 1e-3


def _val_data():
    # same generator arguments as toy_transformer_model — the held-out
    # sequences the fixture's model was validated on
    return make_sequence_dataset(
        num_classes=3, n_train=96, n_val=24, seq=4, dim=8, seed=0
    )


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(scope="module")
def single_run(toy_transformer):
    """One plan-path encrypted forward, shared across tests."""
    model, enc = toy_transformer
    data = _val_data()
    x = data.x_val[0]
    cts = enc.encrypt_input_shards(x.ravel())
    out = enc.forward_shards(cts)[0]
    logits = enc.decrypt_logits(out, model.num_classes)
    return model, enc, x, out, logits


# ----------------------------------------------------------------------
# static level schedule (no crypto)
# ----------------------------------------------------------------------
class TestLevelSchedule:
    def test_total_level_cost_matches_params_depth(self, toy_transformer):
        _, enc = toy_transformer
        total = sum(node.level_cost() for node in enc.graph.nodes)
        assert total == TOY_TRANSFORMER_PARAMS.depth

    def test_attention_budget_decomposition(self, toy_transformer):
        _, enc = toy_transformer
        att = next(n for n in enc.graph.nodes if isinstance(n, AttentionNode))
        # 9 fixed levels (qkv grid, score product, strided score mask,
        # sum mask, Newton seed, probs, value product, window-0 mask,
        # output projection) plus the exp polynomial's PS depth, its
        # range-reduction squarings and two levels per Newton iteration
        exp_depth = int(np.ceil(np.log2(att.exp_poly.degree + 1)))
        expected = 9 + exp_depth + att.exp_squarings + 2 * att.recip_iters
        assert att.level_cost() == expected == 25

    def test_gelu_degree_12_costs_four_levels(self, toy_transformer):
        _, enc = toy_transformer
        gelu = next(n for n in enc.graph.nodes if isinstance(n, PolyNode))
        assert gelu.poly.degree == 12
        assert gelu.level_cost() == 4


# ----------------------------------------------------------------------
# plaintext PAF accuracy (no crypto)
# ----------------------------------------------------------------------
class TestPlaintextPAF:
    def test_paf_model_tracks_exact_model(self, toy_transformer):
        paf_model, _ = toy_transformer
        exact_model, data = toy_transformer_model()  # same seed → same weights
        want = exact_model(Tensor(data.x_val)).data
        got = paf_model(Tensor(data.x_val)).data
        assert _rel(got, want) < 1e-3
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))


# ----------------------------------------------------------------------
# encrypted end to end
# ----------------------------------------------------------------------
class TestEncryptedForward:
    def test_single_request_within_rtol(self, single_run):
        model, enc, x, out, logits = single_run
        want = model(Tensor(x[None])).data[0]
        assert _rel(logits, want) < RTOL
        assert int(np.argmax(logits)) == int(np.argmax(want))

    def test_chain_consumed_exactly(self, single_run):
        _, _, _, out, _ = single_run
        assert out.level == 0

    def test_simd_batch_within_rtol(self, toy_transformer):
        model, enc = toy_transformer
        data = _val_data()
        batch = enc.max_batch
        xs = data.x_val[:batch]
        cts = enc.encrypt_batch_shards([x.ravel() for x in xs])
        out = enc.forward_shards(cts)[0]
        got = enc.decrypt_logits(out, model.num_classes, batch=batch)
        want = model(Tensor(xs)).data
        assert _rel(got, want) < RTOL
        np.testing.assert_array_equal(
            got.argmax(axis=1), want.argmax(axis=1)
        )
