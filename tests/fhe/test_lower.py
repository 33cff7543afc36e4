"""The one lowering is pure: model + policy -> Graph, no keys.

Every toy family goes through :func:`repro.fhe.lower.lower` with
``keygen`` rigged to raise — node kinds, the validated depth and the
input packing are all there before any CKKS context exists.  The
plaintext models come from the session fixtures (compiled once, before
the rigging).
"""

import pickle

import numpy as np
import pytest

import repro.fhe.lower as lowering
from repro.core.surgery import replace_transformer_nonpoly
from repro.fhe.ir import CompilePolicy
from repro.fhe.lower import lower
from repro.nn import Identity, Linear, Sequential, TokenMeanPool
from repro.nn.models import toy_transformer as build_toy_transformer
from repro.nn.models.transformer import TransformerBlock

#: the ResNet blocks' ``residual linear paf linear merge paf``
_BLOCK = ["residual", "linear", "paf", "linear", "merge", "paf"]
#: one transformer block: attention and the GELU MLP, both residual
_TBLOCK = ["residual", "attention", "merge", "residual", "linear", "poly", "linear", "merge"]


@pytest.fixture
def no_keygen(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lowering must not generate keys")

    monkeypatch.setattr("repro.ckks.keys.keygen", refuse)
    monkeypatch.setattr("repro.ckks.keygen", refuse)
    monkeypatch.setattr("repro.fhe.network.keygen", refuse)


def test_lowering_module_imports_no_executor_or_keys():
    assert not hasattr(lowering, "EncryptedNetwork")
    assert not hasattr(lowering, "keygen")


def test_mlp_is_the_flat_image(paf_mlp_model, no_keygen):
    graph = lower(paf_mlp_model)  # input_shape inferred: (in_features, 1, 1)
    assert [n.kind for n in graph.nodes] == ["linear", "paf", "linear"]
    assert (graph.validate(), graph.size) == (8, 8)
    assert (graph.input_shards, graph.input_splits) == (1, None)


def test_cnn_is_the_one_shard_case(toy_cnn, no_keygen):
    model, enc = toy_cnn
    graph = lower(model, enc.policy)
    assert [n.kind for n in graph.nodes] == ["linear", "paf", "pool", "linear", "linear"]
    assert (graph.validate(), graph.size) == (10, 128)
    assert (graph.input_shards, graph.input_splits) == (1, None)
    with pytest.raises(ValueError, match="input_shape"):
        lower(model, CompilePolicy())


def test_resnet_blocks_are_one_more_case(toy_resnet, no_keygen):
    model, enc = toy_resnet
    graph = lower(model, enc.policy)
    assert [n.kind for n in graph.nodes] == ["linear", *_BLOCK, *_BLOCK, "pool", "linear"]
    assert (graph.validate(), graph.size) == (31, 64)
    # a 1-channel image enters as one ciphertext; the stem fans out to 2
    assert (graph.input_shards, graph.input_splits) == (1, [64])
    assert [len(n.blocks) for n in graph.nodes if n.kind == "linear"] == [2, 2, 2, 2, 2, 1]


def _calibrated_transformer(seq: int):
    model = build_toy_transformer(seq=seq, dim=8, ff=16, num_classes=3, seed=0)
    samples = np.random.default_rng(0).normal(size=(16, seq, 8))
    replace_transformer_nonpoly(model, samples)
    return model


def test_transformer_blocks_are_one_more_case(toy_transformer, toy_transformer_stacked, no_keygen):
    model, _ = toy_transformer
    graph = lower(model)
    assert [n.kind for n in graph.nodes] == ["linear", *_TBLOCK, "reduce", "linear"]
    assert (graph.validate(), graph.size) == (33, 16)
    assert (graph.input_shards, graph.input_splits) == (4, [8] * 4)
    stacked, _ = toy_transformer_stacked
    deep = lower(stacked)  # refreshes are placed against a chain, not here
    assert [n.kind for n in deep.nodes] == ["linear", *_TBLOCK, *_TBLOCK, "reduce", "linear"]
    assert deep.validate() == 64  # embed + 2 x 31 + head


@pytest.mark.parametrize(
    "field, value", [("num_shards", 2), ("num_shards", 1), ("input_shape", (4, 8))]
)
def test_transformer_refuses_the_packing_policy(toy_transformer, no_keygen, field, value):
    """A transformer block reads one ``dim``-element shard per token: any
    other layout the policy asks for fails the block's geometry check."""
    model, _ = toy_transformer
    with pytest.raises(ValueError, match=field):
        lower(model, CompilePolicy(**{field: value}))


def test_transformer_block_grows_to_hold_the_attention_windows(no_keygen):
    """Token-packed attention reads a request block (``2·size`` slots) as
    ``seq`` windows of ``dim`` lanes: a long sequence sizes the block,
    where the widest layer alone (16, as for the toy above) would not."""
    graph = lower(_calibrated_transformer(seq=8))
    assert graph.size == 32  # 2·32 == seq·dim
    assert (graph.input_shards, graph.input_splits) == (8, [8] * 8)


def test_transformer_token_policy_is_the_inferred_one(toy_transformer, no_keygen):
    """Spelling out the layout a leading block infers changes nothing."""
    model, _ = toy_transformer
    explicit = lower(model, CompilePolicy(num_shards=4, input_shape=(4, 8, 1)))
    inferred = lower(model)
    assert (explicit.size, explicit.input_shards, explicit.input_splits) == (
        inferred.size, inferred.input_shards, inferred.input_splits
    )
    assert pickle.dumps(explicit.nodes) == pickle.dumps(inferred.nodes)


def test_transformer_block_needs_the_token_layout(no_keygen):
    rng = np.random.default_rng(0)
    block = TransformerBlock(seq=4, dim=8, ff=16, rng=rng, proj_init_scale=0.35)
    model = Sequential(Linear(8, 8, rng=rng), block)
    with pytest.raises(ValueError, match="block '1'.*per token"):
        lower(model)


def test_transformer_block_needs_its_pafs(no_keygen):
    model = build_toy_transformer(seq=4, dim=8, ff=16, num_classes=3, seed=0)
    with pytest.raises(ValueError, match="block0.*replace_transformer_nonpoly"):
        lower(model)


def test_token_pool_needs_tokens_then_a_linear(no_keygen):
    model = _calibrated_transformer(seq=4)
    model.head = Identity()
    with pytest.raises(TypeError, match="'pool'"):
        lower(model)
    rng = np.random.default_rng(0)
    flat = Sequential(Linear(8, 8, rng=rng), TokenMeanPool(), Linear(8, 3, rng=rng))
    with pytest.raises(ValueError, match="'1'.*one token per shard"):
        lower(flat)
