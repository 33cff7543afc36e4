"""The one lowering is pure: model + policy -> Graph, no keys.

Every toy family goes through :func:`repro.fhe.lower.lower` with
``keygen`` rigged to raise — node kinds, the validated depth and the
input packing are all there before any CKKS context exists.  The
plaintext models come from the session fixtures (compiled once, before
the rigging).
"""

import pytest

import repro.fhe.lower as lowering
from repro.fhe.ir import CompilePolicy
from repro.fhe.lower import lower

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


def test_transformer_takes_the_other_way_in(toy_transformer, toy_transformer_stacked, no_keygen):
    model, _ = toy_transformer
    graph = lower(model)
    assert [n.kind for n in graph.nodes] == ["linear", *_TBLOCK, "reduce", "linear"]
    assert (graph.validate(), graph.size) == (33, 16)
    assert (graph.input_shards, graph.input_splits) == (4, [8] * 4)
    stacked, _ = toy_transformer_stacked
    deep = lower(stacked)  # refreshes are placed against a chain, not here
    assert [n.kind for n in deep.nodes] == ["linear", *_TBLOCK, *_TBLOCK, "reduce", "linear"]
    assert deep.validate() == 64  # embed + 2 x 31 + head
