"""The one lowering is pure: model + policy -> Graph, no keys.

Every toy family goes through :func:`repro.fhe.lower.lower` with
``keygen`` rigged to raise — node kinds, the validated depth and the
input packing are all there before any CKKS context exists.  The
plaintext models come from the session fixtures (compiled once, before
the rigging).
"""

import numpy as np
import pytest

import repro.fhe.lower as lowering
from repro.core.surgery import replace_transformer_nonpoly
from repro.fhe.ir import CompilePolicy
from repro.fhe.lower import lower
from repro.nn.models import toy_transformer as build_toy_transformer

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


@pytest.mark.parametrize(
    "field, value", [("num_shards", 2), ("num_shards", 1), ("input_shape", (4, 8))]
)
def test_transformer_refuses_the_packing_policy(toy_transformer, no_keygen, field, value):
    """A transformer's shards are its ``seq`` tokens: a packing field set
    on its policy would be silently ignored, so it is refused instead."""
    model, _ = toy_transformer
    with pytest.raises(ValueError, match=field):
        lower(model, CompilePolicy(**{field: value}))


def test_transformer_block_grows_to_hold_the_attention_windows(no_keygen):
    """Token-packed attention reads a request block (``2·size`` slots) as
    ``seq`` windows of ``dim`` lanes: a long sequence sizes the block,
    where the widest layer alone (16, as for the toy above) would not."""
    model = build_toy_transformer(seq=8, dim=8, ff=16, num_classes=3, seed=0)
    samples = np.random.default_rng(0).normal(size=(16, 8, 8))
    replace_transformer_nonpoly(model, samples)
    graph = lower(model)
    assert graph.size == 32  # 2·32 == seq·dim
    assert (graph.input_shards, graph.input_splits) == (8, [8] * 8)
