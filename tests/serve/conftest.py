"""Shared fixtures: compiled toy models for the whole serve suite."""

import pytest

from repro.fhe.toy import compiled_toy, compiled_toy_resnet, compiled_toy_transformer
from repro.serve.artifact import ModelArtifact


@pytest.fixture(scope="session")
def toy():
    """(plain model, compiled EncryptedNetwork) — 8 -> 6 -> 3 MLP with an f1∘g2 PAF."""
    return compiled_toy(with_model=True)


@pytest.fixture(scope="session")
def toy_resnet_artifact():
    """Warmed artifact of the sharded toy ResNet (the executor/scale cases)."""
    art = ModelArtifact(compiled_toy_resnet())
    art.warm()
    return art


@pytest.fixture(scope="session")
def toy_transformer_artifact():
    """Warmed artifact of the toy transformer (token shards; attention's
    per-query tasks share the packed keys and values read-only)."""
    art = ModelArtifact(compiled_toy_transformer())
    art.warm()
    return art
