"""Shared fixtures: compiled toy models for the whole serve suite."""

import pytest

from repro.fhe.toy import compiled_toy


@pytest.fixture(scope="session")
def toy():
    """(plain model, compiled EncryptedNetwork) — 8 -> 6 -> 3 MLP with an f1∘g2 PAF."""
    return compiled_toy(with_model=True)
