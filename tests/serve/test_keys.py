"""Per-client key registry: isolation, dedup, deterministic derivation."""

import sys
import threading

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams
from repro.serve.keys import (
    ClientKeyRegistry,
    UnknownClientError,
    client_seed,
    context_signature,
)


class TestRegistration:
    def test_register_is_idempotent(self):
        reg = ClientKeyRegistry()
        assert reg.register("alice") == "alice"
        assert reg.register("alice") == "alice"
        assert reg.clients == ["alice"]

    def test_register_rejects_seed_change(self):
        reg = ClientKeyRegistry()
        reg.register("alice", seed=7)
        reg.register("alice", seed=7)  # same seed fine
        with pytest.raises(ValueError, match="different seed"):
            reg.register("alice", seed=8)

    def test_register_rejects_empty_id(self):
        with pytest.raises(ValueError):
            ClientKeyRegistry().register("")

    def test_contains(self):
        reg = ClientKeyRegistry()
        reg.register("alice")
        assert "alice" in reg
        assert "bob" not in reg

    def test_unknown_client_raises(self, toy):
        _, enc = toy
        with pytest.raises(UnknownClientError):
            ClientKeyRegistry().chain_for("nobody", enc)

    def test_client_seed_deterministic_and_distinct(self):
        assert client_seed("alice") == client_seed("alice")
        assert client_seed("alice") != client_seed("bob")


class TestChains:
    def test_clients_get_distinct_secrets(self, toy):
        _, enc = toy
        reg = ClientKeyRegistry()
        reg.register("alice")
        reg.register("bob")
        a = reg.chain_for("alice", enc)
        b = reg.chain_for("bob", enc)
        assert not np.array_equal(a.secret.coeffs, b.secret.coeffs)
        # neither matches the model's own baked secret
        assert not np.array_equal(a.secret.coeffs, enc.keys.secret.coeffs)

    def test_chain_is_cached_and_covers_model_elements(self, toy):
        _, enc = toy
        reg = ClientKeyRegistry()
        reg.register("alice")
        chain1 = reg.chain_for("alice", enc)
        chain2 = reg.chain_for("alice", enc)
        assert chain1 is chain2
        assert set(enc.keys.galois) <= set(chain1.galois)

    def test_galois_dedup_on_second_pass(self, toy):
        _, enc = toy
        reg = ClientKeyRegistry()
        reg.register("alice")
        reg.chain_for("alice", enc)
        first = reg.stats()
        assert first["galois_generated"] == len(enc.keys.galois)
        assert first["galois_reused"] == 0
        # same model again: every element is already there
        reg.chain_for("alice", enc)
        second = reg.stats()
        assert second["galois_generated"] == first["galois_generated"]
        assert second["galois_reused"] == len(enc.keys.galois)

    def test_deterministic_rederivation(self, toy):
        """A restarted registry derives bit-identical client chains."""
        _, enc = toy
        chains = []
        for _ in range(2):
            reg = ClientKeyRegistry()
            reg.register("alice")
            chains.append(reg.chain_for("alice", enc))
        np.testing.assert_array_equal(
            chains[0].secret.coeffs, chains[1].secret.coeffs
        )

    def test_racing_workers_derive_the_sequential_key_bytes(self, toy):
        """Workers reaching a client's chain together must not show in its
        bytes: families are built eagerly from ``(client seed, element)``
        alone and published under the lock, so six threads racing on a
        cold registry end with one chain, every element counted once, and
        tensors equal to a registry that was never raced."""
        _, enc = toy
        calm = ClientKeyRegistry()
        calm.register("alice")
        want = calm.chain_for("alice", enc)

        reg = ClientKeyRegistry()
        reg.register("alice")
        start = threading.Barrier(6)
        chains = []

        def worker():
            start.wait(timeout=30)
            chains.append(reg.chain_for("alice", enc))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(chains) == 6 and all(c is chains[0] for c in chains)
        stats = reg.stats()
        assert stats["chains"] == 1
        assert stats["galois_generated"] == len(enc.keys.galois)
        assert stats["galois_generated"] + stats["galois_reused"] == 6 * len(enc.keys.galois)
        got = chains[0]
        families = [(got.relin, want.relin)] + [
            (got.galois[g], want.galois[g]) for g in want.galois
        ]
        assert set(got.galois) == set(want.galois)
        for a, b in families:
            assert np.array_equal(a.key_b, b.key_b) and np.array_equal(a.key_a, b.key_a)

    def test_context_signature_groups_compatible_models(self, toy):
        _, enc = toy
        assert context_signature(enc.ctx) == context_signature(enc.ctx)
        # a different digit grouping is a different special-prime set: keys
        # generated under one dnum must never be offered to the other
        two, three = (
            CkksContext(CkksParams(n=64, scale_bits=25, depth=5, dnum=dnum))
            for dnum in (2, 3)
        )
        assert context_signature(two) != context_signature(three)


class TestEvaluators:
    def test_evaluator_round_trips_under_client_keys(self, toy):
        _, enc = toy
        reg = ClientKeyRegistry()
        reg.register("alice")
        ev = reg.evaluator_for("alice", enc)
        assert ev.encoder is enc.ev.encoder  # shared encoding cache
        x = np.linspace(-1, 1, 8)
        ct = ev.encrypt(x)
        np.testing.assert_allclose(ev.decrypt(ct, num_values=8), x, atol=1e-4)

    def test_cross_client_decrypt_is_garbage(self, toy):
        _, enc = toy
        reg = ClientKeyRegistry()
        reg.register("alice")
        reg.register("bob")
        ev_a = reg.evaluator_for("alice", enc)
        ev_b = reg.evaluator_for("bob", enc)
        x = np.linspace(-1, 1, 8)
        ct = ev_a.encrypt(x)
        wrong = ev_b.decrypt(ct, num_values=8)
        assert np.max(np.abs(wrong - x)) > 1.0  # nowhere near the plaintext

    def test_full_forward_under_client_keys_matches_reference(self, toy):
        model, enc = toy
        from repro.nn.tensor import Tensor

        reg = ClientKeyRegistry()
        reg.register("carol")
        ev = reg.evaluator_for("carol", enc)
        x = np.random.default_rng(11).normal(size=8)
        ct = enc.encrypt_batch([x], ev=ev)
        out = enc.forward(ct, ev=ev)
        logits = enc.decrypt_logits(out, 3, batch=1, ev=ev)[0]
        ref = model(Tensor(x.reshape(1, -1))).data.ravel()
        np.testing.assert_allclose(logits, ref, atol=1e-2)
