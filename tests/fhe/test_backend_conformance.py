"""Cross-backend conformance: the bit-identity contract, end to end.

Every registered kernel backend must be an *exact* drop-in
(docs/backends.md): the same encrypted input pushed through the same
compiled network must yield bit-identical output ciphertexts, identical
HE-op totals, and identical decrypted plaintexts.  Modular integer
arithmetic is exact, so this is an equality contract, not a tolerance
one — each toy model's forward runs once per backend on **one**
encryption (encryption draws from an advancing RNG, so re-encrypting
per backend would compare unrelated ciphertexts) and the outputs are
compared byte for byte.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams, keygen
from repro.ckks.backend import VectorizedBackend, available_backends, resolve_backend
from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe.toy import TOY_TRANSFORMER_PARAMS
from repro.nn.tensor import Tensor


def forward_under_each_backend(enc, run):
    """``run(counting_ev)`` once per registered backend on the *same*
    input; the entry backend is restored afterwards.

    Returns ``{backend: (output shard list, op-count dict)}``.
    """
    ctx = enc.ctx
    orig = ctx.backend.name
    results = {}
    try:
        for name in available_backends():
            ctx.set_backend(name)
            counting = CountingEvaluator(enc.ev)
            results[name] = (run(counting), dict(counting.counts))
    finally:
        ctx.set_backend(orig)
    return results


def decrypt_under_each_backend(enc, results, num_classes):
    """Decrypt each backend's output shard 0 *under that backend*."""
    ctx = enc.ctx
    orig = ctx.backend.name
    logits = {}
    try:
        for name, (cts, _) in results.items():
            ctx.set_backend(name)
            logits[name] = enc.decrypt_logits(cts[0], num_classes)
    finally:
        ctx.set_backend(orig)
    return logits


def assert_bit_identical(results):
    """Every backend's ciphertexts and op totals must equal reference's."""
    assert len(results) >= 2, "conformance needs at least two backends"
    (ref_name, (ref_cts, ref_counts)), *rest = list(results.items())
    assert ref_counts, "forward recorded no HE ops — nothing was compared"
    for name, (cts, counts) in rest:
        assert counts == ref_counts, (
            f"{name} vs {ref_name}: HE-op totals differ — backends may "
            f"only change how residue arithmetic executes, never which "
            f"ops run: {counts} != {ref_counts}"
        )
        assert len(cts) == len(ref_cts)
        for i, (a, b) in enumerate(zip(ref_cts, cts)):
            assert np.array_equal(a.c0.data, b.c0.data) and np.array_equal(
                a.c1.data, b.c1.data
            ), f"{name} vs {ref_name}: output shard {i} is not bit-identical"
            assert a.level == b.level and a.scale == b.scale


class TestKeyswitchKernelConformance:
    """The keyswitch and rescale kernels, byte for byte across backends
    at *every* level (the ladder's kernel layer asserts this at the top
    of the chain only).  Depth 7 with the default ``dnum`` groups the
    chain three primes to a digit, so most levels end in a partial
    group — where the conversion constants depend on the level."""

    def test_every_level_bit_identical(self):
        ctx = CkksContext(CkksParams(n=128, scale_bits=25, depth=7))
        assert ctx.alpha == 3
        relin = keygen(ctx, seed=5).relin
        backends = [resolve_backend(name, ctx) for name in available_backends()]
        assert len(backends) >= 2, "conformance needs at least two backends"
        rng = np.random.default_rng(11)
        for level in range(ctx.max_level + 1):
            limbs = level + 1
            primes = np.array(ctx.q_chain[:limbs], dtype=np.int64)[:, None]
            rows, more = rng.integers(0, primes, size=(2, limbs, ctx.n))
            key_b, key_a = relin.stacked_at_level(level)
            perm = ctx.galois_ntt_permutation(5)
            ref, *rest = (
                (
                    be.hoist_decompose(rows, level),
                    be.apply_keyswitch(
                        be.hoist_decompose(rows, level), key_b, key_a, level, perm=perm
                    ),
                    be.rescale(np.stack([rows, more]), level) if level else None,
                )
                for be in backends
            )
            digits = ctx.num_digits(level)
            assert ref[0].shape == (digits, ctx.alpha + limbs, ctx.n)
            for got in rest:
                assert np.array_equal(got[0], ref[0]), f"hoist_decompose, level {level}"
                assert np.array_equal(got[1][0], ref[1][0]), f"apply_keyswitch b, level {level}"
                assert np.array_equal(got[1][1], ref[1][1]), f"apply_keyswitch a, level {level}"
                if level:
                    assert np.array_equal(got[2], ref[2]), f"rescale, level {level}"


def test_decomposition_forward_ntt_rows_are_linear_in_dnum():
    """O(L·dnum), counted: at every level of the toy transformer's chain
    a decomposition forward-transforms ``ceil((l+1)/α)·(l+1+α)`` rows and
    never more — ``(3, 46, 512)`` at the top, where one digit per chain
    prime lifted 34 digits onto 35 rows."""

    class RowCounting(VectorizedBackend):
        forward_rows = 0

        def ntt_forward(self, rows, prime_indices):
            self.forward_rows += rows.size // self.ctx.n
            return super().ntt_forward(rows, prime_indices)

    ctx = CkksContext(TOY_TRANSFORMER_PARAMS)
    be = RowCounting(ctx)
    rng = np.random.default_rng(12)
    for level in range(ctx.max_level + 1):
        primes = np.array(ctx.q_chain[: level + 1], dtype=np.int64)[:, None]
        be.forward_rows = 0
        digits = be.hoist_decompose(rng.integers(0, primes, size=(level + 1, ctx.n)), level)
        bound = -(-(level + 1) // ctx.alpha) * (level + 1 + ctx.alpha)
        assert be.forward_rows == digits.shape[0] * digits.shape[1] <= bound
    assert digits.shape == (3, 46, 512)


class TestForwardConformance:
    def test_registry_has_both_builtin_backends(self):
        names = available_backends()
        assert "reference" in names and "vectorized" in names

    def test_toy_mlp(self, toy_plain_enc):
        enc = toy_plain_enc
        x = np.random.default_rng(21).normal(size=8)
        ct = enc.encrypt_input(x)  # one encryption shared by all backends
        results = forward_under_each_backend(
            enc, lambda ev: [enc.forward(ct, ev=ev)]
        )
        assert_bit_identical(results)
        logits = decrypt_under_each_backend(enc, results, 3)
        ref = logits["reference"]
        assert all(np.array_equal(got, ref) for got in logits.values())

    def test_toy_cnn(self, toy_cnn):
        model, enc = toy_cnn
        x = np.random.default_rng(22).normal(size=(1, 1, 8, 8))
        ct = enc.encrypt_input(x.ravel())
        results = forward_under_each_backend(
            enc, lambda ev: [enc.forward(ct, ev=ev)]
        )
        assert_bit_identical(results)
        logits = decrypt_under_each_backend(enc, results, 3)
        assert all(
            np.array_equal(got, logits["reference"]) for got in logits.values()
        )
        # and the (shared) decryption matches the plaintext model
        plain = model(Tensor(x)).data.ravel()
        np.testing.assert_allclose(logits["reference"], plain, rtol=1e-3, atol=1e-4)

    def test_toy_resnet_shards(self, toy_resnet):
        model, enc = toy_resnet
        x = np.random.default_rng(23).normal(size=64)
        cts = enc.encrypt_input_shards(x)  # one encryption, both backends
        results = forward_under_each_backend(
            enc, lambda ev: enc.forward_shards(cts, ev=ev)
        )
        assert_bit_identical(results)
        logits = decrypt_under_each_backend(enc, results, 3)
        assert all(
            np.array_equal(got, logits["reference"]) for got in logits.values()
        )
        plain = model(Tensor(x.reshape(1, 1, 8, 8))).data.ravel()
        np.testing.assert_allclose(logits["reference"], plain, rtol=1e-3, atol=1e-4)

    def test_set_backend_restores_and_rejects_unknown(self, toy_plain_enc):
        ctx = toy_plain_enc.ctx
        orig = ctx.backend.name
        with pytest.raises(ValueError):
            ctx.set_backend("no-such-backend")
        assert ctx.backend.name == orig
