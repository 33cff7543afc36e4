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
from repro.ckks.backend import available_backends, resolve_backend
from repro.ckks.instrumentation import CountingEvaluator, RowCountingBackend
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
            assert np.array_equal(a.data, b.data), (
                f"{name} vs {ref_name}: output shard {i} is not bit-identical"
            )
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

            def kernels(be):
                digits = be.hoist_decompose(rows, level)
                acc = be.keyswitch_inner_product(digits, key_b, key_a, level, perm=perm)
                return {
                    "hoist_decompose": digits,
                    "keyswitch_inner_product": acc,
                    "keyswitch_descent": be.keyswitch_descent(acc, level),
                    "apply_keyswitch": be.apply_keyswitch(
                        digits, key_b, key_a, level, perm=perm
                    ),
                    "rescale": be.rescale(np.stack([rows, more]), level) if level else None,
                }

            ref, *rest = (kernels(be) for be in backends)
            digits = ctx.num_digits(level)
            assert ref["hoist_decompose"].shape == (digits, ctx.alpha + limbs, ctx.n)
            assert ref["keyswitch_inner_product"].shape == (2, ctx.alpha + limbs, ctx.n)
            assert ref["keyswitch_descent"].shape == (2, limbs, ctx.n)
            for got in rest:
                for kernel, want in ref.items():
                    assert np.array_equal(got[kernel], want), f"{kernel}, level {level}"

    def test_apply_keyswitch_is_the_composition_of_its_two_kernels(self):
        """``apply_keyswitch(d, kb, ka, l, perm) == descent(inner
        product(...))`` byte for byte at every level of the toy
        transformer's chain, under every backend — and the descent is
        linear up to rounding, which is what lets several keyswitches
        share one: the centred approximate conversion of ``[x]_P`` is
        off by at most ``(α+1)/2`` multiples of ``P``, so one descent of
        a sum and the sum of two descents differ by a few units per
        coefficient (against values of ~2^27 and up), never more than
        three such roundings."""
        ctx = CkksContext(TOY_TRANSFORMER_PARAMS)
        relin = keygen(ctx, seed=6).relin
        perm = ctx.galois_ntt_permutation(5)
        rng = np.random.default_rng(13)
        for name in available_backends():
            be = resolve_backend(name, ctx)
            for level in range(ctx.max_level + 1):
                limbs = level + 1
                primes = np.array(ctx.q_chain[:limbs], dtype=np.int64)[:, None]
                rows, more = rng.integers(0, primes, size=(2, limbs, ctx.n))
                key_b, key_a = relin.stacked_at_level(level)
                digits = be.hoist_decompose(rows, level)
                for p in (None, perm):
                    acc = be.keyswitch_inner_product(digits, key_b, key_a, level, perm=p)
                    whole = be.apply_keyswitch(digits, key_b, key_a, level, perm=p)
                    assert np.array_equal(
                        whole, be.keyswitch_descent(acc, level)
                    ), f"{name}, level {level}"
                other = be.keyswitch_inner_product(
                    be.hoist_decompose(more, level), key_b, key_a, level
                )
                basis, chain = ctx.keyswitch_basis(level), list(range(limbs))
                once = be.keyswitch_descent(be.modadd(acc, other, basis), level)
                twice = be.modadd(
                    be.keyswitch_descent(acc, level),
                    be.keyswitch_descent(other, level),
                    chain,
                )
                gap = be.modsub(once, twice, chain)  # in NTT form: compare coefficients
                gap = be.ntt_inverse(gap, chain)
                gap = np.minimum(gap, primes - gap)
                assert gap.max() <= 3 * (ctx.alpha + 1) // 2 + 1, (
                    f"{name}, level {level}: descent is not linear"
                )


def test_decomposition_forward_ntt_rows_are_linear_in_dnum():
    """O(L·dnum), counted: at every level of the toy transformer's chain
    a decomposition forward-transforms ``ceil((l+1)/α)·(l+1+α)`` rows and
    never more — ``(3, 46, 512)`` at the top, where one digit per chain
    prime lifted 34 digits onto 35 rows — and inverse-transforms its
    ``l+1`` NTT input rows."""
    ctx = CkksContext(TOY_TRANSFORMER_PARAMS)
    be = RowCountingBackend(ctx.backend)
    rng = np.random.default_rng(12)
    for level in range(ctx.max_level + 1):
        primes = np.array(ctx.q_chain[: level + 1], dtype=np.int64)[:, None]
        be.reset()
        digits = be.hoist_decompose(rng.integers(0, primes, size=(level + 1, ctx.n)), level)
        bound = -(-(level + 1) // ctx.alpha) * (level + 1 + ctx.alpha)
        assert be.forward_rows == digits.shape[0] * digits.shape[1] <= bound
        assert be.inverse_rows == level + 1
    assert digits.shape == (3, 46, 512)


def test_row_meter_wraps_either_backend_and_changes_no_byte():
    """The lifted meter delegates every kernel: same bytes as the backend
    it wraps, same row counts whichever backend that is, and a keyswitch
    descent's rows are 2·(α inverse + (l+1) forward)."""
    ctx = CkksContext(CkksParams(n=128, scale_bits=25, depth=7))
    relin = keygen(ctx, seed=5).relin
    level = ctx.max_level
    primes = np.array(ctx.q_chain, dtype=np.int64)[:, None]
    rows = np.random.default_rng(14).integers(0, primes, size=(level + 1, ctx.n))
    key_b, key_a = relin.stacked_at_level(level)
    seen = []
    for name in available_backends():
        inner = resolve_backend(name, ctx)
        meter = RowCountingBackend(inner)
        assert meter.name == name
        digits = meter.hoist_decompose(rows, level)
        meter.reset()
        got = meter.apply_keyswitch(digits, key_b, key_a, level)
        want = inner.apply_keyswitch(inner.hoist_decompose(rows, level), key_b, key_a, level)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert (meter.inverse_rows, meter.forward_rows) == (2 * ctx.alpha, 2 * (level + 1))
        assert meter.ntt_rows == 2 * (ctx.alpha + level + 1)
        seen.append(meter.ntt_rows)
    assert len(set(seen)) == 1


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
