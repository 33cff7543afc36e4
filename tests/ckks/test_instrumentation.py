"""Tests for the op-counting evaluator + cost-model consistency.

The key assertion: the *measured* op counts of the depth-optimal encrypted
ReLU equal the counts of the same executor run over
:class:`~repro.ckks.ShadowEvaluator` ciphertexts — the cost model *is*
the implementation, so the two cannot drift apart.
"""

import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    ShadowEvaluator,
    eval_paf_relu,
    keygen,
    plan_paf_relu,
)
from repro.ckks.backend import VectorizedBackend
from repro.ckks.instrumentation import CountingEvaluator, RowCountingBackend
from repro.fhe.toy import compiled_toy_resnet
from repro.paf import get_paf

OPCOUNTS = Path(__file__).resolve().parents[2] / "benchmarks" / "opcount_baseline.json"


@pytest.fixture(scope="module")
def rt():
    ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=10))
    keys = keygen(ctx, seed=0)
    return ctx, CkksEvaluator(ctx, keys)


class TestCountingEvaluator:
    def test_counts_basic_ops(self, rt):
        ctx, ev = rt
        counting = CountingEvaluator(ev)
        x = np.linspace(-1, 1, ctx.slots)
        a = counting.encrypt(x)
        b = counting.encrypt(x)
        counting.add(a, b)
        counting.rescale(counting.mul(a, b))
        assert counting.counts["encrypt"] == 2
        assert counting.counts["add"] == 1
        assert counting.counts["mul"] == 1
        assert counting.counts["rescale"] == 1

    def test_reset(self, rt):
        ctx, ev = rt
        counting = CountingEvaluator(ev)
        counting.encrypt(np.zeros(ctx.slots))
        counting.reset()
        assert sum(counting.counts.values()) == 0

    def test_passthrough_attributes(self, rt):
        ctx, ev = rt
        counting = CountingEvaluator(ev)
        assert counting.ctx is ctx
        assert counting.encoder is ev.encoder

    @pytest.mark.parametrize("form", ["f1g2", "f2g2", "f2g3", "f1f1g1g1"])
    @pytest.mark.parametrize("reference", [False, True])
    def test_relu_shadow_counts_equal_measured(self, rt, poly_oracle, form, reference):
        """The cost model is the executor run over shadows: its full op
        tally equals the measured one — alignment corrections included —
        for the Paterson–Stockmeyer executor and (``reference``) the
        term-by-term ladder oracle alike."""
        ctx, ev = rt
        paf = get_paf(form)
        measured = CountingEvaluator(ev)
        modeled = CountingEvaluator(ShadowEvaluator(ctx))
        for counting in (measured, modeled):
            ct = counting.encrypt(np.linspace(-1, 1, ctx.slots))
            counting.reset()
            (poly_oracle.paf_relu if reference else eval_paf_relu)(counting, ct, paf)
        assert dict(modeled.counts) == dict(measured.counts)
        # and both are what the plan promises: its nonscalar mults, and
        # one plaintext mult per coefficient leaf plus one per correction
        plan = plan_paf_relu(paf)
        leaves = sum(np.count_nonzero(c.coeffs) for c in paf.components)
        assert leaves == sum(len(b.terms) for p in plan.components for b in p.blocks)
        if not reference:
            assert measured.nonscalar_mult_count == plan.nonscalar_mults
        assert (
            measured.counts["mul_plain"]
            == leaves + measured.counts["align_correction"]
        )

    @pytest.mark.parametrize("terms", [1, 2, 5])
    def test_mul_plain_sum_books_the_spelling_it_fuses(self, rt, terms):
        """``k`` ``mul_plain`` and ``k − 1`` ``add`` — on the ring and on
        the shadow alike, like ``sum_rotated``'s ``rotate`` + ``add``."""
        ctx, ev = rt
        for inner in (ev, ShadowEvaluator(ctx)):
            counting = CountingEvaluator(inner)
            ct = counting.encrypt(np.linspace(-1, 1, ctx.slots))
            counting.reset()
            out = counting.mul_plain_sum((ct, 0.25 * k) for k in range(terms))
            want = {"mul_plain": terms, "add": terms - 1} if terms > 1 else {"mul_plain": 1}
            assert dict(counting.counts) == want
            assert (out.level, out.scale) == (ct.level, ct.scale * ct.scale)


def test_toy_resnet_forward_transforms_the_gated_ntt_rows():
    """The NTT-row meter sees the fused inner sums exactly: a bare
    network's held diagonals are lifted inside ``mul_plain_sum``, and one
    toy-ResNet forward transforms the rows the op-count gate pins."""
    enc = compiled_toy_resnet()
    want = json.loads(OPCOUNTS.read_text())["models"]["toy_resnet"]["ntt_rows"]
    meter = RowCountingBackend(enc.ctx.backend)
    enc.ctx.set_backend(meter)
    try:
        cts = enc.encrypt_batch_shards([np.zeros(64)])
        meter.reset()
        enc.forward_shards(cts)
    finally:
        enc.ctx.set_backend(meter.inner)
    assert meter.ntt_rows == want


def _counting_kernels(ctx) -> tuple:
    """A :class:`VectorizedBackend` on ``ctx`` whose every compiled
    call is tallied by entry-point name in the returned counter."""
    be = VectorizedBackend(ctx)
    lib, calls = be._lib, Counter()

    def counted(name):
        fn = getattr(lib, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    be._lib = SimpleNamespace(**{name: counted(name) for name in dir(lib)})
    return be, calls


def test_warm_forward_makes_no_standalone_ntt_call():
    """Every backend pipeline takes NTT rows in and gives NTT rows out:
    a warmed toy-ResNet forward makes 1,048 compiled calls, and not one
    of them is a bare NTT (the decompositions inverse-transform their
    own input)."""
    enc = compiled_toy_resnet().warm()
    ctx = enc.ctx
    original = ctx.backend
    be, calls = _counting_kernels(ctx)
    try:
        ctx.set_backend(be)
        cts = enc.encrypt_batch_shards([np.random.default_rng(3).normal(size=64)])
        enc.forward_shards(cts)  # every per-level constant packed
        calls.clear()
        enc.forward_shards(cts)
    finally:
        ctx.set_backend(original)
    assert "ntt" not in calls
    assert sum(calls.values()) == 1048
    assert calls["mod_up"] == 134  # one per decomposition


def test_metered_forward_is_the_deployed_forward():
    """The meter watches the program it meters: a warm toy-ResNet forward
    under ``RowCountingBackend(VectorizedBackend)`` makes the same
    compiled-kernel calls, by name and count, as the same forward
    without it — the fused product sums, rescales, decompositions and
    descents included — returns the same ciphertext bytes, and books the
    NTT rows the op-count gate pins."""
    enc = compiled_toy_resnet()
    ctx = enc.ctx
    want_rows = json.loads(OPCOUNTS.read_text())["models"]["toy_resnet"]["ntt_rows"]
    original = ctx.backend
    be, calls = _counting_kernels(ctx)
    meter = RowCountingBackend(be)
    runs = {}
    try:
        ctx.set_backend(be)
        cts = enc.encrypt_batch_shards([np.random.default_rng(3).normal(size=64)])
        enc.forward_shards(cts)  # warm: every per-level constant packed
        for backend in (be, meter):
            ctx.set_backend(backend)
            calls.clear()
            meter.reset()
            out = enc.forward_shards(cts)
            runs[backend.__class__.__name__] = (
                Counter(calls), [(ct.level, ct.scale, ct.data.tobytes()) for ct in out]
            )
    finally:
        ctx.set_backend(original)
    (plain_calls, plain_out), (metered_calls, metered_out) = runs.values()
    assert metered_calls == plain_calls
    assert {"mul_plain_sum", "mod_up", "mod_down"} <= set(metered_calls)
    assert metered_out == plain_out
    assert meter.ntt_rows == want_rows
