"""Shadow forwards: the cost model is the executor.

``EncryptedNetwork.op_counts()`` runs ``forward_shards`` itself over
:class:`~repro.ckks.ShadowEvaluator` ciphertexts — ``(level, scale)``
pairs, no keys, no ring data — under the same ``CountingEvaluator`` a
measured forward uses.  Three things pin that the shadow run *is* the
real run minus the arithmetic: its counts reproduce the checked-in
op-count gate for every pinned model, its output lands on the real
forward's exact ``(level, scale)``, and a ``TracingEvaluator`` around it
reproduces the checked-in per-layer level slack.  A fourth: the shadow
refuses what the real evaluator refuses, with the same ``ValueError``.
A fifth: handed a plaintext store, it adds exactly the plaintexts the
real evaluator looks up — how a compiled network fills its own.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksEncoder,
    CkksEvaluator,
    CkksParams,
    PlaintextStore,
    ShadowEvaluator,
    eval_paf_relu,
    keygen,
)
from repro.ckks.instrumentation import CountingEvaluator
from repro.obs import TracingEvaluator
from repro.paf import get_paf

BENCH = Path(__file__).resolve().parents[2] / "benchmarks"
OPCOUNTS = json.loads((BENCH / "opcount_baseline.json").read_text())["models"]
SLACK = json.loads((BENCH / "slack_baseline.json").read_text())["models"]

#: model -> (session fixture, flat input dim)
MODELS = {
    "toy_mlp": ("toy_plain_enc", 8),
    "toy_cnn": ("toy_cnn", 64),
    "toy_resnet": ("toy_resnet", 64),
    "toy_transformer": ("toy_transformer", 32),
    "toy_transformer_stacked": ("toy_transformer_stacked", 32),
}


def _enc(request, model: str):
    # fetched lazily so selecting one model does not compile the others
    got = request.getfixturevalue(MODELS[model][0])
    return got[1] if isinstance(got, tuple) else got


def _shadow_inputs(enc, ev) -> list:
    return [ev.encrypt(None) for _ in range(enc.num_input_shards)]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_op_counts_reproduce_the_gate(request, monkeypatch, model):
    """Full ``counts`` dict of the CI gate, zero-valued keys included —
    the stacked transformer's recrypt refresh (``decrypt: 8``) too —
    without one real ciphertext being built along the way."""
    enc = _enc(request, model)

    def no_ciphertexts(*args, **kwargs):
        raise AssertionError("a shadow forward built a real ciphertext")

    monkeypatch.setattr("repro.ckks.evaluator.Ciphertext", no_ciphertexts)
    assert enc.op_counts() == OPCOUNTS[model]["counts"]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_traced_shadow_reproduces_the_slack_baseline(request, model):
    """A shadow under ``TracingEvaluator`` is the predicted level trace."""
    enc = _enc(request, model)
    tev = TracingEvaluator(ShadowEvaluator(enc.ctx))
    enc.forward_shards(_shadow_inputs(enc, tev), ev=tev)
    slack = {sp.name: sp.attrs["level_slack"] for sp in tev.tracer.layer_spans()}
    assert slack == SLACK[model]["layers"]


@pytest.mark.parametrize(
    "model", ["toy_mlp", "toy_cnn", "toy_resnet", "toy_transformer"]
)
def test_shadow_lands_on_the_real_forward_coordinates(request, model):
    """Bit-equal output ``(level, scale)``: the shadow's scale arithmetic
    is the evaluator's, float operation for float operation."""
    enc = _enc(request, model)
    shadow = ShadowEvaluator(enc.ctx)
    (predicted,) = enc.forward_shards(_shadow_inputs(enc, shadow), ev=shadow)
    cts = enc.encrypt_batch_shards([np.zeros(MODELS[model][1])])
    (real,) = enc.forward_shards(cts)
    assert (predicted.level, predicted.scale) == (real.level, real.scale)


class TestSameFailures:
    """What the real evaluator rejects, the shadow rejects identically."""

    @pytest.fixture(scope="class", params=["real", "shadow"])
    def ev(self, request):
        ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=2))
        if request.param == "shadow":
            return ShadowEvaluator(ctx)
        return CkksEvaluator(ctx, keygen(ctx, seed=0))

    def test_rescale_at_level_zero(self, ev):
        bottom = ev.mod_switch_to(ev.encrypt(np.zeros(4)), 0)
        with pytest.raises(ValueError, match="cannot rescale at level 0"):
            ev.rescale(bottom)
        with pytest.raises(ValueError, match="out of levels"):
            ev.mul(bottom, bottom)

    def test_level_mismatched_add(self, ev):
        a = ev.encrypt(np.zeros(4))
        b = ev.mod_switch_to(a, 1)
        for op in (ev.add, ev.sub, ev.mul):
            with pytest.raises(ValueError, match="level mismatch: 2 vs 1"):
                op(a, b)

    def test_scale_mismatched_add(self, ev):
        a = ev.encrypt(np.zeros(4))
        with pytest.raises(ValueError, match="scale mismatch"):
            ev.add(a, ev.mul_plain(a, 1.0))

    def test_mod_switch_up(self, ev):
        low = ev.mod_switch_to(ev.encrypt(np.zeros(4)), 0)
        with pytest.raises(ValueError, match=r"cannot mod-switch up \(0 -> 1\)"):
            ev.mod_switch_to(low, 1)

    def test_align_upward(self, ev):
        low = ev.mod_switch_to(ev.encrypt(np.zeros(4)), 0)
        with pytest.raises(ValueError, match=r"cannot align upward \(0 -> 2\)"):
            ev.align_to(low, 2, low.scale)

    def test_sum_rotated_terms_that_do_not_add(self, ev):
        a = ev.encrypt(np.zeros(4))
        slots = ev.ctx.slots  # both steps trivial: the real side needs no key
        with pytest.raises(ValueError, match="level mismatch: 2 vs 1"):
            ev.sum_rotated({0: a, slots: ev.mod_switch_to(a, 1)})
        with pytest.raises(ValueError, match="scale mismatch"):
            ev.sum_rotated({0: a, slots: ev.mul_plain(a, 1.0)})
        with pytest.raises(ValueError, match="at least one term"):
            ev.sum_rotated({})


def test_sum_rotated_same_coordinates_same_books():
    """One ``rotate`` per nontrivial step, ``terms - 1`` adds, on the
    shadow and on the ring alike — and the same ``(level, scale)`` out."""
    ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=2))
    real = CountingEvaluator(
        CkksEvaluator(ctx, keygen(ctx, seed=0, galois_steps=(1, 5)))
    )
    shadow = CountingEvaluator(ShadowEvaluator(ctx))
    landed = []
    for ev in (real, shadow):
        x = ev.mul_plain(ev.encrypt(np.zeros(4)), 0.5)  # a matvec's Δ² inner sum
        ev.reset()
        # slots = 32: -27 is step 5, 64 is trivial
        out = ev.sum_rotated({0: x, 1: x, -27: x, 64: x})
        landed.append((out.level, out.scale))
        assert dict(ev.counts) == {"rotate": 2, "add": 3}
        assert ev.keyswitch_count == 2
    assert landed[0] == landed[1]


class _RecordingStore(PlaintextStore):
    """A real store that remembers which keys it was handed."""

    def __init__(self, ctx):
        super().__init__(CkksEncoder(ctx))
        self.asked = []

    def add(self, values, level, scale):
        self.asked.append(self._key(values, level, scale))
        super().add(values, level, scale)

    def encode(self, values, level, scale):
        self.asked.append(self._key(values, level, scale))
        return super().encode(values, level, scale)


def _relu_then_align(ev, x):
    """A PAF ReLU (leaves, gate constant) and a drift-correcting align."""
    y = eval_paf_relu(ev, x, get_paf("f1g2"), scale=2.0)
    return ev.align_to(y, y.level - 1, ev.ctx.canonical_scale(y.level - 1) * 1.001)


def test_shadow_with_a_store_adds_the_real_evaluators_plaintexts():
    """Same ``(value, level, scale)`` keys, in the same order — and a
    real evaluator reading the store the shadow filled misses none and
    lands on the bytes of one encoding every constant fresh."""
    ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=8))
    real = CkksEvaluator(ctx, keygen(ctx, seed=0))
    x = real.encrypt(np.linspace(-1.0, 1.0, 8))  # the payload is not a constant
    real.plaintexts = _RecordingStore(ctx)  # empty: every lookup a miss
    shadow = ShadowEvaluator(ctx)
    shadow.plaintexts = _RecordingStore(ctx)
    fresh = _relu_then_align(real, x)
    landed = _relu_then_align(shadow, shadow.encrypt(None))
    assert (fresh.level, fresh.scale) == (landed.level, landed.scale)
    assert real.plaintexts.asked == shadow.plaintexts.asked
    assert len(real.plaintexts.asked) > 1

    asked = len(shadow.plaintexts.asked)
    real.plaintexts = shadow.plaintexts
    stored = _relu_then_align(real, x)
    assert (shadow.plaintexts.hits, shadow.plaintexts.misses) == (asked, 0)
    assert np.array_equal(stored.c0.data, fresh.c0.data)
    assert np.array_equal(stored.c1.data, fresh.c1.data)


def test_shadow_without_a_store_never_encodes(monkeypatch):
    def no_encodes(*args, **kwargs):
        raise AssertionError("a store-less shadow encoded a plaintext")

    for name in ("encode", "round", "lift"):
        monkeypatch.setattr(CkksEncoder, name, no_encodes)
    shadow = ShadowEvaluator(CkksContext(CkksParams(n=64, scale_bits=25, depth=8)))
    assert shadow.plaintexts is None
    out = _relu_then_align(shadow, shadow.encrypt(None))
    assert out.level == 1
