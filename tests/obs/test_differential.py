"""Tracing is provably non-perturbing: traced == untraced, bit for bit.

The tentpole guarantee of the observability layer — attaching a
:class:`~repro.obs.TracingEvaluator` must change *nothing* about the
homomorphic computation: ciphertext polynomials identical to the last
coefficient, HE-op totals identical, decrypted logits identical.  On
top of that, the recorded span tree's books must balance: the summed
per-layer op deltas equal the ``CountingEvaluator`` aggregate, children
nest inside their parents, and levels only ever go down.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.instrumentation import CountingEvaluator
from repro.obs import TracingEvaluator


def assert_bit_identical(a, b):
    """Ciphertext equality down to the RNS coefficient arrays."""
    assert a.level == b.level
    assert a.scale == b.scale
    np.testing.assert_array_equal(a.data, b.data)


def assert_span_tree_balances(tracer, counting):
    """Layer op deltas sum to the aggregate; intervals nest; levels fall."""
    layers = tracer.layer_spans()
    assert layers, "traced forward recorded no layer spans"
    for op, total in counting.counts.items():
        if total:
            assert sum(sp.ops.get(op, 0) for sp in layers) == total, op
    assert sum(sp.keyswitches for sp in layers) == counting.keyswitch_count
    assert (
        sum(sp.nonscalar_mults for sp in layers)
        == counting.nonscalar_mult_count
    )
    for sp in tracer.iter_spans():
        for child in sp.children:
            assert child.start_s >= sp.start_s
            assert (
                child.start_s + child.duration_s
                <= sp.start_s + sp.duration_s + 1e-9
            )
        if sp.entry is not None and sp.exit is not None:
            assert sp.exit["level"] <= sp.entry["level"]
        if sp.kind == "layer":
            assert "level_slack" in sp.attrs
            assert sp.attrs["level_slack"] >= 0


def traced_pair(enc, forward):
    """Run ``forward(ev)`` untraced and traced (encryption is randomized,
    so callers encrypt once and hand ``forward`` ciphertext copies);
    returns both results + the tracing evaluator."""
    counting = CountingEvaluator(enc.ev)
    base = forward(counting)
    base_counts = dict(counting.counts)

    tev = TracingEvaluator(enc.ev)
    traced = forward(tev)
    assert dict(tev.counting.counts) == base_counts
    return base, traced, tev


class TestMlpDifferential:
    @given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    @settings(max_examples=8, deadline=None)
    def test_traced_forward_bit_identical(self, toy_enc, xs):
        enc = toy_enc
        ct = enc.encrypt_batch([np.asarray(xs)])

        def forward(ev):
            return enc.forward(ct.copy(), ev=ev)

        base, traced, tev = traced_pair(enc, forward)
        assert_bit_identical(base, traced)
        np.testing.assert_array_equal(
            enc.decrypt_logits(base, 3), enc.decrypt_logits(traced, 3)
        )
        assert_span_tree_balances(tev.tracer, tev.counting)

    def test_root_span_covers_whole_forward(self, toy_enc):
        enc = toy_enc
        tev = TracingEvaluator(enc.ev)
        ct = enc.encrypt_batch([np.linspace(-1, 1, 8)], ev=tev)
        tev.reset()
        tev.tracer.reset()
        enc.forward(ct, ev=tev)
        (root,) = tev.tracer.roots
        assert root.kind == "forward"
        assert [c.kind for c in root.children] == ["layer"] * len(enc.layers)
        # every op the aggregate saw happened inside the root span
        assert root.ops == {
            k: v for k, v in tev.counting.counts.items() if v
        }


class TestCnnDifferential:
    def test_traced_forward_bit_identical(self, toy_cnn_enc):
        enc = toy_cnn_enc
        ct = enc.encrypt_batch([np.linspace(-0.5, 0.5, 64)])

        def forward(ev):
            return enc.forward(ct.copy(), ev=ev)

        base, traced, tev = traced_pair(enc, forward)
        assert_bit_identical(base, traced)
        assert_span_tree_balances(tev.tracer, tev.counting)
        kinds = [sp.name.split(":")[1] for sp in tev.tracer.layer_spans()]
        assert "pool" in kinds  # the pool executor ran under a layer span


class TestResnetDifferential:
    def test_traced_forward_shards_bit_identical(self, toy_resnet_enc):
        enc = toy_resnet_enc
        x = np.linspace(-0.5, 0.5, sum(enc.input_splits))
        cts = enc.encrypt_batch_shards([x])

        def forward(ev):
            return enc.forward_shards([c.copy() for c in cts], ev=ev)

        base, traced, tev = traced_pair(enc, forward)
        assert len(base) == len(traced)
        for b, t in zip(base, traced):
            assert_bit_identical(b, t)
        assert_span_tree_balances(tev.tracer, tev.counting)
        (root,) = tev.tracer.roots
        assert root.name == "forward"  # the one executor, one root name
        # one input shard at entry; the stem fans channels out to 2
        assert root.attrs["shards"] == len(cts)
        # merges and residual taps traced as layers of the sharded plan
        kinds = {sp.name.split(":")[1] for sp in tev.tracer.layer_spans()}
        assert {"residual", "merge", "paf", "linear", "pool"} <= kinds
