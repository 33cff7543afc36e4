"""InferenceServer end-to-end: batched == sequential, edge batches, metrics."""

import numpy as np
import pytest

from repro.ckks import Plaintext
from repro.nn import Tensor, no_grad
from repro.serve import DEFAULT_MODEL, InferenceServer, ModelArtifact


class TestBatchedEqualsSequential:
    def test_property_batched_matches_sequential_predicts(self, toy):
        """B random inputs through the server == B sequential predicts."""
        _, enc = toy
        rng = np.random.default_rng(11)
        B = 5
        xs = rng.normal(size=(B, 8))
        sequential = [
            enc.decrypt_logits(enc.forward(enc.encrypt_input(x)), 3) for x in xs
        ]
        with InferenceServer(
            enc, num_classes=3, max_batch_size=B, max_wait_ms=200
        ) as srv:
            results = srv.predict_many(xs)
        for res, seq in zip(results, sequential):
            np.testing.assert_allclose(res.logits, seq, atol=1e-3)
            assert res.prediction == int(np.argmax(seq))
        # the burst was actually served as one SIMD batch
        assert all(res.batch_size == B for res in results)
        assert srv.metrics.snapshot()["batches_total"] == 1

    def test_single_request_batch(self, toy):
        """B=1: a lone request is flushed on timeout and served solo."""
        _, enc = toy
        x = np.full(8, 0.25)
        expected = enc.decrypt_logits(enc.forward(enc.encrypt_input(x)), 3)
        with InferenceServer(
            enc, num_classes=3, max_batch_size=4, max_wait_ms=20
        ) as srv:
            res = srv.predict(x, timeout=60.0)
        assert res.batch_size == 1
        np.testing.assert_allclose(res.logits, expected, atol=1e-3)

    def test_full_capacity_batch_matches_plaintext(self, toy):
        """B = max_batch fills every slot block; logits track the plain model."""
        model, enc = toy
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(enc.max_batch, 8))
        with no_grad():
            plain = model(Tensor(xs)).data
        preds = enc.predict_batch(xs, num_classes=3)
        logits = enc.decrypt_logits(
            enc.forward(enc.encrypt_batch(xs)), 3, batch=enc.max_batch
        )
        np.testing.assert_allclose(logits, plain, atol=0.05)
        assert preds.shape == (enc.max_batch,)

    def test_oversized_batch_rejected(self, toy):
        _, enc = toy
        with pytest.raises(ValueError):
            enc.encrypt_batch([np.zeros(8)] * (enc.max_batch + 1))
        with pytest.raises(ValueError):
            enc.decrypt_logits(None, 3, batch=enc.max_batch + 1)


class TestServerPlumbing:
    def test_submit_before_start_raises(self, toy):
        _, enc = toy
        srv = InferenceServer(enc, num_classes=3)
        with pytest.raises(RuntimeError):
            srv.submit(np.zeros(8))

    def test_bad_inputs_rejected_at_the_door(self, toy):
        """Wrong width / NaN fail at submit — they must not poison a batch."""
        _, enc = toy
        with InferenceServer(
            enc, num_classes=3, max_batch_size=2, max_wait_ms=100
        ) as srv:
            with pytest.raises(ValueError):
                srv.submit(np.zeros(enc.size + 1))
            with pytest.raises(ValueError):
                srv.submit(np.full(8, np.nan))
            # a well-formed neighbour is unaffected
            res = srv.predict(np.ones(8), timeout=60.0)
        assert res.batch_size == 1

    def test_metrics_and_instrumentation(self, toy):
        _, enc = toy
        with InferenceServer(
            enc,
            num_classes=3,
            max_batch_size=4,
            max_wait_ms=20,
            trace=True,
        ) as srv:
            srv.predict_many(np.zeros((3, 8)))
        snap = srv.metrics.snapshot()
        assert snap["requests_total"] == 3
        assert snap["throughput_rps"] > 0
        assert snap["latency_ms"]["p95"] >= snap["latency_ms"]["p50"] > 0
        # HE-op accounting flowed through the traced CountingEvaluator
        assert snap["he_ops"]["rotate"] > 0
        assert snap["he_ops"]["mul_plain"] > 0
        assert snap["he_ops"]["rescale"] > 0

    def test_cancelled_future_does_not_poison_neighbours(self, toy):
        _, enc = toy
        with InferenceServer(
            enc, num_classes=3, max_batch_size=2, max_wait_ms=150
        ) as srv:
            f_cancel = srv.submit(np.zeros(8))
            f_cancel.cancel()
            f_ok = srv.submit(np.ones(8))
            res = f_ok.result(timeout=60.0)
        assert f_cancel.cancelled()
        assert res.logits.shape == (3,)

    def test_stop_is_terminal(self, toy):
        _, enc = toy
        srv = InferenceServer(enc, num_classes=3)
        srv.start()
        srv.stop()
        srv.stop()  # idempotent
        with pytest.raises(RuntimeError):
            srv.start()

    def test_max_batch_clamped_to_capacity(self, toy):
        _, enc = toy
        srv = InferenceServer(enc, num_classes=3, max_batch_size=10_000)
        assert srv.max_batch_size == enc.max_batch


class TestTracedServing:
    def test_trace_feeds_layer_histograms_and_last_trace(self, toy):
        _, enc = toy
        with InferenceServer(
            enc,
            num_classes=3,
            max_batch_size=4,
            max_wait_ms=20,
            trace=True,
        ) as srv:
            results = srv.predict_many(np.zeros((3, 8)))
        assert all(res.logits.shape == (3,) for res in results)
        snap = srv.metrics.snapshot()
        # tracing carries the op counts
        assert snap["he_ops"]["rotate"] > 0
        # per-layer durations landed in the latency histograms
        assert set(snap["layers"]) == {
            f"layer{i:02d}:{layer.kind}" for i, layer in enumerate(enc.layers)
        }
        assert all(s["count"] >= 1 for s in snap["layers"].values())
        # the last batch's span tree is kept for inspection
        assert srv.last_trace["format"] == "repro-trace-v1"
        names = [sp["name"] for sp in srv.last_trace["spans"]]
        assert names[0] == "forward"
        assert srv.last_trace["batch_size"] == 3

    def test_metrics_text_exposes_gauges_and_histograms(self, toy):
        _, enc = toy
        with InferenceServer(
            enc, num_classes=3, max_wait_ms=20, trace=True
        ) as srv:
            srv.predict(np.ones(8), timeout=60.0)
            text = srv.metrics_text()
        assert "repro_serve_queue_depth 0" in text
        assert "repro_serve_in_flight_batches 0" in text
        assert "repro_serve_requests_total 1" in text
        assert 'repro_serve_layer_latency_ms_bucket{layer="layer00:linear"' in text
        assert 'repro_serve_layer_latency_ms_count{layer="layer01:paf"} 1' in text

    def test_traced_serving_matches_untraced(self, toy):
        # encryption is randomized, so server-level logits agree to
        # noise precision; the bit-level guarantee is pinned by
        # tests/obs/test_differential.py on a shared ciphertext
        _, enc = toy
        x = np.linspace(-1, 1, 8)
        kwargs = dict(num_classes=3, max_wait_ms=20)
        with InferenceServer(enc, **kwargs) as srv:
            plain = srv.predict(x, timeout=60.0)
        with InferenceServer(enc, trace=True, **kwargs) as srv:
            traced = srv.predict(x, timeout=60.0)
        np.testing.assert_allclose(plain.logits, traced.logits, atol=1e-3)
        assert plain.prediction == traced.prediction


class TestMultiTenantServing:
    def test_registered_clients_get_correct_logits_under_own_keys(self, toy):
        """Two tenants with distinct secrets share one worker pool and
        the network's compiled plaintexts — and both decrypt to the
        plaintext model's logits."""
        from repro.serve import ClientKeyRegistry

        model, enc = toy
        reg = ClientKeyRegistry()
        srv = InferenceServer(
            enc,
            num_classes=3,
            max_wait_ms=2.0,
            num_workers=2,
            key_registry=reg,
        )
        srv.register_client("alice")
        srv.register_client("bob")
        rng = np.random.default_rng(17)
        xs = [rng.normal(size=8) for _ in range(3)]
        with srv:
            results = [
                srv.predict(xs[0], client_id="alice", timeout=60),
                srv.predict(xs[1], client_id="bob", timeout=60),
                srv.predict(xs[2], timeout=60),  # default tenant
            ]
        with no_grad():
            refs = [model(Tensor(x.reshape(1, -1))).data.ravel() for x in xs]
        for res, ref in zip(results, refs):
            np.testing.assert_allclose(res.logits, ref, atol=1e-2)
        assert [r.client_id for r in results] == ["alice", "bob", "default"]
        # both tenants' chains were derived, with galois material per client
        stats = reg.stats()
        assert stats["clients"] == 2
        assert stats["chains"] == 2

    def test_multi_model_server_routes_and_reports(self, toy):
        _, enc = toy
        srv = InferenceServer(
            {"m1": enc, "m2": enc},
            num_classes={"m1": 3, "m2": 3},
            max_wait_ms=2.0,
        )
        rng = np.random.default_rng(5)
        with srv:
            r1 = srv.predict(rng.normal(size=8), model="m1", timeout=60)
            r2 = srv.predict(rng.normal(size=8), model="m2", timeout=60)
        assert (r1.model, r2.model) == ("m1", "m2")
        text = srv.metrics_text()
        assert 'model="m1"' in text and 'model="m2"' in text
        snap = srv.metrics.snapshot()
        assert snap["tenants"]["m1/default"]["requests"] == 1
        assert snap["tenants"]["m2/default"]["requests"] == 1

    def test_backend_info_escapes_model_label(self, toy):
        """A hosted model name is escaped in the backend info gauge like
        in the per-tenant series."""
        _, enc = toy
        srv = InferenceServer(
            {'a"b': enc, "c": enc}, num_classes=3
        )
        text = srv.metrics_text()
        assert f'repro_serve_backend_info{{backend="{srv.backend}",model="a\\"b"}} 1' in text
        assert 'model="a"b"' not in text

    def test_single_model_surface_unchanged(self, toy):
        """The one-model constructor serves its network as the default
        model and keeps its unlabelled metrics_text backend line."""
        _, enc = toy
        srv = InferenceServer(enc, num_classes=3)
        assert srv.networks == {DEFAULT_MODEL: enc}
        assert srv.max_batch_size == enc.max_batch
        line = f'repro_serve_backend_info{{backend="{srv.backend}"}} 1'
        assert line in srv.metrics_text()

    def test_num_classes_dict_must_cover_models(self, toy):
        _, enc = toy
        with pytest.raises(ValueError, match="missing models"):
            InferenceServer(
                {"a": enc, "b": enc},
                num_classes={"a": 3},
            )


class TestServerContract:
    """The server takes compiled networks (or a dict of them) and warms
    each: its plaintexts held in NTT form before the first request."""

    def test_non_artifacts_rejected(self, toy):
        """Anything but a compiled network (or the ladder's shell over
        one) is refused at the door, naming the compile."""
        model, enc = toy
        for bad in (model, {"a": ModelArtifact(enc), "b": model}):
            with pytest.raises(TypeError, match=r"compile_network\(model, params"):
                InferenceServer(bad, num_classes=3)

    def test_constructor_warms_cold_artifacts(self):
        """The ``serve_mixed_open`` pair, handed over as compiled (one of
        them in the ladder's ``ModelArtifact`` shell): after the
        constructor every plaintext is in NTT form, and one request per
        model encodes nothing."""
        from repro.fhe.toy import compiled_toy, compiled_toy_cnn

        nets = {"mlp": compiled_toy(), "cnn": compiled_toy_cnn()}
        srv = InferenceServer(
            {"mlp": nets["mlp"], "cnn": ModelArtifact(nets["cnn"])},
            num_classes=3,
            max_wait_ms=2.0,
        )
        assert srv.networks == nets
        stores = {name: net.plaintexts for name, net in nets.items()}
        after_warm = {name: (len(s), s.misses) for name, s in stores.items()}
        assert all(entries > 0 and misses == 0 for entries, misses in after_warm.values())
        assert all(
            isinstance(pt, Plaintext) for s in stores.values() for pt in s._entries.values()
        )
        with srv:
            srv.predict(np.full(8, 0.25), model="mlp", timeout=60)
            srv.predict(np.full(64, 0.25), model="cnn", timeout=60)
        assert {name: (len(s), s.misses) for name, s in stores.items()} == after_warm
