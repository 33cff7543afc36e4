"""ServingMetrics: bounded buffers, gauges, histograms, Prometheus text."""

from collections import Counter

import pytest

from repro.serve.metrics import LATENCY_BUCKETS_MS, ServingMetrics


class TestBoundedBuffers:
    def test_sample_windows_are_bounded(self):
        m = ServingMetrics(max_samples=4)
        for i in range(10):
            m.record_batch(2, 0.01, [float(i), float(i) + 0.5])
        assert len(m.latencies_ms) == 4
        assert len(m.batch_sizes) == 4
        assert len(m.batch_seconds) == 4

    def test_totals_stay_exact_past_the_window(self):
        m = ServingMetrics(max_samples=4)
        for i in range(10):
            m.record_batch(3, 0.01, [10.0])
        s = m.snapshot()
        assert s["requests_total"] == 30
        assert s["batches_total"] == 10
        assert s["mean_batch_size"] == 3.0
        assert s["latency_ms"]["mean"] == 10.0
        assert m.latency_count == 10

    def test_max_latency_survives_eviction(self):
        m = ServingMetrics(max_samples=2)
        m.record_batch(1, 0.01, [500.0])   # evicted from the window...
        m.record_batch(1, 0.01, [1.0])
        m.record_batch(1, 0.01, [2.0])
        assert 500.0 not in m.latencies_ms
        assert m.snapshot()["latency_ms"]["max"] == 500.0  # ...but not the max

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            ServingMetrics(max_samples=0)


class TestGauges:
    def test_in_flight_counts_up_and_down(self):
        m = ServingMetrics()
        assert m.snapshot()["in_flight_batches"] == 0
        m.batch_started()
        m.batch_started()
        assert m.snapshot()["in_flight_batches"] == 2
        m.batch_finished()
        assert m.snapshot()["in_flight_batches"] == 1
        m.batch_finished()
        m.batch_finished()  # spurious finish clamps at zero
        assert m.snapshot()["in_flight_batches"] == 0

    def test_queue_depth_polls_the_bound_callable(self):
        m = ServingMetrics()
        assert m.snapshot()["queue_depth"] == 0  # unbound default
        depth = [7]
        m.bind_queue_depth(lambda: depth[0])
        assert m.snapshot()["queue_depth"] == 7
        depth[0] = 2
        assert m.snapshot()["queue_depth"] == 2

    def test_binding_survives_reset(self):
        m = ServingMetrics()
        m.bind_queue_depth(lambda: 5)
        m.reset()
        assert m.snapshot()["queue_depth"] == 5


class TestLayerHistograms:
    def test_layer_stats_accumulate(self):
        m = ServingMetrics()
        m.record_batch(1, 0.0, [], layer_seconds={"layer00:linear": 0.004, "layer01:paf": 0.030})
        m.record_batch(1, 0.0, [], layer_seconds={"layer00:linear": 0.006})
        s = m.snapshot()["layers"]
        assert s["layer00:linear"]["count"] == 2
        assert s["layer00:linear"]["mean_ms"] == pytest.approx(5.0)
        assert s["layer00:linear"]["max_ms"] == pytest.approx(6.0)
        assert s["layer01:paf"]["count"] == 1

    def test_layer_seconds_via_record_batch(self):
        m = ServingMetrics()
        m.record_batch(1, 0.05, [50.0], layer_seconds={"layer00:linear": 0.05})
        assert m.snapshot()["layers"]["layer00:linear"]["count"] == 1

    def test_histogram_buckets_are_cumulative(self):
        m = ServingMetrics()
        # 4ms and 6ms land in the 5ms and 10ms buckets respectively
        m.record_batch(1, 0.0, [], layer_seconds={"l": 0.004})
        m.record_batch(1, 0.0, [], layer_seconds={"l": 0.006})
        m.record_batch(1, 0.0, [], layer_seconds={"l": 99.0})  # beyond the last bound -> +Inf
        text = m.format_prometheus()
        assert 'layer_latency_ms_bucket{layer="l",le="5"} 1' in text
        assert 'layer_latency_ms_bucket{layer="l",le="10"} 2' in text
        assert 'layer_latency_ms_bucket{layer="l",le="1000"} 2' in text
        assert 'layer_latency_ms_bucket{layer="l",le="+Inf"} 3' in text
        assert 'layer_latency_ms_count{layer="l"} 3' in text


class TestPrometheusText:
    def test_exposition_carries_counters_and_gauges(self):
        m = ServingMetrics()
        m.bind_queue_depth(lambda: 3)
        m.batch_started()
        m.record_batch(
            2, 0.02, [15.0, 17.0], op_counts=Counter(rotate=4, mul=1)
        )
        text = m.format_prometheus()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 2" in text
        assert "repro_serve_batches_total 1" in text
        assert "repro_serve_queue_depth 3" in text
        assert "repro_serve_in_flight_batches 1" in text
        assert "repro_serve_request_latency_ms_count 2" in text
        assert 'repro_serve_he_ops_total{op="rotate"} 4' in text
        assert 'repro_serve_he_ops_total{op="mul"} 1' in text
        assert text.endswith("\n")

    def test_bucket_bounds_match_declared_schedule(self):
        m = ServingMetrics()
        m.record_batch(1, 0.0, [], layer_seconds={"l": 0.001})
        text = m.format_prometheus()
        for bound in LATENCY_BUCKETS_MS:
            assert f'le="{bound:g}"' in text

    def test_custom_prefix(self):
        m = ServingMetrics()
        assert "myapp_requests_total 0" in m.format_prometheus(prefix="myapp")


class TestFormat:
    def test_human_summary_includes_gauges_and_layers(self):
        m = ServingMetrics()
        m.bind_queue_depth(lambda: 1)
        m.record_batch(2, 0.02, [15.0, 17.0], layer_seconds={"l0": 0.01})
        text = m.format()
        assert "queue_depth=1" in text
        assert "in_flight=0" in text
        assert "layer l0" in text


class TestTenantSeries:
    def test_shed_and_error_counters_with_labels(self):
        m = ServingMetrics()
        m.record_shed(2, model="mlp", client="alice")
        m.record_error("poisoned", model="mlp", client="alice")
        m.record_error("worker_crash", 3)
        m.record_batch(2, 0.01, [5.0], model="mlp", client="alice")
        s = m.snapshot()
        assert s["shed_total"] == 2
        assert s["errors"] == {"poisoned": 1, "worker_crash": 3}
        assert s["tenants"]["mlp/alice"] == {
            "requests": 2,
            "batches": 1,
            "errors": 1,
            "shed": 2,
        }
        text = m.format_prometheus()
        assert "repro_serve_shed_total 2" in text
        assert 'repro_serve_request_errors_total{kind="poisoned"} 1' in text
        assert (
            'repro_serve_tenant_requests_total{model="mlp",client="alice"} 2'
            in text
        )

    def test_label_values_are_escaped(self):
        m = ServingMetrics()
        m.record_error('we"ird\nkind', model='m"1', client="a\\b")
        text = m.format_prometheus()
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        # label values stay properly delimited: an even number of
        # *unescaped* quotes per line, and no raw newline inside a value
        import re

        for line in text.splitlines():
            assert len(re.findall(r'(?<!\\)"', line)) % 2 == 0


class TestPrometheusUnderConcurrency:
    def test_concurrent_updates_keep_exposition_parseable(self):
        """Writers hammer every mutator while readers render the
        exposition: each rendered line must parse as a comment or a
        ``name{labels} value`` sample, and gauges never go negative."""
        import re
        import threading

        m = ServingMetrics(max_samples=64)
        depth = [0]
        m.bind_queue_depth(lambda: depth[0])
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(e[+-][0-9]+)?$"
        )
        failures = []
        stop = threading.Event()

        def writer(seed):
            i = 0
            while not stop.is_set():
                m.batch_started()
                depth[0] = (seed + i) % 7  # gauge source wobbles, stays >= 0
                m.record_batch(
                    2,
                    0.001,
                    [1.0, 2.0],
                    op_counts=Counter(rotate=1),
                    layer_seconds={"l0": 0.001},
                    model=f"m{seed % 2}",
                    client="alice",
                )
                m.record_shed(model=f"m{seed % 2}", client="alice")
                m.record_error("execution", model=f"m{seed % 2}", client="alice")
                m.batch_finished()
                i += 1

        def reader():
            while not stop.is_set():
                text = m.format_prometheus()
                for line in text.splitlines():
                    if line.startswith("#"):
                        continue
                    if not sample.match(line):
                        failures.append(f"unparseable: {line!r}")
                        return
                    value = float(line.rsplit(" ", 1)[1])
                    name = line.split("{")[0].split(" ")[0]
                    if value < 0 and not name.endswith("_ms"):
                        failures.append(f"negative sample: {line!r}")
                        return

        writers = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        import time

        time.sleep(0.4)
        stop.set()
        for t in writers + readers:
            t.join(timeout=5.0)
        assert failures == []
        s = m.snapshot()
        assert s["in_flight_batches"] >= 0
        assert s["queue_depth"] >= 0
        assert s["requests_total"] == 2 * s["batches_total"]
