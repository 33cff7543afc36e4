"""Serving metrics: throughput, latency percentiles, HE-op accounting.

Collected per batch by :class:`repro.serve.server.InferenceServer`;
``snapshot()`` renders the aggregate view the throughput benchmark and
the ops dashboards read, and ``format_prometheus()`` renders the same
numbers as a Prometheus text exposition.  When the server runs with
``trace=True``, HE-op counts come from its
:class:`repro.ckks.instrumentation.CountingEvaluator` proxies and
per-layer latency histograms from the execution tracer (:mod:`repro.obs`).

Memory is bounded: totals, maxima and histogram buckets are exact
running aggregates, while raw samples (used only for percentiles) live
in fixed-size deques — a server alive for millions of requests reports
exact counts and *windowed* percentiles, never an unbounded list.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from threading import Lock

import numpy as np

__all__ = ["ServingMetrics", "percentile", "LATENCY_BUCKETS_MS"]

#: Cumulative histogram upper bounds (ms) for per-layer latency.
LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def percentile(values, q: float) -> float:
    """Percentile of a latency sample (0.0 on an empty sample)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _escape_label(value) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _TenantStats:
    """Exact per-(model, client) counters."""

    __slots__ = ("requests", "batches", "errors", "shed")

    def __init__(self):
        self.requests = 0
        self.batches = 0
        self.errors = 0
        self.shed = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "errors": self.errors,
            "shed": self.shed,
        }


class _LayerStats:
    """Exact running aggregate + cumulative histogram for one layer."""

    __slots__ = ("count", "sum_ms", "max_ms", "buckets")

    def __init__(self):
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0
        self.buckets = [0] * (len(LATENCY_BUCKETS_MS) + 1)  # last = +Inf

    def observe(self, ms: float) -> None:
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        for i, bound in enumerate(LATENCY_BUCKETS_MS):
            if ms <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": self.sum_ms / self.count if self.count else 0.0,
            "max_ms": self.max_ms,
            "sum_ms": self.sum_ms,
        }


class ServingMetrics:
    """Thread-safe accumulator of per-batch serving observations.

    ``max_samples`` bounds the percentile windows (``latencies_ms``,
    ``batch_sizes``, ``batch_seconds``); everything else is an exact
    running total regardless of how long the server lives.
    """

    def __init__(self, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._lock = Lock()
        self._queue_depth_fn = None
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests_total = 0
            self.batches_total = 0
            self.latency_sum_ms = 0.0
            self.latency_count = 0
            self.latency_max_ms = 0.0
            self.batch_seconds_sum = 0.0
            self.batch_sizes: deque[int] = deque(maxlen=self.max_samples)
            self.latencies_ms: deque[float] = deque(maxlen=self.max_samples)
            self.batch_seconds: deque[float] = deque(maxlen=self.max_samples)
            self.op_counts: Counter = Counter()
            self.in_flight_batches = 0
            self.shed_total = 0
            self.errors: Counter = Counter()   # error kind -> count
            self._tenants: dict[tuple, _TenantStats] = {}
            self._layers: dict[str, _LayerStats] = {}
            self._started_at: float | None = None
            self._last_at: float | None = None

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def bind_queue_depth(self, depth_fn) -> None:
        """Register a zero-arg callable polled for the queue-depth gauge
        (the server binds ``len`` of its :class:`BatchQueue`)."""
        self._queue_depth_fn = depth_fn

    def queue_depth(self) -> int:
        fn = self._queue_depth_fn
        # clamp: a gauge must never go negative, whatever the callable does
        return max(0, int(fn())) if fn is not None else 0

    def batch_started(self) -> None:
        with self._lock:
            self.in_flight_batches += 1

    def batch_finished(self) -> None:
        with self._lock:
            self.in_flight_batches = max(0, self.in_flight_batches - 1)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _tenant(self, model, client) -> _TenantStats | None:
        """Per-tenant bucket (``None`` when the batch carries no labels).
        Callers hold ``self._lock``."""
        if model is None and client is None:
            return None
        key = (model or "default", client or "default")
        stats = self._tenants.get(key)
        if stats is None:
            stats = self._tenants[key] = _TenantStats()
        return stats

    def record_shed(self, count: int = 1, model=None, client=None) -> None:
        """Count load-shed requests (rejected with ``QueueOverflow``)."""
        with self._lock:
            self.shed_total += count
            tenant = self._tenant(model, client)
            if tenant is not None:
                tenant.shed += count

    def record_error(self, kind: str, count: int = 1, model=None, client=None) -> None:
        """Count requests failed with an explicit per-request error."""
        with self._lock:
            self.errors[kind] += count
            tenant = self._tenant(model, client)
            if tenant is not None:
                tenant.errors += count

    def record_batch(
        self,
        batch_size: int,
        batch_seconds: float,
        latencies_ms,
        op_counts: Counter | None = None,
        layer_seconds: dict | None = None,
        model=None,
        client=None,
    ) -> None:
        now = time.perf_counter()
        with self._lock:
            if self._started_at is None:
                self._started_at = now - batch_seconds
            self._last_at = now
            self.requests_total += batch_size
            self.batches_total += 1
            tenant = self._tenant(model, client)
            if tenant is not None:
                tenant.requests += batch_size
                tenant.batches += 1
            self.batch_seconds_sum += batch_seconds
            self.batch_sizes.append(batch_size)
            self.batch_seconds.append(batch_seconds)
            for ms in latencies_ms:
                self.latency_sum_ms += ms
                self.latency_count += 1
                if ms > self.latency_max_ms:
                    self.latency_max_ms = ms
                self.latencies_ms.append(ms)
            if op_counts:
                self.op_counts.update(op_counts)
            if layer_seconds:
                self._record_layers(layer_seconds)

    def record_layer_seconds(self, layer_seconds: dict) -> None:
        """Feed one traced forward's per-layer durations (``name ->
        seconds``, e.g. from :meth:`repro.obs.Tracer.layer_spans`)."""
        with self._lock:
            self._record_layers(layer_seconds)

    def _record_layers(self, layer_seconds: dict) -> None:
        for name, seconds in layer_seconds.items():
            stats = self._layers.get(name)
            if stats is None:
                stats = self._layers[name] = _LayerStats()
            stats.observe(seconds * 1000.0)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregate view: throughput, batch sizes, latency percentiles,
        queue/in-flight gauges, per-layer latency, ops.

        Counts, means and maxima are exact; p50/p95 come from the last
        ``max_samples`` observations.
        """
        with self._lock:
            elapsed = (
                (self._last_at - self._started_at)
                if self._started_at is not None and self._last_at is not None
                else 0.0
            )
            lat = self.latencies_ms
            return {
                "requests_total": self.requests_total,
                "batches_total": self.batches_total,
                "mean_batch_size": (
                    self.requests_total / self.batches_total
                    if self.batches_total
                    else 0.0
                ),
                "elapsed_seconds": elapsed,
                "throughput_rps": self.requests_total / elapsed if elapsed > 0 else 0.0,
                "queue_depth": self.queue_depth(),
                "in_flight_batches": self.in_flight_batches,
                "latency_ms": {
                    "mean": (
                        self.latency_sum_ms / self.latency_count
                        if self.latency_count
                        else 0.0
                    ),
                    "p50": percentile(lat, 50),
                    "p95": percentile(lat, 95),
                    "max": self.latency_max_ms,
                },
                "layers": {
                    name: stats.as_dict()
                    for name, stats in sorted(self._layers.items())
                },
                "he_ops": dict(self.op_counts),
                "shed_total": self.shed_total,
                "errors": dict(self.errors),
                "tenants": {
                    f"{model}/{client}": stats.as_dict()
                    for (model, client), stats in sorted(self._tenants.items())
                },
            }

    def format(self) -> str:
        """One-paragraph human-readable summary."""
        s = self.snapshot()
        lat = s["latency_ms"]
        lines = [
            f"requests={s['requests_total']}  batches={s['batches_total']}  "
            f"mean_batch={s['mean_batch_size']:.2f}",
            f"throughput={s['throughput_rps']:.2f} req/s over {s['elapsed_seconds']:.2f}s",
            f"queue_depth={s['queue_depth']}  in_flight={s['in_flight_batches']}",
            f"latency_ms mean={lat['mean']:.1f}  p50={lat['p50']:.1f}  "
            f"p95={lat['p95']:.1f}  max={lat['max']:.1f}",
        ]
        for name, stats in s["layers"].items():
            lines.append(
                f"layer {name}: n={stats['count']} "
                f"mean={stats['mean_ms']:.1f}ms max={stats['max_ms']:.1f}ms"
            )
        if s["he_ops"]:
            ops = "  ".join(f"{k}={v}" for k, v in sorted(s["he_ops"].items()))
            lines.append(f"he_ops: {ops}")
        return "\n".join(lines)

    def format_prometheus(self, prefix: str = "repro_serve") -> str:
        """Prometheus text exposition of the snapshot.

        Counters/gauges are exact; per-layer latency is a cumulative
        histogram (``_bucket``/``_sum``/``_count`` with ``le`` labels in
        milliseconds); overall latency quantiles are windowed.
        """
        s = self.snapshot()
        lat = s["latency_ms"]
        out = [
            f"# TYPE {prefix}_requests_total counter",
            f"{prefix}_requests_total {s['requests_total']}",
            f"# TYPE {prefix}_batches_total counter",
            f"{prefix}_batches_total {s['batches_total']}",
            f"# TYPE {prefix}_queue_depth gauge",
            f"{prefix}_queue_depth {s['queue_depth']}",
            f"# TYPE {prefix}_in_flight_batches gauge",
            f"{prefix}_in_flight_batches {s['in_flight_batches']}",
            f"# TYPE {prefix}_throughput_rps gauge",
            f"{prefix}_throughput_rps {s['throughput_rps']:.6f}",
            f"# TYPE {prefix}_request_latency_ms summary",
            f'{prefix}_request_latency_ms{{quantile="0.5"}} {lat["p50"]:.6f}',
            f'{prefix}_request_latency_ms{{quantile="0.95"}} {lat["p95"]:.6f}',
            f"{prefix}_request_latency_ms_sum {self.latency_sum_ms:.6f}",
            f"{prefix}_request_latency_ms_count {self.latency_count}",
            f"# TYPE {prefix}_shed_total counter",
            f"{prefix}_shed_total {s['shed_total']}",
        ]
        if s["errors"]:
            out.append(f"# TYPE {prefix}_request_errors_total counter")
            for kind, n in sorted(s["errors"].items()):
                out.append(
                    f'{prefix}_request_errors_total{{kind="{_escape_label(kind)}"}} {n}'
                )
        with self._lock:
            tenants = sorted(self._tenants.items())
        if tenants:
            for metric, attr in (
                ("tenant_requests_total", "requests"),
                ("tenant_errors_total", "errors"),
                ("tenant_shed_total", "shed"),
            ):
                out.append(f"# TYPE {prefix}_{metric} counter")
                for (model, client), stats in tenants:
                    out.append(
                        f'{prefix}_{metric}{{model="{_escape_label(model)}",'
                        f'client="{_escape_label(client)}"}} {getattr(stats, attr)}'
                    )
        with self._lock:
            layers = sorted(self._layers.items())
        if layers:
            out.append(f"# TYPE {prefix}_layer_latency_ms histogram")
            for name, stats in layers:
                cumulative = 0
                for bound, n in zip(LATENCY_BUCKETS_MS, stats.buckets):
                    cumulative += n
                    out.append(
                        f'{prefix}_layer_latency_ms_bucket'
                        f'{{layer="{name}",le="{bound:g}"}} {cumulative}'
                    )
                out.append(
                    f'{prefix}_layer_latency_ms_bucket'
                    f'{{layer="{name}",le="+Inf"}} {stats.count}'
                )
                out.append(
                    f'{prefix}_layer_latency_ms_sum{{layer="{name}"}} '
                    f"{stats.sum_ms:.6f}"
                )
                out.append(
                    f'{prefix}_layer_latency_ms_count{{layer="{name}"}} {stats.count}'
                )
        if s["he_ops"]:
            out.append(f"# TYPE {prefix}_he_ops_total counter")
            for op, n in sorted(s["he_ops"].items()):
                out.append(f'{prefix}_he_ops_total{{op="{op}"}} {n}')
        return "\n".join(out) + "\n"
