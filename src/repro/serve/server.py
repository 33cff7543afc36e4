"""The multi-tenant batched encrypted-inference server facade.

``submit(x, client_id=..., model=...)`` returns a future; behind it,
requests are grouped per ``(model, client)`` into SIMD batches
(:mod:`repro.serve.queue` — two tenants never share a ciphertext),
packed into disjoint slot blocks, pushed through one encrypted forward
whose plaintexts the network encoded at compile (key-independent, so
every tenant reads the same ones), and demultiplexed back into
per-client logits on decrypt.  Client key material comes from a
:class:`~repro.serve.keys.ClientKeyRegistry`; the default tenant uses
the model's own baked keys, so a single-model single-tenant server works
exactly as before.

Admission is bounded (``max_pending``): a full queue **sheds** with
:class:`~repro.serve.queue.QueueOverflow` (or applies backpressure with
``submit(..., block=True)``).  Per-batch observations land in
:class:`repro.serve.metrics.ServingMetrics` with per-tenant labels; with
``trace=True`` each worker additionally runs a
:class:`repro.obs.TracingEvaluator`.  A
:class:`~repro.serve.faults.FaultInjector` can be plugged in to script
worker crashes, stalls, poisoned requests and key-mismatch submissions —
every injected failure surfaces as an explicit per-request error while
the server keeps serving (the concurrency suite pins this).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from threading import Lock

import numpy as np

from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe.network import EncryptedNetwork
from repro.fhe.packing import unpack_blocks
from repro.obs import TracingEvaluator
from repro.serve.faults import FaultInjector, PoisonedRequestError, WorkerCrashError
from repro.serve.keys import (
    DEFAULT_CLIENT,
    ClientKeyRegistry,
    KeyMismatchError,
    UnknownClientError,
)
from repro.serve.metrics import ServingMetrics, _escape_label
from repro.serve.queue import (
    DEFAULT_MODEL,
    BatchQueue,
    QueueOverflow,
    Request,
    WorkerPool,
)

__all__ = ["InferenceResult", "InferenceServer", "UnknownModelError"]


class UnknownModelError(KeyError):
    """A request named a model this server does not host."""


@dataclass(frozen=True)
class InferenceResult:
    """What a client gets back for one request."""

    logits: np.ndarray
    prediction: int
    latency_ms: float   #: enqueue -> logits, including batching wait
    batch_size: int     #: how many requests shared the ciphertext
    model: str = DEFAULT_MODEL
    client_id: str = DEFAULT_CLIENT


class InferenceServer:
    """Multi-tenant batched encrypted-inference server.

    Parameters
    ----------
    model:
        A compiled :class:`~repro.fhe.network.EncryptedNetwork` —
        ``compile_network(model, params, policy=...)`` — or a
        ``{name: EncryptedNetwork}`` dict to serve several models from
        one worker pool.  The constructor warms each
        (:meth:`~repro.fhe.network.EncryptedNetwork.warm`: its
        plaintexts held in NTT form).
    num_classes:
        Logit count demultiplexed per client — an int (shared) or a
        ``{model_name: int}`` dict.
    max_batch_size:
        Admission cap; clamped per model to the ciphertext's SIMD
        capacity (``slots // (2·size)``).
    max_wait_ms:
        Flush deadline for a partially filled batch.
    num_workers:
        Worker threads; each gets its own evaluator per (model, client)
        against shared keys, reading the model's shared plaintexts.
    max_pending:
        Total admission bound.  A non-blocking submit over it sheds with
        :class:`QueueOverflow`; ``submit(..., block=True)`` waits
        (backpressure).  ``None`` = unbounded.
    key_registry:
        :class:`ClientKeyRegistry` for non-default tenants (one is
        created when omitted).  ``register_client`` proxies to it.
    fault_injector:
        Optional :class:`~repro.serve.faults.FaultInjector` — the
        deterministic failure-mode harness.
    integrity_tol:
        Ciphertext integrity bound: after a forward whose final layer is
        linear, the replica half of block 0 must decrypt to ~0 (the
        matvec zeroes it).  Garbage there — the signature of a
        key-mismatch submission — fails the batch with
        :class:`KeyMismatchError`.  ``None`` disables the check.
    trace:
        Run every worker under a :class:`repro.obs.TracingEvaluator`
        over a :class:`~repro.ckks.instrumentation.CountingEvaluator`:
        per-layer latency histograms, ``last_trace`` and HE-op counts
        in :attr:`metrics`.

    Usage::

        with InferenceServer({"mlp": net_a, "resnet": net_b},
                             num_classes={"mlp": 3, "resnet": 3},
                             key_registry=registry) as srv:
            srv.register_client("alice")
            fut = srv.submit(x, client_id="alice", model="mlp")
            result = fut.result()
    """

    def __init__(
        self,
        model,
        num_classes,
        *,
        max_batch_size: int | None = None,
        max_wait_ms: float = 8.0,
        num_workers: int = 1,
        trace: bool = False,
        max_pending: int | None = None,
        key_registry: ClientKeyRegistry | None = None,
        fault_injector: FaultInjector | None = None,
        integrity_tol: float | None = 0.25,
    ):
        models = dict(model) if isinstance(model, dict) else {DEFAULT_MODEL: model}
        if not models:
            raise ValueError("need at least one model to serve")
        # a ModelArtifact (the ladder's shell) serves the network it wraps
        self.networks = {name: getattr(net, "model", net) for name, net in models.items()}
        for name, net in self.networks.items():
            if not isinstance(net, EncryptedNetwork):
                raise TypeError(
                    f"model {name!r} is a {type(net).__name__}; serve "
                    "compile_network(model, params, policy=...)"
                )

        if isinstance(num_classes, dict):
            missing = set(self.networks) - set(num_classes)
            if missing:
                raise ValueError(f"num_classes missing models: {sorted(missing)}")
            self._num_classes = {name: int(num_classes[name]) for name in self.networks}
        else:
            self._num_classes = {name: int(num_classes) for name in self.networks}
        self.num_classes = num_classes

        self._capacity: dict[str, int] = {}
        for name, net in self.networks.items():
            cap = net.max_batch
            if max_batch_size is not None:
                cap = max(1, min(max_batch_size, cap))
            self._capacity[name] = cap
        self.max_batch_size = max(self._capacity.values())

        self.key_registry = key_registry if key_registry is not None else ClientKeyRegistry()
        self.faults = fault_injector
        self.metrics = ServingMetrics()
        self._trace = trace
        self._integrity_tol = integrity_tol
        # the replica-half guard assumes a linear final layer (the matvec
        # zeroes those slots); models without that invariant opt out
        self._integrity_ok = {
            name: bool(getattr(net, "layers", None)) and net.layers[-1].kind == "linear"
            for name, net in self.networks.items()
        }
        self.last_trace: dict | None = None
        self._num_workers = num_workers
        self._evaluators: dict[tuple, object] = {}
        self._ev_lock = Lock()
        self._mismatch_registry: ClientKeyRegistry | None = None
        self._queue = BatchQueue(
            lambda group: self._capacity[group[0]],
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
        )
        self.metrics.bind_queue_depth(self._queue.__len__)
        self._pool = WorkerPool(self._queue, self._handle_batch, num_workers=num_workers)
        self._started = False
        self._stopped = False
        self._lifecycle = Lock()
        for net in self.networks.values():
            net.warm()

    # ------------------------------------------------------------------
    # tenants and evaluators
    # ------------------------------------------------------------------
    def register_client(self, client_id: str, seed: int | None = None) -> str:
        """Admit a tenant (proxies :meth:`ClientKeyRegistry.register`)."""
        return self.key_registry.register(client_id, seed=seed)

    def _wrap(self, ev):
        return TracingEvaluator(CountingEvaluator(ev)) if self._trace else ev

    def _evaluator_for(self, worker_index: int, model_name: str, client_id: str):
        """Per-(worker, model, client) evaluator, created lazily.

        One worker thread runs one batch at a time, so each cached
        evaluator is only ever used by its own thread — reset()/tracer
        state per batch is safe.  Worker 0 of the default tenant reuses
        the model's own evaluator.
        """
        key = (worker_index, model_name, client_id)
        with self._ev_lock:
            ev = self._evaluators.get(key)
        if ev is not None:
            return ev
        net = self.networks[model_name]
        if client_id == DEFAULT_CLIENT:
            if worker_index == 0:
                base = net.ev
            else:
                base = net.evaluator(net.keys, seed=1000 + worker_index)
        else:
            base = self.key_registry.evaluator_for(
                client_id, net, seed=1000 + worker_index
            )
        ev = self._wrap(base)
        with self._ev_lock:
            return self._evaluators.setdefault(key, ev)

    def _mismatch_evaluator(self, model_name: str):
        """An evaluator over deliberately-wrong keys (fault injection)."""
        with self._ev_lock:
            if self._mismatch_registry is None:
                self._mismatch_registry = ClientKeyRegistry()
                self._mismatch_registry.register("__mismatch__", seed=0xBAD5EED)
        return self._mismatch_registry.evaluator_for(
            "__mismatch__", self.networks[model_name]
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        with self._lifecycle:
            if self._stopped:
                raise RuntimeError(
                    "server already stopped; construct a new InferenceServer"
                )
            if not self._started:
                self._pool.start()
                self._started = True
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Terminal: drains in-flight work (bounded), fails leftovers,
        frees workers.  Idempotent and safe to race from several threads."""
        with self._lifecycle:
            was_started, self._started = self._started, False
            self._stopped = self._stopped or was_started
        if was_started:
            self._pool.stop(timeout=timeout)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def _model_name(self, model: str | None) -> str:
        if model is None:
            if len(self.networks) == 1:
                return next(iter(self.networks))
            raise UnknownModelError(
                f"server hosts {sorted(self.networks)}; submit(..., model=...) required"
            )
        if model not in self.networks:
            raise UnknownModelError(
                f"unknown model {model!r} (hosted: {sorted(self.networks)})"
            )
        return model

    def submit(
        self,
        x: np.ndarray,
        *,
        client_id: str = DEFAULT_CLIENT,
        model: str | None = None,
        block: bool = False,
        timeout: float | None = None,
    ) -> Future:
        """Enqueue one input; resolves to an :class:`InferenceResult`.

        Inputs are validated here, *before* admission: a bad request
        (wrong width, NaN/inf, unknown model or client) must fail alone
        at the door rather than poison every neighbour sharing its
        ciphertext batch.  Over ``max_pending`` the request is shed with
        :class:`QueueOverflow` unless ``block=True`` (backpressure,
        bounded by ``timeout`` seconds).
        """
        if not self._started:
            raise RuntimeError("server not started (use start() or a with-block)")
        name = self._model_name(model)
        net = self.networks[name]
        x = np.asarray(x, dtype=np.float64).ravel()
        net.split_input(x)  # raises on a width the packing cannot take
        if not np.all(np.isfinite(x)):
            raise ValueError("input contains non-finite values")
        if client_id != DEFAULT_CLIENT and client_id not in self.key_registry:
            raise UnknownClientError(
                f"client {client_id!r} is not registered (register_client first)"
            )
        req = Request(x=x, client_id=client_id, model_name=name)
        if self.faults is not None:
            self.faults.on_submit(req)
        try:
            self._queue.put(req, block=block, timeout=timeout)
        except QueueOverflow:
            self.metrics.record_shed(model=name, client=client_id)
            raise
        return req.future

    def predict(self, x: np.ndarray, timeout: float | None = None, **kw) -> InferenceResult:
        """Synchronous submit + wait."""
        return self.submit(x, **kw).result(timeout=timeout)

    def predict_many(self, xs, timeout: float | None = None, **kw) -> list[InferenceResult]:
        """Submit a burst and gather (lets the batcher pack them together)."""
        futures = [self.submit(x, **kw) for x in xs]
        return [f.result(timeout=timeout) for f in futures]

    @property
    def backend(self) -> str:
        """Name of the kernel backend executing this server's HE ops."""
        return next(iter(self.networks.values())).ctx.backend.name

    def metrics_text(self) -> str:
        """Prometheus text exposition of the serving metrics (counters,
        queue-depth / in-flight gauges, shed/error counters, per-tenant
        series, per-layer latency histograms), plus an info gauge naming
        the active kernel backend per hosted model."""
        lines = ["# TYPE repro_serve_backend_info gauge"]
        if len(self.networks) == 1:
            lines.append(f'repro_serve_backend_info{{backend="{self.backend}"}} 1')
        else:
            for name, net in sorted(self.networks.items()):
                lines.append(
                    f'repro_serve_backend_info{{backend="{net.ctx.backend.name}",'
                    f'model="{_escape_label(name)}"}} 1'
                )
        return "\n".join(lines) + "\n" + self.metrics.format_prometheus()

    # ------------------------------------------------------------------
    # batch execution (worker threads)
    # ------------------------------------------------------------------
    def _decrypt_checked(self, model_name: str, ct, batch: int, ev) -> np.ndarray:
        """The batch's ``(batch, C)`` logits from one decryption.

        Replica-half guard: after a linear final layer, block 0's slots
        ``[size, 2·size)`` — decoded by the same decryption — must read
        ~0.  A key-mismatch submission decrypts to uniform garbage there,
        structurally detectable, unlike the logits themselves.
        """
        net = self.networks[model_name]
        num_classes = self._num_classes[model_name]
        tol = self._integrity_tol
        if tol is None or not self._integrity_ok[model_name]:
            return net.decrypt_logits(ct, num_classes, batch=batch, ev=ev)
        values = ev.decrypt(ct)  # every slot: the logits and the guard
        guard = np.asarray(values[net.size : 2 * net.size])
        if not np.all(np.isfinite(guard)) or float(np.max(np.abs(guard))) > tol:
            raise KeyMismatchError(
                "ciphertext integrity check failed: replica slots decrypted to "
                f"|max|={float(np.max(np.abs(guard))):.3g} (> {tol}) — the batch "
                "was not encrypted under the keys it was evaluated with"
            )
        return unpack_blocks(values, net.layout, num_classes, batch)

    def _fail_batch(self, batch, exc, model_name, client_id, kind) -> None:
        for req in batch:
            if not req.future.done():
                req.future.set_exception(exc)
        self.metrics.record_error(kind, len(batch), model=model_name, client=client_id)

    def _handle_batch(self, batch: list[Request], worker_index: int) -> None:
        # claim each future; one a client cancelled while queued drops out
        # here, so set_result below can never hit an InvalidStateError and
        # spill it onto the neighbours' futures
        batch = [req for req in batch if req.future.set_running_or_notify_cancel()]
        if not batch:
            return
        model_name, client_id = batch[0].group
        net = self.networks[model_name]
        directives: set = set()
        if self.faults is not None:
            batch, poisoned = self.faults.split_poisoned(batch)
            if poisoned:
                exc = PoisonedRequestError(
                    "fault injection: request poisoned during batch assembly"
                )
                self._fail_batch(poisoned, exc, model_name, client_id, "poisoned")
            if not batch:
                return
            try:
                directives = self.faults.on_batch_start(
                    batch[0].group, batch, worker_index
                )
            except WorkerCrashError as exc:
                self._fail_batch(batch, exc, model_name, client_id, "worker_crash")
                return
        ev = self._evaluator_for(worker_index, model_name, client_id)
        if self._trace:
            ev.reset()
            ev.tracer.reset()
        self.metrics.batch_started()
        t0 = time.perf_counter()
        try:
            xs = [req.x for req in batch]
            encrypt_ev = ev
            if "key_mismatch" in directives:
                encrypt_ev = self._mismatch_evaluator(model_name)
            cts = net.encrypt_batch_shards(xs, ev=encrypt_ev)
            ct = net.forward_shards(cts, ev=ev)[0]
            logits = self._decrypt_checked(model_name, ct, len(batch), ev)
        except Exception as exc:
            kind = (
                "key_mismatch"
                if isinstance(exc, KeyMismatchError)
                else "execution"
            )
            self._fail_batch(batch, exc, model_name, client_id, kind)
            return
        finally:
            self.metrics.batch_finished()
        done = time.perf_counter()
        latencies = []
        for req, row in zip(batch, logits):
            latency_ms = (done - req.enqueued_at) * 1000.0
            latencies.append(latency_ms)
            req.future.set_result(
                InferenceResult(
                    logits=row,
                    prediction=int(np.argmax(row)),
                    latency_ms=latency_ms,
                    batch_size=len(batch),
                    model=model_name,
                    client_id=client_id,
                )
            )
        layer_seconds = op_counts = None
        if self._trace:
            tracer = ev.tracer
            layer_seconds = {
                sp.name: sp.duration_s for sp in tracer.layer_spans()
            }
            self.last_trace = tracer.to_dict(meta={"batch_size": len(batch)})
            op_counts = ev.counts
        self.metrics.record_batch(
            len(batch),
            done - t0,
            latencies,
            op_counts=op_counts,
            layer_seconds=layer_seconds,
            model=model_name,
            client=client_id,
        )
