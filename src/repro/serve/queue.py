"""Request admission for the batched encrypted-inference server.

A :class:`BatchQueue` turns an asynchronous stream of single requests
into SIMD batches.  Requests are grouped by ``(model, client)`` — two
tenants can never share a ciphertext, and two models never share a
forward — and each group batches independently under two admission
knobs: a per-group ``max_batch_size`` (never exceed that model's
ciphertext block capacity) and ``max_wait_ms`` (never hold the *first*
request of a forming batch longer than this — a lone request is flushed
and served solo when the deadline passes).  Workers always pick the
group with the oldest waiting head, so one chatty tenant cannot starve
the rest: continuous batching across a heterogeneous request stream.

Admission is bounded: ``max_pending`` caps the total queued requests.
A non-blocking :meth:`BatchQueue.put` over the cap **sheds** the request
with :class:`QueueOverflow` — an explicit, immediate error, never a
silent hang — while ``block=True`` turns the cap into backpressure
(bounded by ``timeout``).

A :class:`WorkerPool` drains the queue with one or more threads, each
invoking the server's batch handler.  Shutdown is *idempotent* and
*draining*: :meth:`BatchQueue.shutdown` closes admission, waits a
bounded timeout for workers to finish what is queued, then fails any
leftovers with :class:`QueueClosed` — calling it again is a no-op and
can never lose work.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_MODEL",
    "Request",
    "QueueClosed",
    "QueueOverflow",
    "BatchQueue",
    "WorkerPool",
]

#: Model name of a single-model server (mirrors ``keys.DEFAULT_CLIENT``).
DEFAULT_MODEL = "default"


@dataclass
class Request:
    """One enqueued inference request, tagged with its tenant."""

    x: np.ndarray
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    client_id: str = "default"
    model_name: str = DEFAULT_MODEL

    @property
    def group(self) -> tuple[str, str]:
        """Batching key: requests batch together iff this matches."""
        return (self.model_name, self.client_id)


class QueueClosed(RuntimeError):
    """Raised by :meth:`BatchQueue.put` after close, and set on futures a
    shutdown drained past its timeout."""


class QueueOverflow(RuntimeError):
    """Load shed: the queue is at ``max_pending`` and the put didn't block."""


class BatchQueue:
    """Thread-safe queue grouping requests into per-tenant batches.

    ``max_batch_size`` is an int (one cap for every group) or a callable
    ``group -> int`` (per-model capacity in a mixed pool).
    ``max_pending`` bounds total admission; ``None`` means unbounded.
    """

    def __init__(
        self,
        max_batch_size,
        max_wait_ms: float = 8.0,
        max_pending: int | None = None,
    ):
        if callable(max_batch_size):
            self._capacity = max_batch_size
        else:
            if max_batch_size < 1:
                raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
            self._capacity = lambda group, _cap=int(max_batch_size): _cap
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_wait_ms = max_wait_ms
        self.max_pending = max_pending
        self._groups: dict[tuple, list[Request]] = {}
        self._count = 0
        self._cv = threading.Condition()
        self._closed = False

    def capacity(self, group) -> int:
        """Batch cap for one ``(model, client)`` group."""
        cap = int(self._capacity(group))
        if cap < 1:
            raise ValueError(f"capacity for group {group} must be >= 1, got {cap}")
        return cap

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def put(self, request: Request, block: bool = False, timeout: float | None = None) -> None:
        """Admit one request.

        Over ``max_pending``: sheds with :class:`QueueOverflow` when
        ``block=False`` (the default — an overloaded server answers
        *immediately*), or applies backpressure when ``block=True``,
        waiting up to ``timeout`` seconds for capacity before shedding.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cv:
            while True:
                if self._closed:
                    raise QueueClosed("queue is closed")
                if self.max_pending is None or self._count < self.max_pending:
                    break
                if not block:
                    raise QueueOverflow(
                        f"queue at capacity ({self.max_pending} pending); request shed"
                    )
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    raise QueueOverflow(
                        f"backpressure timeout: queue stayed at capacity "
                        f"({self.max_pending} pending) for {timeout}s"
                    )
                self._cv.wait(remaining)
            self._groups.setdefault(request.group, []).append(request)
            self._count += 1
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    def next_batch(self, poll_timeout: float = 0.1) -> list[Request]:
        """Block for the next same-group batch; ``[]`` when nothing arrived.

        Picks the group whose head request has waited longest, then
        returns as soon as that group's batch is full or its head has
        waited ``max_wait_ms`` — whichever comes first (flush-on-timeout).
        Every returned request shares one ``Request.group``.
        """
        with self._cv:
            if not self._count and not self._closed:
                self._cv.wait(poll_timeout)
            while True:
                if not self._count:
                    return []
                group = min(
                    self._groups, key=lambda g: self._groups[g][0].enqueued_at
                )
                cap = self.capacity(group)
                deadline = (
                    self._groups[group][0].enqueued_at + self.max_wait_ms / 1000.0
                )
                while len(self._groups.get(group, ())) < cap and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._groups.get(group):
                        break
                    self._cv.wait(remaining)
                pending = self._groups.get(group)
                if not pending:
                    continue  # another worker drained it while we waited
                batch = pending[:cap]
                del pending[: len(batch)]
                if not pending:
                    del self._groups[group]
                self._count -= len(batch)
                self._cv.notify_all()  # wake backpressure + shutdown waiters
                return batch

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new requests; pending ones can still be drained."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def shutdown(self, drain_timeout: float = 10.0) -> list[Request]:
        """Close, let workers drain for a bounded window, fail leftovers.

        Idempotent: every call closes admission (a no-op after the
        first), waits up to ``drain_timeout`` seconds for the queue to
        empty, then removes whatever is still queued and fails those
        futures with :class:`QueueClosed` — a client blocked on
        ``future.result()`` must never hang on a request no worker will
        ever pick up.  Repeat calls cannot lose work: requests drained
        by workers during any call's window are served normally.
        Returns the failed leftovers.
        """
        self.close()
        deadline = time.perf_counter() + max(0.0, drain_timeout)
        with self._cv:
            while self._count:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cv.wait(min(0.05, remaining))
            leftovers = [req for pending in self._groups.values() for req in pending]
            self._groups.clear()
            self._count = 0
            self._cv.notify_all()
        for req in leftovers:
            if not req.future.done():
                req.future.set_exception(
                    QueueClosed("server stopped before the request was served")
                )
        return leftovers

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._cv:
            return self._count

    def pending_by_group(self) -> dict[tuple, int]:
        """Queued request count per ``(model, client)`` group."""
        with self._cv:
            return {group: len(reqs) for group, reqs in self._groups.items()}


class WorkerPool:
    """Threads draining a :class:`BatchQueue` into a batch handler.

    ``handler(batch, worker_index)`` is called with a non-empty
    same-group request list; the index lets the server give each thread
    its own evaluator.  Handler exceptions are routed to the batch's
    futures by the server — the pool itself only guards against a
    handler that leaks one, so a poisoned batch never kills the thread.
    """

    def __init__(self, queue: BatchQueue, handler, num_workers: int = 1, name: str = "serve"):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.queue = queue
        self.handler = handler
        self._threads = [
            threading.Thread(target=self._run, args=(i,), name=f"{name}-worker-{i}", daemon=True)
            for i in range(num_workers)
        ]
        self._stop = threading.Event()

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def _run(self, index: int) -> None:
        while not self._stop.is_set():
            batch = self.queue.next_batch()
            if not batch:
                if self.queue.closed:
                    return
                continue
            try:
                self.handler(batch, index)
            except Exception as exc:  # route a leaked error to the callers
                for req in batch:
                    if not req.future.done():
                        req.future.set_exception(exc)

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the queue (bounded), stop and join the threads.

        Delegates the drain-then-fail-leftovers contract to
        :meth:`BatchQueue.shutdown`; idempotent like it.
        """
        self.queue.shutdown(drain_timeout=timeout)
        self._stop.set()
        deadline = time.perf_counter() + timeout
        for t in self._threads:
            if t.is_alive():
                t.join(max(0.0, deadline - time.perf_counter()) + 1.0)
