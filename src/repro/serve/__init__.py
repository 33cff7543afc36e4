"""``repro.serve`` — batched encrypted-inference serving.

The paper makes private inference *fast* by replacing non-polynomial
operators with low-degree PAFs; this subsystem makes the resulting
CKKS pipeline fast *per request* by amortising it:

SIMD request packing (:mod:`repro.fhe.packing`)
    A compiled model of square width ``size`` needs only ``2·size`` of
    the ciphertext's ``N/2`` slots, so up to ``slots // (2·size)``
    independent client inputs are packed into disjoint slot blocks of a
    *single* ciphertext (each block wraparound-replicated so the
    Halevi-Shoup cyclic diagonals align per block).  One encrypted
    forward — the same rotations, plaintext multiplies, rescales and PAF
    evaluations as a single request — then serves the whole batch, and
    per-client logits are demultiplexed on decrypt.

Plaintext memo (:mod:`repro.serve.artifact`)
    The weights never change and a fixed network meets each constant at
    one deterministic ``(level, scale)``, so the artifact installs one
    memoising encoder on the model's evaluator and fills it with a
    shadow forward — every diagonal, bias, mask and PAF constant is
    encoded once: steady-state requests perform zero plaintext encoding.

Admission + workers (:mod:`repro.serve.queue`)
    Requests accumulate per ``(model, client)`` group until that group's
    batch is full or its oldest request has waited ``max_wait_ms``
    (flush-on-timeout); worker threads drain whole groups, each with its
    own evaluator over that tenant's keys.  Admission is bounded: over
    ``max_pending`` a submit sheds (:class:`QueueOverflow`) or, with
    ``block=True``, waits for capacity (backpressure).

Tenant keys (:mod:`repro.serve.keys`)
    :class:`ClientKeyRegistry` derives one CKKS key chain per client and
    generates each client's Galois keys *once* per rotation element
    across all hosted models (shared-step dedup) — two tenants never
    share secrets, yet share the key-independent plaintext memo.

Fault injection (:mod:`repro.serve.faults`)
    :class:`FaultInjector` deterministically scripts worker crashes,
    stalls, poisoned requests and wrong-key submissions against
    submission/batch ordinals; the concurrency suite uses it to pin that
    every failure surfaces as an explicit per-request error while the
    server keeps serving.

Facade + metrics (:mod:`repro.serve.server`, :mod:`repro.serve.metrics`)
    :class:`InferenceServer` is the entry point: ``submit(x, client_id=...,
    model=...)`` returns a future resolving to logits/prediction/latency;
    throughput, latency percentiles, HE-op counts, shed/error counters
    and per-tenant series are aggregated per batch.

Quickstart::

    from repro.fhe import compile_network
    from repro.serve import InferenceServer, ModelArtifact

    artifact = ModelArtifact(compile_network(paf_model, params))
    with InferenceServer(artifact, num_classes=10, max_wait_ms=5) as srv:
        results = srv.predict_many(client_inputs)
    print(srv.metrics.format())

See the ``serve_mixed_open`` workload of ``benchmarks/ladder`` for the
measured latency, capacity and batch fill of a two-tenant server.
"""

from repro.serve.artifact import ModelArtifact, PlaintextCache
from repro.serve.faults import FaultInjector, PoisonedRequestError, WorkerCrashError
from repro.serve.keys import (
    DEFAULT_CLIENT,
    ClientKeyRegistry,
    KeyMismatchError,
    UnknownClientError,
)
from repro.serve.metrics import ServingMetrics, percentile
from repro.serve.queue import (
    DEFAULT_MODEL,
    BatchQueue,
    QueueClosed,
    QueueOverflow,
    Request,
    WorkerPool,
)
from repro.serve.server import InferenceResult, InferenceServer, UnknownModelError

__all__ = [
    "PlaintextCache",
    "ModelArtifact",
    "BatchQueue",
    "QueueClosed",
    "QueueOverflow",
    "Request",
    "WorkerPool",
    "DEFAULT_MODEL",
    "DEFAULT_CLIENT",
    "ClientKeyRegistry",
    "KeyMismatchError",
    "UnknownClientError",
    "UnknownModelError",
    "FaultInjector",
    "WorkerCrashError",
    "PoisonedRequestError",
    "ServingMetrics",
    "percentile",
    "InferenceResult",
    "InferenceServer",
]
