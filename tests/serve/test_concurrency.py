"""Concurrency and fault-injection stress suite for the serving stack.

Two halves:

* **Stub-model stress** — a no-crypto stand-in network whose "logits"
  echo each request's unique id, so lost, duplicated or cross-wired
  responses are directly observable while threads hammer submit /
  shutdown / metrics under seeded schedules.
* **Fault-injection graceful degradation** (real toy MLP) — every
  failure the :class:`~repro.serve.faults.FaultInjector` can script
  (worker crash, poisoned request, key-mismatch submission, queue
  overflow, slow worker) must surface as an *explicit per-request
  error* — never a silent hang — with the server still serving
  afterwards.
"""

import threading
import time
from concurrent.futures import CancelledError
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    FaultInjector,
    InferenceServer,
    KeyMismatchError,
    ModelArtifact,
    PoisonedRequestError,
    QueueOverflow,
    UnknownClientError,
    UnknownModelError,
    WorkerCrashError,
)
from repro.serve.queue import QueueClosed

SEED = 0xC0FFEE


class StubNetwork:
    """No-crypto network: forward is identity (plus optional delay), so
    ``decrypt_logits`` returns each request's own payload and the tests
    can match every response to the exact request that produced it."""

    input_splits = None

    def __init__(self, backend="stub", size=8, max_batch=4, delay=0.0):
        self.size = size
        self.max_batch = max_batch
        self.delay = delay
        self.ctx = SimpleNamespace(backend=SimpleNamespace(name=backend))
        self.ev = SimpleNamespace(encoder=SimpleNamespace())

    def split_input(self, x):
        if len(x) > self.size:  # the door check is the network's
            raise ValueError(f"input dim {len(x)} exceeds layer size {self.size}")
        return [x]

    def encrypt_batch_shards(self, xs, ev=None):
        return [[np.asarray(x) for x in xs]]  # one "shard" holding the batch

    def forward_shards(self, cts, ev=None):
        if self.delay:
            time.sleep(self.delay)
        return cts

    def decrypt_logits(self, xs, num_classes, batch=1, ev=None):
        return np.stack([x[:num_classes] for x in xs])


class StubArtifact(ModelArtifact):
    """The harness's hooks: no key chain to build an evaluator over, so
    workers past 0 get a bare namespace sharing the memo; no executor to
    run a shadow forward through, so the server's warm is a no-op."""

    def fresh_evaluator(self, seed=1):
        return SimpleNamespace(encoder=self.cache)

    def warm(self):
        return self


def _stub_server(models=("a", "b"), workers=3, **kw):
    arts = {
        name: StubArtifact(StubNetwork(backend=f"{name}-backend"))
        for name in models
    }
    defaults = dict(max_wait_ms=1.0, num_workers=workers)
    defaults.update(kw)
    return InferenceServer(arts, num_classes=3, **defaults)


class TestStubStress:
    def test_no_lost_duplicated_or_crossed_responses(self):
        """200 requests from 4 threads across 2 models: every future
        resolves with exactly its own payload, exactly once."""
        rng = np.random.default_rng(SEED)
        per_thread = 50
        with _stub_server() as srv:
            futures = {}
            lock = threading.Lock()

            def client(tid):
                local_rng = np.random.default_rng(SEED + tid)
                for i in range(per_thread):
                    req_id = tid * 1000 + i
                    x = np.full(8, float(req_id))
                    model = "a" if local_rng.random() < 0.5 else "b"
                    fut = srv.submit(x, model=model)
                    with lock:
                        futures[req_id] = (fut, model)

            threads = [
                threading.Thread(target=client, args=(tid,)) for tid in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(futures) == 4 * per_thread  # nothing lost on submit
            for req_id, (fut, model) in futures.items():
                res = fut.result(timeout=30)
                assert res.logits[0] == float(req_id)  # not cross-wired
                assert res.model == model
        snap = srv.metrics.snapshot()
        assert snap["requests_total"] == 4 * per_thread
        assert snap["errors"] == {}
        _ = rng  # seeded schedule documented above

    def test_batches_never_mix_models(self):
        with _stub_server(max_wait_ms=20.0, workers=1) as srv:
            futs = [
                srv.submit(np.full(8, float(i)), model="a" if i % 2 else "b")
                for i in range(8)
            ]
            for i, fut in enumerate(futs):
                res = fut.result(timeout=30)
                assert res.model == ("a" if i % 2 else "b")

    def test_submit_shutdown_race_nobody_hangs(self):
        """Threads submit while another stops the server: every admitted
        future resolves — a result or an explicit error, never a hang."""
        srv = _stub_server(workers=2, max_wait_ms=1.0)
        srv.start()
        futures = []
        lock = threading.Lock()
        stop_now = threading.Event()

        def client(tid):
            i = 0
            while not stop_now.is_set() and i < 500:
                x = np.full(8, float(tid * 1000 + i))
                try:
                    fut = srv.submit(x, model="a")
                except RuntimeError:
                    break  # server stopped: explicit, fine
                with lock:
                    futures.append(fut)
                i += 1

        threads = [threading.Thread(target=client, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        stop_now.set()
        srv.stop(timeout=5.0)
        for t in threads:
            t.join(timeout=5.0)
        srv.stop(timeout=5.0)  # idempotent
        deadline = time.perf_counter() + 10.0
        for fut in futures:
            assert fut.done() or time.perf_counter() < deadline
            try:
                fut.result(timeout=10.0)
            except (QueueClosed, CancelledError):
                pass  # explicit shutdown error — the contract

    def test_metrics_hammering_during_serving(self):
        """Concurrent metrics_text()/snapshot() readers never throw and
        always see a parseable exposition while requests flow."""
        errors = []
        with _stub_server(workers=2) as srv:
            done = threading.Event()

            def reader():
                while not done.is_set():
                    try:
                        text = srv.metrics_text()
                        for line in text.splitlines():
                            assert line.startswith(("#", "repro_serve_"))
                        srv.metrics.snapshot()
                    except Exception as exc:  # noqa: BLE001 - collecting
                        errors.append(exc)
                        return

            readers = [threading.Thread(target=reader) for _ in range(2)]
            for t in readers:
                t.start()
            for i in range(60):
                srv.submit(np.full(8, float(i)), model="a")
            srv.predict(np.full(8, 1.0), model="b")
            done.set()
            for t in readers:
                t.join(timeout=5.0)
        assert errors == []

    def test_overflow_sheds_explicitly_and_recovers(self):
        stub = StubNetwork(delay=0.05, max_batch=1)
        srv = InferenceServer(
            StubArtifact(stub),
            num_classes=3,
            max_wait_ms=1.0,
            num_workers=1,
            max_pending=2,
        )
        with srv:
            admitted, shed = [], 0
            for i in range(12):
                try:
                    admitted.append(srv.submit(np.full(8, float(i))))
                except QueueOverflow:
                    shed += 1
            assert shed > 0  # the bound actually bit
            for fut in admitted:
                fut.result(timeout=30)  # every admitted request completes
            # after the backlog drains the server accepts again
            assert srv.predict(np.full(8, 99.0), timeout=30).logits[0] == 99.0
        snap = srv.metrics.snapshot()
        assert snap["shed_total"] == shed
        assert snap["tenants"]["default/default"]["shed"] == shed

    def test_unknown_model_and_client_rejected_at_the_door(self):
        with _stub_server() as srv:
            with pytest.raises(UnknownModelError):
                srv.submit(np.zeros(8))  # two models hosted: name required
            with pytest.raises(UnknownModelError):
                srv.submit(np.zeros(8), model="nope")
            with pytest.raises(UnknownClientError):
                srv.submit(np.zeros(8), model="a", client_id="ghost")
            with pytest.raises(ValueError):
                srv.submit(np.full(8, np.nan), model="a")
            with pytest.raises(ValueError):
                srv.submit(np.zeros(99), model="a")


class TestFaultInjection:
    """Real toy MLP under scripted faults — deterministic ordinals, no
    clocks, no RNG in the injector."""

    @pytest.fixture()
    def served(self, toy):
        _, enc = toy
        self.faults = FaultInjector()
        srv = InferenceServer(
            ModelArtifact(enc),
            num_classes=3,
            max_wait_ms=2.0,
            num_workers=1,
            fault_injector=self.faults,
        )
        with srv:
            yield srv

    def test_poisoned_request_fails_alone(self, served, toy):
        model, _ = toy
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(SEED)
        xs = [rng.normal(size=8) for _ in range(3)]
        self.faults.poison_request(1)  # the second submission
        futs = served.predict_many(xs[:1])  # batch 0: clean
        fut_poisoned = served.submit(xs[1])
        fut_neighbor = served.submit(xs[2])
        with pytest.raises(PoisonedRequestError):
            fut_poisoned.result(timeout=30)
        # the neighbour sharing the batch still gets correct logits
        res = fut_neighbor.result(timeout=30)
        ref = model(Tensor(xs[2].reshape(1, -1))).data.ravel()
        np.testing.assert_allclose(res.logits, ref, atol=1e-2)
        assert futs[0].logits is not None
        assert served.metrics.snapshot()["errors"]["poisoned"] == 1

    def test_worker_crash_fails_batch_then_recovers(self, served):
        rng = np.random.default_rng(SEED)
        self.faults.crash_worker(1)  # second batch crashes mid-handling
        served.predict(rng.normal(size=8), timeout=30)  # batch 0 fine
        with pytest.raises(WorkerCrashError):
            served.predict(rng.normal(size=8), timeout=30)  # batch 1
        after = served.predict(rng.normal(size=8), timeout=30)  # batch 2
        assert np.all(np.isfinite(after.logits))
        assert served.metrics.snapshot()["errors"]["worker_crash"] == 1
        assert self.faults.stats()["fired"]["crash"] == 1

    def test_key_mismatch_detected_not_garbage(self, served):
        """A batch encrypted under the wrong keys must raise
        KeyMismatchError — not silently return garbage logits."""
        rng = np.random.default_rng(SEED)
        self.faults.mismatch_keys(0)
        with pytest.raises(KeyMismatchError):
            served.predict(rng.normal(size=8), timeout=60)
        # the very next batch (correct keys) serves normally
        res = served.predict(rng.normal(size=8), timeout=60)
        assert np.all(np.isfinite(res.logits))
        assert served.metrics.snapshot()["errors"]["key_mismatch"] == 1

    def test_slow_worker_delays_but_completes(self, served):
        rng = np.random.default_rng(SEED)
        self.faults.slow_worker(0, seconds=0.2)
        t0 = time.perf_counter()
        res = served.predict(rng.normal(size=8), timeout=60)
        assert time.perf_counter() - t0 >= 0.2
        assert np.all(np.isfinite(res.logits))
        assert self.faults.stats()["fired"]["slow"] == 1

    def test_every_fault_is_explicit_and_server_survives_all(self, toy):
        """The acceptance sweep: crash, poison, mismatch and overflow in
        one server lifetime, each surfacing as its own exception class,
        with a clean request served after every injection."""
        _, enc = toy
        # batch ordinals: a fully-poisoned batch never reaches the worker
        # body, so it consumes no ordinal — the crash lands on batch 1
        faults = (
            FaultInjector().poison_request(1).crash_worker(1).mismatch_keys(2)
        )
        srv = InferenceServer(
            ModelArtifact(enc),
            num_classes=3,
            max_wait_ms=2.0,
            num_workers=1,
            fault_injector=faults,
            max_pending=None,
        )
        rng = np.random.default_rng(SEED)
        with srv:
            x = lambda: rng.normal(size=8)  # noqa: E731
            srv.predict(x(), timeout=60)  # batch 0 / submission 0: clean
            with pytest.raises(PoisonedRequestError):
                srv.predict(x(), timeout=60)  # submission 1 poisoned
            with pytest.raises(WorkerCrashError):
                srv.predict(x(), timeout=60)  # batch 2 crashes
            with pytest.raises(KeyMismatchError):
                srv.predict(x(), timeout=60)  # batch 3 wrong keys
            final = srv.predict(x(), timeout=60)
            assert np.all(np.isfinite(final.logits))
        errors = srv.metrics.snapshot()["errors"]
        assert errors == {"poisoned": 1, "worker_crash": 1, "key_mismatch": 1}
        fired = faults.stats()["fired"]
        assert fired == {"poison": 1, "crash": 1, "mismatch": 1}
