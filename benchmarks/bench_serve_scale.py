"""Multi-tenant serving scale: per-request model cost + requests/sec/core.

    PYTHONPATH=src python benchmarks/bench_serve_scale.py [--json PATH]
        [--base BENCH.json] [--skip-wall] [--mlp-requests N] [--resnet-requests N]

The serving half of the CI trend gate.  Two tenants with *distinct*
client keys (via :class:`repro.serve.ClientKeyRegistry`) submit mixed
traffic — the toy MLP and the channel-sharded toy ResNet — into one
:class:`~repro.serve.InferenceServer` worker pool, exercising the whole
multi-tenant path: per-group batching, per-client evaluators over shared
encoding caches, and thread-scheduled shard blocks.

Two kinds of numbers, following ``bench_resnet_forward``'s split:

* ``model_cost_seconds`` (**gated**) — the amortised per-request cost of
  a full SIMD batch: measured HE-op counts of one batched forward at
  capacity, × pinned reference per-op timings
  (:data:`~repro.fhe.latency.REFERENCE_MICROS`), ÷ batch size.
  Deterministic for a given compile, so the ratchet tracks plan/packing
  changes, not machine jitter.  Recorded per served model
  (``serve_mlp_per_request``, ``serve_resnet_per_request``).
* ``requests_per_sec`` / ``requests_per_sec_per_core`` (informational,
  never gated) — measured wall throughput of the mixed two-tenant burst
  on this machine, normalised by ``os.cpu_count()``.

``--base`` merges another benchmark record (e.g. ``bench_resnet.json``)
into the output, so one combined ``current.json`` satisfies
``tools/check_bench_trend.py``'s rule that every model in the history
must be present in the current run.
"""

import argparse
import json
import os
import threading
import time

import numpy as np

from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe.latency import REFERENCE_MICROS, cost_from_counts
from repro.fhe.toy import compiled_toy, compiled_toy_resnet
from repro.serve import (
    ClientKeyRegistry,
    InferenceServer,
    ModelArtifact,
    make_executor,
)

TENANTS = ("tenant_a", "tenant_b")


def per_request_cost(art: ModelArtifact) -> dict:
    """Deterministic amortised cost of one full-capacity batch.

    Counts one batched forward at the model's SIMD capacity on a serial
    :class:`CountingEvaluator` (executors undercount — see
    :mod:`repro.serve.executor`) and divides by the batch size.
    """
    enc = art.model
    ev = CountingEvaluator(enc.ev)
    batch = enc.max_batch
    dim = sum(enc.input_splits or [enc.size])
    cts = enc.encrypt_batch_shards([np.zeros(dim)] * batch, ev=ev)
    ev.reset()
    out = enc.forward_shards(cts, encoded=art.encoded_linear, ev=ev)[0]
    enc.decrypt_logits(out, 3, batch=batch, ev=ev)
    cost = cost_from_counts(ev.counts, REFERENCE_MICROS)
    return {
        "model_cost_seconds": round(cost / batch, 4),
        "batch": batch,
        "keyswitches": ev.keyswitch_count,
        "nonscalar_mults": ev.nonscalar_mult_count,
        "counts": {k: int(v) for k, v in sorted(ev.counts.items())},
    }


def measure_throughput(
    artifacts: dict, mlp_requests: int, resnet_requests: int
) -> dict:
    """Wall clock of a mixed two-tenant burst through one worker pool."""
    registry = ClientKeyRegistry()
    with make_executor("thread") as shard_executor:
        srv = InferenceServer(
            artifacts,
            num_classes=3,
            max_wait_ms=25.0,
            num_workers=2,
            key_registry=registry,
            shard_executor=shard_executor,
        )
        for tenant in TENANTS:
            srv.register_client(tenant)
        rng = np.random.default_rng(0)
        resnet_dim = sum(artifacts["toy_resnet"].model.input_splits or [64])
        plans = []  # (tenant, model, inputs)
        for tenant in TENANTS:
            plans.append(
                (tenant, "toy_mlp", [rng.normal(size=8) for _ in range(mlp_requests)])
            )
            plans.append(
                (
                    tenant,
                    "toy_resnet",
                    [rng.normal(size=resnet_dim) for _ in range(resnet_requests)],
                )
            )
        with srv:
            # warm-up: derive each tenant's chain + per-worker evaluators
            # outside the timed window (one-time serving setup, not
            # steady-state throughput)
            for tenant, model, xs in plans:
                srv.predict(xs[0], client_id=tenant, model=model, timeout=600)

            def burst(tenant, model, xs):
                srv.predict_many(
                    xs, client_id=tenant, model=model, timeout=600
                )

            threads = [
                threading.Thread(target=burst, args=plan) for plan in plans
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
    total = sum(len(xs) for _, _, xs in plans)
    cores = os.cpu_count() or 1
    snapshot = srv.metrics.snapshot()
    assert snapshot["errors"] == {}, f"serving errors during bench: {snapshot['errors']}"
    return {
        "tenants": len(TENANTS),
        "requests": total,
        "wall_seconds": round(wall, 3),
        "requests_per_sec": round(total / wall, 3),
        "requests_per_sec_per_core": round(total / wall / cores, 4),
        "cores": cores,
        "mean_batch_size": round(snapshot["mean_batch_size"], 2),
    }


def bench(
    skip_wall: bool = False, mlp_requests: int = 16, resnet_requests: int = 2
) -> dict:
    artifacts = {
        "toy_mlp": ModelArtifact(compiled_toy()).warm(),
        "toy_resnet": ModelArtifact(compiled_toy_resnet()).warm(),
    }
    records = {
        "serve_mlp_per_request": per_request_cost(artifacts["toy_mlp"]),
        "serve_resnet_per_request": per_request_cost(artifacts["toy_resnet"]),
    }
    if not skip_wall:
        throughput = measure_throughput(artifacts, mlp_requests, resnet_requests)
        for rec in records.values():
            rec.update(throughput)
    return {"models": records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", dest="json_path", help="write the record here")
    parser.add_argument(
        "--base",
        help="merge this benchmark record's models into the output "
        "(one combined file for the trend gate)",
    )
    parser.add_argument(
        "--skip-wall",
        action="store_true",
        help="skip the served burst (deterministic model cost only)",
    )
    parser.add_argument("--mlp-requests", type=int, default=16)
    parser.add_argument("--resnet-requests", type=int, default=2)
    args = parser.parse_args()
    result = bench(
        skip_wall=args.skip_wall,
        mlp_requests=args.mlp_requests,
        resnet_requests=args.resnet_requests,
    )
    if args.base:
        with open(args.base) as fh:
            base = json.load(fh)
        overlap = set(base.get("models", {})) & set(result["models"])
        if overlap:
            raise SystemExit(f"--base record redefines {sorted(overlap)}")
        result["models"].update(base["models"])
    for model, rec in sorted(result["models"].items()):
        line = f"{model}: model_cost={rec.get('model_cost_seconds')}s"
        if "requests_per_sec_per_core" in rec:
            line += (
                f" tenants={rec['tenants']} requests={rec['requests']}"
                f" wall={rec['wall_seconds']}s"
                f" req/s={rec['requests_per_sec']}"
                f" req/s/core={rec['requests_per_sec_per_core']}"
            )
        print(line)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
