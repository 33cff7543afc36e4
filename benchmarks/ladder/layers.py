"""The traced run: per-layer metrics, measured from outside the program.

Every layer is timed through its public functions — direct calls on
``ctx.backend``, ``repro.fhe.latency.measure_op_micros``, the
``TracingEvaluator`` / ``CountingEvaluator`` proxies passed as ``ev=``,
``ServingMetrics`` snapshots.  New spans *inside* the program are a
later change; the spans recorded here are the benchmark's own, opened
around its calls into each layer.

Each declared per-layer metric is measured by the one workload that
exercises it (kernels on the transformer's 34-limb stack by
``transformer_forward``, the queue by ``serve_mixed_open``, …):
``declaration.owner`` reads that workload off the metric's name, and
:func:`traced_run` checks that a run measured its own metrics and no
others.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import declaration
import numpy as np
import samples
import workloads as wl

from repro.analysis.tables import format_table
from repro.ckks import CkksContext, CkksEvaluator, keygen
from repro.ckks.instrumentation import CountingEvaluator
from repro.ckks.poly_plan import plan_paf_relu
from repro.fhe.latency import cost_from_counts, measure_op_micros
from repro.obs import TRACE_FORMAT, Tracer, TracingEvaluator

__all__ = ["traced_run"]

#: calls behind every µs / ms median
CALLS = 15
#: seeded residue stacks each kernel is timed on
KERNEL_STACKS = 20
BACKENDS = ("reference", "vectorized")

#: ``measure_op_micros`` keys -> the ``CountingEvaluator`` op they price
MICROS_TO_COUNTS = {
    "ct_mult": "mul",
    "pt_mult": "mul_plain",
    "rescale": "rescale",
    "add": "add",
    "rotate": "rotate",
    "rotate_hoisted": "rotate_hoisted",
    "hoist_decompose": "hoist_decompose",
}

#: layer-span node kinds reported per model; the rest (residual taps,
#: shard reduces — microseconds) fold into ``other``
NODE_KINDS = {
    "toy_resnet": ("linear", "paf", "merge", "pool"),
    "toy_transformer": ("linear", "attention", "merge", "poly"),
}


def _median_time(fn, calls: int = CALLS) -> float:
    """Median seconds of ``calls`` calls (after one untimed call)."""
    fn()
    laps = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return samples.median(laps)


def _digest(out) -> bytes:
    """Content hash of a kernel's output (an array or a tuple of them)."""
    h = hashlib.blake2b(digest_size=16)
    for arr in out if isinstance(out, tuple) else (out,):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


# ----------------------------------------------------------------------
# ckks: kernels, evaluator ops, encoder, keys
# ----------------------------------------------------------------------
def kernel_metrics(ctx, relin, stack: str, seed: int) -> dict:
    """``ckks.backend.<b>.<stack>.*``: each kernel on the context's
    top-level limb stack, under both backends, on the same seeded
    residues — and the outputs asserted bit-identical across backends."""
    level = ctx.max_level
    limbs = level + 1
    chain = list(range(limbs))
    primes = np.array([int(p) for p in ctx.all_primes[:limbs]], dtype=np.int64)[:, None]
    rng = np.random.default_rng(seed)
    stacks = [rng.integers(0, primes, size=(limbs, ctx.n)) for _ in range(KERNEL_STACKS)]
    key_b, key_a = relin.stacked_at_level(level)
    original = ctx.backend.name
    laps: dict = {}
    digests: dict = {}

    def timed(backend: str, kernel: str, stack: int, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        laps.setdefault((backend, kernel), []).append(time.perf_counter() - t0)
        digest = _digest(out)
        if digests.setdefault((kernel, stack), digest) != digest:
            raise AssertionError(
                f"{kernel} on stack {stack}: {backend} output differs from {BACKENDS[0]} "
                "(backends must be bit-identical)"
            )
        return out

    try:
        for name in BACKENDS:
            be = ctx.set_backend(name)
            for i, rows in enumerate(stacks):
                ntt = timed(name, "ntt_forward", i, be.ntt_forward, rows, chain)
                timed(name, "ntt_inverse", i, be.ntt_inverse, ntt, chain)
                digits = timed(name, "hoist_decompose", i, be.hoist_decompose, rows, level)
                timed(name, "apply_keyswitch", i, be.apply_keyswitch, digits, key_b, key_a, level)
                timed(name, "rescale", i, be.rescale, rows, level)
    finally:
        ctx.set_backend(original)
    out = {
        f"ckks.backend.{name}.{stack}.{kernel}_us": samples.median(values) * 1e6
        for (name, kernel), values in laps.items()
    }
    stages = int(math.log2(ctx.n))
    # computed from the shapes, not measured: one NTT of the stack
    out[f"ckks.backend.{stack}.ntt_butterflies"] = limbs * (ctx.n // 2) * stages
    out[f"ckks.backend.{stack}.ntt_bytes_computed"] = limbs * ctx.n * 8 * 2 * stages
    return out


def ckks_metrics(params, pname: str, stack: str, seed: int) -> tuple:
    """Everything below ``repro.fhe`` for one parameter set; returns the
    metrics and the per-op seconds keyed like ``CountingEvaluator``
    counts (the cost model's price list)."""
    ctx = CkksContext(params)
    t0 = time.perf_counter()
    keys = keygen(ctx, seed=0)
    out = {f"ckks.keys.{pname}.keygen_s": time.perf_counter() - t0}
    ev = CkksEvaluator(ctx, keys)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, ctx.slots)
    ct = ev.encrypt(x)
    out[f"ckks.encoder.{pname}.encode_ms"] = (
        _median_time(lambda: ev.encoder.encode(x, ctx.max_level)) * 1e3
    )
    prices = {
        "encrypt": _median_time(lambda: ev.encrypt(x)),
        "decrypt": _median_time(lambda: ev.decrypt(ct)),
    }
    micros = measure_op_micros(params, repeats=CALLS)
    for op, seconds in micros.items():
        out[f"ckks.evaluator.{pname}.{op}_ms"] = seconds * 1e3
        prices[MICROS_TO_COUNTS[op]] = seconds
    for op in ("encrypt", "decrypt"):
        out[f"ckks.evaluator.{pname}.{op}_ms"] = prices[op] * 1e3
    prices["add_plain"] = prices["sub"] = prices["add"]
    out.update(kernel_metrics(ctx, keys.relin, stack, seed))
    return out, prices


# ----------------------------------------------------------------------
# fhe: one traced forward, attributed by node kind
# ----------------------------------------------------------------------
def _keyswitches(ops: dict) -> int:
    return sum(ops.get(k, 0) for k in ("rotate", "rotate_hoisted", "conjugate", "mul"))


def node_breakdown(trace: dict, model: str) -> tuple:
    """Per-node-kind seconds of the executor's forward span.

    Layer spans are siblings under the forward root, so their durations
    partition it; what they leave uncovered is the executor's own loop.
    Returns ``(rows, forward_seconds, attributed_share)`` with one row
    ``(kind, seconds, share, keyswitches, nonscalar mults)`` per kind.
    """
    spans = trace["spans"]
    root = next(sp for sp in spans if sp["kind"] == "forward")
    layers = [sp for sp in spans if sp["parent"] == root["id"] and sp["kind"] == "layer"]
    total = root["duration_ms"] / 1e3
    by_kind: dict = {}
    for sp in layers:
        kind = sp["name"].split(":", 1)[1]
        if kind not in NODE_KINDS[model]:
            kind = "other"
        row = by_kind.setdefault(kind, [0.0, 0, 0])
        row[0] += sp["duration_ms"] / 1e3
        row[1] += _keyswitches(sp["ops"])
        row[2] += sp["ops"].get("mul", 0)
    for kind in (*NODE_KINDS[model], "other"):  # a kind with no span still has a row
        by_kind.setdefault(kind, [0.0, 0, 0])
    rows = [
        (kind, sec, sec / total, ks, mults)
        for kind, (sec, ks, mults) in sorted(by_kind.items(), key=lambda kv: -kv[1][0])
    ]
    attributed = sum(sp["duration_ms"] for sp in layers) / root["duration_ms"]
    return rows, total, attributed


def forward_metrics(name: str, seed: int, sizing, t_start: float, trace_dir) -> tuple:
    """``fhe.*`` for one forward workload (+ ``ckks.*`` on the
    transformer's parameter set, whose 34-limb stack is the deepest)."""
    w = wl.ForwardWorkload(name, seed)
    m = w.model_name
    warm_s, _ = w.operation()
    setup_s = time.perf_counter() - t_start
    loop = wl.closed_loop(w.operation, 0.0, sizing.baseline_ops)
    untraced = samples.median(loop.durations)

    counting = CountingEvaluator(w.enc.ev)
    tracer = Tracer(ctx=w.enc.ctx, counts=counting.counts)
    tev = TracingEvaluator(counting, tracer=tracer)
    with tracer.span("operation", kind="bench", workload=name, seed=seed):
        traced_s, traced_ok = w.operation(
            ev=tev, span=lambda part: tracer.span(part, kind="bench")
        )
    trace = tracer.to_dict(meta={"model": m, "workload": name})
    if trace_dir:
        declaration.write_json(Path(trace_dir) / f"trace_{name}.json", trace)
    counts = dict(counting.counts)
    rows, forward_s, attributed = node_breakdown(trace, m)

    out = {
        f"fhe.ir.{m}.compile_s": w.compile_s,
        f"fhe.network.{m}.forward_traced_s": traced_s,
        f"fhe.network.{m}.trace_overhead_share": traced_s / untraced - 1.0,
        f"fhe.network.{m}.attributed_share": attributed,
        f"fhe.network.{m}.warm_forward_extra_s": warm_s - untraced,
        f"fhe.network.{m}.keyswitches": counting.keyswitch_count,
        f"fhe.network.{m}.nonscalar_mults": counting.nonscalar_mult_count,
        f"fhe.network.{m}.rescales": counts.get("rescale", 0),
        f"fhe.network.{m}.rotations_hoisted_share": counts.get("rotate_hoisted", 0)
        / max(1, counts.get("rotate_hoisted", 0) + counts.get("rotate", 0)),
        f"fhe.network.{m}.max_rel_err": w.worst_rel_err,
    }
    for kind, sec, _share, _ks, _mults in rows:
        out[f"fhe.node.{m}.{kind}_s"] = sec

    params = w.enc.ctx.params
    if m == "toy_transformer":
        ckks, prices = ckks_metrics(params, "toy_transformer", "n512_l34", seed)
        out.update(ckks)
    else:  # price list only: the ResNet's own parameter set is not a reported <p>
        prices = {MICROS_TO_COUNTS[op]: s for op, s in measure_op_micros(params).items()}
    predicted = cost_from_counts(counts, prices)
    out[f"fhe.latency.{m}.predicted_over_measured"] = predicted / untraced

    table = format_table(
        ["node kind", "self s", "share", "keyswitches", "nonscalar mults"],
        [(k, round(s, 4), f"{100 * sh:.1f}%", ks, mu) for k, s, sh, ks, mu in rows],
        title=(
            f"{m}: forward {forward_s:.3f} s traced, attributed_share {attributed:.4f}, "
            f"predicted_over_measured {predicted / untraced:.3f}"
        ),
    )
    failed = loop.failed + (not traced_ok)
    record = {
        "attempted": loop.attempted + 1,
        "failed": failed,
        "detail": {
            "setup_s": setup_s,
            "untraced_p50_s": untraced,
            "untraced_samples": len(loop.durations),
            "counts": {k: int(v) for k, v in sorted(counts.items())},
            "node_table": [
                {"kind": k, "self_s": s, "share": sh, "keyswitches": ks, "nonscalar_mults": mu}
                for k, s, sh, ks, mu in rows
            ],
        },
        "tables": [table],
    }
    return out, record


# ----------------------------------------------------------------------
# ckks.poly_eval / poly_plan: the sweep
# ----------------------------------------------------------------------
def sweep_metrics(seed: int, sizing, t_start: float, trace_dir) -> tuple:
    w = wl.PafSweep(seed, sizing)
    w.operation()
    setup_s = time.perf_counter() - t_start
    loop = wl.closed_loop(w.operation, 0.0, sizing.min_ops(w.name))
    # one counted, traced pass: poly_eval opens a paf:relu span per form
    counting = CountingEvaluator(w.ev)
    tracer = Tracer(ctx=w.ctx, counts=counting.counts)
    tev = TracingEvaluator(counting, tracer=tracer)
    with tracer.span("operation", kind="bench", workload=w.name, seed=seed):
        _, traced_ok = w.operation(ev=tev)
    trace = tracer.to_dict(meta={"workload": w.name})
    if trace_dir:
        declaration.write_json(Path(trace_dir) / f"trace_{w.name}.json", trace)
    relu_spans = [sp for sp in trace["spans"] if sp["name"] == "paf:relu"]
    out = {}
    for form, sp in zip(w.names, relu_spans):  # [1:-1]: neither the warm-up nor the traced pass
        out[f"ckks.poly_eval.{form}.relu_s"] = samples.median(w.form_seconds[form][1:-1])
        out[f"ckks.poly_eval.{form}.nonscalar_mults"] = sp["ops"].get("mul", 0)
        out[f"ckks.poly_eval.{form}.max_abs_err"] = w.max_abs_err[form]
    out["ckks.poly_plan.plan_all_ms"] = (
        _median_time(lambda: [plan_paf_relu(paf) for paf in w.pafs]) * 1e3
    )
    if not sizing.smoke:
        ckks, _ = ckks_metrics(wl.SWEEP_PARAMS, "paf_sweep", "n2048_l10", seed)
        out.update(ckks)
    record = {
        "attempted": loop.attempted + 1,
        "failed": loop.failed + (not traced_ok),
        "detail": {"setup_s": setup_s, "untraced_p50_s": samples.median(loop.durations)},
    }
    return out, record


# ----------------------------------------------------------------------
# serve: queue, server, keys, artifact — and the generator's own lag
# ----------------------------------------------------------------------
def _fill_share(phase, capacity: dict) -> float:
    """Requests served over the SIMD slots of the batches that carried them."""
    used = slots = 0
    for key, stats in phase.server["tenants"].items():
        model = key.split("/", 1)[0]
        used += stats["requests"]
        slots += stats["batches"] * capacity[model]
    return used / slots if slots else 0.0


def request_trace(phase, name: str) -> dict:
    """The benchmark's own request spans (due → submit → done), one id
    per request, as a ``repro-trace-v1`` document."""
    spans = []
    for rec in phase.records:
        if rec.done_s is None:
            continue
        model, tenant, row = rec.payload
        root = len(spans)
        base = {"kind": "bench", "ops": {}, "entry": None, "exit": None}
        spans.append(
            dict(
                base,
                id=root,
                parent=None,
                name="request",
                start_ms=rec.due_s * 1e3,
                duration_ms=(rec.done_s - rec.due_s) * 1e3,
                attrs={"request": rec.index, "model": model, "tenant": tenant, "row": row,
                       "failed": rec.error is not None},
            )
        )
        for part, lo, hi in (("due->submit", rec.due_s, rec.submitted_s),
                             ("submit->done", rec.submitted_s, rec.done_s)):
            spans.append(
                dict(
                    base,
                    id=len(spans),
                    parent=root,
                    name=part,
                    start_ms=lo * 1e3,
                    duration_ms=(hi - lo) * 1e3,
                    attrs={"request": rec.index},
                )
            )
    return {"format": TRACE_FORMAT, "model": name, "spans": spans}


def serve_metrics(seed: int, sizing, t_start: float, trace_dir) -> tuple:
    w = wl.ServeMixedOpen(seed, sizing)
    try:
        w.start()
        setup_s = time.perf_counter() - t_start
        phases = {"open": w.open_phase(), "burst": w.burst_phase()}
        capacity = {name: art.model.max_batch for name, art in w.artifacts.items()}
        out = {
            "serve.keys.register_client_s": samples.median(w.register_s),
            "serve.metrics.shed_total": sum(p.server["shed_total"] for p in phases.values()),
            "serve.metrics.errors_total": sum(
                sum(p.server["errors"].values()) for p in phases.values()
            ),
        }
        stats = w.registry.stats()
        out["serve.keys.galois_reused_share"] = stats["galois_reused"] / max(
            1, stats["galois_reused"] + stats["galois_generated"]
        )
        for name in w.artifacts:
            out[f"fhe.ir.{name}.compile_s"] = w.compile_s[name]
            out[f"serve.artifact.{name}.warm_s"] = w.warm_s[name]
        hits = sum(a.cache.hits for a in w.artifacts.values())
        misses = sum(a.cache.misses for a in w.artifacts.values())
        out["serve.artifact.cache_hit_rate"] = hits / max(1, hits + misses)
        for pname, phase in phases.items():
            out[f"serve.queue.{pname}.mean_batch_size"] = float(np.mean(phase.batch_sizes))
            out[f"serve.queue.{pname}.batch_fill_share"] = _fill_share(phase, capacity)
            out[f"serve.server.{pname}.batch_s_p50"] = samples.median(phase.batch_seconds)
        open_phase = phases["open"]
        sizes = np.asarray(open_phase.batch_sizes, dtype=np.float64)
        in_batch = float(np.dot(sizes, open_phase.batch_seconds) / sizes.sum())
        latencies = open_phase.latencies
        out["serve.queue.open.wait_mean_s"] = float(np.mean(latencies)) - in_batch
        out["serve.server.open.busy_share"] = sum(open_phase.batch_seconds) / (
            2 * open_phase.wall_s
        )
        out["serve.request.open.latency_p50_s"] = samples.median(latencies)
        try:
            out["serve.request.open.latency_p90_s"] = samples.percentile(latencies, 90)
        except samples.TooFewSamples:
            pass  # a smoke-sized phase supports no tail: the metric is left out
        out["bench.generator.lag_p50_s"] = samples.median(open_phase.lags)
        out["bench.generator.lag_max_s"] = max(open_phase.lags)
        if trace_dir:
            declaration.write_json(Path(trace_dir) / "trace_serve_requests.json", request_trace(open_phase, w.name))
    finally:
        w.stop()
    # client-boundary cost per model, outside the server
    for name, art in w.artifacts.items():
        enc = art.model
        xs = [row.ravel() for row in w.pools[name][: enc.max_batch]]
        ct = art.forward(enc.encrypt_batch(xs))
        out[f"serve.server.{name}.encrypt_ms"] = _median_time(lambda: enc.encrypt_batch(xs)) * 1e3
        out[f"serve.server.{name}.decrypt_ms"] = (
            _median_time(lambda: enc.decrypt_logits(ct, 3, batch=len(xs))) * 1e3
        )
    detail = {
        "setup_s": setup_s,
        "open_requests": len(latencies),
        "open_rate_per_s": wl.OPEN_RATE_PER_S,
    }
    try:  # 200 requests (--seconds >= 67) support the tail the issue asked for
        detail["open_latency_p95_s"] = samples.percentile(latencies, 95)
    except samples.TooFewSamples as exc:
        detail["open_latency_p95_refused"] = str(exc)
    if trace_dir:
        detail["traced_requests"] = traced_serving(w, trace_dir)
    record = {"attempted": w.attempted, "failed": w.failed, "detail": detail}
    return out, record


def traced_serving(w, trace_dir, count: int = 40) -> int:
    """``count`` requests through ``InferenceServer(trace=True)``; keeps
    the server's last batch trace and the requests' own spans."""
    w.start(trace=True)
    try:
        phase = w.open_phase(count)
        last = w.server.last_trace
    finally:
        w.stop()
    declaration.write_json(Path(trace_dir) / "trace_serve_traced_requests.json", request_trace(phase, w.name))
    if last is not None:
        declaration.write_json(Path(trace_dir) / "trace_serve_last_batch.json", last)
    return len(phase.records)


# ----------------------------------------------------------------------
def traced_run(name: str, seed: int, sizing, t_start: float, trace_dir=None) -> dict:
    """The per-layer metrics one workload measures (``declaration.owned``)."""
    if name == "paf_relu_sweep":
        measured, record = sweep_metrics(seed, sizing, t_start, trace_dir)
    elif name == "serve_mixed_open":
        measured, record = serve_metrics(seed, sizing, t_start, trace_dir)
    else:
        measured, record = forward_metrics(name, seed, sizing, t_start, trace_dir)
    owned = declaration.owned(name)
    stray = sorted(set(measured) - owned)
    if stray:
        raise AssertionError(f"{name} measured metrics it does not own: {stray}")
    missing = sorted(owned - set(measured))
    if missing and not sizing.smoke:  # a smoke run skips what its sizing cannot support
        raise AssertionError(f"{name} did not measure its metrics: {missing}")
    record["metrics"] = measured
    record.setdefault("tables", [])
    return record
