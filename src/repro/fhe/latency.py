"""PAF latency measurement under CKKS (the paper's Fig. 1 x-axis, Tab. 4).

The paper measures wall-clock PAF (ReLU) latency in SEAL on a CPU
(N=32768, 881-bit modulus).  Here the same quantity is measured on our
CKKS at a configurable ring size; *relative* latencies across PAF forms —
which track multiplication count and depth — are the reproduced quantity.

This module is the *measuring* half of the cost model: per-op wall-clock
microbenchmarks (:func:`measure_op_micros`, the one price list — taken
from a clock on the box that runs it) and the dot product that turns op
counts into seconds (:func:`cost_from_counts`).  The op counts
themselves are never written down here: they come from running the real
executors over :class:`~repro.ckks.shadow.ShadowEvaluator` ciphertexts
(:meth:`repro.fhe.network.EncryptedNetwork.op_counts`,
:func:`refresh_op_counts`), so modeled and measured counts cannot drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    ShadowCiphertext,
    ShadowEvaluator,
    eval_paf_relu,
    keygen,
    refresh,
)
from repro.ckks.instrumentation import CountingEvaluator
from repro.ckks.poly_plan import plan_paf_relu
from repro.paf.polynomial import CompositePAF
from repro.paf.relu import relu_mult_depth

__all__ = [
    "LatencyResult",
    "cost_from_counts",
    "measure_relu_latency",
    "measure_op_micros",
    "refresh_op_counts",
]


@dataclass
class LatencyResult:
    """Measured encrypted-ReLU latency for one PAF form."""

    paf_name: str
    reported_degree: int
    mult_depth: int
    seconds: float
    levels_consumed: int
    max_error: float


_SHARED: dict = {}


def shared_runtime(params: CkksParams):
    """Context+keys+evaluator cache (keygen dominates small benchmarks).

    Keyed on the frozen ``params`` itself: two parameter sets that differ
    in backend, scale tracking or prime widths never share an evaluator.
    """
    if params not in _SHARED:
        ctx = CkksContext(params)
        keys = keygen(ctx, seed=0)
        _SHARED[params] = (ctx, keys, CkksEvaluator(ctx, keys))
    return _SHARED[params]


def measure_relu_latency(
    paf: CompositePAF,
    params: CkksParams | None = None,
    repeats: int = 1,
) -> LatencyResult:
    """Wall-clock encrypted PAF-ReLU latency (median of ``repeats``
    warm calls: one untimed call first keeps the first call's costs —
    plan and encoding caches, cold CPU caches — out of every sample)."""
    params = params or CkksParams(n=2048, scale_bits=25, depth=relu_mult_depth(paf) + 1)
    if params.depth < relu_mult_depth(paf):
        raise ValueError(
            f"context depth {params.depth} < required {relu_mult_depth(paf)}"
        )
    ctx, _, ev = shared_runtime(params)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, ctx.slots)
    ct = ev.encrypt(x)
    plan = plan_paf_relu(paf)
    times = []
    out = eval_paf_relu(ev, ct, paf, plan=plan)  # untimed: warms the samples below
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = eval_paf_relu(ev, ct, paf, plan=plan)
        times.append(time.perf_counter() - t0)
    got = ev.decrypt(out)
    ref = 0.5 * (x + paf(x) * x)
    return LatencyResult(
        paf_name=paf.name,
        reported_degree=paf.reported_degree,
        mult_depth=paf.mult_depth,
        seconds=float(np.median(times)),
        levels_consumed=ctx.max_level - out.level,
        max_error=float(np.max(np.abs(got - ref))),
    )


def measure_op_micros(params: CkksParams, repeats: int = 3) -> dict:
    """Per-op wall-clock microbenchmarks (seconds) for the cost model."""
    ctx, _, ev = shared_runtime(params)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, ctx.slots)
    a = ev.encrypt(x)
    b = ev.encrypt(x)

    def timeit(fn):
        fn()  # untimed: lazy per-level tables and caches fill here
        ts = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return float(np.median(ts))

    out = {}
    out["ct_mult"] = timeit(lambda: ev.mul(a, b))
    out["pt_mult"] = timeit(lambda: ev.mul_plain(a, 0.5))
    product = ev.mul(a, b)
    out["rescale"] = timeit(lambda: ev.rescale(product))
    out["add"] = timeit(lambda: ev.add(a, b))
    # rotation costs for the matvec cost model: a standalone keyswitched
    # rotation, the shared digit decomposition timed on its own call, and
    # the marginal cost of one rotation inside a hoisted batch (key inner
    # product + P-descent): the batch less its one decomposition, per step
    # — separated so the model can charge the decomposition once per
    # matvec rather than amortised over an arbitrary batch size
    hoist_batch = 8
    ev.keys.ensure_galois_steps(ctx, tuple(range(1, hoist_batch + 1)))
    out["rotate"] = timeit(lambda: ev.rotate(a, 1))
    out["hoist_decompose"] = timeit(lambda: ctx.backend.hoist_decompose(a.data[1], a.level))
    t_batch = timeit(lambda: ev.rotate_many(a, range(1, hoist_batch + 1)))
    out["rotate_hoisted"] = (t_batch - out["hoist_decompose"]) / hoist_batch
    return out


def cost_from_counts(counts: dict, micros: dict) -> float:
    """Shared dot product of op counts × per-op seconds; unpriced ops
    cost nothing."""
    return sum(n * micros.get(op, 0.0) for op, n in counts.items())


def refresh_op_counts(plan) -> dict:
    """Homomorphic op counts of one level refresh under ``plan``.

    ``plan`` is a :class:`repro.ckks.bootstrap.RefreshPlan`; the counts
    are those of :func:`repro.ckks.bootstrap.refresh` itself, run over a
    :class:`~repro.ckks.shadow.ShadowEvaluator` under the
    :class:`~repro.ckks.instrumentation.CountingEvaluator` a measured
    refresh would use — ``tests/ckks/test_bootstrap.py`` holds the two
    equal.  Both methods pay the precision gate's two decryptions.
    ``recrypt``'s re-encode at the top of the chain is an encoder call no
    evaluator proxy sees; it is booked here as one ``encrypt``, whose cost
    the canonical-embedding encode dominates.
    """
    ctx = plan.ctx
    counting = CountingEvaluator(ShadowEvaluator(ctx))
    refresh(counting, ShadowCiphertext(0, ctx.canonical_scale(0)), plan)
    counts = {op: n for op, n in counting.counts.items() if n}
    if plan.method == "recrypt":
        counts["encrypt"] = 1
    return counts
