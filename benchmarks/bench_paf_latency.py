"""Per-PAF encrypted-ReLU latency (the §5.1 latency evaluation) and the
cost model cross-check, plus the matvec rotation/keyswitch cost model
(naive plan vs BSGS with hoisted baby steps).

Both cost tables price *shadow* op counts — the real executors run over
:class:`repro.ckks.ShadowEvaluator` ciphertexts under a
``CountingEvaluator`` — so they describe the path the evaluator actually
takes (Paterson–Stockmeyer plans; naive-planned blocks as one hoisted
group), not a formula beside it."""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.ckks import CkksParams, ShadowEvaluator, eval_paf_relu
from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe import (
    encrypted_matvec_shards,
    measure_op_micros,
    measure_relu_latency,
    plan_matvec,
)
from repro.fhe.latency import cost_from_counts, shared_runtime
from repro.fhe.linear import bsgs_diagonals
from repro.paf import get_paf, minimax_alpha10_deg27

PARAMS = CkksParams(n=2048, scale_bits=25, depth=12)
FORMS = ["f1f1g1g1", "alpha7", "f2g3", "f2g2", "f1g2"]

#: ``measure_op_micros`` keys -> the ``CountingEvaluator`` op they price
_COUNTED_AS = {"ct_mult": "mul", "pt_mult": "mul_plain"}


def _prices() -> dict:
    """Measured per-op seconds, keyed in the counting vocabulary."""
    return {_COUNTED_AS.get(op, op): s for op, s in measure_op_micros(PARAMS).items()}


def _shadow_counts(run) -> dict:
    """Op counts of ``run(ev, ct)`` over a shadow ciphertext."""
    counting = CountingEvaluator(ShadowEvaluator(shared_runtime(PARAMS)[0]))
    ct = counting.encrypt(None)
    counting.reset()
    run(counting, ct)
    return counting.counts


@pytest.mark.parametrize("form", FORMS)
def bench_paf_relu_latency(benchmark, form):
    paf = get_paf(form)
    result = benchmark.pedantic(
        lambda: measure_relu_latency(paf, PARAMS), rounds=1, iterations=1
    )
    assert result.levels_consumed == paf.mult_depth + 1


def bench_paf_cost_model(benchmark, artifact):
    prices = benchmark.pedantic(_prices, rounds=1, iterations=1)
    rows = []
    pafs = [minimax_alpha10_deg27()] + [get_paf(f) for f in FORMS]
    for paf in pafs:
        counts = _shadow_counts(lambda ev, ct, paf=paf: eval_paf_relu(ev, ct, paf))
        rows.append(
            [
                paf.name,
                counts["mul"],
                counts["mul_plain"],
                counts["rescale"],
                cost_from_counts(counts, prices),
            ]
        )
    artifact(
        "paf_cost_model.txt",
        format_table(
            ["form", "ct mults", "pt mults", "rescales", "est. seconds"],
            rows,
            title="Encrypted-ReLU cost model (shadow op counts x measured per-op)",
        ),
    )
    # cost model ordering matches depth ordering: alpha10 most expensive
    assert rows[0][-1] == max(r[-1] for r in rows)


def bench_matvec_cost_model(benchmark, artifact):
    """Naive-plan (run as one hoisted group) vs BSGS keyswitch counts and
    estimated seconds per dense encrypted matvec — the linear-layer half
    of the forward-pass cost."""
    prices = benchmark.pedantic(_prices, rounds=1, iterations=1)
    rows = []
    for size in (16, 64, 256, 1024):
        plan = plan_matvec(range(size), size)
        # the counts depend on the group structure only, never the values
        diags = dict.fromkeys(range(size), np.zeros(1))
        naive, bsgs = (
            _shadow_counts(
                lambda ev, ct, g=groups: encrypted_matvec_shards(ev, [ct], [[g]])
            )
            for groups in ({0: diags}, bsgs_diagonals(diags, plan))
        )
        naive_seconds = cost_from_counts(naive, prices)
        bsgs_seconds = cost_from_counts(bsgs, prices)
        rows.append(
            [
                size,
                naive["rotate_hoisted"],
                f"{plan.bsgs_keyswitches} ({bsgs['rotate_hoisted']}h+{bsgs['rotate']}g)",
                f"{naive_seconds:.3f}",
                f"{bsgs_seconds:.3f}",
                f"{naive_seconds / bsgs_seconds:.1f}x",
            ]
        )
        assert plan.use_bsgs and plan.bsgs_keyswitches < plan.naive_keyswitches
    artifact(
        "matvec_cost_model.txt",
        format_table(
            ["size", "naive keyswitch", "bsgs keyswitch", "naive est. s", "bsgs est. s", "speedup"],
            rows,
            title="Encrypted matvec cost model: naive plan (one hoisted group) "
            "vs BSGS+hoisting",
        ),
    )
