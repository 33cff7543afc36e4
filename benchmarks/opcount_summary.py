"""HE-op-count summary: per-layer plans + full-forward + activation counts.

Run by CI (and uploadable as a job artifact) so every PR shows the
hot-path rotation/keyswitch/nonscalar-mult budget at a glance:

    PYTHONPATH=src python benchmarks/opcount_summary.py [outfile] [--json PATH]

Prints (and optionally writes) the per-block BSGS matvec plans of the
pinned models — toy MLP, trained toy CNN, toy ResNet, toy transformer —
the measured op counts of one encrypted forward on each, and the
per-registry-PAF activation op counts (a shadow run of ``eval_paf_relu``:
no keys, milliseconds).

``--json`` additionally writes the machine-readable per-model counts
that ``tools/check_opcounts.py`` gates against
``benchmarks/opcount_baseline.json``: a >2% keyswitch, nonscalar-mult or
NTT-row regression on any pinned model fails CI.  ``ntt_rows`` is the
structural meter below the op counts — residue rows through a forward or
inverse NTT during the forward, booked per kernel call from its shapes by
:class:`repro.ckks.instrumentation.RowCountingBackend`, which passes every
call through unchanged, so the metered forward makes the production
forward's kernel calls: exact, repeatable and backend-invariant, it sees
the decompositions and divide-by-``P`` descents that ``keyswitches``
cannot tell apart.

``--trace-dir DIR`` wraps each measured forward in a
:class:`repro.obs.TracingEvaluator` and writes one execution trace
(``repro-trace-v1`` JSON) per model — ``trace_toy_mlp.json``,
``trace_toy_cnn.json``, ``trace_toy_resnet.json``,
``trace_toy_transformer.json``, ``trace_toy_transformer_stacked.json``
(the refresh demo; its mid-chain level raise is legal only inside the
``refresh:recrypt`` span) — which CI validates
(``tools/check_trace.py``), slack-gates (``tools/check_slack.py``) and
uploads as artifacts.  Tracing is non-perturbing, so the gated counts
are identical with or without it.
"""

import argparse
import json
import os

import numpy as np

from repro.analysis.tables import format_table
from repro.ckks import CkksContext, CkksParams, ShadowEvaluator, eval_paf_relu
from repro.ckks.backend import available_backends
from repro.ckks.instrumentation import CountingEvaluator, RowCountingBackend
from repro.ckks.poly_plan import plan_paf_relu
from repro.fhe.toy import (
    compiled_toy,
    compiled_toy_cnn,
    compiled_toy_resnet,
    compiled_toy_transformer,
)
from repro.obs import TracingEvaluator
from repro.paf import paper_pafs


def plan_table(enc, title: str) -> str:
    """Per-block matvec plans: every linear layer / merge projection is a
    ``K_out x K_in`` grid (1 x 1 for a single-ciphertext layer).

    ``giant rot`` is what the block's giant steps *execute* as: an
    output shard rotates each nonzero giant step once, on the inner
    products summed over every input shard that has it, so a step is
    booked on the first block of its row that names it and the column
    sums to the standalone rotations one pass over the grids pays (a
    forward's ``rotate`` count minus its replications and tree steps).
    """
    rows = []
    for li, grid in sorted(enc.matvec_plans.items()):
        kind = enc.layers[li].kind
        for j, row in enumerate(grid):
            booked: set = set()
            for i, p in enumerate(row):
                if p is None:
                    continue
                giants = {g for g in p.giant_steps if g}
                rows.append(
                    [
                        f"{li} ({kind})",
                        f"{j}<-{i}",
                        p.num_diagonals,
                        f"{p.n1}x{p.n2}",
                        p.keyswitches,
                        len(giants - booked),
                    ]
                )
                booked |= giants
    return format_table(
        ["layer", "block", "diagonals", "n1 x n2", "keyswitches", "giant rot"],
        rows,
        title=title,
    )


def activation_count_table() -> str:
    """Per-registry-PAF op counts of one encrypted ReLU: the executor run
    over shadow ciphertexts, beside the plan each component compiled to."""
    rows = []
    for paf in paper_pafs(include_alpha10=True):
        plan = plan_paf_relu(paf)
        params = CkksParams(n=64, scale_bits=25, depth=plan.mult_depth)
        counting = CountingEvaluator(ShadowEvaluator(CkksContext(params)))
        eval_paf_relu(counting, counting.encrypt(None), paf, plan=plan)
        rows.append(
            [
                paf.name,
                paf.reported_degree,
                plan.mult_depth,
                counting.counts["mul"],
                counting.counts["mul_plain"],
                counting.counts["rescale"],
                counting.counts["align_correction"],
                " ".join(f"{p.shape[:3]}/w{p.window}" for p in plan.components),
            ]
        )
    return format_table(
        ["PAF", "degree", "depth", "ct*ct", "pt*ct", "rescales", "aligns", "per-component"],
        rows,
        title="Encrypted-ReLU op counts per registry PAF (shadow run of eval_paf_relu)",
    )


def _trace_to(trace_dir: str | None, model: str) -> str | None:
    if trace_dir is None:
        return None
    os.makedirs(trace_dir, exist_ok=True)
    return os.path.join(trace_dir, f"trace_{model}.json")


def measure_forward(enc, in_dim: int, trace_path: str | None = None) -> tuple:
    """``(op counter, NTT rows)`` of one encrypted forward on a zero input.

    Both meters are reset after ``encrypt``: they read the forward alone.
    Exits non-zero unless the shadow-forward cost model
    (``enc.op_counts()``) equals the measured counts key for key:
    modeled == measured is checked on every model, every CI run.
    """
    counting = CountingEvaluator(enc.ev)
    ev = TracingEvaluator(counting) if trace_path else counting
    meter = RowCountingBackend(enc.ctx.backend)
    enc.ctx.set_backend(meter)
    try:
        cts = enc.encrypt_batch_shards([np.zeros(in_dim)])
        counting.reset()
        meter.reset()
        enc.forward_shards(cts, ev=ev)
    finally:
        enc.ctx.set_backend(meter.inner)
    modeled, measured = enc.op_counts(), dict(counting.counts)
    if modeled != measured:
        diff = {
            op: (modeled.get(op), measured.get(op))
            for op in sorted(modeled.keys() | measured.keys())
            if modeled.get(op) != measured.get(op)
        }
        raise SystemExit(
            "shadow op counts diverge from the measured forward; "
            f"(modeled, measured) per op: {diff}"
        )
    if trace_path:
        model = os.path.basename(trace_path)[len("trace_") : -len(".json")]
        ev.tracer.write_json(trace_path, meta={"model": model})
    return counting, meter.ntt_rows


def forward_row(label: str, counting: CountingEvaluator, ntt_rows: int) -> list:
    c = counting.counts
    return [
        label,
        c["rotate"],
        c["rotate_hoisted"],
        c["hoist_decompose"],
        counting.keyswitch_count,
        counting.nonscalar_mult_count,
        c["mul_plain"],
        c["rescale"],
        ntt_rows,
    ]


_FORWARD_HEADER = [
    "path", "rotate", "hoisted", "decompose", "keyswitches",
    "ct*ct mult", "pt mult", "rescale", "ntt rows",
]


def gate_metrics(counting: CountingEvaluator, ntt_rows: int) -> dict:
    """The per-model numbers the CI regression gate compares."""
    return {
        "keyswitches": counting.keyswitch_count,
        "nonscalar_mults": counting.nonscalar_mult_count,
        "ntt_rows": ntt_rows,
        "counts": {k: int(v) for k, v in sorted(counting.counts.items())},
    }


def verify_backend_invariance(model: str, ctx, measure, base: dict) -> None:
    """Re-measure ``model``'s forward under every other registered kernel
    backend and fail loudly unless the gate JSON is byte-identical.

    Kernel backends may only change *how* residue arithmetic executes,
    never *which* HE ops run, so the serialized gate metrics must not
    move by a single byte when the backend is swapped (docs/backends.md).
    """
    blob = json.dumps(base, sort_keys=True).encode()
    orig = ctx.backend.name
    for name in available_backends():
        if name == orig:
            continue
        ctx.set_backend(name)
        try:
            other = json.dumps(gate_metrics(*measure()), sort_keys=True).encode()
        finally:
            ctx.set_backend(orig)
        if other != blob:
            raise SystemExit(
                f"op-count gate JSON for {model!r} is not backend-invariant: "
                f"backend {name!r} diverges from {orig!r}. Kernel backends "
                "may only change how residue arithmetic executes, never "
                "which HE ops run — see docs/backends.md."
            )


def build_summary(trace_dir: str | None = None, check_backends: bool = False) -> tuple:
    """Returns ``(text summary, gate JSON dict)``."""
    sections = []
    models: dict = {}

    def pin(model: str, enc, in_dim: int, forward_title: str, plan_title: str | None):
        if plan_title:
            sections.append(plan_table(enc, plan_title))
        counting, ntt_rows = measure_forward(
            enc, in_dim, trace_path=_trace_to(trace_dir, model)
        )
        sections.append(
            format_table(
                _FORWARD_HEADER,
                [forward_row("planned", counting, ntt_rows)],
                title=f"Measured op counts: one encrypted {forward_title}",
            )
        )
        models[model] = gate_metrics(counting, ntt_rows)
        if check_backends:
            verify_backend_invariance(
                model, enc.ctx, lambda: measure_forward(enc, in_dim), models[model]
            )

    # --- toy MLP (the naive-matvec + ladder-PAF reference costs 22
    # keyswitches against these 15; tests/fhe/test_op_counts.py measures
    # it on the test-side oracle) ---
    pin(
        "toy_mlp",
        compiled_toy(),
        8,
        "MLP forward (BSGS matvecs + Paterson–Stockmeyer PAF)",
        "Per-layer matvec plans (toy 8-6-3 MLP serving model)",
    )
    # --- toy CNN: planned path (the naive conv loop pays one keyswitch
    # per diagonal — 100+ for the strided conv — so the reference forward
    # is measured in the test suite, not per CI run) ---
    pin(
        "toy_cnn",
        compiled_toy_cnn(),
        64,
        "CNN forward (BSGS conv matvecs + hoisted rotate-and-sum pool)",
        "Per-layer matvec plans (toy 2-conv CNN: conv-BN(folded)-PAF-"
        "pool-conv-dense on 1x8x8)",
    )
    # --- toy ResNet: the sharded multi-ciphertext path (2 residual
    # blocks, stride-2 projection skip, channels across 2 ciphertexts) ---
    pin(
        "toy_resnet",
        compiled_toy_resnet(),
        64,
        "ResNet forward (sharded BSGS conv blocks + residual merges)",
        "Per-block matvec plans (toy 2-block ResNet: stem-block-block-"
        "pool-dense on 1x8x8, 2 shards)",
    )
    # --- toy transformer: the token-sharded attention + GELU MLP block
    # (qkv/o BSGS matvecs per token, PS-evaluated softmax exp, Newton
    # reciprocal normaliser, dense GELU) ---
    pin(
        "toy_transformer",
        compiled_toy_transformer(),
        32,
        "transformer forward (sharded BSGS projections + PS softmax exp "
        "+ Newton reciprocal)",
        "Per-block matvec plans (toy transformer: single-head attention "
        "+ GELU MLP over 4 token shards, dim 8)",
    )
    # --- stacked transformer: the depth-wall demo — two blocks cost
    # ~64 raw levels against the same 33-level chain, so the compile
    # succeeds only through the auto refresh policy (one exactness-gated
    # recrypt refresh at the block boundary); its decrypt/encrypt counts
    # are the refresh's client-boundary cost, gated like everything else ---
    pin(
        "toy_transformer_stacked",
        compiled_toy_transformer(num_blocks=2),
        32,
        "stacked-transformer forward (2 blocks + auto-placed recrypt "
        "refresh between them)",
        None,
    )

    sections.append(activation_count_table())
    return "\n\n".join(sections), {"models": models}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outfile", nargs="?", help="write the text summary here")
    parser.add_argument(
        "--json", dest="json_path", help="write per-model gate metrics as JSON"
    )
    parser.add_argument(
        "--trace-dir",
        dest="trace_dir",
        help="write one repro-trace-v1 execution trace per model here "
        "(trace_<model>.json)",
    )
    parser.add_argument(
        "--check-backends",
        action="store_true",
        help="re-measure every forward under each registered kernel "
        "backend and fail unless the gate JSON is byte-identical",
    )
    args = parser.parse_args()
    summary, gate = build_summary(
        trace_dir=args.trace_dir, check_backends=args.check_backends
    )
    print(summary)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(summary + "\n")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(gate, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
