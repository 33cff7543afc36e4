"""PAF latency measurement under CKKS (the paper's Fig. 1 x-axis, Tab. 4).

The paper measures wall-clock PAF (ReLU) latency in SEAL on a CPU
(N=32768, 881-bit modulus).  Here the same quantity is measured on our
CKKS at a configurable ring size; *relative* latencies across PAF forms —
which track multiplication count and depth — are the reproduced quantity.

Also provides an analytic cost model (op counts × measured per-op
microbenchmarks) so the latency of paper-grade parameters can be
extrapolated without running them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    eval_paf_relu,
    keygen,
)
from repro.ckks.poly_plan import plan_paf_relu
from repro.fhe.linear import MatvecPlan
from repro.paf.polynomial import CompositePAF
from repro.paf.relu import relu_mult_depth

__all__ = [
    "LatencyResult",
    "REFERENCE_MICROS",
    "cost_from_counts",
    "measure_relu_latency",
    "measure_op_micros",
    "analytic_relu_cost",
    "analytic_activation_cost",
    "analytic_matvec_cost",
    "analytic_pool_cost",
    "analytic_sharded_matvec_cost",
    "analytic_residual_merge_cost",
    "analytic_refresh_cost",
    "paf_op_counts",
    "activation_op_counts",
    "matvec_op_counts",
    "pool_op_counts",
    "sharded_matvec_op_counts",
    "residual_merge_op_counts",
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


def shared_runtime(params: CkksParams, seed: int = 0):
    """Context+keys+evaluator cache (keygen dominates small benchmarks).

    Keyed on the frozen ``params`` itself: two parameter sets that differ
    in backend, scale tracking or prime widths never share an evaluator.
    """
    if params not in _SHARED:
        ctx = CkksContext(params)
        keys = keygen(ctx, seed=seed)
        _SHARED[params] = (ctx, keys, CkksEvaluator(ctx, keys))
    return _SHARED[params]


def measure_relu_latency(
    paf: CompositePAF,
    params: CkksParams | None = None,
    repeats: int = 1,
    *,
    mode: str | None = None,
) -> LatencyResult:
    """Wall-clock encrypted PAF-ReLU latency (median of ``repeats``).

    ``mode="reference"`` measures the term-by-term ladder path instead
    of the default Paterson–Stockmeyer plan (same depth, more nonscalar
    mults) — ``benchmarks/bench_paf_eval.py`` sweeps both.
    """
    if mode not in (None, "plan", "reference"):
        raise ValueError(
            f"measure_relu_latency mode must be 'plan' or 'reference', got {mode!r}"
        )
    reference = mode == "reference"
    params = params or CkksParams(n=2048, scale_bits=25, depth=relu_mult_depth(paf) + 1)
    if params.depth < relu_mult_depth(paf):
        raise ValueError(
            f"context depth {params.depth} < required {relu_mult_depth(paf)}"
        )
    ctx, _, ev = shared_runtime(params)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, ctx.slots)
    ct = ev.encrypt(x)
    plan = None if reference else plan_paf_relu(paf)
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = eval_paf_relu(ev, ct, paf, plan=plan, reference=reference)
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


# ----------------------------------------------------------------------
# analytic cost model
# ----------------------------------------------------------------------
def paf_op_counts(paf: CompositePAF) -> dict:
    """Homomorphic op counts of the *ladder* (reference) ReLU evaluation.

    Per component: ladder squarings (ct-ct mult + relin + rescale), one
    plaintext mult + rescale per nonzero term leaf, and term-merge ct-ct
    mults; plus the final ReLU gate mult.  For the default
    Paterson–Stockmeyer path use :func:`activation_op_counts`.
    """
    ct_mult = 0
    pt_mult = 0
    rescale = 0
    for comp in paf.components:
        degree = comp.degree
        # ladder rungs
        rung = 1
        while rung * 2 <= max(degree - 1, 1):
            ct_mult += 1
            rescale += 1
            rung *= 2
        for idx, c in enumerate(comp.coeffs):
            if c == 0.0:
                continue
            k = 2 * idx + 1
            pt_mult += 1
            rescale += 1
            merges = bin(k - 1).count("1")
            ct_mult += merges
            rescale += merges
    # ReLU reconstruction: one ct-ct mult (+ rescale) and one plain add
    ct_mult += 1
    rescale += 1
    return {"ct_mult": ct_mult, "pt_mult": pt_mult, "rescale": rescale}


def measure_op_micros(params: CkksParams, repeats: int = 3) -> dict:
    """Per-op wall-clock microbenchmarks (seconds) for the cost model."""
    ctx, _, ev = shared_runtime(params)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, ctx.slots)
    a = ev.encrypt(x)
    b = ev.encrypt(x)

    def timeit(fn):
        ts = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return float(np.median(ts))

    out = {}
    out["ct_mult"] = timeit(lambda: ev.mul(a, b))
    out["pt_mult"] = timeit(lambda: ev.mul_plain(a, 0.5))
    out["rescale"] = timeit(lambda: ev.rescale(ev.mul(a, b))) - out["ct_mult"]
    out["add"] = timeit(lambda: ev.add(a, b))
    # rotation costs for the matvec cost model: a standalone keyswitched
    # rotation, the marginal cost of one extra rotation inside a hoisted
    # batch (key inner product + P-descent), and the shared digit
    # decomposition itself — separated so the model can charge the
    # decomposition once per matvec rather than amortised over an
    # arbitrary batch size
    hoist_batch = 8
    ev.keys.ensure_galois_steps(ctx, tuple(range(1, hoist_batch + 1)))
    out["rotate"] = timeit(lambda: ev.rotate(a, 1))
    t_one = timeit(lambda: ev.rotate_many(a, [1]))
    t_batch = timeit(lambda: ev.rotate_many(a, range(1, hoist_batch + 1)))
    out["rotate_hoisted"] = max((t_batch - t_one) / (hoist_batch - 1), 0.0)
    out["hoist_decompose"] = max(t_one - out["rotate_hoisted"], 0.0)
    return out


def activation_op_counts(
    paf: CompositePAF, reference: bool = False, scale: float = 1.0
) -> dict:
    """Homomorphic op counts of one encrypted PAF-ReLU activation.

    The default follows the compiled Paterson–Stockmeyer plan
    (``repro.ckks.poly_plan``): ``ct_mult`` is the nonscalar-mult count of
    the chosen per-component path, ``pt_mult`` the coefficient leaves, and
    every multiplication is rescaled.  ``reference=True`` returns the
    term-by-term ladder counts (:func:`paf_op_counts`).  Scale-alignment
    corrections are excluded on both paths — the op-counting tests book
    them separately under ``align_correction``.
    """
    if reference:
        return paf_op_counts(paf)
    plan = plan_paf_relu(paf, scale)
    return {
        "ct_mult": plan.nonscalar_mults,
        "pt_mult": plan.num_leaves,
        "rescale": plan.nonscalar_mults + plan.num_leaves,
    }


def analytic_relu_cost(paf: CompositePAF, micros: dict) -> float:
    """Estimated ladder-path encrypted-ReLU seconds (reference model)."""
    return analytic_activation_cost(paf, micros, reference=True)


def analytic_activation_cost(
    paf: CompositePAF, micros: dict, reference: bool = False
) -> float:
    """Estimated encrypted-activation seconds from op counts × per-op times.

    ``reference`` selects the ladder model; the default models the
    Paterson–Stockmeyer plan the evaluator actually runs.
    """
    counts = activation_op_counts(paf, reference=reference)
    return (
        counts["ct_mult"] * micros["ct_mult"]
        + counts["pt_mult"] * micros["pt_mult"]
        + counts["rescale"] * max(micros["rescale"], 0.0)
    )


#: Reference per-op seconds, measured once via
#: :func:`measure_op_micros` on the baseline dev box and pinned so that
#: model costs derived from op counts are machine-independent — the
#: currency of the CI bench-trend gate (``bench_resnet_forward``) and of
#: per-span modeled costs in trace reports.  ``align_correction`` is
#: charged through its mul_plain + rescale (``CountingEvaluator`` books
#: all three), so it carries no price itself.
REFERENCE_MICROS = {
    "mul": 0.1396,
    "mul_plain": 0.0033,
    "rescale": 0.0102,
    "add": 0.00017,
    "add_plain": 0.00017,
    "sub": 0.00017,
    "rotate": 0.1588,
    "rotate_hoisted": 0.0304,
    "hoist_decompose": 0.1167,
    "mod_switch_to": 0.0005,
    # client-boundary ops, priced for the refresh cost model (the
    # precision gate decrypts twice; recrypt re-encodes once) — measured
    # on the same baseline box, normalised through the pinned mul rate
    "conjugate": 0.1735,
    "encrypt": 0.0398,
    "decrypt": 0.0176,
}


def cost_from_counts(counts: dict, micros: dict) -> float:
    """Shared dot product of op counts × per-op seconds.

    Negative micros are clamped to zero (``rescale`` is measured by
    subtraction and can come out slightly negative on noisy boxes);
    unpriced ops cost nothing.
    """
    return sum(n * max(micros.get(op, 0.0), 0.0) for op, n in counts.items())


def matvec_op_counts(plan: MatvecPlan) -> dict:
    """Homomorphic op counts of one encrypted matvec under ``plan``.

    The BSGS path splits rotations into standalone giant-step keyswitches
    (``rotate``) and baby-step rotations sharing one hoisted
    decomposition (``rotate_hoisted`` / ``hoist_decompose``); plaintext
    multiplies and the single rescale are identical on both paths.
    """
    if plan.use_bsgs:
        baby = sum(1 for b in plan.baby_steps if b)
        return {
            "rotate": plan.bsgs_keyswitches - baby,
            "rotate_hoisted": baby,
            "hoist_decompose": 1 if baby else 0,
            "pt_mult": plan.num_diagonals,
            "rescale": 1,
        }
    return {
        "rotate": plan.naive_keyswitches,
        "rotate_hoisted": 0,
        "hoist_decompose": 0,
        "pt_mult": plan.num_diagonals,
        "rescale": 1,
    }


def pool_op_counts(shifts: tuple) -> dict:
    """Homomorphic op counts of one rotate-and-sum average pool.

    ``shifts`` is the compiled per-stage step tuple of the pool layer
    (``(column shifts, row shifts)`` from
    :func:`repro.fhe.cnn.avg_pool_shifts`): each stage's rotations share
    one hoisted decomposition, then the masked ``1/window`` plaintext
    multiply pays one ``pt_mult`` and the single rescale.
    """
    stages = [[s for s in stage if s] for stage in shifts]
    rotations = sum(len(stage) for stage in stages)
    return {
        "rotate": 0,
        "rotate_hoisted": rotations,
        "hoist_decompose": sum(1 for stage in stages if stage),
        "pt_mult": 1,
        "rescale": 1,
    }


def analytic_pool_cost(shifts: tuple, micros: dict) -> float:
    """Estimated encrypted-pool seconds from op counts × per-op times."""
    return cost_from_counts(pool_op_counts(shifts), micros)


def sharded_matvec_op_counts(plans: list) -> dict:
    """Homomorphic op counts of one *sharded* (multi-ciphertext) matvec.

    ``plans`` is the ``K_out × K_in`` grid of per-block
    :class:`~repro.fhe.linear.MatvecPlan` (``None`` for all-zero blocks),
    matching :func:`repro.fhe.linear.encrypted_matvec_shards`: each input
    shard's baby rotations (union across every output shard that reads
    it, the per-diagonal steps of naive-planned blocks included) share
    one hoisted decomposition; giant-step rotations are standalone per
    block; every output shard rescales once.
    """
    num_in = len(plans[0]) if plans else 0
    hoisted: list = [set() for _ in range(num_in)]
    rotate = 0
    pt_mult = 0
    for row in plans:
        if len(row) != num_in:
            raise ValueError("ragged plan grid")
        for i, plan in enumerate(row):
            if plan is None:
                continue
            pt_mult += plan.num_diagonals
            if plan.use_bsgs:
                hoisted[i].update(b for b in plan.baby_steps if b)
                rotate += sum(1 for g in plan.giant_steps if g)
            else:
                hoisted[i].update(plan.diag_steps)
    return {
        "rotate": rotate,
        "rotate_hoisted": sum(len(s) for s in hoisted),
        "hoist_decompose": sum(1 for s in hoisted if s),
        "pt_mult": pt_mult,
        "rescale": len(plans),
    }


def analytic_sharded_matvec_cost(plans: list, micros: dict) -> float:
    """Estimated sharded-matvec (e.g. sharded conv) seconds."""
    return cost_from_counts(sharded_matvec_op_counts(plans), micros)


def residual_merge_op_counts(
    num_shards: int, proj_plans: list | None = None, level_gap: int = 1
) -> dict:
    """Homomorphic op counts of one residual ``merge`` layer.

    An identity skip costs one exact scale-alignment correction (a
    plaintext multiply + rescale riding the branch level gap) and one
    ct-ct add per shard; a projection skip additionally replicates each
    saved shard (one standalone rotation) and runs the 1×1-projection's
    sharded matvec (``proj_plans`` — the merge layer's plan grid).
    ``level_gap=0`` drops the alignment ops — equal-level branches share
    the canonical scale already — but never the adds.
    """
    counts = {
        "rotate": 0,
        "rotate_hoisted": 0,
        "hoist_decompose": 0,
        "pt_mult": 0,
        "rescale": 0,
        "add": num_shards,  # the per-shard skip + main additions
    }
    if proj_plans is not None:
        proj = sharded_matvec_op_counts(proj_plans)
        for k, n in proj.items():
            counts[k] += n
        counts["rotate"] += len(proj_plans[0])  # replicate each saved shard
    if level_gap > 0:
        counts["pt_mult"] += num_shards   # exact alignment corrections
        counts["rescale"] += num_shards
    return counts


def analytic_residual_merge_cost(
    num_shards: int,
    micros: dict,
    proj_plans: list | None = None,
    level_gap: int = 1,
) -> float:
    """Estimated residual-merge seconds (identity or projection skip)."""
    return cost_from_counts(
        residual_merge_op_counts(num_shards, proj_plans=proj_plans, level_gap=level_gap),
        micros,
    )


def analytic_matvec_cost(plan: MatvecPlan, micros: dict) -> float:
    """Estimated encrypted-matvec seconds from op counts × per-op times."""
    return cost_from_counts(matvec_op_counts(plan), micros)


class _ShadowCiphertext:
    """``(level, scale)`` shadow of a ciphertext — no ring data."""

    __slots__ = ("level", "scale")

    def __init__(self, level: int, scale: float):
        self.level = level
        self.scale = scale


class _ShadowEvaluator:
    """Replays executor control flow on ciphertext shadows, counting ops.

    Implements exactly the evaluator surface the Paterson–Stockmeyer
    executors touch, with the same level/scale arithmetic as
    :class:`~repro.ckks.evaluator.CkksEvaluator` and the booking
    conventions of
    :class:`~repro.ckks.instrumentation.CountingEvaluator`, so the
    refresh cost model prices the dense ``cos`` stage by running the
    *real* executor (alignment corrections included) instead of
    re-deriving its branch structure here and drifting from it.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.counts: dict = {}

    def _book(self, op: str, n: int = 1) -> None:
        self.counts[op] = self.counts.get(op, 0) + n

    def rescale(self, a):
        self._book("rescale")
        return _ShadowCiphertext(a.level - 1, a.scale / self.ctx.q_chain[a.level])

    def square(self, a):
        self._book("mul")
        return _ShadowCiphertext(a.level, a.scale * a.scale)

    def mul(self, a, b):
        self._book("mul")
        return _ShadowCiphertext(a.level, a.scale * b.scale)

    def mul_rescale(self, a, b):
        return self.rescale(self.mul(a, b))

    def mul_plain(self, a, value, scale: float | None = None):
        self._book("mul_plain")
        pt_scale = a.scale if scale is None else scale
        return _ShadowCiphertext(a.level, a.scale * pt_scale)

    def mul_plain_rescale(self, a, value):
        return self.rescale(self.mul_plain(a, value))

    def add(self, a, b):
        self._book("add")
        return _ShadowCiphertext(a.level, a.scale)

    def add_plain(self, a, value):
        self._book("add_plain")
        return _ShadowCiphertext(a.level, a.scale)

    def mod_switch_to(self, a, level: int):
        if level != a.level:
            self._book("mod_switch_to")
        return _ShadowCiphertext(level, a.scale)

    def align_to(self, a, level: int, scale: float, rtol: float = 0.01):
        if a.level == level or abs(a.scale - scale) / scale <= rtol:
            if a.level != level:
                self._book("mod_switch_to")
            return _ShadowCiphertext(level, a.scale)
        self._book("align_correction")
        self._book("mul_plain")
        self._book("rescale")
        return _ShadowCiphertext(level, scale)


def refresh_op_counts(plan) -> dict:
    """Homomorphic op counts of one level refresh under ``plan``.

    ``plan`` is a :class:`repro.ckks.bootstrap.RefreshPlan`; keys follow
    :class:`~repro.ckks.instrumentation.CountingEvaluator` naming so the
    result dots directly with :data:`REFERENCE_MICROS`.  Both methods pay
    the precision gate's two decryptions (input reference + output
    check).  ``recrypt`` additionally re-encodes at the top of the chain —
    priced at the ``encrypt`` rate, which the canonical-embedding encode
    dominates (the encode is not an evaluator op, so a
    ``CountingEvaluator`` around a recrypt sees the two decrypts only).
    ``evalmod`` counts the real pipeline op-exactly — ModRaise's modulus
    switch, the CoeffToSlot BSGS matvec (plus its extra headroom rescale,
    one conjugation and the half-separation add/sub), EvalMod on *both*
    coefficient halves (replayed through the actual Paterson–Stockmeyer
    executor on a :class:`_ShadowEvaluator`), and the SlotToCoeff matvec
    — ``tests/ckks/test_bootstrap.py`` pins it against measured counts.
    """
    if plan.method == "recrypt":
        return {"decrypt": 2, "encrypt": 1}
    from repro.ckks.bootstrap import canonical_scale, eval_mod

    counts: dict = {"decrypt": 2, "mod_switch_to": 1}

    def book(extra: dict, times: int = 1) -> None:
        for op, n in extra.items():
            counts[op] = counts.get(op, 0) + n * times

    def matvec(mv_plan) -> dict:
        mv = matvec_op_counts(mv_plan)
        # both refresh matrices are dense: every one of the ring's slot
        # diagonals carries a plaintext multiply, and their products
        # fold with diagonals-1 ciphertext adds
        return {
            "rotate": mv["rotate"],
            "rotate_hoisted": mv["rotate_hoisted"],
            "hoist_decompose": mv["hoist_decompose"],
            "mul_plain": plan.ctx.slots,
            "add": plan.ctx.slots - 1,
            "rescale": mv["rescale"],
        }

    book(matvec(plan.cts_plan))
    book({"rescale": 1, "conjugate": 1, "add": 1, "sub": 1})  # headroom + halves
    # EvalMod enters two levels below the top of the chain (the CtS
    # matvec's rescale plus the headroom rescale), on the canonical scale
    shadow = _ShadowEvaluator(plan.ctx)
    entry = plan.ctx.max_level - 2
    eval_mod(
        shadow,
        _ShadowCiphertext(entry, canonical_scale(plan.ctx, entry)),
        plan,
    )
    book(shadow.counts, times=2)              # both coefficient halves
    book({"add": 1})                          # recombine the halves
    book(matvec(plan.stc_plan))
    return counts


def analytic_refresh_cost(plan, micros: dict) -> float:
    """Estimated refresh seconds from op counts × per-op times.

    This is the latency side of :class:`repro.fhe.ir.RefreshNode`'s cost
    model: its ``level_cost()`` is zero (a refresh *restores* levels; the
    pipeline depth is charged to the segment budget instead) and this
    function prices its wall-clock — what the greedy placement in
    ``compile_network`` weighs against running a shallower PAF.
    """
    return cost_from_counts(refresh_op_counts(plan), micros)
