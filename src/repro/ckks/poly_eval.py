"""Evaluation of polynomials / composite PAFs on ciphertexts.

One executor, :func:`eval_poly`, runs the compiled Paterson–Stockmeyer
:class:`~repro.ckks.poly_plan.PolyPlan` of any polynomial — the odd sign
components and the dense GELU / ``exp`` / ``cos`` fits alike: baby powers
live implicitly as leaf products ``c·x`` merged with the shared rungs
``x, x², x⁴, …``; blocks of ``window`` consecutive terms combine through
the giant powers ``x^{w·2^r}`` (balanced tree or giant-step Horner,
whichever the plan chose) — ``O(√degree)``-ish nonscalar mults.

The executor mirrors the symbolic schedule of ``repro.paf.depth`` exactly:

* ``x^(2^i)`` lands at level ``L - i``; a term lands at depth
  ``ceil(log2(k+1))``; a composite consumes the sum of its components'
  depths (Appendix C);
* the ReLU reconstruction ``(x + x·sign)/2`` folds the ½ into the sign's
  outermost coefficients (free) and spends exactly one extra level on the
  ``x · (0.5 + 0.5·sign)`` product.

Every intermediate stays on the *canonical scale* of its level
(``S_{l-1} = S_l² / q_l``): leaves are computed directly at their
scheduled level, every cross-level alignment is exact, and the output
lands on ``(level - mult_depth, canonical scale)`` — so coefficient
plaintexts encode at deterministic ``(level, scale)`` pairs, the property
that lets a compiled network encode them once (its plaintext store).  The differential
oracle (a naive term-by-term evaluation sharing nothing with the plans)
lives with the tests, ``tests/conftest.py``; they assert that results,
level consumption and measured nonscalar-mult counts match the plan's
predictions exactly.
"""

from __future__ import annotations

from repro.ckks.evaluator import Ciphertext, CkksEvaluator
from repro.ckks.instrumentation import span as trace_span
from repro.ckks.poly_plan import (
    CompositePlan,
    PolyPlan,
    ReluPlan,
    fold_relu_composite,
    plan_composite,
    plan_paf_relu,
    plan_poly,
)
from repro.paf.polynomial import CompositePAF, OddPolynomial, Polynomial

__all__ = [
    "eval_poly",
    "eval_composite_paf",
    "eval_paf_relu",
    "eval_paf_max",
]


def _run_plan(ev: CkksEvaluator, x: Ciphertext, plan: PolyPlan) -> Ciphertext:
    """Execute a compiled Paterson–Stockmeyer plan.

    Performs exactly ``plan.nonscalar_mults`` ciphertext multiplications
    and consumes exactly ``plan.mult_depth`` levels.  A partial result is
    a pair ``(ciphertext | None, plaintext constant)``: local-exponent-0
    coefficients stay plaintext until a giant product forces them in.
    """
    # shared rungs x^(2^e), e = 0..rung_top, by repeated squaring; the
    # giant powers x^(w·2^r) continue the chain from x^(w/2)
    rungs = {0: x}
    for e in range(1, plan.rung_top + 1):
        rungs[e] = ev.rescale(ev.square(rungs[e - 1]))
    giants: list = []
    for _ in range(plan.giant_count):
        base = giants[-1] if giants else rungs[plan.beta - 1]
        giants.append(ev.rescale(ev.square(base)))

    # Alignments are *exact*: adjacent-level canonical scales differ by
    # the primes' sub-percent drift, and tolerating it would mis-scale a
    # block sum (material for large-coefficient components like the α=7
    # minimax) and compound at every later squaring of a deep chain.  The
    # correction costs one plaintext mult on a descent the operand was
    # making anyway, never a nonscalar mult.
    def aligned(a: Ciphertext, b: Ciphertext) -> tuple:
        if a.level > b.level:
            a = ev.align_to(a, b.level, b.scale)
        elif b.level > a.level:
            b = ev.align_to(b, a.level, a.scale)
        return a, b

    def mul(a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return ev.rescale(ev.mul(*aligned(a, b)))

    # Leaves are computed *directly at their plan-scheduled level*: one
    # plaintext product against the (mod-switched) input, encoded at the
    # exact scale that rescales onto the target level's canonical scale.
    # This lands a leaf at any depth for the cost of a depth-1 leaf — no
    # drift correction — at encode coordinates fixed by the plan and the
    # input's (level, scale), so a compiled network's store can hold them.
    coords = plan.leaf_schedule(ev.ctx.q_chain, x.level, x.scale)

    def leaf(position: int, term) -> Ciphertext:
        enc_level, enc_scale, _, tgt_scale = coords[(position, term.exponent)]
        x_down = ev.mod_switch_to(x, enc_level)
        out = ev.rescale(ev.mul_plain(x_down, term.coeff, scale=enc_scale))
        out.scale = tgt_scale  # exact by construction (up to encode rounding)
        return out

    blocks = {b.position: b for b in plan.blocks}
    maxpos = max(blocks)

    def block(position: int):
        """Partial result of one block; ``None`` when the plan has none there."""
        if position not in blocks:
            return None
        acc = None
        for term in blocks[position].terms:
            t = leaf(position, term)
            for e in term.rungs:                      # ascending merges
                t = mul(t, rungs[e])
            acc = t if acc is None else ev.add(*aligned(acc, t))
        return acc, blocks[position].constant

    def add(u, v):
        """Sum of two partial results (``None``: nothing there)."""
        if u is None or v is None:
            return v if u is None else u
        (a, ca), (b, cb) = u, v
        if a is None or b is None:
            return (b if a is None else a), ca + cb
        return ev.add(*aligned(a, b)), ca + cb

    def times(giant: Ciphertext, v: tuple) -> tuple:
        ct, const = v
        if ct is None:                                # scalar giant product
            return ev.mul_plain_rescale(giant, const), 0.0
        if const:
            ct = ev.add_plain(ct, const)
        return mul(giant, ct), 0.0

    def combine(lo: int, span: int):
        if span == 1:
            return block(lo)
        half = span // 2
        left = combine(lo, half)
        right = combine(lo + half, half)
        if right is None:
            return left
        return add(left, times(giants[half.bit_length() - 1], right))

    if plan.shape == "horner":
        acc = block(maxpos)
        for pos in range(maxpos - 1, -1, -1):         # the only giant: x^w
            acc = add(times(giants[0], acc), block(pos))
    else:
        acc = combine(0, 1 << maxpos.bit_length())
    out, const = acc
    return ev.add_plain(out, const) if const else out


def eval_poly(
    ev: CkksEvaluator,
    x: Ciphertext,
    poly: OddPolynomial | Polynomial,
    plan: PolyPlan | None = None,
) -> Ciphertext:
    """Evaluate a polynomial at a ciphertext, depth-optimally.

    Follows the compiled :class:`~repro.ckks.poly_plan.PolyPlan`
    (compiled on the fly when not supplied; one built for other
    coefficients is rejected).  Consumes exactly ``ceil(log2(d+1))``
    levels for the highest nonzero degree ``d`` and returns the canonical
    scale of the level it lands on; a constant term is a free plaintext
    add.
    """
    if plan is None:
        plan = plan_poly(poly)
    elif not plan.matches(poly):
        raise ValueError(
            "plan was compiled for other coefficients than the polynomial it "
            "is called with; rebuild it with plan_poly(poly)"
        )
    with trace_span(ev, "poly", kind="poly", degree=poly.degree) as sp:
        sp.ct_entry(x)
        out = _run_plan(ev, x, plan)
        sp.ct_exit(out)
    return out


def eval_composite_paf(
    ev: CkksEvaluator,
    x: Ciphertext,
    paf: CompositePAF,
    plan: CompositePlan | None = None,
) -> Ciphertext:
    """Evaluate a composite sign PAF on a ciphertext.

    ``plan`` short-circuits per-component compilation (it must have been
    built for this ``paf``'s coefficients).
    """
    if plan is None:
        plan = plan_composite(paf)
    y = x
    for comp, comp_plan in zip(paf.components, plan.components, strict=True):
        y = eval_poly(ev, y, comp, plan=comp_plan)
    return y


def eval_paf_relu(
    ev: CkksEvaluator,
    x: Ciphertext,
    paf: CompositePAF,
    scale: float = 1.0,
    plan: ReluPlan | None = None,
) -> Ciphertext:
    """Encrypted ReLU: ``x · (0.5 + 0.5·sign(x/scale))``.

    ``scale`` is the Static-Scaling value: folded into the innermost
    component's coefficients, costing no level.  Total depth:
    ``paf.mult_depth + 1``.

    ``plan`` short-circuits compilation (``repro.fhe.network`` compiles
    one per activation layer at build time); it must have been built by
    :func:`~repro.ckks.poly_plan.plan_paf_relu` for this exact
    ``(paf, scale)`` pair — a plan folded for a different static scale,
    or for coefficients ``paf`` no longer has, is rejected.
    """
    if plan is None:
        plan = plan_paf_relu(paf, scale)
    elif plan.scale != scale:
        raise ValueError(
            f"plan was compiled for static scale {plan.scale}, called with "
            f"{scale}; rebuild it with plan_paf_relu(paf, scale)"
        )
    elif [c.coeffs for c in plan.folded.components] != [
        c.coeffs for c in fold_relu_composite(paf, scale).components
    ]:
        raise ValueError(
            "plan was compiled for other coefficients than the PAF it is "
            "called with; rebuild it with plan_paf_relu(paf, scale)"
        )
    folded = plan.folded
    with trace_span(
        ev, "paf:relu", kind="paf", components=len(folded.components)
    ) as sp:
        sp.ct_entry(x)
        # 0.5 * sign(x/scale)
        half_sign = eval_composite_paf(
            ev, x, folded, plan=CompositePlan(plan.components)
        )
        gate = ev.add_plain(half_sign, 0.5)           # 0.5 + 0.5*sign
        x_down = ev.align_to(x, gate.level, gate.scale)
        out = ev.rescale(ev.mul(x_down, gate))
        sp.ct_exit(out)
    return out


def eval_paf_max(
    ev: CkksEvaluator,
    a: Ciphertext,
    b: Ciphertext,
    paf: CompositePAF,
    scale: float = 1.0,
) -> Ciphertext:
    """Encrypted pairwise max: ``(a+b)/2 + (a-b)·(0.5·sign((a-b)/scale))``."""
    d = ev.sub(a, b)
    half_sign = eval_composite_paf(ev, d, fold_relu_composite(paf, scale))
    d_down = ev.align_to(d, half_sign.level, half_sign.scale)
    prod = ev.rescale(ev.mul(d_down, half_sign))      # |d|/2 approx
    s = ev.mul_plain_rescale(ev.add(a, b), 0.5)       # (a+b)/2
    s = ev.align_to(s, prod.level, prod.scale)
    return ev.add(prod, s)
