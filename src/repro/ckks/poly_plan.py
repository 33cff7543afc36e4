"""Compile odd polynomials into Paterson–Stockmeyer evaluation plans.

The reference evaluator (``repro.ckks.poly_eval.eval_odd_poly`` with
``reference=True``) is *term-by-term*: every term ``c_k x^k`` merges its own
leaf ``c_k·x`` with the binary power-ladder rungs of ``k-1``, costing
``popcount(k-1)`` nonscalar (ciphertext×ciphertext) multiplications per
term — ``O(degree)`` overall.  Paterson–Stockmeyer (baby-step/giant-step
over polynomial terms) shares the high bits of the exponents across terms:

* pick a baby window ``w = 2^β``; *block* ``j`` collects the terms with
  exponents in ``[w·j+1, w·j+w-1]``;
* inside a block, each term keeps the depth-optimal *leaf fold*: the
  coefficient rides the depth-1 product ``c·x`` and merges the shared even
  rungs ``x², x⁴, …`` of its in-block exponent;
* blocks combine through the *giant* powers ``x^{w·2^r}`` — either a
  balanced tree (depth ``β + ⌈log₂ m⌉`` for ``m`` blocks) or a giant-step
  Horner chain (depth ``β + m - 1``, but only one giant power to build);
* :func:`plan_odd_poly` searches ``(β, combine shape)`` for the minimum
  nonscalar-mult count **subject to consuming exactly the ladder's level
  budget** ``⌈log₂(d+1)⌉`` — the Appendix-C depth schedule is preserved,
  so CKKS parameters never grow.

The plan is symbolic (no ciphertexts, no numpy): compiling is cheap enough
to do per network layer at build time, and the plan doubles as the
enumeration of coefficient plaintexts that ``repro.serve.artifact``
pre-encodes at their exact ``(level, scale)``.  Its op counts are not
restated anywhere: the cost model runs the plan's executor over shadow
ciphertexts (:class:`repro.ckks.shadow.ShadowEvaluator`).

Mirroring :class:`repro.fhe.linear.MatvecPlan`, the choice is *strictly
fewer nonscalar mults* — ties fall back to the ladder (``use_ps=False``).
Degree-3 components (``f1``, ``g1``) always tie: ``c₁x + c₃x³`` needs two
nonscalar mults either way, which is optimal, so ``f1²∘g1²`` keeps the
ladder while every registry PAF with a degree ≥ 5 component gets strictly
cheaper (see ``docs/paf-evaluation.md`` for the accounting).

>>> from repro.paf.bases import g_poly
>>> plan = plan_odd_poly(g_poly(3))          # degree 7, ladder needs 6
>>> plan.use_ps, plan.nonscalar_mults, plan.mult_depth
(True, 5, 3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.paf.polynomial import (
    CompositePAF,
    OddPolynomial,
    Polynomial,
    mult_depth_of_degree,
)

__all__ = [
    "TermPlan",
    "BlockPlan",
    "PolyPlan",
    "CompositePlan",
    "ReluPlan",
    "DensePolyPlan",
    "plan_odd_poly",
    "plan_composite",
    "plan_paf_relu",
    "plan_dense_poly",
    "ladder_nonscalar_mults",
    "dense_ladder_nonscalar_mults",
    "fold_relu_composite",
]


def _rung_bits(value: int) -> tuple:
    """Ascending ``log2`` exponents of the set bits of an even ``value``."""
    bits = []
    e = 0
    while value:
        if value & 1:
            bits.append(e)
        value >>= 1
        e += 1
    return tuple(bits)


def _nonzero_terms(poly: OddPolynomial) -> list:
    """``[(exponent, coeff), ...]`` for the nonzero terms, ascending."""
    terms = [(2 * i + 1, float(c)) for i, c in enumerate(poly.coeffs) if c != 0.0]
    if not terms:
        raise ValueError("polynomial has no nonzero terms")
    return terms


def ladder_nonscalar_mults(poly: OddPolynomial) -> int:
    """Nonscalar mults of the reference ladder evaluation.

    Rungs up to the largest power of two ≤ ``d_eff - 1`` (``d_eff`` the
    highest *nonzero* exponent) plus ``popcount(k-1)`` leaf merges per
    nonzero term — the counts ``eval_odd_poly(reference=True)`` performs.

    >>> from repro.paf.polynomial import OddPolynomial
    >>> ladder_nonscalar_mults(OddPolynomial([1.5, -0.5]))   # c1 x + c3 x^3
    2
    """
    terms = _nonzero_terms(poly)
    degree = terms[-1][0]
    rungs = 0
    rung = 1
    while degree > 1 and rung * 2 <= degree - 1:
        rungs += 1
        rung *= 2
    return rungs + sum(bin(k - 1).count("1") for k, _ in terms)


# ----------------------------------------------------------------------
# plan data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TermPlan:
    """One in-block term ``c · x^exponent`` (exponent local to the block).

    The term is evaluated leaf-first: the depth-1 product ``c·x`` is
    merged, ascending, with the shared even rungs ``x^(2^e)`` for the set
    bits ``e`` of ``exponent - 1`` — landing at depth
    ``⌈log₂(exponent+1)⌉`` with ``len(rungs)`` nonscalar mults.
    """

    exponent: int
    coeff: float
    rungs: tuple

    @property
    def depth(self) -> int:
        return max(1, math.ceil(math.log2(self.exponent + 1)))


@dataclass(frozen=True)
class BlockPlan:
    """The terms of one baby window: exponents ``w·position + exponent``."""

    position: int
    terms: tuple

    @property
    def depth(self) -> int:
        return max(t.depth for t in self.terms)

    @property
    def merge_mults(self) -> int:
        return sum(len(t.rungs) for t in self.terms)


@dataclass(frozen=True)
class PolyPlan:
    """Compiled evaluation plan for one odd polynomial.

    ``use_ps`` selects between the Paterson–Stockmeyer decomposition and
    the term-by-term ladder; the choice is *strictly fewer nonscalar
    mults* — ties go to the ladder (degree-3 components, single-term
    polynomials), mirroring :class:`repro.fhe.linear.MatvecPlan`.
    """

    degree: int          #: highest nonzero exponent
    mult_depth: int      #: levels consumed (identical on both paths)
    window: int          #: baby window ``w = 2^beta``
    shape: str           #: ``"balanced"`` | ``"horner"`` giant combine
    use_ps: bool
    blocks: tuple        #: nonempty :class:`BlockPlan`, ascending position
    block_targets: tuple  #: per-block depth at which the combine consumes it
    rung_top: int        #: build shared rungs ``x^(2^e)`` for ``e = 1..rung_top``
    giant_count: int     #: giant squarings (``x^w, x^2w, …``); horner: 1
    combine_mults: int   #: block-combine nonscalar mults
    ladder_mults: int    #: reference ladder nonscalar count

    @property
    def beta(self) -> int:
        """``log2`` of the baby window."""
        return self.window.bit_length() - 1

    @property
    def ps_mults(self) -> int:
        """Nonscalar mults of the Paterson–Stockmeyer path."""
        return (
            self.rung_top
            + self.giant_count
            + sum(b.merge_mults for b in self.blocks)
            + self.combine_mults
        )

    @property
    def nonscalar_mults(self) -> int:
        """Nonscalar mults of the *chosen* path."""
        return self.ps_mults if self.use_ps else self.ladder_mults

    @property
    def num_leaves(self) -> int:
        """Leaf plaintext products ``c·x`` (one per nonzero coefficient)."""
        return sum(len(b.terms) for b in self.blocks)

    def _leaf_depth(self, block, target: int, term) -> int:
        """Depth at which one term's leaf plaintext product happens.

        A term with rungs starts at its first rung's level; a bare term in
        a multi-term block lands at the block's anchor; a single bare term
        is computed directly where the combine consumes the block.
        """
        if term.rungs:
            return term.rungs[0]
        return target if len(block.terms) == 1 else block.depth

    def leaf_schedule(self, q_chain, level: int, scale: float) -> dict:
        """Exact coordinates of every leaf for an input at ``(level, scale)``.

        Returns ``{(position, exponent): (enc_level, enc_scale,
        target_level, target_scale)}`` — the evaluator multiplies the
        coefficient plaintext encoded at ``(enc_level, enc_scale)``
        against the (mod-switched) input and rescales once, landing the
        leaf at ``(target_level, target_scale)`` on the canonical scale of
        its level with no drift correction.  The serving artifact
        pre-encodes exactly these keys
        (:meth:`ReluPlan.constant_encodings`), so executor encodes hit the
        plaintext cache key-for-key.
        """
        sched = {level: scale}
        s = scale
        for lvl in range(level, level - self.mult_depth, -1):
            s = s * s / q_chain[lvl]
            sched[lvl - 1] = s
        out = {}
        for block, target in zip(self.blocks, self.block_targets):
            for term in block.terms:
                depth = self._leaf_depth(block, target, term)
                tgt_level = level - depth
                enc_scale = sched[tgt_level] * q_chain[tgt_level + 1] / scale
                out[(block.position, term.exponent)] = (
                    tgt_level + 1,
                    enc_scale,
                    tgt_level,
                    sched[tgt_level],
                )
        return out

    def leaf_encodings(self, q_chain, level: int, scale: float) -> list:
        """``(value, level, scale)`` of each coefficient plaintext encode.

        On the ladder path every leaf encodes at the input coordinates;
        on the Paterson–Stockmeyer path at its :meth:`leaf_schedule`
        coordinates.
        """
        if not self.use_ps:
            return [
                (t.coeff, level, scale) for b in self.blocks for t in b.terms
            ]
        coords = self.leaf_schedule(q_chain, level, scale)
        return [
            (t.coeff, *coords[(b.position, t.exponent)][:2])
            for b in self.blocks
            for t in b.terms
        ]


def _build_blocks(terms, window: int) -> dict:
    """Group ``(exponent, coeff)`` terms into baby-window blocks."""
    grouped: dict = {}
    for k, c in terms:
        pos = k // window
        local = k - window * pos
        grouped.setdefault(pos, []).append(
            TermPlan(exponent=local, coeff=c, rungs=_rung_bits(local - 1))
        )
    return {
        pos: BlockPlan(position=pos, terms=tuple(ts))
        for pos, ts in sorted(grouped.items())
    }


def _analyze(blocks: dict, beta: int, shape: str):
    """``(depth, rung_top, giant_count, combine_mults, targets)``.

    ``targets[position]`` is the depth at which the combine first consumes
    the block's value.  The executor computes each block's leaves directly
    at their target (a single scaled plaintext product lands a leaf at any
    level exactly — no drift correction), so the targets double as the
    coefficient-plaintext coordinates ``repro.serve.artifact`` pre-encodes.
    """
    maxpos = max(blocks)
    max_rung_used = max(
        (t.rungs[-1] for b in blocks.values() for t in b.terms if t.rungs),
        default=0,
    )
    if maxpos == 0:
        # single block: the in-block ladder needs no giants at all
        return blocks[0].depth, max_rung_used, 0, 0, {0: blocks[0].depth}
    if shape == "horner":
        # the accumulator sits at depth beta + k after k giant products;
        # each block joins at the accumulator's depth on its turn
        targets = {maxpos: beta}
        depth = beta
        for pos in range(maxpos - 1, -1, -1):
            depth += 1
            if pos in blocks:
                targets[pos] = depth
        return depth, beta - 1, 1, maxpos, targets

    # balanced: recurse over the position space [0, 2^s)
    span = 1
    while span <= maxpos:
        span *= 2
    state = {"combine": 0, "r_max": -1}
    targets: dict = {}

    def rec(lo: int, span_: int, target):
        """Depth of the subtree's value; ``target`` is where the parent
        consumes it (None for the root: the subtree anchors itself)."""
        if span_ == 1:
            b = blocks.get(lo)
            if b is None:
                return None
            targets[lo] = b.depth if target is None else max(b.depth, target)
            return targets[lo]
        half = span_ // 2
        r = half.bit_length() - 1
        gdepth = beta + r
        right = rec(lo + half, half, gdepth)
        if right is None:
            return rec(lo, half, target)
        state["combine"] += 1
        state["r_max"] = max(state["r_max"], r)
        prod = max(gdepth, right) + 1
        left = rec(lo, half, prod)
        return prod if left is None else max(left, prod)

    depth = rec(0, span, None)
    return depth, beta - 1, state["r_max"] + 1, state["combine"], targets


def plan_odd_poly(poly: OddPolynomial, exact_scales: bool = False) -> PolyPlan:
    """Compile the cheapest depth-preserving plan for an odd polynomial.

    Searches baby windows ``w = 2^β`` and both giant-combine shapes,
    keeping the minimum nonscalar-mult candidate whose depth does not
    exceed the ladder's ``⌈log₂(d+1)⌉`` budget (``d`` the highest nonzero
    exponent).  ``use_ps`` is set only on a *strict* win — except under
    ``exact_scales``, which forces the Paterson–Stockmeyer executor even
    on ties: its alignments are exact (rtol 0), so the ciphertext scale
    never leaves the canonical per-level schedule.  The ladder tolerates
    sub-percent mismatches, and on chains deeper than ~20 levels those
    deviations *double* per rescale until the true scale overflows the
    modulus — deep (residual) networks must plan with ``exact_scales``.

    >>> from repro.paf.bases import g_poly
    >>> plan_odd_poly(g_poly(2)).nonscalar_mults     # degree 5: 4 -> 3
    3
    >>> plan_odd_poly(g_poly(1)).use_ps              # degree 3: 2 is optimal
    False
    >>> plan_odd_poly(g_poly(1), exact_scales=True).use_ps
    True
    """
    terms = _nonzero_terms(poly)
    degree = terms[-1][0]
    budget = mult_depth_of_degree(degree)
    ladder = ladder_nonscalar_mults(poly)

    best = None
    for beta in range(1, budget + 1):
        window = 2**beta
        blocks = _build_blocks(terms, window)
        for shape in ("balanced", "horner"):
            depth, rung_top, giants, combine, targets = _analyze(
                blocks, beta, shape
            )
            if depth > budget:
                continue
            total = (
                rung_top
                + giants
                + sum(b.merge_mults for b in blocks.values())
                + combine
            )
            key = (total, depth, beta, shape != "balanced")
            if best is None or key < best[0]:
                best = (key, window, shape, blocks, rung_top, giants, combine, targets)
    _, window, shape, blocks, rung_top, giants, combine, targets = best
    positions = sorted(blocks)
    return PolyPlan(
        degree=degree,
        mult_depth=budget,
        window=window,
        shape=shape,
        use_ps=best[0][0] < ladder or exact_scales,
        blocks=tuple(blocks[p] for p in positions),
        block_targets=tuple(targets[p] for p in positions),
        rung_top=rung_top,
        giant_count=giants,
        combine_mults=combine,
        ladder_mults=ladder,
    )


# ----------------------------------------------------------------------
# composite / ReLU plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompositePlan:
    """Per-component plans for a composite sign PAF (innermost first)."""

    components: tuple

    @property
    def mult_depth(self) -> int:
        return sum(p.mult_depth for p in self.components)

    @property
    def nonscalar_mults(self) -> int:
        return sum(p.nonscalar_mults for p in self.components)

    @property
    def num_leaves(self) -> int:
        return sum(p.num_leaves for p in self.components)


def plan_composite(paf: CompositePAF, exact_scales: bool = False) -> CompositePlan:
    """Compile one :class:`PolyPlan` per component of a composite PAF."""
    return CompositePlan(
        tuple(plan_odd_poly(c, exact_scales=exact_scales) for c in paf.components)
    )


def fold_relu_composite(paf: CompositePAF, scale: float = 1.0) -> CompositePAF:
    """The composite actually evaluated inside the encrypted ReLU.

    The Static-Scaling input scale folds into the innermost component and
    the reconstruction's ½ into the outermost — both free under FHE.
    """
    if scale != 1.0:
        paf = paf.scaled_input(scale)
    comps = list(paf.components)
    comps[-1] = comps[-1].scaled_output(0.5)
    return CompositePAF(comps, name=paf.name, reported_degree=paf.reported_degree)


@dataclass(frozen=True)
class ReluPlan:
    """Everything the encrypted PAF-ReLU evaluation needs, precompiled.

    ``folded`` is the scale-folded, ½-folded composite whose components
    the plans were compiled for; evaluating it and gating
    ``x · (0.5 + 0.5·sign)`` costs ``mult_depth`` levels total.
    """

    folded: CompositePAF
    components: tuple
    scale: float = 1.0
    #: planned with forced-PS components and an exact (rtol 0) gate
    #: alignment — the deep-chain scale discipline (see
    #: :func:`plan_odd_poly`)
    exact_scales: bool = False

    @property
    def mult_depth(self) -> int:
        """Sign depth + 1 for the final ``x · gate`` product."""
        return sum(p.mult_depth for p in self.components) + 1

    @property
    def nonscalar_mults(self) -> int:
        """Sign mults + 1 for the final ``x · gate`` product."""
        return sum(p.nonscalar_mults for p in self.components) + 1

    @property
    def num_leaves(self) -> int:
        return sum(p.num_leaves for p in self.components)

    def constant_encodings(self, q_chain, level: int, scale: float) -> list:
        """``(value, level, scale)`` of every deterministic plaintext encode.

        For an input ciphertext at ``(level, scale)``: each component's
        coefficient leaves at their :meth:`PolyPlan.leaf_encodings`
        coordinates, and the ReLU gate constant ``0.5`` at the sign
        output's coordinates.  Scale-alignment corrections (the few the
        executor still needs, e.g. when summing a multi-term block) are
        excluded; they land in the plaintext cache on first evaluation.
        ``repro.serve.artifact`` walks this list to pre-encode activation
        constants.
        """
        out = []
        for comp_plan in self.components:
            out.extend(comp_plan.leaf_encodings(q_chain, level, scale))
            for _ in range(comp_plan.mult_depth):
                scale = scale * scale / q_chain[level]
                level -= 1
        out.append((0.5, level, scale))
        return out


# ----------------------------------------------------------------------
# dense (non-odd) polynomial plans — the exp/GELU tier
# ----------------------------------------------------------------------
def _dense_terms(poly: Polynomial) -> tuple:
    """``(constant, [(exponent, coeff), ...])`` with exponents ≥ 1."""
    terms = [(k, float(c)) for k, c in enumerate(poly.coeffs) if k >= 1 and c != 0.0]
    if not terms:
        raise ValueError("dense polynomial has no nonzero non-constant terms")
    return float(poly.coeffs[0]), terms


def dense_ladder_nonscalar_mults(poly: Polynomial) -> int:
    """Nonscalar mults of the reference ladder for a dense polynomial.

    Like :func:`ladder_nonscalar_mults` with all exponents admitted: the
    shared rungs ``x^(2^e)`` up to the largest power of two ≤ ``d - 1``,
    plus ``popcount(k-1)`` merges per nonzero term (bit 0 of ``k-1``
    merges against ``x`` itself for even exponents).  The constant term
    is a free plaintext add.

    >>> from repro.paf.polynomial import Polynomial
    >>> dense_ladder_nonscalar_mults(Polynomial([0.1, 0.5, 0.4, 0.2]))
    3
    """
    _, terms = _dense_terms(poly)
    degree = terms[-1][0]
    rungs = 0
    rung = 1
    while degree > 1 and rung * 2 <= degree - 1:
        rungs += 1
        rung *= 2
    return rungs + sum(bin(k - 1).count("1") for k, _ in terms)


def _dense_rung_bits(value: int) -> tuple:
    """Ascending ``log2`` exponents of the set bits of ``value`` (any
    parity — bit 0 names the ``x¹`` rung)."""
    bits = []
    e = 0
    while value:
        if value & 1:
            bits.append(e)
        value >>= 1
        e += 1
    return tuple(bits)


@dataclass(frozen=True)
class DensePolyPlan:
    """Compiled giant-step-Horner Paterson–Stockmeyer plan for a dense
    polynomial.

    The dense twin of :class:`PolyPlan` for the transformer-tier
    activations (GELU, the softmax ``exp``): exponents of *any* parity,
    a constant term (one plaintext add), baby window ``w = 2^β`` and a
    single giant ``x^w`` consumed by a Horner chain over the blocks —
    at the toy degrees in use (3–8) the Horner combine is never beaten
    by a balanced tree within the ladder's
    ``⌈log₂(d+1)⌉`` depth budget, so only that shape is planned.
    ``use_ps`` is a strict nonscalar-mult win exactly like the odd
    planner; ``exact_scales`` forces PS on ties for deep chains.

    >>> from repro.paf.polynomial import Polynomial
    >>> p = Polynomial([0.3, 0.1, -0.2, 0.05, 0.4, 0.0, 0.0, 0.1, 0.02])
    >>> plan = plan_dense_poly(p)                 # degree 8, ladder: 11
    >>> plan.use_ps, plan.nonscalar_mults, plan.mult_depth
    (True, 6, 4)
    """

    degree: int          #: highest nonzero exponent
    mult_depth: int      #: levels consumed (the ladder's budget, both paths)
    window: int          #: baby window ``w = 2^beta``
    use_ps: bool
    constant: float      #: ``c₀`` — one trailing plaintext add, no level
    blocks: tuple        #: ``(position, ((exponent, coeff, rungs), ...))``
    rung_top: int        #: shared rungs ``x^(2^e)``, ``e = 1..rung_top``
    giant_count: int     #: 1 when more than one block (``x^w``), else 0
    combine_mults: int   #: *nonscalar* Horner giant products (constant-
                         #: accumulator steps are scalar mults)
    ladder_mults: int    #: reference ladder nonscalar count

    @property
    def beta(self) -> int:
        return self.window.bit_length() - 1

    @property
    def ps_mults(self) -> int:
        return (
            self.rung_top
            + self.giant_count
            + sum(len(rungs) for _, terms in self.blocks for _, _, rungs in terms)
            + self.combine_mults
        )

    @property
    def nonscalar_mults(self) -> int:
        return self.ps_mults if self.use_ps else self.ladder_mults


def plan_dense_poly(poly: Polynomial, exact_scales: bool = False) -> DensePolyPlan:
    """Compile the cheapest depth-preserving dense-polynomial plan.

    Searches baby windows ``w = 2^β`` for the giant-step-Horner
    decomposition with the fewest nonscalar mults whose depth stays
    within the ladder's ``⌈log₂(d+1)⌉`` budget.  A term whose exponent
    is an exact multiple of the window (local exponent 0) rides the
    block sum as a plaintext constant — no leaf product at all.
    ``exact_scales`` forces the PS executor on ties (the deep-chain
    scale discipline of :func:`plan_odd_poly`).
    """
    constant, terms = _dense_terms(poly)
    degree = terms[-1][0]
    budget = mult_depth_of_degree(degree)
    ladder = dense_ladder_nonscalar_mults(poly)

    best = None
    for beta in range(1, budget + 1):
        window = 2**beta
        grouped: dict = {}
        for k, c in terms:
            pos = k // window
            local = k - window * pos
            rungs = _dense_rung_bits(local - 1) if local >= 1 else ()
            grouped.setdefault(pos, []).append((local, c, rungs))
        maxpos = max(grouped)
        # depth: blocks are ≤ beta deep; the Horner accumulator takes one
        # level per giant product walking maxpos positions down to 0
        block_depth = max(
            (
                max(1, math.ceil(math.log2(local + 1)))
                for ts in grouped.values()
                for local, _, _ in ts
                if local >= 1
            ),
            default=0,
        )
        depth = max(block_depth, beta if maxpos else 0) + maxpos
        if depth > budget:
            continue
        max_rung_used = max(
            (rungs[-1] for ts in grouped.values() for _, _, rungs in ts if rungs),
            default=0,
        )
        rung_top = max(max_rung_used, beta - 1 if maxpos else 0)
        giants = 1 if maxpos else 0
        merge = sum(len(rungs) for ts in grouped.values() for _, _, rungs in ts)
        # Horner steps multiply the accumulator by the giant once per
        # position; a constant-only *top* block (the window divides the
        # degree exactly) starts the accumulator as a plain constant, so
        # its first giant product is a scalar mult, not a nonscalar one —
        # after that the accumulator is a ciphertext for good
        top_has_ct = any(local >= 1 for local, _, _ in grouped[maxpos])
        combine = maxpos if top_has_ct else max(maxpos - 1, 0)
        total = rung_top + giants + merge + combine
        key = (total, depth, beta)
        if best is None or key < best[0]:
            best = (key, window, grouped, rung_top, giants, combine)
    if best is None:
        raise ValueError(
            f"no depth-{budget} giant-step decomposition for degree {degree}"
        )
    _, window, grouped, rung_top, giants, combine = best
    return DensePolyPlan(
        degree=degree,
        mult_depth=budget,
        window=window,
        use_ps=best[0][0] < ladder or exact_scales,
        constant=constant,
        blocks=tuple(
            (pos, tuple(ts)) for pos, ts in sorted(grouped.items())
        ),
        rung_top=rung_top,
        giant_count=giants,
        combine_mults=combine,
        ladder_mults=ladder,
    )


def plan_paf_relu(
    paf: CompositePAF, scale: float = 1.0, exact_scales: bool = False
) -> ReluPlan:
    """Compile the evaluation plan for ``ReLU(x) ≈ x·(0.5 + 0.5·sign)``.

    Folds the static scale and the ½ first so the plans see the exact
    coefficients the evaluator multiplies.  ``exact_scales`` forces the
    Paterson–Stockmeyer executor for every component (ties included) and
    an exact gate alignment — mandatory on deep chains, where the ladder
    path's tolerated sub-percent mismatches compound double-exponentially.
    """
    folded = fold_relu_composite(paf, scale)
    return ReluPlan(
        folded=folded,
        components=tuple(
            plan_odd_poly(c, exact_scales=exact_scales) for c in folded.components
        ),
        scale=scale,
        exact_scales=exact_scales,
    )
