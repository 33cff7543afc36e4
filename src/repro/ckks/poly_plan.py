"""Compile polynomials into Paterson–Stockmeyer evaluation plans.

One plan type and one planner serve every polynomial the repo evaluates
on ciphertexts — the odd minimax components of the sign PAFs
(:class:`~repro.paf.polynomial.OddPolynomial`) and the dense GELU /
softmax-``exp`` / evalmod-``cos`` fits
(:class:`~repro.paf.polynomial.Polynomial`): an odd polynomial is a dense
one whose even coefficients are zero.  Paterson–Stockmeyer (baby-step /
giant-step over polynomial terms) shares the high bits of the exponents
across terms:

* pick a baby window ``w = 2^β``; *block* ``j`` collects the terms with
  exponents in ``[w·j, w·j + w - 1]``;
* inside a block, each term of local exponent ``e ≥ 1`` keeps the
  depth-optimal *leaf fold*: the coefficient rides the plaintext product
  ``c·x`` and merges the shared rungs ``x, x², x⁴, …`` named by the set
  bits of ``e - 1``; a term of local exponent 0 (the window divides its
  exponent — ``c₀`` is block 0's) stays a plaintext constant;
* blocks combine through the *giant* powers ``x^{w·2^r}`` — either a
  balanced tree (depth ``β + ⌈log₂ m⌉`` for ``m`` blocks) or a giant-step
  Horner chain (depth ``β + m - 1``, but only one giant power to build);
* :func:`plan_poly` searches ``(β, combine shape)`` for the minimum
  nonscalar-mult count **subject to consuming exactly the level budget**
  ``⌈log₂(d+1)⌉`` — the Appendix-C depth schedule is preserved, so CKKS
  parameters never grow.

The plan is symbolic (no ciphertexts, no numpy): compiling is cheap enough
to do per network layer at build time, and it fixes the exact ``(level,
scale)`` of every coefficient plaintext (:meth:`PolyPlan.leaf_schedule`).
Neither its op counts nor its encodes are restated anywhere: the cost
model — and the serving artifact's warm-up — run the plan's executor
(:func:`repro.ckks.poly_eval.eval_poly`) over shadow ciphertexts
(:class:`repro.ckks.shadow.ShadowEvaluator`).  The naive term-by-term
evaluation it is differentially tested against lives with the tests
(``tests/conftest.py``), not here — see ``docs/paf-evaluation.md``.

>>> from repro.paf.bases import g_poly
>>> plan = plan_poly(g_poly(3))              # degree 7
>>> plan.window, plan.shape, plan.nonscalar_mults, plan.mult_depth
(2, 'balanced', 5, 3)
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
    "plan_poly",
    "plan_composite",
    "plan_paf_relu",
    "fold_relu_composite",
]


def _coeffs(poly: OddPolynomial | Polynomial) -> dict:
    """``{exponent: coefficient}`` of the nonzero terms of either type."""
    dense = poly.dense_coeffs() if isinstance(poly, OddPolynomial) else poly.coeffs
    return {k: float(c) for k, c in enumerate(dense) if c != 0.0}


def _rung_bits(value: int) -> tuple:
    """Ascending ``log2`` exponents of the set bits of ``value``."""
    return tuple(e for e in range(value.bit_length()) if value >> e & 1)


def _canonical_schedule(q_chain, level: int, scale: float, depth: int) -> dict:
    """``{level: scale}`` down ``depth`` rescales: ``S_{l-1} = S_l² / q_l``."""
    sched = {level: scale}
    for lvl in range(level, level - depth, -1):
        scale = scale * scale / q_chain[lvl]
        sched[lvl - 1] = scale
    return sched


# ----------------------------------------------------------------------
# plan data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TermPlan:
    """One in-block term ``c · x^exponent`` (exponent ≥ 1, block-local).

    The term is evaluated leaf-first: the plaintext product ``c·x`` is
    merged, ascending, with the shared rungs ``x^(2^e)`` for the set bits
    ``e`` of ``exponent - 1`` (bit 0 names ``x`` itself: an even
    exponent) — landing at depth ``⌈log₂(exponent+1)⌉`` with
    ``len(rungs)`` nonscalar mults.
    """

    exponent: int
    coeff: float
    rungs: tuple

    @property
    def depth(self) -> int:
        return max(1, math.ceil(math.log2(self.exponent + 1)))


@dataclass(frozen=True)
class BlockPlan:
    """One baby window: ``(constant + Σ terms) · x^(w·position)``."""

    position: int
    terms: tuple           #: the ciphertext part (empty: constant-only)
    constant: float = 0.0  #: local exponent 0 — stays plaintext

    @property
    def depth(self) -> int:
        """Depth of the ciphertext part; 0 for a constant-only block."""
        return max((t.depth for t in self.terms), default=0)

    @property
    def merge_mults(self) -> int:
        return sum(len(t.rungs) for t in self.terms)


@dataclass(frozen=True)
class PolyPlan:
    """Compiled Paterson–Stockmeyer plan for one polynomial."""

    degree: int          #: highest nonzero exponent
    mult_depth: int      #: levels consumed: ``⌈log₂(degree+1)⌉``
    window: int          #: baby window ``w = 2^beta``
    shape: str           #: ``"balanced"`` | ``"horner"`` giant combine
    blocks: tuple        #: nonempty :class:`BlockPlan`, ascending position
    block_targets: tuple  #: per-block depth at which the combine consumes it
    rung_top: int        #: build shared rungs ``x^(2^e)`` for ``e = 1..rung_top``
    giant_count: int     #: giant squarings (``x^w, x^2w, …``); horner: 1
    combine_mults: int   #: *nonscalar* block-combine products (a giant
                         #: times a still-plaintext constant is a scalar one)

    @property
    def beta(self) -> int:
        """``log2`` of the baby window."""
        return self.window.bit_length() - 1

    @property
    def nonscalar_mults(self) -> int:
        """Ciphertext×ciphertext multiplications the executor performs."""
        return (
            self.rung_top
            + self.giant_count
            + sum(b.merge_mults for b in self.blocks)
            + self.combine_mults
        )

    def matches(self, poly: OddPolynomial | Polynomial) -> bool:
        """Whether ``poly`` has exactly the coefficients compiled in here
        (a plan outlives a retuned polynomial silently otherwise)."""
        mine = {}
        for b in self.blocks:
            if b.constant != 0.0:
                mine[self.window * b.position] = b.constant
            for t in b.terms:
                mine[self.window * b.position + t.exponent] = t.coeff
        return mine == _coeffs(poly)

    def _leaf_depth(self, block, target: int, term) -> int:
        """Depth at which one term's leaf plaintext product happens.

        A term with rungs starts at its first rung's level (depth 1 when
        that rung is ``x`` itself: the leaf costs a level); a bare term in
        a multi-term block lands at the block's anchor; a single bare term
        is computed directly where the combine consumes the block.
        """
        if term.rungs:
            return max(1, term.rungs[0])
        return target if len(block.terms) == 1 else block.depth

    def leaf_schedule(self, q_chain, level: int, scale: float) -> dict:
        """Exact coordinates of every leaf for an input at ``(level, scale)``.

        Returns ``{(position, exponent): (enc_level, enc_scale,
        target_level, target_scale)}`` — the evaluator multiplies the
        coefficient plaintext encoded at ``(enc_level, enc_scale)``
        against the (mod-switched) input and rescales once, landing the
        leaf at ``(target_level, target_scale)`` on the canonical scale of
        its level with no drift correction.  The coordinates depend only
        on the plan and the input's ``(level, scale)``: a fixed network
        encodes each coefficient at one key, which the compiled network's
        plaintext store holds.
        """
        sched = _canonical_schedule(q_chain, level, scale, self.mult_depth)
        out = {}
        for block, target in zip(self.blocks, self.block_targets):
            for term in block.terms:
                tgt_level = level - self._leaf_depth(block, target, term)
                enc_scale = sched[tgt_level] * q_chain[tgt_level + 1] / scale
                out[(block.position, term.exponent)] = (
                    tgt_level + 1,
                    enc_scale,
                    tgt_level,
                    sched[tgt_level],
                )
        return out


def _build_blocks(coeffs: dict, window: int) -> dict:
    """Group ``{exponent: coeff}`` into baby-window blocks by position."""
    blocks = {}
    for pos in sorted({k // window for k in coeffs}):
        base = window * pos
        terms = tuple(
            TermPlan(e, coeffs[base + e], _rung_bits(e - 1))
            for e in range(1, window)
            if base + e in coeffs
        )
        blocks[pos] = BlockPlan(pos, terms, coeffs.get(base, 0.0))
    return blocks


def _analyze(blocks: dict, beta: int, shape: str):
    """``(depth, rung_top, giant_count, combine_mults, targets)``.

    ``targets[position]`` is the depth at which the combine first consumes
    the block's ciphertext part.  The executor computes each block's
    leaves directly at their target (a single scaled plaintext product
    lands a leaf at any level exactly — no drift correction), so the
    targets double as the coefficient-plaintext coordinates
    (:meth:`PolyPlan.leaf_schedule`).  A value stays plaintext
    (depth 0) until a ciphertext term or a giant product touches it.
    """
    maxpos = max(blocks)
    if maxpos == 0:
        # single block: the in-block merges need no giants at all
        rung_top = max((t.rungs[-1] for t in blocks[0].terms if t.rungs), default=0)
        return blocks[0].depth, rung_top, 0, 0, {0: blocks[0].depth}
    if shape == "horner":
        # the accumulator sits at depth beta + k after k giant products;
        # each block joins at the accumulator's depth on its turn
        targets = {maxpos: beta}
        depth = beta
        for pos in range(maxpos - 1, -1, -1):
            depth += 1
            if pos in blocks:
                targets[pos] = depth
        # a constant-only top block makes the first giant product scalar
        combine = maxpos if blocks[maxpos].terms else maxpos - 1
        return depth, beta - 1, 1, combine, targets

    # balanced: recurse over the position space [0, 2^s)
    state = {"combine": 0, "r_max": -1}
    targets: dict = {}

    def rec(lo: int, span_: int, target):
        """Depth of the subtree's value (None: no blocks, 0: plaintext);
        ``target`` is where the parent consumes it (None for the root:
        the subtree anchors itself)."""
        if span_ == 1:
            b = blocks.get(lo)
            if b is None:
                return None
            if not b.terms:
                return 0
            targets[lo] = b.depth if target is None else max(b.depth, target)
            return targets[lo]
        half = span_ // 2
        r = half.bit_length() - 1
        gdepth = beta + r
        right = rec(lo + half, half, gdepth)
        if right is None:
            return rec(lo, half, target)
        state["combine"] += right > 0
        state["r_max"] = max(state["r_max"], r)
        prod = max(gdepth, right) + 1
        left = rec(lo, half, prod)
        return max(left or 0, prod)

    depth = rec(0, 1 << maxpos.bit_length(), None)
    return depth, beta - 1, state["r_max"] + 1, state["combine"], targets


def plan_poly(poly: OddPolynomial | Polynomial) -> PolyPlan:
    """Compile the cheapest depth-preserving plan for a polynomial.

    Searches baby windows ``w = 2^β`` and both giant-combine shapes,
    keeping the minimum nonscalar-mult candidate whose depth stays inside
    the ``⌈log₂(d+1)⌉`` budget (``d`` the highest nonzero exponent; no
    evaluation of ``c·x^d`` is shallower, so every candidate kept spends
    exactly the budget).  Ties go to the smaller window, then to the
    balanced combine.

    >>> from repro.paf.bases import g_poly
    >>> plan_poly(g_poly(2)).nonscalar_mults         # degree 5
    3
    >>> plan_poly(g_poly(1)).nonscalar_mults         # degree 3: 2 is optimal
    2
    >>> p = Polynomial([0.3, 0.1, -0.2, 0.05, 0.4, 0.0, 0.0, 0.1, 0.02])
    >>> plan = plan_poly(p)                          # degree 8, dense
    >>> plan.window, plan.nonscalar_mults, plan.mult_depth
    (2, 6, 4)
    """
    coeffs = _coeffs(poly)
    degree = max(coeffs, default=0)
    if degree < 1:
        raise ValueError("polynomial has no nonzero terms above the constant")
    budget = mult_depth_of_degree(degree)

    best = None
    for beta in range(1, budget + 1):
        blocks = _build_blocks(coeffs, 2**beta)
        for shape in ("balanced", "horner"):
            depth, rung_top, giants, combine, targets = _analyze(blocks, beta, shape)
            if depth > budget:
                continue
            merges = sum(b.merge_mults for b in blocks.values())
            key = (rung_top + giants + merges + combine, beta, shape != "balanced")
            if best is None or key < best[0]:
                best = (key, shape, blocks, rung_top, giants, combine, targets)
    (_, beta, _), shape, blocks, rung_top, giants, combine, targets = best
    return PolyPlan(
        degree=degree,
        mult_depth=budget,
        window=2**beta,
        shape=shape,
        blocks=tuple(blocks[p] for p in sorted(blocks)),
        block_targets=tuple(targets.get(p, 0) for p in sorted(blocks)),
        rung_top=rung_top,
        giant_count=giants,
        combine_mults=combine,
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


def plan_composite(paf: CompositePAF) -> CompositePlan:
    """Compile one :class:`PolyPlan` per component of a composite PAF."""
    return CompositePlan(tuple(plan_poly(c) for c in paf.components))


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

    @property
    def mult_depth(self) -> int:
        """Sign depth + 1 for the final ``x · gate`` product."""
        return sum(p.mult_depth for p in self.components) + 1

    @property
    def nonscalar_mults(self) -> int:
        """Sign mults + 1 for the final ``x · gate`` product."""
        return sum(p.nonscalar_mults for p in self.components) + 1


def plan_paf_relu(paf: CompositePAF, scale: float = 1.0) -> ReluPlan:
    """Compile the evaluation plan for ``ReLU(x) ≈ x·(0.5 + 0.5·sign)``.

    Folds the static scale and the ½ first so the plans see the exact
    coefficients the evaluator multiplies.
    """
    folded = fold_relu_composite(paf, scale)
    return ReluPlan(
        folded=folded,
        components=tuple(plan_poly(c) for c in folded.components),
        scale=scale,
    )
