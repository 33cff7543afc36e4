"""Property tests for the Paterson–Stockmeyer polynomial planner.

Pure combinatorics (no ring data): the plan must never exceed the
nonscalar-mult count the term-by-term oracle *measures* on shadow
ciphertexts (``poly_oracle``, ``tests/conftest.py`` — there is no
closed-form ladder count), must spend exactly the level budget
``ceil(log2(d+1))``, cover every nonzero term exactly once, and compile
an odd polynomial and its zero-interleaved dense spelling to one plan.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.poly_eval import eval_poly
from repro.ckks.poly_plan import plan_composite, plan_paf_relu, plan_poly
from repro.paf import get_paf
from repro.paf.bases import g_poly
from repro.paf.polynomial import OddPolynomial, Polynomial, mult_depth_of_degree

#: pinned per-component counts: (oracle ladder mults, plan mults)
COMPONENT_PINS = {
    1: (2, 2),    # degree 3 (g1/f1): two mults are optimal
    2: (4, 3),    # degree 5 (g2/f2): Horner giant chain
    3: (6, 5),    # degree 7 (g3, minimax-7): balanced giants
}


def _mults(poly_oracle, fn, poly) -> int:
    """Ciphertext mults ``fn(ev, ct, poly)`` performs, measured in shadow."""
    return poly_oracle.shadow_counts(lambda ev, ct: fn(ev, ct, poly))["mul"]


def _covered(plan) -> list:
    """``(exponent, coeff)`` of every planned term, constants included."""
    out = []
    for b in plan.blocks:
        if b.constant:
            out.append((plan.window * b.position, b.constant))
        out.extend((plan.window * b.position + t.exponent, t.coeff) for t in b.terms)
    return sorted(out)


class TestComponentPins:
    @pytest.mark.parametrize("n", sorted(COMPONENT_PINS))
    def test_g_family(self, poly_oracle, n):
        ladder, ps = COMPONENT_PINS[n]
        plan = plan_poly(g_poly(n))
        assert plan.nonscalar_mults == _mults(poly_oracle, eval_poly, g_poly(n)) == ps
        assert _mults(poly_oracle, poly_oracle.eval_poly, g_poly(n)) == ladder
        assert plan.mult_depth == mult_depth_of_degree(2 * n + 1)

    def test_degree_27_minimax(self, poly_oracle):
        from repro.paf.minimax import minimax_alpha10_deg27

        deep = minimax_alpha10_deg27().components[-1]
        assert deep.degree == 27
        plan = plan_poly(deep)
        assert _mults(poly_oracle, poly_oracle.eval_poly, deep) == 29
        assert plan.nonscalar_mults == _mults(poly_oracle, eval_poly, deep) == 17
        assert plan.mult_depth == 5

    def test_registry_composites_never_worse(self, poly_oracle):
        for form in ("f1g2", "f2g2", "f2g3", "alpha7", "f1f1g1g1"):
            paf = get_paf(form)
            plan = plan_composite(paf)
            ladder = sum(
                _mults(poly_oracle, poly_oracle.eval_poly, c) for c in paf.components
            )
            assert plan.nonscalar_mults <= ladder
            assert plan.mult_depth == paf.mult_depth

    def test_relu_plan_depth_and_gate(self):
        paf = get_paf("f2g3")
        plan = plan_paf_relu(paf, scale=2.0)
        assert plan.mult_depth == paf.mult_depth + 1
        assert plan.scale == 2.0
        # folding preserves degrees, so leaf count == coefficient count
        assert sum(len(b.terms) for p in plan.components for b in p.blocks) == paf.num_coeffs()


class TestPlanStructure:
    def test_zero_polynomial_rejected_upfront(self):
        with pytest.raises(ValueError, match="no nonzero terms"):
            plan_poly(OddPolynomial([0.0, 0.0]))

    def test_degree_one_costs_no_ciphertext_mult(self, poly_oracle):
        """``c·x`` is one plaintext product: 0 ct-mults at depth 1."""
        poly = OddPolynomial([0.7])
        plan = plan_poly(poly)
        assert plan.nonscalar_mults == _mults(poly_oracle, eval_poly, poly) == 0
        assert plan.mult_depth == 1

    def test_trailing_zeros_use_effective_degree(self):
        """A trained-to-zero top coefficient shrinks the plan, not the
        nominal ``OddPolynomial.degree``."""
        plan = plan_poly(OddPolynomial([1.0, -0.3, 0.0, 0.0]))
        assert plan.degree == 3
        assert plan.mult_depth == 2

    def test_blocks_cover_terms_exactly_once(self):
        poly = g_poly(3)
        assert _covered(plan_poly(poly)) == [
            (2 * i + 1, float(c)) for i, c in enumerate(poly.coeffs) if c
        ]

    def test_window_dividing_the_degree_keeps_the_top_block_plaintext(self):
        """``x⁴`` with ``w | 4``: the top block is constant-only, so its
        giant product is a scalar mult the plan does not count."""
        plan = plan_poly(Polynomial([0.5, 0.0, 0.0, 0.0, 1.5]))
        top = plan.blocks[-1]
        assert (top.terms, top.constant) == ((), 1.5)
        assert plan.blocks[0].constant == 0.5          # c0 is block 0's
        assert plan.nonscalar_mults == 2               # x², x⁴; no ct-ct combine
        assert plan.mult_depth == 3

    def test_matches_only_the_coefficients_it_was_compiled_for(self):
        plan = plan_poly(g_poly(2))
        assert plan.matches(g_poly(2))
        assert plan.matches(Polynomial(g_poly(2).dense_coeffs()))
        assert not plan.matches(g_poly(2).scaled_output(0.5))
        assert not plan.matches(g_poly(3))

    def test_planning_leaves_no_reference_cycles(self):
        """Every candidate plan the search builds is freed by reference
        counting as soon as it loses: nothing waits for the cyclic
        collector (a self-calling closure in the balanced combine's
        analysis once left 38 objects per call)."""
        plan_poly(g_poly(3))  # first-call imports and caches are not garbage
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            plan_poly(g_poly(3))
            gc.collect()
            left = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []


class TestOddIsDense:
    """An odd polynomial is a dense one whose even coefficients are zero:
    both spellings compile to the same plan."""

    @pytest.mark.parametrize("form", ["f1g2", "f2g3", "alpha7", "alpha10"])
    def test_registry_components(self, form):
        for comp in get_paf(form).components:
            assert plan_poly(comp) == plan_poly(Polynomial(comp.dense_coeffs()))

    def test_sparse_odd(self):
        odd = OddPolynomial([0.0, 1.25, 0.0, 0.0, -0.5])
        assert plan_poly(odd) == plan_poly(Polynomial(odd.dense_coeffs()))


class TestPlanProperties:
    @given(
        degree=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sparsity=st.floats(min_value=0.0, max_value=0.8),
        odd=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_worse_and_depth_bounded(self, poly_oracle, degree, seed, sparsity, odd):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(degree + 1) // 2 if odd else degree + 1)
        coeffs[rng.random(len(coeffs)) < sparsity] = 0.0
        coeffs[-1] = coeffs[-1] or 1.0
        if odd:
            poly = OddPolynomial(coeffs)
            want = [(2 * i + 1, float(c)) for i, c in enumerate(coeffs) if c]
        else:
            poly = Polynomial(coeffs)
            want = [(k, float(c)) for k, c in enumerate(coeffs) if c]
        plan = plan_poly(poly)
        # the plan's count is what the executor performs, and never more
        # than the term-by-term oracle's, both measured
        assert plan.nonscalar_mults == _mults(poly_oracle, eval_poly, poly)
        assert plan.nonscalar_mults <= _mults(poly_oracle, poly_oracle.eval_poly, poly)
        assert plan.mult_depth == mult_depth_of_degree(plan.degree)
        # every nonzero term appears exactly once, with its coefficient
        assert _covered(plan) == want
        # one leaf product per term that is not a block constant
        assert sum(len(b.terms) for b in plan.blocks) == len(want) - sum(
            bool(b.constant) for b in plan.blocks
        )
