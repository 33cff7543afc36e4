"""Differential suite: Paterson–Stockmeyer vs ladder vs plaintext PAF.

Every registry PAF is evaluated on ciphertexts by the one executor and
by the term-by-term ladder oracle (``poly_oracle``, ``tests/conftest.py``)
and decrypted against the plaintext ``paf_relu`` reference; the two must
agree with each other (they compute the same polynomial) and with the
plaintext within the CKKS noise bar, and the executor's level
consumption must equal the analytic ``mult_depth`` exactly.

Random odd *and dense* polynomials (hypothesis) run end-to-end on a small
ring so the plan executor is exercised far beyond the registry's
coefficient shapes, and every one must exit on the canonical scale of
the level ``mult_depth`` below its input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    eval_composite_paf,
    eval_paf_max,
    eval_paf_relu,
    eval_poly,
    keygen,
    plan_paf_relu,
    plan_poly,
)
from repro.paf import PAF_REGISTRY, get_paf
from repro.paf.polynomial import OddPolynomial, Polynomial
from repro.paf.relu import paf_max, paf_relu, relu_mult_depth

ALL_FORMS = sorted(PAF_REGISTRY)
#: the paper's low-degree forms — tight noise bars hold at test-grade Δ=2^25
LOW_DEGREE_FORMS = sorted(set(ALL_FORMS) - {"alpha10"})


@pytest.fixture(scope="module")
def rt():
    """One deep context covering every registry PAF (alpha10 needs 11)."""
    ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=11))
    keys = keygen(ctx, seed=0)
    return ctx, CkksEvaluator(ctx, keys)


class TestRegistryDifferential:
    @pytest.mark.parametrize("form", LOW_DEGREE_FORMS)
    def test_relu_ps_vs_ladder_vs_plaintext(self, rt, poly_oracle, form):
        ctx, ev = rt
        paf = get_paf(form)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_paf_relu(ev, ct, paf)
        out_ladder = poly_oracle.paf_relu(ev, ct, paf)
        got_ps = ev.decrypt(out_ps)
        got_ladder = ev.decrypt(out_ladder)
        ref = paf_relu(x, paf)
        # the two encrypted paths compute the same polynomial: they agree
        # with each other within noise, and with the plaintext reference
        np.testing.assert_allclose(got_ps, got_ladder, atol=5e-2)
        np.testing.assert_allclose(got_ps, ref, atol=5e-2)
        # the new path matches the analytic depth schedule exactly
        assert ctx.max_level - out_ps.level == relu_mult_depth(paf)
        assert out_ps.level == out_ladder.level

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_sign_level_consumption_equals_mult_depth(self, rt, form):
        ctx, ev = rt
        paf = get_paf(form)
        x = np.linspace(-1, 1, ctx.slots)
        out = eval_composite_paf(ev, ev.encrypt(x), paf)
        assert ctx.max_level - out.level == paf.mult_depth

    def test_alpha10_error_bounded_with_exact_aligns(self, rt, poly_oracle):
        """The α=10 baseline's degree-27 minimax component carries
        coefficients up to ~2.7e3, which dominate the noise budget at
        test-grade Δ=2^25 — exactly the head-room problem that motivates
        the paper's low-degree PAFs (it needs the 881-bit paper-grade
        moduli).  With every align exact the error stays bounded on the
        executor *and* on the term-by-term oracle; the ladder that
        tolerated sub-percent scale mismatches was 250x worse here (max
        error 334 vs 1.3), which is why no tolerant align survives."""
        ctx, ev = rt
        paf = get_paf("alpha10")
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_paf_relu(ev, ct, paf)
        out_ladder = poly_oracle.paf_relu(ev, ct, paf)
        ref = paf_relu(x, paf)
        assert np.abs(ev.decrypt(out_ps) - ref).max() < 2.0
        assert np.abs(ev.decrypt(out_ladder) - ref).max() < 2.0
        assert ctx.max_level - out_ps.level == relu_mult_depth(paf)
        assert (out_ps.level, out_ps.scale) == (out_ladder.level, out_ladder.scale)

    @pytest.mark.parametrize("form", ["f1g2", "f2g3"])
    def test_static_scale_folding(self, rt, poly_oracle, form):
        ctx, ev = rt
        paf = get_paf(form)
        rng = np.random.default_rng(3)
        x = rng.uniform(-4, 4, ctx.slots)
        ct = ev.encrypt(x)
        got = ev.decrypt(eval_paf_relu(ev, ct, paf, scale=4.0))
        got_ref = ev.decrypt(poly_oracle.paf_relu(ev, ct, paf, scale=4.0))
        np.testing.assert_allclose(got, got_ref, atol=0.2)
        np.testing.assert_allclose(got, paf_relu(x, paf, scale=4.0), atol=0.2)

    def test_precompiled_plan_is_bit_identical(self, rt):
        """Passing the plan explicitly (the network path) changes nothing."""
        ctx, ev = rt
        paf = get_paf("f2g2")
        x = np.linspace(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        plan = plan_paf_relu(paf)
        a = eval_paf_relu(ev, ct, paf, plan=plan)
        b = eval_paf_relu(ev, ct, paf)
        assert np.array_equal(a.data, b.data)

    def test_plan_for_wrong_scale_rejected(self, rt):
        """A plan folded for one static scale cannot silently evaluate at
        another — the fold would be dropped and the output wrong."""
        ctx, ev = rt
        paf = get_paf("f1g2")
        ct = ev.encrypt(np.linspace(-1, 1, ctx.slots))
        plan = plan_paf_relu(paf)                    # scale 1.0
        with pytest.raises(ValueError, match="static scale"):
            eval_paf_relu(ev, ct, paf, scale=4.0, plan=plan)

    def test_stale_plan_rejected(self, rt):
        """A plan compiled before the coefficients were retuned (Coefficient
        Tuning / Alternate Training) must not silently evaluate the old
        polynomial: f1∘g2's plan handed f2∘g2 used to return f1∘g2."""
        ctx, ev = rt
        ct = ev.encrypt(np.linspace(-1, 1, ctx.slots))
        stale = plan_paf_relu(get_paf("f1g2"))
        with pytest.raises(ValueError, match="other coefficients"):
            eval_paf_relu(ev, ct, get_paf("f2g2"), plan=stale)
        retuned = get_paf("f1g2").with_flat_coeffs(get_paf("f1g2").flat_coeffs() * 1.01)
        with pytest.raises(ValueError, match="other coefficients"):
            eval_paf_relu(ev, ct, retuned, plan=stale)
        g2, g3 = get_paf("f1g2").components[0], get_paf("f2g3").components[0]
        with pytest.raises(ValueError, match="other coefficients"):
            eval_poly(ev, ct, g3, plan=plan_poly(g2))

    def test_paf_max_matches_plaintext(self, rt):
        """Pairwise max with every align exact: against the plaintext
        ``(a+b)/2 + |a-b|/2`` through the same PAF, on the canonical exit."""
        ctx, ev = rt
        paf = get_paf("f1g2")
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, ctx.slots)
        y = rng.uniform(-1, 1, ctx.slots)
        out = eval_paf_max(ev, ev.encrypt(x), ev.encrypt(y), paf, scale=2.0)
        want = paf_max(x, y, paf, scale=2.0)
        np.testing.assert_allclose(ev.decrypt(out), want, atol=5e-3)
        assert ctx.max_level - out.level == relu_mult_depth(paf)
        assert out.scale == ctx.canonical_scale(out.level)


def _random_poly(rng, family: str, degree: int, sparsity: float):
    """One polynomial of the family, coefficients bounded so intermediate
    values stay inside the scale headroom — the property under test is
    structural equivalence."""
    if family == "power-of-two":              # every window divides the degree:
        degree = 2 ** int(np.log2(degree))    # the top block is constant-only
    coeffs = rng.uniform(-2, 2, (degree + 1) // 2 if family == "odd" else degree + 1)
    coeffs[rng.random(len(coeffs)) < sparsity] = 0.0
    if family == "zero-run":                  # a hole of half the terms
        coeffs[1 : 1 + len(coeffs) // 2] = 0.0
    coeffs[-1] = coeffs[-1] or 1.0
    return OddPolynomial(coeffs) if family == "odd" else Polynomial(coeffs)


class TestHypothesisRandomPolynomials:
    @given(
        family=st.sampled_from(["odd", "dense", "zero-run", "power-of-two"]),
        degree=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sparsity=st.floats(min_value=0.0, max_value=0.7),
    )
    @settings(max_examples=24, deadline=None)
    def test_ps_matches_ladder_and_plaintext(
        self, rt, poly_oracle, family, degree, seed, sparsity
    ):
        ctx, ev = rt
        rng = np.random.default_rng(seed)
        poly = _random_poly(rng, family, degree, sparsity)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_poly(ev, ct, poly)
        out_ladder = poly_oracle.eval_poly(ev, ct, poly)
        np.testing.assert_allclose(
            ev.decrypt(out_ps), ev.decrypt(out_ladder), atol=5e-2
        )
        np.testing.assert_allclose(ev.decrypt(out_ps), poly(x), atol=5e-2)
        # the exit is exact: mult_depth levels down, on the canonical scale
        # of that level — and the oracle, all aligns exact, lands there too
        level = ctx.max_level - plan_poly(poly).mult_depth
        assert (out_ps.level, out_ps.scale) == (level, ctx.canonical_scale(level))
        assert (out_ladder.level, out_ladder.scale) == (out_ps.level, out_ps.scale)


class TestDensePolynomial:
    """The dense (exp / GELU tier) inputs of the one executor, against the
    term-by-term ladder — the op-level pair behind ``PolyNode`` and the
    attention softmax."""

    @pytest.mark.parametrize("degree", [5, 8, 12])
    def test_ps_matches_ladder_and_plaintext(self, rt, poly_oracle, degree):
        ctx, ev = rt
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-1, 1, degree + 1)
        coeffs[-1] = 0.5  # nonzero leading coefficient
        poly = Polynomial(coeffs)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_poly(ev, ct, poly)
        out_ladder = poly_oracle.eval_poly(ev, ct, poly)
        np.testing.assert_allclose(
            ev.decrypt(out_ps), ev.decrypt(out_ladder), atol=5e-2
        )
        np.testing.assert_allclose(ev.decrypt(out_ps), poly(x), atol=5e-2)
        # both consume exactly ceil(log2(d+1)) levels and land on the
        # canonical scale of the target level
        assert out_ps.level == out_ladder.level
        assert ctx.max_level - out_ps.level == int(np.ceil(np.log2(degree + 1)))
        assert out_ps.scale == out_ladder.scale == ctx.canonical_scale(out_ps.level)


class TestOddIsDense:
    """An odd polynomial is a dense one whose even coefficients are zero:
    equal plans (``test_poly_plan.py``) and byte-equal ciphertexts."""

    @pytest.mark.parametrize("coeffs", [(1.5, -0.5), (2.1, -1.3, 0.0, 0.4), (0.0, 0.7, -0.2)])
    def test_byte_equal_ciphertexts(self, rt, coeffs):
        ctx, ev = rt
        odd = OddPolynomial(coeffs)
        dense = Polynomial(odd.dense_coeffs())
        assert plan_poly(odd) == plan_poly(dense)
        ct = ev.encrypt(np.linspace(-1, 1, ctx.slots))
        a, b = eval_poly(ev, ct, odd), eval_poly(ev, ct, dense)
        assert (a.level, a.scale) == (b.level, b.scale)
        assert np.array_equal(a.data, b.data)
