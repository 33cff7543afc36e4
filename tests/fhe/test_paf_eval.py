"""Differential suite: Paterson–Stockmeyer vs ladder vs plaintext PAF.

Every registry PAF is evaluated on ciphertexts along both activation
paths and decrypted against the plaintext ``paf_relu`` reference; the
paths must agree with each other (they compute the same polynomial) and
with the plaintext within the CKKS noise bar, and the level consumption
of the new path must equal the analytic ``mult_depth`` exactly.

Random odd polynomials (hypothesis) run end-to-end on a small ring so the
plan executor is exercised far beyond the registry's coefficient shapes.
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
    eval_odd_poly,
    eval_paf_max,
    eval_paf_relu,
    keygen,
    plan_odd_poly,
    plan_paf_relu,
)
from repro.ckks.poly_eval import eval_dense_poly
from repro.paf import PAF_REGISTRY, get_paf
from repro.paf.polynomial import OddPolynomial, Polynomial
from repro.paf.relu import paf_relu, relu_mult_depth

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
    def test_relu_ps_vs_ladder_vs_plaintext(self, rt, form):
        ctx, ev = rt
        paf = get_paf(form)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_paf_relu(ev, ct, paf)
        out_ladder = eval_paf_relu(ev, ct, paf, reference=True)
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

    def test_alpha10_ps_far_more_accurate_than_ladder(self, rt):
        """The α=10 baseline's degree-27 minimax component carries
        coefficients up to ~2.7e3, which dominate the noise budget at
        test-grade Δ=2^25 — exactly the head-room problem that motivates
        the paper's low-degree PAFs (it needs the 881-bit paper-grade
        moduli).  The Paterson–Stockmeyer blocks cancel partial sums
        early (Horner-style), keeping its error orders of magnitude below
        the term-by-term ladder's even here."""
        ctx, ev = rt
        paf = get_paf("alpha10")
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_paf_relu(ev, ct, paf)
        out_ladder = eval_paf_relu(ev, ct, paf, reference=True)
        ref = paf_relu(x, paf)
        err_ps = np.abs(ev.decrypt(out_ps) - ref).max()
        err_ladder = np.abs(ev.decrypt(out_ladder) - ref).max()
        assert err_ps < 2.0          # bounded despite the coefficient spread
        assert err_ps < err_ladder / 50.0
        assert ctx.max_level - out_ps.level == relu_mult_depth(paf)
        assert out_ps.level == out_ladder.level

    @pytest.mark.parametrize("form", ["f1g2", "f2g3"])
    def test_static_scale_folding(self, rt, form):
        ctx, ev = rt
        paf = get_paf(form)
        rng = np.random.default_rng(3)
        x = rng.uniform(-4, 4, ctx.slots)
        ct = ev.encrypt(x)
        got = ev.decrypt(eval_paf_relu(ev, ct, paf, scale=4.0))
        got_ref = ev.decrypt(eval_paf_relu(ev, ct, paf, scale=4.0, reference=True))
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
        assert np.array_equal(a.c0.data, b.c0.data)
        assert np.array_equal(a.c1.data, b.c1.data)

    def test_plan_for_wrong_scale_rejected(self, rt):
        """A plan folded for one static scale cannot silently evaluate at
        another — the fold would be dropped and the output wrong."""
        ctx, ev = rt
        paf = get_paf("f1g2")
        ct = ev.encrypt(np.linspace(-1, 1, ctx.slots))
        plan = plan_paf_relu(paf)                    # scale 1.0
        with pytest.raises(ValueError, match="static scale"):
            eval_paf_relu(ev, ct, paf, scale=4.0, plan=plan)

    def test_paf_max_reference_flag(self, rt):
        ctx, ev = rt
        paf = get_paf("f1g2")
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, ctx.slots)
        y = rng.uniform(-1, 1, ctx.slots)
        cta, ctb = ev.encrypt(x), ev.encrypt(y)
        got = ev.decrypt(eval_paf_max(ev, cta, ctb, paf, scale=2.0))
        got_ref = ev.decrypt(
            eval_paf_max(ev, cta, ctb, paf, scale=2.0, reference=True)
        )
        np.testing.assert_allclose(got, got_ref, atol=5e-2)


class TestHypothesisRandomPolynomials:
    @given(
        num_coeffs=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sparsity=st.floats(min_value=0.0, max_value=0.7),
    )
    @settings(max_examples=12, deadline=None)
    def test_ps_matches_ladder_and_plaintext(self, rt, num_coeffs, seed, sparsity):
        ctx, ev = rt
        rng = np.random.default_rng(seed)
        # bounded coefficients keep intermediate values inside the scale
        # headroom — the property under test is structural equivalence
        coeffs = rng.uniform(-2, 2, num_coeffs)
        coeffs[rng.random(num_coeffs) < sparsity] = 0.0
        if not np.any(coeffs):
            coeffs[0] = 1.0
        poly = OddPolynomial(coeffs)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_odd_poly(ev, ct, poly)
        out_ladder = eval_odd_poly(ev, ct, poly, reference=True)
        np.testing.assert_allclose(
            ev.decrypt(out_ps), ev.decrypt(out_ladder), atol=5e-2
        )
        np.testing.assert_allclose(ev.decrypt(out_ps), poly(x), atol=5e-2)
        # both paths land on the same level; the ladder's scale may sit up
        # to ~1% off the canonical one (align_to skips sub-rtol drift
        # corrections there), while the PS path aligns exactly
        assert out_ps.level == out_ladder.level
        assert abs(out_ps.scale - out_ladder.scale) < 0.011 * out_ladder.scale
        plan = plan_odd_poly(poly)
        assert ctx.max_level - out_ps.level == plan.mult_depth


class TestDensePolynomial:
    """The dense (exp / GELU tier) evaluator: Paterson–Stockmeyer plan vs
    the term-by-term ladder — the op-level pair behind ``PolyNode`` and
    the attention softmax, which the executor only ever runs planned."""

    @pytest.mark.parametrize("degree", [5, 8, 12])
    def test_ps_matches_ladder_and_plaintext(self, rt, degree):
        ctx, ev = rt
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-1, 1, degree + 1)
        coeffs[-1] = 0.5  # nonzero leading coefficient
        poly = Polynomial(coeffs)
        x = rng.uniform(-1, 1, ctx.slots)
        ct = ev.encrypt(x)
        out_ps = eval_dense_poly(ev, ct, poly)
        out_ladder = eval_dense_poly(ev, ct, poly, reference=True)
        np.testing.assert_allclose(
            ev.decrypt(out_ps), ev.decrypt(out_ladder), atol=5e-2
        )
        np.testing.assert_allclose(ev.decrypt(out_ps), poly(x), atol=5e-2)
        # both paths consume exactly ceil(log2(d+1)) levels and land on
        # the canonical scale of the target level
        assert out_ps.level == out_ladder.level
        assert ctx.max_level - out_ps.level == int(np.ceil(np.log2(degree + 1)))
        assert out_ps.scale == out_ladder.scale
