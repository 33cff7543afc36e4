"""Differentials for the transformer-tier PAFs against exact operators.

Hypothesis drives random evaluation points / score matrices through the
large-interval ``exp`` (range reduction), the dense GELU, the rsqrt and
the Newton reciprocal, comparing each against its exact counterpart in
``repro.nn.functional`` (or numpy) over the PAF's *declared* interval —
a domain contract no compile path enforces yet (ROADMAP item 3).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.paf.transformer import (
    affine_recip_init,
    exp_paf,
    gelu_paf,
    gelu_reference,
    newton_recip,
    paf_layer_norm,
    paf_softmax,
    rsqrt_paf,
)

# (constructor arguments, relative/absolute tolerance) pairs pinning the
# accuracy each configuration is expected to reach on its interval
EXP_CONFIGS = [
    (dict(interval=(-4.0, 2.0), degree=3, squarings=2), 2e-2),
    (dict(interval=(-5.0, 3.0), degree=5, squarings=3), 2e-5),
]
GELU_CONFIGS = [
    (dict(interval=(-4.0, 4.0), degree=8), 2e-2),
    (dict(interval=(-6.0, 6.0), degree=12), 2e-2),
]


def _points(interval, n=64):
    lo, hi = interval
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False), min_size=1, max_size=n
    ).map(np.asarray)


class TestExpPAF:
    @pytest.mark.parametrize("cfg, tol", EXP_CONFIGS)
    def test_relative_error_over_declared_interval(self, cfg, tol):
        e = exp_paf(**cfg)
        grid = np.linspace(*cfg["interval"], 4001)
        rel = np.abs(e(grid) - np.exp(grid)) / np.exp(grid)
        assert np.max(rel) < tol

    @given(xs=_points((-4.0, 2.0)))
    @settings(max_examples=50, deadline=None)
    def test_random_points_match_exp(self, xs):
        e = exp_paf((-4.0, 2.0), degree=3, squarings=2)
        np.testing.assert_allclose(e(xs), np.exp(xs), rtol=2e-2, atol=1e-3)

    def test_range_reduction_beats_direct_fit(self):
        # the Chiang-style shrink-then-square construction is the point:
        # same degree with no squarings is far worse on the same interval
        direct = exp_paf((-4.0, 2.0), degree=3, squarings=0)
        reduced = exp_paf((-4.0, 2.0), degree=3, squarings=2)
        grid = np.linspace(-4.0, 2.0, 2001)
        err = lambda f: np.max(np.abs(f(grid) - np.exp(grid)) / np.exp(grid))
        assert err(reduced) < err(direct) / 10

    def test_mult_depth_counts_squarings(self):
        e = exp_paf((-4.0, 2.0), degree=3, squarings=2)
        assert e.mult_depth == e.poly.mult_depth + 2


class TestGeluPAF:
    @pytest.mark.parametrize("cfg, tol", GELU_CONFIGS)
    def test_absolute_error_over_declared_interval(self, cfg, tol):
        p = gelu_paf(**cfg)
        grid = np.linspace(*cfg["interval"], 4001)
        assert np.max(np.abs(p(grid) - gelu_reference(grid))) < tol

    @given(xs=_points((-4.0, 4.0)))
    @settings(max_examples=50, deadline=None)
    def test_random_points_match_functional_gelu(self, xs):
        p = gelu_paf((-4.0, 4.0), degree=8)
        want = F.gelu(Tensor(xs)).data
        np.testing.assert_allclose(p(xs), want, atol=2e-2)

    def test_reference_is_functional_gelu(self):
        # the PAF fits the exact formula the plaintext model computes —
        # any drift here would silently bias every differential
        xs = np.linspace(-6.0, 6.0, 101)
        np.testing.assert_allclose(
            gelu_reference(xs), F.gelu(Tensor(xs)).data, rtol=1e-12
        )


class TestRsqrtPAF:
    def test_relative_error_over_declared_interval(self):
        p = rsqrt_paf((0.25, 4.0), degree=6)
        grid = np.linspace(0.25, 4.0, 4001)
        rel = np.abs(p(grid) - 1.0 / np.sqrt(grid)) * np.sqrt(grid)
        assert np.max(rel) < 2e-2

    @given(xs=_points((0.25, 4.0)))
    @settings(max_examples=50, deadline=None)
    def test_random_points_match_rsqrt(self, xs):
        p = rsqrt_paf((0.25, 4.0), degree=6)
        np.testing.assert_allclose(p(xs), 1.0 / np.sqrt(xs), rtol=3e-2)


class TestNewtonRecip:
    @given(
        s=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
        iters=st.integers(min_value=5, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_converges_on_seed_interval(self, s, iters):
        # the affine seed's relative error squares each iteration; five
        # iterations cover this 16x-ratio interval to < 1e-3
        init = affine_recip_init((0.5, 8.0))
        y = newton_recip(np.asarray([s]), init, iters)[0]
        assert abs(y * s - 1.0) < 1e-3

    def test_each_iteration_contracts(self):
        init = affine_recip_init((0.5, 8.0))
        s = np.linspace(0.5, 8.0, 501)
        errs = [
            np.max(np.abs(newton_recip(s, init, it) * s - 1.0))
            for it in range(1, 5)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestPafSoftmax:
    @given(
        scores=st.lists(
            st.lists(
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ).map(np.asarray)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_functional_softmax(self, scores):
        # centred scores span <= 4 units, inside the exp fit's interval
        e = exp_paf((-4.0, 2.0), degree=5, squarings=3)
        init = affine_recip_init((0.5, 4.0 * np.e**2))
        got = paf_softmax(scores, e, init, recip_iters=5)
        want = F.softmax(Tensor(scores), axis=-1).data
        np.testing.assert_allclose(got, want, atol=2e-3)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=2e-3)


class TestPafLayerNorm:
    def test_matches_functional_layer_norm(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, size=(8, 16))
        # per-row variances of N(0,1) rows of width 16 live inside (0.25, 4)
        rsqrt = rsqrt_paf((0.25, 4.0), degree=10)
        got = paf_layer_norm(x, rsqrt)
        want = F.layer_norm(Tensor(x)).data
        np.testing.assert_allclose(got, want, atol=2e-2)
