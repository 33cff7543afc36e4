"""Homomorphic-correctness tests for the CKKS evaluator and PAF evaluation."""

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
)
from repro.ckks.keys import SecretKey
from repro.ckks.rns import RnsPoly
from repro.paf import get_paf
from repro.paf.polynomial import OddPolynomial
from repro.paf.relu import relu_mult_depth


@pytest.fixture(scope="module")
def rt(backend):
    # parametrized over every registered kernel backend (tests/conftest.py):
    # the whole homomorphic-correctness suite runs per backend, and the
    # conformance suite separately pins the outputs bit-identical
    ctx = CkksContext(CkksParams(n=1024, scale_bits=25, depth=10, backend=backend))
    keys = keygen(ctx, seed=0, galois_steps=(1, 3, "conj"))
    return ctx, CkksEvaluator(ctx, keys)


@pytest.fixture(scope="module")
def data(rt):
    ctx, _ = rt
    rng = np.random.default_rng(0)
    return rng.uniform(-1, 1, ctx.slots), rng.uniform(-1, 1, ctx.slots)


TOL = 5e-3


class TestBasicHomomorphism:
    def test_encrypt_decrypt(self, rt, data):
        ctx, ev = rt
        x, _ = data
        assert np.abs(ev.decrypt(ev.encrypt(x)) - x).max() < 1e-3

    def test_scalar_broadcast_encrypt(self, rt):
        ctx, ev = rt
        got = ev.decrypt(ev.encrypt(0.37))
        assert np.abs(got - 0.37).max() < 1e-3

    def test_add_sub_negate(self, rt, data):
        ctx, ev = rt
        x, y = data
        cx, cy = ev.encrypt(x), ev.encrypt(y)
        assert np.abs(ev.decrypt(ev.add(cx, cy)) - (x + y)).max() < TOL
        assert np.abs(ev.decrypt(ev.sub(cx, cy)) - (x - y)).max() < TOL
        assert np.abs(ev.decrypt(ev.negate(cx)) + x).max() < TOL

    def test_add_plain(self, rt, data):
        ctx, ev = rt
        x, _ = data
        got = ev.decrypt(ev.add_plain(ev.encrypt(x), 0.25))
        assert np.abs(got - (x + 0.25)).max() < TOL

    def test_mul_rescale(self, rt, data):
        ctx, ev = rt
        x, y = data
        out = ev.mul_rescale(ev.encrypt(x), ev.encrypt(y))
        assert np.abs(ev.decrypt(out) - x * y).max() < TOL
        assert out.level == ctx.max_level - 1

    def test_mul_plain_vector(self, rt, data):
        ctx, ev = rt
        x, y = data
        out = ev.mul_plain_rescale(ev.encrypt(x), y)
        assert np.abs(ev.decrypt(out) - x * y).max() < TOL

    def test_level_mismatch_rejected(self, rt, data):
        ctx, ev = rt
        x, y = data
        cx, cy = ev.encrypt(x), ev.encrypt(y)
        low = ev.mod_switch_to(cx, cx.level - 1)
        with pytest.raises(ValueError):
            ev.add(low, cy)
        with pytest.raises(ValueError):
            ev.mul(low, cy)

    def test_mod_switch_preserves_message(self, rt, data):
        ctx, ev = rt
        x, _ = data
        low = ev.mod_switch_to(ev.encrypt(x), 2)
        assert np.abs(ev.decrypt(low) - x).max() < TOL
        with pytest.raises(ValueError):
            ev.mod_switch_to(low, 5)

    def test_rescale_at_level_zero_rejected(self, rt, data):
        ctx, ev = rt
        x, _ = data
        bottom = ev.mod_switch_to(ev.encrypt(x), 0)
        with pytest.raises(ValueError):
            ev.rescale(bottom)

    def test_rotation(self, rt, data):
        ctx, ev = rt
        x, _ = data
        got = ev.decrypt(ev.rotate(ev.encrypt(x), 3))
        assert np.abs(got - np.roll(x, -3)).max() < TOL

    def test_missing_galois_key_raises(self, rt, data):
        ctx, ev = rt
        x, _ = data
        with pytest.raises(KeyError):
            ev.rotate(ev.encrypt(x), 7)

    def test_conjugate_real_is_identity(self, rt, data):
        ctx, ev = rt
        x, _ = data
        got = ev.decrypt(ev.conjugate(ev.encrypt(x)))
        assert np.abs(got - x).max() < TOL

    def test_deep_squaring_chain(self, rt, data):
        ctx, ev = rt
        x, _ = data
        c, val = ev.encrypt(x), x.copy()
        for _ in range(6):
            c = ev.rescale(ev.square(c))
            val = val * val
        assert np.abs(ev.decrypt(c) - val).max() < 5e-2


class TestHoistedRotations:
    """rotate_many must be *bit-identical* to per-step rotate: the digit
    decomposition commutes exactly with the Galois automorphism."""

    def test_bit_identical_to_rotate(self, rt, data):
        ctx, ev = rt
        x, _ = data
        ct = ev.encrypt(x)
        rots = ev.rotate_many(ct, [0, 1, 3])
        assert set(rots) == {0, 1, 3}
        for step, got in rots.items():
            ref = ev.rotate(ct, step)
            assert np.array_equal(got.c0.data, ref.c0.data)
            assert np.array_equal(got.c1.data, ref.c1.data)

    def test_decrypts_to_rolled_slots(self, rt, data):
        ctx, ev = rt
        x, _ = data
        rots = ev.rotate_many(ev.encrypt(x), [1, 3])
        for step, ct in rots.items():
            assert np.abs(ev.decrypt(ct) - np.roll(x, -step)).max() < TOL

    def test_trivial_steps_are_copies(self, rt, data):
        ctx, ev = rt
        x, _ = data
        ct = ev.encrypt(x)
        rots = ev.rotate_many(ct, [0, ctx.slots])
        for got in rots.values():
            assert got is not ct
            assert np.array_equal(got.c0.data, ct.c0.data)

    def test_works_below_top_level(self, rt, data):
        ctx, ev = rt
        x, _ = data
        ct = ev.rescale(ev.mul_plain(ev.encrypt(x), 0.5))
        got = ev.rotate_many(ct, [3])[3]
        ref = ev.rotate(ct, 3)
        assert np.array_equal(got.c1.data, ref.c1.data)

    def test_rotate_matches_coefficient_domain_oracle(self, rt, data):
        """``rotate`` permutes NTT slots; the oracle is the textbook route
        — ``X -> X^g`` on coefficients, then a plain keyswitch of the moved
        ``c1``.  Byte-equal, because centred digits commute exactly with
        the signed coefficient permutation."""
        ctx, ev = rt
        x, _ = data
        ct = ev.rescale(ev.mul_plain(ev.encrypt(x), 0.5))
        for step in (1, 3):
            g = pow(5, step, 2 * ctx.n)
            c0g = ct.c0.to_coeff().automorphism(g).to_ntt()
            c1g = ct.c1.to_coeff().automorphism(g).to_ntt()
            ks0, ks1 = ev._keyswitch(c1g.data, ev.keys.galois[g], ct.level)
            got = ev.rotate(ct, step)
            assert np.array_equal(
                got.c0.data, (c0g + RnsPoly(ctx, ks0, c0g.prime_indices, True)).data
            )
            assert np.array_equal(got.c1.data, ks1)

    def test_missing_key_raises_before_decomposing(self, rt, data):
        ctx, ev = rt
        x, _ = data
        with pytest.raises(KeyError):
            ev.rotate_many(ev.encrypt(x), [1, 7])

    def test_ntt_permutation_matches_coefficient_automorphism(self, rt):
        ctx, _ = rt
        rng = np.random.default_rng(3)
        p_idx = 0
        p = ctx.all_primes[p_idx]
        f = rng.integers(0, p, size=ctx.n).astype(np.int64)
        from repro.ckks.rns import RnsPoly

        poly = RnsPoly(ctx, f[None, :], [p_idx], is_ntt=False)
        for g in (5, 2 * ctx.n - 1, pow(5, 3, 2 * ctx.n)):
            via_coeff = poly.automorphism(g).to_ntt().data[0]
            via_perm = poly.to_ntt().data[0][ctx.galois_ntt_permutation(g)]
            assert np.array_equal(via_coeff, via_perm)


@pytest.fixture(scope="module")
def small(backend):
    """n = 64 with a Galois key for every step: the ``sum_rotated`` property's ring."""
    ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=3, backend=backend))
    keys = keygen(ctx, seed=0, galois_steps=tuple(range(1, ctx.slots)))
    return ctx, CkksEvaluator(ctx, keys)


def _same_bytes(a, b) -> bool:
    return np.array_equal(a.c0.data, b.c0.data) and np.array_equal(a.c1.data, b.c1.data)


class TestSumRotated:
    """``sum_rotated({g: ct_g}) = Σ_g rot(ct_g, g)`` with one descent for
    the whole sum: the value of the ``rotate`` + ``add`` spelling, the
    bytes of ``rotate`` when there is one term."""

    #: steps in units of one slot, wrapped onto trivial (0, ±slots, 2·slots)
    #: and negative representatives by the strategy below
    @given(
        st.dictionaries(
            st.integers(min_value=-64, max_value=64), st.integers(0, 2**31), min_size=1, max_size=6
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_rolls_and_the_rotate_add_spelling(self, small, seeds):
        ctx, ev = small
        assert ctx.slots == 32  # so ±32, ±64 and 0 are the trivial steps drawn
        xs = {g: np.random.default_rng(seed).uniform(-1, 1, ctx.slots) for g, seed in seeds.items()}
        terms = {g: ev.encrypt(x) for g, x in xs.items()}
        got = ev.decrypt(ev.sum_rotated(terms))
        want = sum(np.roll(x, -g) for g, x in xs.items())
        assert np.abs(got - want).max() < TOL
        spelled = None
        for g, ct in terms.items():
            r = ev.rotate(ct, g)
            spelled = r if spelled is None else ev.add(spelled, r)
        assert np.abs(got - ev.decrypt(spelled)).max() < 1e-4

    def test_single_term_is_rotate_byte_for_byte(self, rt, data):
        ctx, ev = rt
        x, _ = data
        for ct in (ev.encrypt(x), ev.rescale(ev.mul_plain(ev.encrypt(x), 0.5))):
            for step in (1, 3, 3 - ctx.slots):
                assert _same_bytes(ev.sum_rotated({step: ct}), ev.rotate(ct, step))
            for step in (0, ctx.slots):  # trivial: a copy, like rotate's
                got = ev.sum_rotated({step: ct})
                assert got is not ct and _same_bytes(got, ct)

    def test_trivial_terms_are_plain_adds(self, rt, data):
        ctx, ev = rt
        x, y = data
        a, b = ev.encrypt(x), ev.encrypt(y)
        assert _same_bytes(ev.sum_rotated({0: a, ctx.slots: b}), ev.add(a, b))
        mixed = ev.sum_rotated({0: a, 3: b})
        assert _same_bytes(mixed, ev.add(a, ev.rotate(b, 3)))  # one descent either way

    def test_sums_below_top_level_at_product_scale(self, rt, data):
        """The matvec's call: Δ² inner sums, several nontrivial steps."""
        ctx, ev = rt
        x, y = data
        a = ev.mul_plain(ev.rescale(ev.mul_plain(ev.encrypt(x), 0.5)), 1.0)
        b = ev.mul_plain(ev.rescale(ev.mul_plain(ev.encrypt(y), 0.5)), 1.0)
        out = ev.sum_rotated({1: a, 3: b, 0: a})
        assert (out.level, out.scale) == (a.level, a.scale)
        want = 0.5 * (np.roll(x, -1) + np.roll(y, -3) + x)
        assert np.abs(ev.decrypt(ev.rescale(out)) - want).max() < TOL

    def test_mixed_level_scale_and_empty_raise_like_add(self, rt, data):
        ctx, ev = rt
        x, _ = data
        ct = ev.encrypt(x)
        with pytest.raises(ValueError, match="level mismatch"):
            ev.sum_rotated({1: ct, 3: ev.mod_switch_to(ct, ct.level - 1)})
        with pytest.raises(ValueError, match="scale mismatch"):
            ev.sum_rotated({1: ct, 3: ev.mul_plain(ct, 1.0)})
        with pytest.raises(ValueError, match="at least one term"):
            ev.sum_rotated({})

    def test_missing_key_raises_before_the_first_decomposition(self, rt, data, monkeypatch):
        ctx, ev = rt
        x, _ = data
        ct = ev.encrypt(x)

        def no_ring_work(*args, **kwargs):
            raise AssertionError("decomposed before the key check")

        monkeypatch.setattr(ev, "_hoist_decompose", no_ring_work)
        with pytest.raises(KeyError, match="no Galois key"):
            ev.sum_rotated({1: ct, 7: ct})


class TestEnsureGaloisSteps:
    def test_adds_missing_and_keeps_existing(self, rt, data):
        ctx, ev = rt
        x, _ = data
        keys = keygen(ctx, seed=0, galois_steps=(1,))
        g1 = keys.galois_element_for_step(ctx.n, 1)
        fam1 = keys.galois[g1]
        keys.ensure_galois_steps(ctx, (1, 2), seed=0)
        assert keys.galois[g1] is fam1              # idempotent for existing
        ev2 = CkksEvaluator(ctx, keys)
        got = ev2.decrypt(ev2.rotate(ev2.encrypt(x), 2))
        assert np.abs(got - np.roll(x, -2)).max() < TOL

    def test_same_keys_as_upfront_keygen(self, rt):
        """Growing the key set later is bit-identical to upfront keygen —
        including for non-zero keygen seeds (the chain remembers its own)."""
        ctx, _ = rt
        grown = keygen(ctx, seed=42, galois_steps=(1,))
        grown.ensure_galois_steps(ctx, (3,))
        upfront = keygen(ctx, seed=42, galois_steps=(1, 3))
        assert set(grown.galois) == set(upfront.galois)
        for g, family in upfront.galois.items():
            assert np.array_equal(grown.galois[g].key_b, family.key_b)
            assert np.array_equal(grown.galois[g].key_a, family.key_a)


class TestKeySwitchFamily:
    """One level-independent tensor pair per family, built eagerly."""

    def test_holds_no_reference_to_the_secret(self, rt):
        """Everything a family keeps is public key material: the secret
        is read while building and never stored (nor is an RNG that
        could re-derive it mid-forward)."""
        _, ev = rt
        family = ev.keys.relin
        assert set(vars(family)) == {"ctx", "key_b", "key_a"}
        assert not any(isinstance(v, SecretKey) for v in vars(family).values())

    def test_level_slices_are_views_of_one_tensor_pair(self, rt):
        ctx, ev = rt
        family = ev.keys.galois[ev.keys.galois_element_for_step(ctx.n, 1)]
        full = ctx.num_digits(ctx.max_level), ctx.alpha + ctx.max_level + 1, ctx.n
        assert family.key_b.shape == family.key_a.shape == full
        for level in range(ctx.max_level + 1):
            key_b, key_a = family.stacked_at_level(level)
            assert key_b.shape == key_a.shape == (
                ctx.num_digits(level), ctx.alpha + level + 1, ctx.n
            )
            assert np.shares_memory(key_b, family.key_b)
            assert np.shares_memory(key_a, family.key_a)
            assert key_b.base is not None and key_a.base is not None  # no copy


# dnum values putting α = ceil(8 / dnum) at 1, 2, 3 and 8 on a depth-7 chain:
# one prime per digit, even groups, a partial last group, one digit in all
@pytest.mark.parametrize("dnum,alpha", [(8, 1), (4, 2), (3, 3), (1, 8)])
def test_keyswitch_exact_at_every_level(backend, dnum, alpha):
    """Every keyswitch consumer decrypts correctly at *every* level —
    including the levels whose last digit is a partial group — and the
    NTT-domain rotation stays byte-equal to its hoisted twin."""
    ctx = CkksContext(
        CkksParams(n=256, scale_bits=25, depth=7, dnum=dnum, backend=backend)
    )
    assert ctx.alpha == alpha and len(ctx.special_primes) == alpha
    ev = CkksEvaluator(ctx, keygen(ctx, seed=3, galois_steps=(1, 5, "conj")))
    rng = np.random.default_rng(alpha)
    x, y = rng.uniform(-1, 1, ctx.slots), rng.uniform(-1, 1, ctx.slots)
    top_x, top_y = ev.encrypt(x), ev.encrypt(y)
    for level in range(ctx.max_level, -1, -1):
        cx, cy = ev.mod_switch_to(top_x, level), ev.mod_switch_to(top_y, level)
        rotated = ev.rotate(cx, 5)
        assert np.abs(ev.decrypt(rotated) - np.roll(x, -5)).max() < TOL, level
        many = ev.rotate_many(cx, [1, 5])
        assert np.abs(ev.decrypt(many[1]) - np.roll(x, -1)).max() < TOL, level
        assert np.array_equal(many[5].c0.data, rotated.c0.data), level
        assert np.array_equal(many[5].c1.data, rotated.c1.data), level
        assert np.abs(ev.decrypt(ev.conjugate(cx)) - x).max() < TOL, level
        if level:  # a product needs a level to rescale into
            prod = ev.mul_rescale(cx, cy)
            assert np.abs(ev.decrypt(prod) - x * y).max() < TOL, level


class TestPolyEval:
    def test_odd_poly_matches_plaintext(self, rt, data):
        ctx, ev = rt
        x, _ = data
        poly = OddPolynomial([1.5, -0.5, 0.25, -0.125])  # degree 7
        out = eval_poly(ev, ev.encrypt(x), poly)
        assert np.abs(ev.decrypt(out) - poly(x)).max() < TOL
        assert ctx.max_level - out.level == poly.mult_depth

    def test_degree_one(self, rt, data):
        ctx, ev = rt
        x, _ = data
        poly = OddPolynomial([0.7])
        out = eval_poly(ev, ev.encrypt(x), poly)
        assert np.abs(ev.decrypt(out) - 0.7 * x).max() < TOL
        assert ctx.max_level - out.level == 1

    def test_zero_coefficient_skipped(self, rt, data):
        ctx, ev = rt
        x, _ = data
        poly = OddPolynomial([1.5, 0.0, 0.25])
        out = eval_poly(ev, ev.encrypt(x), poly)
        assert np.abs(ev.decrypt(out) - poly(x)).max() < TOL

    @pytest.mark.parametrize("form", ["f1g2", "f2g2", "f2g3", "alpha7", "f1f1g1g1"])
    def test_composite_matches_plaintext_and_depth(self, rt, data, form):
        ctx, ev = rt
        x, _ = data
        paf = get_paf(form)
        out = eval_composite_paf(ev, ev.encrypt(x), paf)
        assert np.abs(ev.decrypt(out) - paf(x)).max() < 5e-2
        assert ctx.max_level - out.level == paf.mult_depth

    def test_paf_relu_depth_and_value(self, rt, data):
        ctx, ev = rt
        x, _ = data
        paf = get_paf("f1f1g1g1")
        out = eval_paf_relu(ev, ev.encrypt(x), paf)
        ref = 0.5 * (x + paf(x) * x)
        assert np.abs(ev.decrypt(out) - ref).max() < 5e-2
        assert ctx.max_level - out.level == relu_mult_depth(paf)

    def test_paf_relu_with_static_scale(self, rt):
        ctx, ev = rt
        rng = np.random.default_rng(7)
        x = rng.uniform(-4, 4, ctx.slots)
        paf = get_paf("f1f1g1g1")
        out = eval_paf_relu(ev, ev.encrypt(x), paf, scale=4.0)
        ref = 0.5 * (x + paf(x / 4.0) * x)
        assert np.abs(ev.decrypt(out) - ref).max() < 0.2

    def test_paf_max(self, rt, data):
        ctx, ev = rt
        x, y = data
        paf = get_paf("f1g2")
        out = eval_paf_max(ev, ev.encrypt(x), ev.encrypt(y), paf, scale=2.0)
        d = (x - y) / 2.0
        ref = 0.5 * ((x + y) + (x - y) * paf(d))
        assert np.abs(ev.decrypt(out) - ref).max() < 5e-2
