"""Canonical-embedding encoder tests, and the plaintext store over it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.context import CkksContext, CkksParams
from repro.ckks.encoder import CkksEncoder, Plaintext, PlaintextStore
from repro.ckks.rns import crt_compose_centered


@pytest.fixture(scope="module")
def enc():
    ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=2))
    return ctx, CkksEncoder(ctx)


class TestEmbedding:
    def test_roundtrip(self, enc):
        ctx, encoder = enc
        rng = np.random.default_rng(0)
        z = rng.uniform(-1, 1, ctx.slots)
        coeffs = encoder.embed(z)
        back = np.real(encoder.project(coeffs))
        np.testing.assert_allclose(back, z, atol=1e-9)

    def test_embedding_is_linear(self, enc):
        ctx, encoder = enc
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, ctx.slots)
        b = rng.uniform(-1, 1, ctx.slots)
        np.testing.assert_allclose(
            encoder.embed(a) + encoder.embed(b),
            encoder.embed(a + b),
            atol=1e-9,
        )

    def test_constant_embeds_to_constant_poly(self, enc):
        ctx, encoder = enc
        coeffs = encoder.embed(np.full(ctx.slots, 0.5))
        assert coeffs[0] == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-9)

    def test_too_many_values_rejected(self, enc):
        ctx, encoder = enc
        with pytest.raises(ValueError):
            encoder.embed(np.zeros(ctx.slots + 1))

    def test_encode_decode_roundtrip(self, enc):
        ctx, encoder = enc
        rng = np.random.default_rng(2)
        z = rng.uniform(-2, 2, ctx.slots)
        pt = encoder.encode(z, level=ctx.max_level)
        got = encoder.decode(pt.poly, pt.scale)
        np.testing.assert_allclose(got, z, atol=1e-5)

    def test_scalar_encode_is_constant_poly(self, enc):
        ctx, encoder = enc
        pt = encoder.encode(0.25, level=1)
        coeffs = crt_compose_centered(pt.poly)
        assert int(coeffs[0]) == round(0.25 * ctx.scale)
        assert all(int(c) == 0 for c in coeffs[1:])

    def test_partial_vector_zero_pads(self, enc):
        ctx, encoder = enc
        pt = encoder.encode(np.array([1.0, -1.0]), level=ctx.max_level)
        got = encoder.decode(pt.poly, pt.scale)
        np.testing.assert_allclose(got[:2], [1.0, -1.0], atol=1e-5)
        np.testing.assert_allclose(got[2:], 0.0, atol=1e-5)

    @given(st.floats(min_value=-4, max_value=4, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scalar_roundtrip_property(self, value):
        ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=1))
        encoder = CkksEncoder(ctx)
        pt = encoder.encode(value, level=1)
        got = encoder.decode(pt.poly, pt.scale)
        np.testing.assert_allclose(got, value, atol=1e-5)


_STORE_CTX = CkksContext(CkksParams(n=64, scale_bits=25, depth=3))
_SLOTS = _STORE_CTX.slots

_reals = st.lists(
    st.floats(-4, 4, allow_nan=False), min_size=1, max_size=_SLOTS
).map(np.array)
_complexes = st.lists(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=_SLOTS,
).map(lambda vals: np.array(vals, dtype=np.complex128))
_scalars = st.floats(-4, 4, allow_nan=False)
_levels = st.integers(0, _STORE_CTX.max_level)
_scales = st.floats(2.0**15, 2.0**35)


def _assert_same_plaintext(got, want):
    assert isinstance(got, Plaintext)
    assert np.array_equal(got.poly.data, want.poly.data)
    assert list(got.poly.prime_indices) == list(want.poly.prime_indices)
    assert got.poly.is_ntt and want.poly.is_ntt
    assert type(got.scale) is type(want.scale) is float
    assert got.scale == want.scale


class TestPlaintextStore:
    """A store hit is the encoder's plaintext byte for byte, in either
    storage form; its key never casts."""

    @given(st.one_of(_reals, _complexes, _scalars), _levels, _scales)
    @settings(max_examples=40, deadline=None)
    def test_hit_is_the_fresh_encode_before_and_after_warm(self, values, level, scale):
        encoder = CkksEncoder(_STORE_CTX)
        store = PlaintextStore(encoder)
        store.add(values, level, scale)
        want = encoder.encode(values, level, scale)
        _assert_same_plaintext(store.encode(values, level, scale), want)
        store.warm()
        _assert_same_plaintext(store.encode(values, level, scale), want)
        assert (len(store), store.hits, store.misses) == (1, 2, 0)

    @given(_complexes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_imaginary_part_and_dtype_are_part_of_the_key(self, values, data):
        """The old memo cast keys to float64, so ``[1+2j, 3]`` and
        ``[1+5j, 3]`` shared one entry; the store keeps both, and a real
        vector is not its complex twin."""
        i = data.draw(st.integers(0, len(values) - 1))
        other = values.copy()
        other[i] += 1j
        real = np.real(values)
        for pair in ((values, other), (real, real.astype(np.complex128))):
            store = PlaintextStore(CkksEncoder(_STORE_CTX))
            for v in pair:
                store.add(v, 1, 2.0**25)
            assert len(store) == 2
            for v in pair:
                _assert_same_plaintext(
                    store.encode(v, 1, 2.0**25), store.encoder.encode(v, 1, 2.0**25)
                )

    def test_scalar_and_one_slot_vector_are_different_entries(self):
        """A scalar broadcasts to every slot, a one-element vector fills
        slot 0: the same bytes, two plaintexts."""
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        store.add(0.5, 1, 2.0**25)
        store.add(np.array([0.5]), 1, 2.0**25)
        assert len(store) == 2

    def test_key_distinguishes_level_and_scale(self):
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        v = np.ones(4)
        store.add(v, 1, 2.0**25)
        store.add(v, 2, 2.0**25)
        store.add(v, 2, 2.0**24)
        store.add(v, 2, 2.0**24)
        assert len(store) == 3

    def test_entries_hold_coefficients_until_warm(self):
        """``n`` int64 coefficients per entry; :meth:`warm` swaps in the
        NTT-form plaintext, which every later hit returns as is."""
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        store.add(np.linspace(-1, 1, 8), 2, 2.0**25)
        (coeffs,) = store._entries.values()
        assert coeffs.dtype == np.int64 and coeffs.shape == (_STORE_CTX.n,)
        store.warm()
        (pt,) = store._entries.values()
        assert store.encode(np.linspace(-1, 1, 8), 2, 2.0**25) is pt

    def test_entry_references_its_source_and_a_mutated_source_misses(self):
        """The store keys on a digest and keeps the caller's array itself
        (no copy of its bytes); a hit must equal that array, so values
        changed in place after the fill miss — looked up either as they
        are now or as they were — and encode fresh."""
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        v = np.linspace(-1, 1, 8)
        original = v.copy()
        store.add(v, 2, 2.0**25)
        (source,) = store._sources.values()
        assert source is v
        want = store.encoder.encode(v, 2, 2.0**25)
        _assert_same_plaintext(store.encode(original, 2, 2.0**25), want)
        v[3] += 0.25
        for values in (v, original):
            _assert_same_plaintext(
                store.encode(values, 2, 2.0**25), store.encoder.encode(values, 2, 2.0**25)
            )
        assert (len(store), store.hits, store.misses) == (1, 1, 2)

    def test_miss_encodes_fresh_and_inserts_nothing(self):
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        v = np.arange(4.0)
        _assert_same_plaintext(
            store.encode(v, 1, 2.0**25), store.encoder.encode(v, 1, 2.0**25)
        )
        assert (len(store), store.hits, store.misses) == (0, 0, 1)
