"""Canonical-embedding encoder tests, and the plaintext store over it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.context import CkksContext, CkksParams
from repro.ckks.encoder import CkksEncoder, Plaintext, PlaintextStore, crt_compose_centered
from repro.fhe.toy import compiled_toy_resnet


@pytest.fixture(scope="module")
def enc():
    ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=2))
    return ctx, CkksEncoder(ctx)


def _dense_basis(n: int, start: int, stop: int) -> np.ndarray:
    """Columns ``start:stop`` of the decoding matrix ``ζ_j^k``, ``ζ_j =
    exp(iπ·5^j/n)`` — the textbook dense DFT, built without the encoder
    (each power's exponent reduced mod 2n, then read off a root table)."""
    exps = np.array([pow(5, j, 2 * n) for j in range(n // 2)], dtype=np.int64)
    roots = np.exp(1j * np.pi * np.arange(2 * n) / n)
    return roots[np.outer(exps, np.arange(start, stop)) % (2 * n)]


def _dense_embed(n: int, rows) -> np.ndarray:
    """``c_k = (2/n)·Re(Σ_j conj(ζ_j^k) z_j)`` for each slot vector of
    ``rows`` (zero-padded), in 512-column matmuls."""
    z = np.zeros((len(rows), n // 2), dtype=np.complex128)
    for i, row in enumerate(rows):
        z[i, : len(row)] = row
    return np.concatenate(
        [
            (2.0 / n) * np.real(z @ _dense_basis(n, k, min(k + 512, n)).conj())
            for k in range(0, n, 512)
        ],
        axis=1,
    )


def _dense_project(coeffs) -> np.ndarray:
    """``Σ_k ζ_j^k c_k`` in 512-column matmuls."""
    n = len(coeffs)
    return sum(
        _dense_basis(n, k, min(k + 512, n)) @ coeffs[k : k + 512] for k in range(0, n, 512)
    )


def _held_nbytes(obj) -> int:
    """Bytes of every array reachable from ``obj`` through containers."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_held_nbytes(v) for v in obj)
    return 0


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
        got = encoder.decode(pt.data, pt.scale)
        np.testing.assert_allclose(got, z, atol=1e-5)

    def test_scalar_encode_is_constant_poly(self, enc):
        ctx, encoder = enc
        pt = encoder.encode(0.25, level=1)
        rows = ctx.backend.ntt_inverse(pt.data, range(2))
        coeffs = crt_compose_centered(rows, ctx.q_chain[:2])
        assert int(coeffs[0]) == round(0.25 * ctx.scale)
        assert all(int(c) == 0 for c in coeffs[1:])

    def test_partial_vector_zero_pads(self, enc):
        ctx, encoder = enc
        pt = encoder.encode(np.array([1.0, -1.0]), level=ctx.max_level)
        got = encoder.decode(pt.data, pt.scale)
        np.testing.assert_allclose(got[:2], [1.0, -1.0], atol=1e-5)
        np.testing.assert_allclose(got[2:], 0.0, atol=1e-5)

    @given(st.floats(min_value=-4, max_value=4, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scalar_roundtrip_property(self, value):
        ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=1))
        encoder = CkksEncoder(ctx)
        pt = encoder.encode(value, level=1)
        got = encoder.decode(pt.data, pt.scale)
        np.testing.assert_allclose(got, value, atol=1e-5)

    def test_huge_scale_takes_the_python_int_path(self, backend):
        """A scale past 2^62 rounds to Python ints; the lift reduces them
        row by row and still decodes back, on every backend."""
        ctx = CkksContext(CkksParams(n=128, scale_bits=25, depth=3, backend=backend))
        encoder = CkksEncoder(ctx)
        values = np.array([1.5, -2.0, 0.25])
        assert encoder.round(values, 2.0**70).dtype == object
        pt = encoder.encode(values, level=3, scale=2.0**70)
        assert pt.data.shape == (4, ctx.n) and pt.data.dtype == np.int64
        np.testing.assert_allclose(encoder.decode(pt.data, pt.scale, 3), values, atol=1e-6)

    def test_one_slot_orbit(self, enc):
        """The context's orbit ``5^j mod 2n`` is the one table slots,
        rotations and the refresh plan's bases read."""
        ctx, _ = enc
        want = [pow(5, j, 2 * ctx.n) for j in range(ctx.slots)]
        assert ctx._orbit.tolist() == want
        assert [ctx.galois_element(j) for j in range(ctx.slots)] == want

    @pytest.mark.parametrize("n", [2**k for k in range(3, 14)])
    def test_fft_agrees_with_the_dense_dft(self, n):
        """One length-2n FFT is the dense ``(n/2) × n`` DFT: embedding
        within 1e-5 before rounding at Δ = 2^25 (a rounding flip needs a
        value that close to a half-integer), evaluation to rtol 1e-9 — for
        real and complex slots, full and partial vectors."""
        ctx = CkksContext(CkksParams(n=n, scale_bits=25, depth=1))
        encoder = CkksEncoder(ctx)
        rng = np.random.default_rng(n)
        real = rng.uniform(-1, 1, ctx.slots)
        cplx = real + 1j * rng.uniform(-1, 1, ctx.slots)
        rows = (real, cplx, real[: max(1, ctx.slots // 3)])
        for z, want in zip(rows, _dense_embed(n, rows)):
            np.testing.assert_allclose(
                encoder.embed(z) * ctx.scale, want * ctx.scale, rtol=0, atol=1e-5
            )
        coeffs = np.round(encoder.embed(cplx) * ctx.scale)
        np.testing.assert_allclose(
            encoder.project(coeffs), _dense_project(coeffs), rtol=1e-9, atol=0
        )

    def test_round_is_the_dense_dft_rounded_on_the_toy_resnets_store(self):
        """All 630 constants of the toy ResNet round to exactly the
        coefficients the dense DFT gives: the golden forward's bytes do not
        rest on the transform's summation order."""
        store = compiled_toy_resnet().plaintexts
        held = list(store._held.values())
        assert len(store) == len(held) == 630
        vectors = [values for values, _ in held if values.ndim]
        dense = iter(_dense_embed(store.encoder.ctx.n, vectors))
        for values, content in held:
            coeffs, scale = store._entries[content], content[-1]
            if values.ndim:
                want = np.round(next(dense) * scale)
            else:  # a scalar is the constant polynomial: nothing to embed
                want = np.zeros(store.encoder.ctx.n)
                want[0] = np.round(float(values) * scale)
            assert coeffs.dtype == np.int64
            assert np.array_equal(coeffs, want.astype(np.int64))

    def test_encoder_holds_no_basis(self):
        """An encode and a decode at n = 2048 leave the encoder holding no
        array of its own (the context's orbit is the one table it reads)."""
        ctx = CkksContext(CkksParams(n=2048, scale_bits=25, depth=1))
        encoder = CkksEncoder(ctx)
        pt = encoder.encode(np.linspace(-1, 1, ctx.slots), 1)
        encoder.decode(pt.data, pt.scale)
        assert _held_nbytes([v for v in vars(encoder).values() if v is not ctx]) < 2**20

    def test_values_the_level_cannot_hold_raise(self):
        """``100`` in four slots at Δ = 2^25 puts a coefficient past
        ``q_0/2``: it used to decode as other values, silently.  Encode and
        the store both refuse it; one level up it fits and decodes back."""
        ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=1))
        encoder = CkksEncoder(ctx)
        values = np.full(4, 100.0)
        with pytest.raises(ValueError, match="wrap"):
            encoder.encode(values, 0)
        store = PlaintextStore(encoder)
        with pytest.raises(ValueError, match="wrap"):
            store.add(values, 0, ctx.scale)
        assert len(store) == 0
        pt = encoder.encode(values, 1)
        np.testing.assert_allclose(encoder.decode(pt.data, pt.scale, 4), values, atol=1e-4)

    def test_fit_bound_is_half_the_level_modulus(self):
        ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=1))
        encoder = CkksEncoder(ctx)
        half = (ctx.q_chain[0] - 1) // 2  # q_0 is odd
        for sign in (1, -1):
            encoder._check_fits(np.array([0, sign * half]), 0)
            with pytest.raises(ValueError, match="level-0"):
                encoder._check_fits(np.array([0, sign * (half + 1)]), 0)
        big = np.array([0, ctx.q_chain[0] * ctx.q_chain[1] // 2 + 1], dtype=object)
        with pytest.raises(ValueError, match="level-1"):
            encoder._check_fits(big, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, enc, bad):
        ctx, encoder = enc
        for values in (bad, np.array([1.0, bad]), np.array([0.5, bad * 1j])):
            with pytest.raises(ValueError, match="non-finite"):
                encoder.encode(values, 1)


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
    assert got.data.dtype == want.data.dtype == np.int64
    assert np.array_equal(got.data, want.data)
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
        try:
            want = encoder.encode(values, level, scale)
        except ValueError:  # past q_0·…·q_level / 2: both refuse it
            with pytest.raises(ValueError, match="wrap"):
                store.add(values, level, scale)
            assert len(store) == 0
            return
        store.add(values, level, scale)
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
        v = np.linspace(-1, 1, 8)
        store.add(v, 2, 2.0**25)
        (coeffs,) = store._entries.values()
        assert coeffs.dtype == np.int64 and coeffs.shape == (_STORE_CTX.n,)
        store.warm()
        (pt,) = store._entries.values()
        assert store.encode(v, 2, 2.0**25) is pt

    def test_held_array_is_frozen_and_an_equal_copy_misses(self):
        """A lookup goes by the array the store was handed, which it
        keeps and makes read-only (with the array owning its memory):
        writing to either raises, and an equal copy is another array — it
        misses and encodes fresh, to the same bytes."""
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        matrix = np.zeros((2, 8))
        matrix[1] = np.linspace(-1, 1, 8)
        v = matrix[1]
        store.add(v, 2, 2.0**25)
        ((held, _),) = store._held.values()
        assert held is v
        for arr in (v, matrix):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.25
        want = store.encoder.encode(v, 2, 2.0**25)
        _assert_same_plaintext(store.encode(v, 2, 2.0**25), want)
        _assert_same_plaintext(store.encode(v.copy(), 2, 2.0**25), want)
        assert (len(store), store.hits, store.misses) == (1, 1, 1)

    def test_equal_arrays_share_one_entry(self):
        """Content keys the entries: a second array of the same values
        is another lookup key onto the one entry, and both hit."""
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        a, b = np.linspace(-1, 1, 8), np.linspace(-1, 1, 8)
        store.add(a, 2, 2.0**25)
        store.add(b, 2, 2.0**25)
        assert (len(store), len(store._held)) == (1, 2)
        store.warm()
        assert store.encode(a, 2, 2.0**25) is store.encode(b, 2, 2.0**25)
        assert (store.hits, store.misses) == (2, 0)

    def test_scalars_are_looked_up_by_value(self):
        """A 0-d value is a fresh object each call; it hits by dtype and
        value (``0.5`` and ``np.float64(0.5)`` alike), and an int is not
        its float twin."""
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        store.add(0.5, 1, 2.0**25)
        for value in (0.5, np.float64(0.5), np.array(0.5)):
            store.resolve(value, 1, 2.0**25)
        store.resolve(1, 1, 2.0**25)
        assert (store.hits, store.misses) == (3, 1)

    def test_miss_encodes_fresh_and_inserts_nothing(self):
        store = PlaintextStore(CkksEncoder(_STORE_CTX))
        v = np.arange(4.0)
        _assert_same_plaintext(
            store.encode(v, 1, 2.0**25), store.encoder.encode(v, 1, 2.0**25)
        )
        assert (len(store), store.hits, store.misses) == (0, 0, 1)
