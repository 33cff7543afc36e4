"""Property-based tests for the limb-batched NTT kernels (hypothesis).

The vectorized backend's :func:`_batched_ntt_forward` /
:func:`_batched_ntt_inverse` are the hot kernels behind every
encrypted op, so their algebra is pinned directly against ground truth,
over hypothesis-driven ring sizes, prime sets, batch shapes and data:

* roundtrip — ``inverse(forward(x)) == x`` exactly;
* reference equality — batched output matches the per-limb
  :class:`~repro.ckks.ntt.NttPlan` (the reference backend's kernel)
  row for row, byte for byte;
* convolution — pointwise products in the NTT domain invert to the
  schoolbook O(n²) negacyclic convolution;
* linearity — ``F(a·x + b·y) == a·F(x) + b·F(y) (mod p)``;
* batch-shape invariance — stacking rows or limbs never changes any
  individual row's transform (this crosses the kernel's internal
  limb-major/broadcast layout threshold, so both code paths are pinned).

Everything is exact integer arithmetic: every assertion is equality,
not tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import (
    _LIMB_MAJOR_MIN_BATCH,
    _batched_ntt_forward,
    _batched_ntt_inverse,
)
from repro.ckks.ntt import NttPlan
from repro.ckks.primes import generate_primes

_tables_cache: dict = {}


def tables(n, bits):
    """(primes, plans, psi_rev, psi_inv_rev, n_inv) for ring size ``n``
    and the given per-limb prime bit sizes (memoised — prime search and
    table building dominate the test runtime otherwise)."""
    key = (n, bits)
    if key not in _tables_cache:
        primes = generate_primes(n, list(bits))
        plans = [NttPlan.get(n, p) for p in primes]
        _tables_cache[key] = (
            np.array(primes, dtype=np.int64),
            plans,
            np.stack([pl.psi_rev for pl in plans]),
            np.stack([pl.psi_inv_rev for pl in plans]),
            np.array([pl.n_inv for pl in plans], dtype=np.int64),
        )
    return _tables_cache[key]


def random_rows(seed, batch, primes, n):
    """Canonical residue rows ``(batch, limbs, n)``."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**62, size=(batch, primes.size, n))
    return (raw % primes[None, :, None]).astype(np.int64)


# ring size × per-limb prime bits × batch size × data seed.  Batch sizes
# sit on both sides of the limb-major layout threshold; bit sizes straddle
# the scale/special range the real parameter sets use.
cases = st.tuples(
    st.sampled_from([8, 16, 32, 64]),
    st.lists(st.sampled_from([20, 24, 26, 28, 29]), min_size=1, max_size=3).map(tuple),
    st.sampled_from([1, 2, 3, _LIMB_MAJOR_MIN_BATCH - 1, _LIMB_MAJOR_MIN_BATCH + 1]),
    st.integers(0, 10_000),
)


def schoolbook_negacyclic(a, b, p, n):
    """O(n²) ground truth: product in Z_p[X]/(X^n + 1), python ints."""
    c = [0] * n
    for i in range(n):
        ai = int(a[i])
        for j in range(n):
            v = ai * int(b[j])
            if i + j < n:
                c[i + j] += v
            else:
                c[i + j - n] -= v
    return np.array([v % p for v in c], dtype=np.int64)


class TestBatchedNttProperties:
    @given(cases)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_exact(self, case):
        n, bits, batch, seed = case
        primes, _, psi, psi_inv, n_inv = tables(n, bits)
        x = random_rows(seed, batch, primes, n)
        y = _batched_ntt_forward(x, psi, primes, n)
        back = _batched_ntt_inverse(y, psi_inv, n_inv, primes, n)
        assert np.array_equal(back, x)

    @given(cases)
    @settings(max_examples=25, deadline=None)
    def test_matches_per_limb_reference(self, case):
        n, bits, batch, seed = case
        primes, plans, psi, psi_inv, n_inv = tables(n, bits)
        x = random_rows(seed, batch, primes, n)
        fwd = _batched_ntt_forward(x, psi, primes, n)
        inv = _batched_ntt_inverse(fwd, psi_inv, n_inv, primes, n)
        for b in range(batch):
            for i, plan in enumerate(plans):
                assert np.array_equal(fwd[b, i], plan.forward(x[b, i]))
                assert np.array_equal(inv[b, i], plan.inverse(fwd[b, i]))

    @given(cases)
    @settings(max_examples=10, deadline=None)
    def test_pointwise_product_is_negacyclic_convolution(self, case):
        n, bits, _, seed = case
        primes, _, psi, psi_inv, n_inv = tables(n, bits)
        a = random_rows(seed, 1, primes, n)
        b = random_rows(seed + 1, 1, primes, n)
        fa = _batched_ntt_forward(a, psi, primes, n)
        fb = _batched_ntt_forward(b, psi, primes, n)
        prod = fa * fb % primes[None, :, None]  # < 2^60, no overflow
        got = _batched_ntt_inverse(prod, psi_inv, n_inv, primes, n)
        for i, p in enumerate(primes):
            want = schoolbook_negacyclic(a[0, i], b[0, i], int(p), n)
            assert np.array_equal(got[0, i], want)

    @given(cases, st.integers(0, 2**29), st.integers(0, 2**29))
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, case, s, t):
        n, bits, batch, seed = case
        primes, _, psi, _, _ = tables(n, bits)
        x = random_rows(seed, batch, primes, n)
        y = random_rows(seed + 1, batch, primes, n)
        pcol = primes[None, :, None]
        combo = (s % pcol * x + t % pcol * y) % pcol  # each term < 2^60
        lhs = _batched_ntt_forward(combo, psi, primes, n)
        fx = _batched_ntt_forward(x, psi, primes, n)
        fy = _batched_ntt_forward(y, psi, primes, n)
        rhs = (s % pcol * fx + t % pcol * fy) % pcol
        assert np.array_equal(lhs, rhs)

    @given(cases)
    @settings(max_examples=15, deadline=None)
    def test_batch_and_limb_stacking_invariance(self, case):
        n, bits, batch, seed = case
        primes, _, psi, psi_inv, n_inv = tables(n, bits)
        x = random_rows(seed, batch, primes, n)
        full = _batched_ntt_forward(x, psi, primes, n)
        for b in range(batch):
            # one batch row alone transforms identically
            row = _batched_ntt_forward(x[b : b + 1], psi, primes, n)
            assert np.array_equal(row[0], full[b])
        for i in range(primes.size):
            # one limb alone (1-limb tables) transforms identically
            limb = _batched_ntt_forward(
                x[:, i : i + 1, :], psi[i : i + 1], primes[i : i + 1], n
            )
            assert np.array_equal(limb[:, 0], full[:, i])

    @given(cases)
    @settings(max_examples=10, deadline=None)
    def test_no_input_mutation(self, case):
        n, bits, batch, seed = case
        primes, _, psi, psi_inv, n_inv = tables(n, bits)
        x = random_rows(seed, batch, primes, n)
        kept = x.copy()
        y = _batched_ntt_forward(x, psi, primes, n)
        assert np.array_equal(x, kept)
        kept_y = y.copy()
        _batched_ntt_inverse(y, psi_inv, n_inv, primes, n)
        assert np.array_equal(y, kept_y)
