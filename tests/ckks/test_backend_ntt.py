"""Property-based tests for the vectorized backend's NTT kernels (hypothesis).

:meth:`VectorizedBackend.ntt_forward` / :meth:`~VectorizedBackend.ntt_inverse`
— the compiled negacyclic transforms behind every encrypted op — are
pinned directly against ground truth, over hypothesis-driven ring sizes
(the toys' 512 and 2048 included), prime sets, batch sizes 1–16 and
data:

* roundtrip — ``inverse(forward(x)) == x`` exactly;
* reference equality — batched output matches the per-limb
  :class:`~repro.ckks.ntt.NttPlan` (the reference backend's kernel)
  row for row, byte for byte;
* convolution — pointwise products in the NTT domain invert to the
  schoolbook O(n²) negacyclic convolution;
* linearity — ``F(a·x + b·y) == a·F(x) + b·F(y) (mod p)``;
* batch-shape invariance — stacking rows or limbs never changes any
  individual row's transform.

Rows that are all 0 or all ``p − 1`` — the two ends of the kernels' lazy
``[0, 4p)`` value range — are drawn alongside random ones.  Everything
is exact integer arithmetic: every assertion is equality, not tolerance.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import VectorizedBackend
from repro.ckks.ntt import NttPlan
from repro.ckks.primes import generate_primes

_backend_cache: dict = {}


def backend(n, bits):
    """``(primes, plans, VectorizedBackend)`` over ring size ``n`` and the
    given per-limb prime bit sizes — the backend bound to a bare stand-in
    context holding just those primes (memoised: prime search and table
    building dominate the test runtime otherwise)."""
    key = (n, bits)
    if key not in _backend_cache:
        primes = generate_primes(n, list(bits))
        plans = [NttPlan.get(n, p) for p in primes]
        ctx = SimpleNamespace(
            n=n, plans=plans, all_primes=primes, _primes_arr=np.array(primes, dtype=np.int64)
        )
        _backend_cache[key] = (ctx._primes_arr, plans, VectorizedBackend(ctx))
    return _backend_cache[key]


def random_rows(seed, batch, primes, n):
    """Canonical residue rows ``(batch, limbs, n)``; about a quarter of the
    rows are all 0 and a quarter all ``p − 1``."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**62, size=(batch, primes.size, n))
    rows = (raw % primes[None, :, None]).astype(np.int64)
    kind = rng.integers(0, 4, size=(batch, primes.size))
    rows[kind == 0] = 0
    rows[kind == 1] = np.broadcast_to(primes - 1, kind.shape)[kind == 1][:, None]
    return rows


# ring size × per-limb prime bits × batch size × data seed.  Bit sizes
# straddle the scale/special range the real parameter sets use.
bits = st.lists(st.sampled_from([20, 24, 26, 28, 29]), min_size=1, max_size=3).map(tuple)
cases = st.tuples(
    st.sampled_from([8, 16, 64, 512, 2048]), bits, st.integers(1, 16), st.integers(0, 10_000)
)
#: the schoolbook oracle is O(n²) Python: small rings only
small_cases = st.tuples(st.sampled_from([8, 16, 32, 64]), bits, st.just(1), st.integers(0, 10_000))


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
        primes, _, be = backend(n, bits)
        idx = range(primes.size)
        x = random_rows(seed, batch, primes, n)
        assert np.array_equal(be.ntt_inverse(be.ntt_forward(x, idx), idx), x)

    @given(cases)
    @settings(max_examples=25, deadline=None)
    def test_matches_per_limb_reference(self, case):
        n, bits, batch, seed = case
        primes, plans, be = backend(n, bits)
        idx = range(primes.size)
        x = random_rows(seed, batch, primes, n)
        fwd = be.ntt_forward(x, idx)
        inv = be.ntt_inverse(x, idx)
        for i, plan in enumerate(plans):
            assert np.array_equal(fwd[:, i], plan.forward(x[:, i]))
            assert np.array_equal(inv[:, i], plan.inverse(x[:, i]))

    @given(small_cases)
    @settings(max_examples=10, deadline=None)
    def test_pointwise_product_is_negacyclic_convolution(self, case):
        n, bits, _, seed = case
        primes, _, be = backend(n, bits)
        idx = range(primes.size)
        a = random_rows(seed, 1, primes, n)
        b = random_rows(seed + 1, 1, primes, n)
        prod = be.ntt_forward(a, idx) * be.ntt_forward(b, idx) % primes[None, :, None]
        got = be.ntt_inverse(prod, idx)  # products < 2^60, no overflow above
        for i, p in enumerate(primes):
            want = schoolbook_negacyclic(a[0, i], b[0, i], int(p), n)
            assert np.array_equal(got[0, i], want)

    @given(cases, st.integers(0, 2**29), st.integers(0, 2**29))
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, case, s, t):
        n, bits, batch, seed = case
        primes, _, be = backend(n, bits)
        idx = range(primes.size)
        x = random_rows(seed, batch, primes, n)
        y = random_rows(seed + 1, batch, primes, n)
        pcol = primes[None, :, None]
        combo = (s % pcol * x + t % pcol * y) % pcol  # each term < 2^60
        lhs = be.ntt_forward(combo, idx)
        rhs = (s % pcol * be.ntt_forward(x, idx) + t % pcol * be.ntt_forward(y, idx)) % pcol
        assert np.array_equal(lhs, rhs)

    @given(cases)
    @settings(max_examples=15, deadline=None)
    def test_batch_and_limb_stacking_invariance(self, case):
        n, bits, batch, seed = case
        primes, _, be = backend(n, bits)
        idx = list(range(primes.size))
        x = random_rows(seed, batch, primes, n)
        for transform in (be.ntt_forward, be.ntt_inverse):
            full = transform(x, idx)
            assert np.array_equal(transform(x.reshape(-1, n), idx * batch), full.reshape(-1, n))
            for b in range(batch):
                # one batch row alone transforms identically
                assert np.array_equal(transform(x[b], idx), full[b])
            for i in idx:
                # one limb alone transforms identically
                assert np.array_equal(transform(x[:, i : i + 1, :], [i])[:, 0], full[:, i])

    @given(cases)
    @settings(max_examples=10, deadline=None)
    def test_no_input_mutation(self, case):
        n, bits, batch, seed = case
        primes, _, be = backend(n, bits)
        idx = range(primes.size)
        x = random_rows(seed, batch, primes, n)
        kept = x.copy()
        y = be.ntt_forward(x, idx)
        assert np.array_equal(x, kept)
        kept_y = y.copy()
        be.ntt_inverse(y, idx)
        assert np.array_equal(y, kept_y)


@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("fill", ["zeros", "p-1"])
def test_lazy_range_edges_on_toy_rings(n, fill):
    """All-0 and all-(p−1) stacks, every batch size 1–16, on the toy rings'
    ring sizes: forward and inverse equal the per-limb spec."""
    primes, plans, be = backend(n, (29, 28))
    idx = range(primes.size)
    for batch in range(1, 17):
        x = np.zeros((batch, primes.size, n), dtype=np.int64)
        if fill == "p-1":
            x += primes[None, :, None] - 1
        fwd, inv = be.ntt_forward(x, idx), be.ntt_inverse(x, idx)
        for i, plan in enumerate(plans):
            assert np.array_equal(fwd[:, i], plan.forward(x[:, i]))
            assert np.array_equal(inv[:, i], plan.inverse(x[:, i]))
