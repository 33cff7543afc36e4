"""Property-based tests for every compiled HE-op entry point (hypothesis).

:class:`VectorizedBackend` runs each pointwise op, the ciphertext tensor,
the plaintext lift, the rescale, the digit decomposition, the key inner
product and the divide-by-``P`` descent as one C call.  Each is held
byte-equal here to the spec — the same method on
:class:`ReferenceBackend`, i.e. the base-class composition over the
per-row kernels — over hypothesis-drawn ring sizes 8–2048, chain
shapes, levels (partial last digit groups included), batch and
broadcast shapes, non-contiguous views and Galois permutations on and
off.  About half of the drawn residue rows are all ``0`` or all
``p − 1``, the two ends of the canonical range.  Everything is exact
integer arithmetic: every assertion is equality.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksParams
from repro.ckks.backend import ReferenceBackend, VectorizedBackend


@functools.lru_cache(maxsize=None)
def backends(n: int, depth: int, dnum: int) -> tuple:
    """``(ctx, vectorized, reference)`` on a memoised context."""
    ctx = CkksContext(CkksParams(n=n, scale_bits=25, depth=depth, dnum=dnum))
    return ctx, VectorizedBackend(ctx), ReferenceBackend(ctx)


def residues(rng, ctx, lead, idx) -> np.ndarray:
    """Canonical rows ``lead + (len(idx), n)``; a quarter of the rows are
    all 0 and a quarter all ``p − 1``."""
    primes = ctx._primes_arr[list(idx)]
    rows = rng.integers(0, 2**62, size=tuple(lead) + (len(idx), ctx.n)) % primes[:, None]
    kind = rng.integers(0, 4, size=rows.shape[:-1])
    rows[kind == 0] = 0
    edge = np.broadcast_to(primes - 1, kind.shape)
    rows[kind == 1] = edge[kind == 1][:, None]
    return rows


def same(got, want) -> None:
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: ring size × chain depth × dnum × data seed
contexts = st.tuples(
    st.sampled_from([8, 16, 64, 512, 2048]),
    st.sampled_from([2, 5]),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**32 - 1),
)
#: leading batch shapes of a residue stack
leads = st.sampled_from([(), (1,), (2,), (3,), (2, 2)])


class TestPointwise:
    @given(contexts, leads, st.sampled_from(["same", "rows", "one", "suffix"]))
    @settings(max_examples=30, deadline=None)
    def test_binary_ops_broadcast_b_over_leading_axes(self, case, lead, b_kind):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        chain = list(range(ctx.max_level + 1))
        a = residues(rng, ctx, lead, chain)
        b_lead = {"same": lead, "rows": (), "one": (1,), "suffix": lead[1:]}[b_kind]
        b = residues(rng, ctx, b_lead, chain)
        for op in ("modadd", "modsub", "modmul"):
            same(getattr(vec, op)(a, b, chain), getattr(ref, op)(a, b, chain))

    @given(contexts, leads)
    @settings(max_examples=20, deadline=None)
    def test_unary_and_scale_ops(self, case, lead):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        basis = ctx.keyswitch_basis(ctx.max_level)  # special rows first
        a = residues(rng, ctx, lead, basis)
        scalars = residues(rng, ctx, (), basis)[:, 0]
        same(vec.modneg(a, basis), ref.modneg(a, basis))
        same(vec.modscale(a, scalars, basis), ref.modscale(a, scalars, basis))

    @given(contexts)
    @settings(max_examples=15, deadline=None)
    def test_non_contiguous_views_match_their_copies(self, case):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        top = ctx.max_level
        x = residues(rng, ctx, (2,), range(top + 1))
        views = {
            "level slice": (x[:, :top], list(range(top))),
            "reversed limbs": (x[:, ::-1], list(range(top, -1, -1))),
            "reversed pair": (x[::-1], list(range(top + 1))),
        }
        for name, (view, idx) in views.items():
            assert not view.flags.c_contiguous, name
            for op in ("modadd", "modmul"):
                got = getattr(vec, op)(view, view, idx)
                same(got, getattr(ref, op)(np.ascontiguousarray(view), view, idx))

    @given(contexts)
    @settings(max_examples=20, deadline=None)
    def test_tensor_is_the_three_products(self, case):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        chain = list(range(ctx.max_level + 1))
        a, b = residues(rng, ctx, (2, 2), chain)
        same(vec.tensor(a, b, chain), ref.tensor(a, b, chain))
        same(vec.tensor(a, a, chain), ref.tensor(a, a, chain))  # a squaring


class TestLift:
    @given(contexts, st.sampled_from([(), (1,), (3,)]))
    @settings(max_examples=25, deadline=None)
    def test_lift_and_reduce_match_the_spec(self, case, lead):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        idx = list(range(len(ctx.all_primes)))
        info = np.iinfo(np.int64)
        coeffs = rng.integers(-(2**62), 2**62, size=tuple(lead) + (n,))
        # the edges of both reduction paths: 0, ±1, ±(2^62 - 1), ±2^62,
        # int64 limits; then huge multiples of each prime ±1, where the
        # double quotient estimate lands one off either way
        edges = [0, 1, -1, 2**62 - 1, -(2**62) + 1, 2**62, -(2**62), info.max, info.min]
        for p in ctx.all_primes:
            k = (2**61 // p) * p
            edges += [k - 1, k + 1, -k - 1, -k + 1]
        flat = coeffs.reshape(-1)
        flat[: min(len(edges), flat.size)] = edges[: flat.size]
        same(vec.reduce_coeffs(coeffs, idx), ref.reduce_coeffs(coeffs, idx))
        same(vec.lift(coeffs, idx), ref.lift(coeffs, idx))
        small = rng.integers(-3, 4, size=n)  # a noise / secret polynomial
        same(vec.lift(small, idx[::-1]), ref.lift(small, idx[::-1]))


class TestRescaleAndKeyswitch:
    @given(contexts, leads, st.data())
    @settings(max_examples=25, deadline=None)
    def test_rescale_every_level_and_its_level_slice(self, case, lead, data):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        level = data.draw(st.integers(1, ctx.max_level))
        rows = residues(rng, ctx, lead, range(level + 1))
        # the dropped row's coefficients straddle the centring boundary
        q = ctx.q_chain[level]
        edge = rng.choice([q // 2, q // 2 + 1, 0, q - 1], size=rows.shape[:-2] + (n,))
        rows[..., level, :] = ref.ntt_forward(edge[..., None, :], [level])[..., 0, :]
        same(vec.rescale(rows, level), ref.rescale(rows, level))
        big = residues(rng, ctx, (2,), range(ctx.max_level + 1))
        view = big[:, : level + 1]  # a mod-switched pair: not contiguous
        same(vec.rescale(view, level), ref.rescale(view, level))

    @given(contexts, st.sampled_from([(), (2,)]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_hoist_decompose(self, case, lead, data):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        level = data.draw(st.integers(0, ctx.max_level))
        rows = residues(rng, ctx, lead, range(level + 1))
        # a quarter of each row lands on the centring boundary of its
        # digit: x·(Q_g/q)^{-1} = (q-1)/2 and (q+1)/2 mod q
        conv = ctx.digit_lift(level)
        for i in range(level + 1):
            q = ctx.all_primes[i]
            unit = pow(int(conv.inv[i]), q - 2, q)
            rows[..., i, : n // 8] = q // 2 * unit % q
            rows[..., i, n // 8 : n // 4] = (q // 2 + 1) * unit % q
        got = vec.hoist_decompose(rows, level)
        same(got, ref.hoist_decompose(rows, level))
        basis = ctx.keyswitch_basis(level)
        assert got.shape[-3:] == (ctx.num_digits(level), len(basis), n)

    @given(contexts, st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_inner_product_on_key_slices_with_and_without_perm(self, case, permute, data):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        level = data.draw(st.integers(0, ctx.max_level))
        top_basis = ctx.keyswitch_basis(ctx.max_level)
        digits_top = ctx.num_digits(ctx.max_level)
        # a family's full (digits, basis, n) tensors; a level reads a
        # leading slice of both axes — a row-strided view
        key_b, key_a = residues(rng, ctx, (2, digits_top), top_basis)
        d, rows = ctx.num_digits(level), ctx.alpha + level + 1
        key_b, key_a = key_b[:d, :rows], key_a[:d, :rows]
        digits = residues(rng, ctx, (d,), ctx.keyswitch_basis(level))
        perm = None
        if permute:
            g = data.draw(st.integers(0, n - 1)) * 2 + 1
            perm = ctx.galois_ntt_permutation(g)
        got = vec.keyswitch_inner_product(digits, key_b, key_a, level, perm=perm)
        same(got, ref.keyswitch_inner_product(digits, key_b, key_a, level, perm=perm))
        # contiguous copies of the key slices give the same bytes
        contiguous = [np.ascontiguousarray(k) for k in (key_b, key_a)]
        same(vec.keyswitch_inner_product(digits, *contiguous, level, perm=perm), got)

    @given(contexts, leads, st.data())
    @settings(max_examples=25, deadline=None)
    def test_descent(self, case, lead, data):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        level = data.draw(st.integers(0, ctx.max_level))
        acc = residues(rng, ctx, lead, ctx.keyswitch_basis(level))
        same(vec.keyswitch_descent(acc, level), ref.keyswitch_descent(acc, level))
