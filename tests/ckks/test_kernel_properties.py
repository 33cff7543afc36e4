"""Property-based tests for every compiled HE-op entry point (hypothesis).

:class:`VectorizedBackend` runs each pointwise op, the ciphertext tensor,
the plaintext lift, a sum of plaintext products, the key inner product
and the two basis changes, ModUp and ModDown (which the rescale, the
digit decomposition and the divide-by-``P`` descent are), as one C
call.  Each is held
byte-equal here to the spec — the same method on
:class:`ReferenceBackend`, i.e. the base-class composition over the
per-row kernels — over hypothesis-drawn ring sizes 8–2048, chain
shapes, levels (partial last digit groups included), base conversions,
batch and broadcast shapes, non-contiguous views and Galois
permutations on and off.  About half of the drawn residue rows are all ``0`` or all
``p − 1``, the two ends of the canonical range.  Everything is exact
integer arithmetic: every assertion is equality.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksParams
from repro.ckks.backend import ReferenceBackend, VectorizedBackend


@functools.lru_cache(maxsize=None)
def backends(n: int, depth: int, dnum: int) -> tuple:
    """``(ctx, vectorized, reference)`` on a memoised context whose q0
    and special primes are 30-bit, the widest the kernels take."""
    ctx = CkksContext(
        CkksParams(
            n=n, scale_bits=25, depth=depth, dnum=dnum,
            first_prime_bits=30, special_prime_bits=30,
        )
    )
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


def digit_coefficients(rng, ctx, lead, level) -> np.ndarray:
    """Canonical chain coefficient rows at ``level`` (:func:`residues`)
    where a quarter of each row lands on the centring boundary of its
    digit: ``x·(Q_g/q)^{-1} = (q-1)/2`` and ``(q+1)/2`` mod ``q``."""
    rows = residues(rng, ctx, lead, range(level + 1))
    conv, n = ctx.digit_lift(level), ctx.n
    for i in range(level + 1):
        q = ctx.all_primes[i]
        unit = pow(int(conv.inv[i]), q - 2, q)
        rows[..., i, : n // 8] = q // 2 * unit % q
        rows[..., i, n // 8 : n // 4] = (q // 2 + 1) * unit % q
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
#: ``contexts``, or one with 18 special primes: a descent group longer
#: than the 15 products the C conversion sums between reductions
wide_contexts = st.one_of(
    contexts,
    st.tuples(st.sampled_from([8, 64]), st.just(17), st.just(1), st.integers(0, 2**32 - 1)),
)


def drawn_conversion(data, ctx, down: bool):
    """A base conversion over drawn primes of ``ctx``: sources in any
    order, grouped by a drawn size, onto any targets — for a ModDown
    (``down``), one group onto primes outside it."""
    every = list(range(len(ctx.all_primes)))
    sources = data.draw(
        st.lists(st.sampled_from(every), min_size=1, max_size=len(every) - down, unique=True)
    )
    rest = [i for i in every if i not in sources] if down else every
    targets = data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
    size = len(sources) if down else data.draw(st.integers(1, len(sources)))
    return ctx.base_conversion(sources, targets, size)


def rescale_oracle(ref, ctx, rows, level) -> np.ndarray:
    """A rescale spelt out: the top row inverse-transformed and centred,
    reduced and forward-transformed onto the rest, subtracted, and
    scaled by ``q_level⁻¹``."""
    q, chain = ctx.q_chain[level], list(range(level))
    top = ref.ntt_inverse(rows[..., level : level + 1, :], [level])
    centred = np.where(top > q // 2, top - q, top)
    delta = ref.ntt_forward(centred % ctx._primes_arr[chain][:, None], chain)
    inverses = np.array([pow(q, -1, p) for p in ctx.q_chain[:level]], dtype=np.int64)
    return ref.modscale(ref.modsub(rows[..., :level, :], delta, chain), inverses, chain)


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
        same(vec.lift(coeffs, idx), ref.lift(coeffs, idx))
        small = rng.integers(-3, 4, size=n)  # a noise / secret polynomial
        same(vec.lift(small, idx[::-1]), ref.lift(small, idx[::-1]))


class TestMulPlainSum:
    @given(
        contexts,
        st.sampled_from([1, 2, 9, 20, 27]),
        st.sampled_from(["coeffs", "ntt", "mixed"]),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_fused_sum_is_the_lift_product_add_composition(
        self, case, terms, kind, saturate, data
    ):
        """``Σ_t ct_t ⊙ pt_t`` in one call equals the spec's ``lift`` →
        ``modmul`` → ``modadd`` chain: plaintexts as held coefficients
        (beyond ±2^62 included: the lift's exact-division branch), as
        NTT rows, or both, over a chain or an extended basis (30-bit
        special primes first); ``saturate`` makes every residue ``p − 1``,
        the accumulators' worst case."""
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        rng = np.random.default_rng(seed)
        level = data.draw(st.integers(0, ctx.max_level))
        if data.draw(st.booleans()):
            chain = list(range(level + 1))
        else:
            chain = ctx.keyswitch_basis(level)
        info = np.iinfo(np.int64)
        cts = residues(rng, ctx, (terms, 2), chain)
        plains = []
        for t in range(terms):
            if kind == "coeffs" or (kind == "mixed" and t % 2):
                coeffs = rng.integers(-(2**62), 2**62, size=n)
                coeffs[:6] = [2**62, -(2**62), info.max, info.min, 2**62 - 1, -(2**62) + 1]
                plains.append(coeffs)
            else:
                plains.append(residues(rng, ctx, (), chain))
        if saturate:
            top = ctx._primes_arr[chain][:, None] - 1
            cts[...] = top
            plains = [
                np.broadcast_to(top, pt.shape).copy() if pt.ndim == 2 else pt for pt in plains
            ]
        cts = list(cts)  # one (2, limbs, n) pair per term, never stacked
        same(vec.mul_plain_sum(cts, plains, chain), ref.mul_plain_sum(cts, plains, chain))


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
        """NTT rows in: ``hoist_decompose(ntt_forward(c), l)`` is the
        coefficient-domain digit lift of ``c`` — the spec's base
        conversion, then forward NTTs over the extended basis."""
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        level = data.draw(st.integers(0, ctx.max_level))
        coeffs = digit_coefficients(np.random.default_rng(seed), ctx, lead, level)
        basis = ctx.keyswitch_basis(level)
        want = ref.ntt_forward(ref.base_convert(coeffs, ctx.digit_lift(level)), basis)
        rows = ref.ntt_forward(coeffs, range(level + 1))
        got = vec.hoist_decompose(rows, level)
        same(got, ref.hoist_decompose(rows, level))
        same(got, want)
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


class TestBasisChange:
    """``mod_up`` and ``mod_down`` over drawn conversions and the four
    in-tree shapes: the digit lift, the ``P`` descent, the trailing
    one-prime rescale and the ``q_0`` → chain ModRaise."""

    @given(wide_contexts, st.sampled_from([(), (2,)]), st.sampled_from(["drawn", "lift", "mod_raise"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mod_up(self, case, lead, shape, data):
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        level = data.draw(st.integers(0, ctx.max_level))
        if shape == "drawn":
            conv = drawn_conversion(data, ctx, down=False)
        else:
            conv = getattr(ctx._conversions(level), shape)
        rows = residues(np.random.default_rng(seed), ctx, lead, conv.sources)
        got = vec.mod_up(rows, conv)
        same(got, ref.mod_up(rows, conv))
        assert got.shape == lead + (len(conv.weights), len(conv.targets), n)

    @given(wide_contexts, leads, st.sampled_from(["drawn", "descent", "rescale"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mod_down(self, case, lead, shape, data):
        """The dropped rows lead the input when they are special primes
        and trail it otherwise; a rescale is also its own spelling."""
        n, depth, dnum, seed = case
        ctx, vec, ref = backends(n, depth, dnum)
        level = data.draw(st.integers(shape == "rescale", ctx.max_level))
        if shape == "drawn":
            conv = drawn_conversion(data, ctx, down=True)
        else:
            conv = getattr(ctx._conversions(level), shape)
        sources, targets = list(conv.sources), list(conv.targets)
        special_first = sources[0] >= len(ctx.q_chain)
        basis = sources + targets if special_first else targets + sources
        rows = residues(np.random.default_rng(seed), ctx, lead, basis)
        got = vec.mod_down(rows, conv)
        same(got, ref.mod_down(rows, conv))
        assert got.shape == lead + (len(targets), n)
        if shape == "rescale":
            same(got, rescale_oracle(ref, ctx, rows, level))

    def test_mod_down_refuses_what_it_cannot_divide(self):
        """A ModDown needs one source group and targets outside it:
        several groups, no target, or a target among the sources (no
        divisor inverse) raise on both backends."""
        ctx, vec, ref = backends(64, 5, 2)
        top = ctx.max_level
        x = residues(np.random.default_rng(0), ctx, (), range(top + 1))
        for conv in (
            ctx.base_conversion([top - 1, top], range(top - 1), 1),  # two groups
            ctx.base_conversion([top], [], 1),  # nothing kept
            ctx.base_conversion([top - 1, top], range(top), 2),  # q_{top-1} both
        ):
            for be in (vec, ref):
                with pytest.raises(ValueError):
                    be.mod_down(x[: len(conv.sources) + len(conv.targets)], conv)
