"""Differential suite: the planned matvec vs the per-diagonal reference.

The planned side is what a compiled layer runs — the ``planned_matvec``
fixture (``conftest.py``): plan, regroup, and the ``1 x 1`` grid of
``encrypted_matvec_shards``.  Every test decrypts both on the *same*
ciphertext and asserts the results agree within 1e-3 (the acceptance
bar) — rectangular, square and
explicitly zero-padded weights, every SIMD block count, hypothesis-driven
random matrices, and the compiled end-to-end network.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksEvaluator, CkksParams, keygen
from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe.linear import (
    diagonals_of,
    encrypted_matvec,
    encrypted_matvec_shards,
    grouped_diagonals,
    plan_matvec,
    tile_blocks,
)

SIZE = 8  # shared diagonal index space: keys cover every step < SIZE


@pytest.fixture(scope="module")
def rt():
    """One context whose Galois keys cover the reference and every plan
    for any matrix with max dim <= SIZE (steps 1..SIZE-1 suffice)."""
    ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=2))
    keys = keygen(ctx, seed=0, galois_steps=tuple(range(1, SIZE)))
    return ctx, CkksEvaluator(ctx, keys)


def _pack(ctx, x, size, num_blocks=1, stride=None):
    """Wraparound-replicated block packing (the network's layout)."""
    stride = stride or 2 * size
    xs = np.atleast_2d(x)
    packed = np.zeros(ctx.slots)
    for b, row in enumerate(xs):
        xr = np.zeros(size)
        xr[: len(row)] = row
        packed[b * stride : b * stride + size] = xr
        packed[b * stride + size : b * stride + 2 * size] = xr
    return packed


def _both_paths(ev, ct, planned, w=None, diagonals=None, groups=None,
                num_values=None, bias_slots=None):
    """Decrypt the reference and the ``planned`` matvec of one input."""
    naive = encrypted_matvec(ev, ct, w, diagonals=diagonals, bias_slots=bias_slots)
    bsgs = planned(ev, ct, w, groups=groups, bias_slots=bias_slots)
    return (
        ev.decrypt(naive, num_values=num_values),
        ev.decrypt(bsgs, num_values=num_values),
    )


class TestShapes:
    @pytest.mark.parametrize(
        "shape", [(8, 8), (3, 8), (8, 3), (5, 7), (7, 5), (1, 8), (8, 1)]
    )
    def test_rectangular_and_square(self, rt, planned_matvec, shape):
        ctx, ev = rt
        rng = np.random.default_rng(sum(shape))
        w = rng.normal(size=shape)
        x = rng.normal(size=shape[1])
        ct = ev.encrypt(_pack(ctx, x, max(shape)))
        naive, bsgs = _both_paths(ev, ct, planned_matvec, w, num_values=shape[0])
        np.testing.assert_allclose(bsgs, naive, atol=1e-3)
        np.testing.assert_allclose(bsgs, w @ x, atol=5e-3)

    def test_explicitly_padded_weight(self, rt, planned_matvec):
        """A 3x5 matrix zero-padded to 8x8 (the lowering's square layout)."""
        ctx, ev = rt
        rng = np.random.default_rng(1)
        w = np.zeros((SIZE, SIZE))
        w[:3, :5] = rng.normal(size=(3, 5))
        x = np.zeros(SIZE)
        x[:5] = rng.normal(size=5)
        ct = ev.encrypt(_pack(ctx, x, SIZE))
        naive, bsgs = _both_paths(ev, ct, planned_matvec, w, num_values=3)
        np.testing.assert_allclose(bsgs, naive, atol=1e-3)
        np.testing.assert_allclose(bsgs, (w @ x)[:3], atol=5e-3)

    def test_bias(self, rt, planned_matvec):
        ctx, ev = rt
        rng = np.random.default_rng(2)
        w = rng.normal(size=(6, 6))
        x, b = rng.normal(size=6), rng.normal(size=6)
        ct = ev.encrypt(_pack(ctx, x, 6))
        bias_slots = np.zeros(ctx.slots)
        bias_slots[:6] = b
        naive, bsgs = _both_paths(
            ev, ct, planned_matvec, w, bias_slots=bias_slots, num_values=6
        )
        np.testing.assert_allclose(bsgs, naive, atol=1e-3)
        np.testing.assert_allclose(bsgs, w @ x + b, atol=5e-3)

    def test_level_and_scale_match_naive(self, rt, planned_matvec):
        ctx, ev = rt
        rng = np.random.default_rng(3)
        w = rng.normal(size=(6, 6))
        ct = ev.encrypt(_pack(ctx, rng.normal(size=6), 6))
        naive = encrypted_matvec(ev, ct, w)
        bsgs = planned_matvec(ev, ct, w)
        assert bsgs.level == naive.level == ct.level - 1
        assert abs(bsgs.scale - naive.scale) < 1e-6 * naive.scale


class TestBlockCounts:
    @pytest.mark.parametrize("num_blocks", list(range(1, 9)))
    def test_every_block_count(self, rt, planned_matvec, num_blocks):
        """slots=128, size=8, stride=16: all 1..8 block counts fit."""
        ctx, ev = rt
        rng = np.random.default_rng(num_blocks)
        w = rng.normal(size=(6, 8))
        stride = 2 * SIZE
        diags = diagonals_of(w, ctx.slots, num_blocks=num_blocks, block_stride=stride)
        plan = plan_matvec(diags.keys(), SIZE)
        groups = grouped_diagonals(diags, plan)
        xs = rng.normal(size=(num_blocks, 8))
        ct = ev.encrypt(_pack(ctx, xs, SIZE, num_blocks=num_blocks))
        span = (num_blocks - 1) * stride + 6
        naive, bsgs = _both_paths(
            ev, ct, planned_matvec, diagonals=diags, groups=groups, num_values=span
        )
        np.testing.assert_allclose(bsgs, naive, atol=1e-3)
        for b in range(num_blocks):
            np.testing.assert_allclose(
                bsgs[b * stride : b * stride + 6], w @ xs[b], atol=5e-3
            )


class TestHypothesisRandomMatrices:
    @given(
        out_dim=st.integers(min_value=1, max_value=SIZE),
        in_dim=st.integers(min_value=1, max_value=SIZE),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sparsity=st.floats(min_value=0.0, max_value=0.8),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_matrix_equivalence(self, rt, planned_matvec, out_dim, in_dim, seed, sparsity):
        ctx, ev = rt
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(out_dim, in_dim))
        w[rng.random(w.shape) < sparsity] = 0.0
        if not np.any(w):
            w[0, 0] = 1.0  # keep at least one nonzero diagonal
        x = rng.normal(size=in_dim)
        ct = ev.encrypt(_pack(ctx, x, max(out_dim, in_dim)))
        naive, bsgs = _both_paths(ev, ct, planned_matvec, w, num_values=out_dim)
        np.testing.assert_allclose(bsgs, naive, atol=1e-3)
        np.testing.assert_allclose(bsgs, w @ x, atol=5e-3)


class TestShardGrid:
    """The grouped inner loop on a grid: a giant step shared by several
    input shards of one output row is rotated once, on their summed
    inner products."""

    def test_2x3_grid_of_mixed_plans_on_a_full_batch(self, rt, planned_matvec, giant_set_blocks):
        ctx, ev = rt
        gs = giant_set_blocks
        stride, batch = 2 * SIZE, ctx.slots // (2 * SIZE)
        names = [["a", "n", "c"], [None, "b", "a"]]

        def grouped(name):
            if name is None:
                return None
            diags = diagonals_of(
                getattr(gs, name), ctx.slots, num_blocks=batch, block_stride=stride
            )
            groups = grouped_diagonals(diags, plan_matvec(diags.keys(), SIZE))
            assert tuple(sorted(groups)) == gs.giants[name]
            return groups

        blocks = [[grouped(name) for name in row] for row in names]
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(3, batch, SIZE))  # a different input per shard and block
        biases = rng.normal(size=(2, SIZE))
        counting = CountingEvaluator(ev)
        cts = [ev.encrypt(_pack(ctx, x, SIZE, num_blocks=batch)) for x in xs]
        outs = encrypted_matvec_shards(
            counting,
            cts,
            blocks,
            bias_slots=[tile_blocks(b, ctx.slots, batch, stride) for b in biases],
        )
        # one standalone rotation per (output shard, shared nonzero giant
        # step): {0,4} ∪ {0} ∪ {4,6} and {0,3} ∪ {0,4} — four, where one
        # per (block, giant) would be five
        assert counting.counts["rotate"] == 2 + 2
        assert counting.counts["hoist_decompose"] == 3
        for j, row in enumerate(names):
            got = ev.decrypt(outs[j])
            per_block = None
            for i, name in enumerate(row):
                if name is None:
                    continue
                part = planned_matvec(ev, cts[i], groups=blocks[j][i])
                per_block = part if per_block is None else ev.add(per_block, part)
            bias_free = got - tile_blocks(biases[j], ctx.slots, batch, stride)
            np.testing.assert_allclose(bias_free, ev.decrypt(per_block), atol=1e-3)
            for b in range(batch):
                want = biases[j] + sum(
                    getattr(gs, name) @ xs[i, b]
                    for i, name in enumerate(row)
                    if name is not None
                )
                np.testing.assert_allclose(
                    got[b * stride : b * stride + SIZE], want, rtol=1e-3, atol=1e-3
                )


class TestEndToEndNetwork:
    @pytest.fixture(scope="class")
    def compiled(self, toy_plain_enc):
        return toy_plain_enc

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_logits_equal_across_batch_sizes(self, compiled, oracle, batch):
        enc = compiled
        rng = np.random.default_rng(batch)
        xs = rng.normal(size=(batch, 8))
        ct = enc.encrypt_batch(xs)
        bsgs = enc.decrypt_logits(enc.forward(ct), 3, batch=batch)
        naive_ct = oracle.forward(enc, ct, oracle.evaluator(enc))
        naive = enc.decrypt_logits(naive_ct, 3, batch=batch)
        # the oracle also swaps the activation path (ladder instead of
        # Paterson–Stockmeyer), whose noise differs slightly — the bar is
        # wider than the matvec-only 1e-3 (activation differentials are
        # pinned tightly in tests/fhe/test_paf_eval.py)
        np.testing.assert_allclose(bsgs, naive, atol=5e-3)

    def test_all_layers_planned_bsgs(self, compiled):
        for ((plan,),) in compiled.matvec_plans.values():
            assert plan.n1 < plan.size

    def test_compile_keeps_only_grouped_diagonals(self, compiled, per_diagonal_steps):
        """One payload store per layer: the 1 x 1 grid of pre-rotated
        groups — no duplicate flat diagonals, no per-diagonal Galois keys."""
        enc = compiled
        assert set(enc.matvec_groups) == set(enc.matvec_plans)
        assert len(enc.keys.galois) < len(per_diagonal_steps(enc))
