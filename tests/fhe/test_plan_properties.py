"""Property tests (hypothesis) for diagonal extraction and BSGS planning.

Pure geometry — no crypto: ``diagonals_of`` must round-trip back to the
matrix, and a ``MatvecPlan`` must cover every nonzero diagonal exactly
once with its baby/giant factoring while never costing more keyswitches
than one rotation per nonzero diagonal — the cost of its own ``n1 =
size`` point, which is the per-diagonal layout itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.linear import (
    MatvecPlan,
    diagonals_of,
    grouped_diagonals,
    plan_matvec,
)

SLOTS = 64

matrices = st.builds(
    lambda out_dim, in_dim, seed, sparsity: _random_matrix(
        out_dim, in_dim, seed, sparsity
    ),
    out_dim=st.integers(min_value=1, max_value=8),
    in_dim=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    sparsity=st.floats(min_value=0.0, max_value=0.9),
)

diag_sets = st.builds(
    lambda size, seed, count: (
        size,
        np.random.default_rng(seed).choice(size, size=min(count, size), replace=False),
    ),
    size=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=48),
)


def _random_matrix(out_dim, in_dim, seed, sparsity):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(out_dim, in_dim))
    w[rng.random(w.shape) < sparsity] = 0.0
    if not np.any(w):
        w[0, 0] = 1.0  # the all-zero case is rejected upfront, tested separately
    return w


class TestDiagonalGeometry:
    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_diagonals_reassemble_matrix(self, w):
        """Round-trip: scattering diag_d[i] back to W[i, (i+d) % size]
        reproduces the zero-padded matrix exactly."""
        out_dim, in_dim = w.shape
        size = max(out_dim, in_dim)
        diags = diagonals_of(w, SLOTS)
        rebuilt = np.zeros((size, size))
        for d, vec in diags.items():
            for i in range(size):
                rebuilt[i, (i + d) % size] = vec[i]
        padded = np.zeros((size, size))
        padded[:out_dim, :in_dim] = w
        np.testing.assert_array_equal(rebuilt, padded)

    @given(matrices, st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_block_tiling_replicates_every_diagonal(self, w, num_blocks):
        size = max(w.shape)
        stride = 2 * size
        if (num_blocks - 1) * stride + size > SLOTS:
            num_blocks = 1
        base = diagonals_of(w, SLOTS)
        tiled = diagonals_of(w, SLOTS, num_blocks=num_blocks, block_stride=stride)
        assert set(tiled) == set(base)
        for d, vec in tiled.items():
            for b in range(num_blocks):
                np.testing.assert_array_equal(
                    vec[b * stride : b * stride + size], base[d][:size]
                )


class TestPlanProperties:
    @given(diag_sets)
    @settings(max_examples=50, deadline=None)
    def test_plan_partitions_every_diagonal_once(self, size_and_ds):
        """Each planned diagonal factors uniquely as giant + baby."""
        size, ds = size_and_ds
        plan = plan_matvec(ds, size)
        babies = set(plan.baby_steps)
        giants = set(plan.giant_steps)
        seen = set()
        for d in ds:
            b = int(d) % plan.n1
            g = int(d) - b
            assert b in babies and g in giants
            assert g % plan.n1 == 0
            assert (g, b) not in seen
            seen.add((g, b))

    @given(diag_sets)
    @settings(max_examples=50, deadline=None)
    def test_key_set_covers_exactly_the_planned_steps(self, size_and_ds):
        """rotation_steps() is precisely what the executor will rotate by:
        nonzero babies + nonzero giants — nothing missing, nothing
        unused."""
        size, ds = size_and_ds
        plan = plan_matvec(ds, size)
        used = {int(d) % plan.n1 for d in ds} | {
            int(d) - int(d) % plan.n1 for d in ds
        }
        assert set(plan.rotation_steps()) == used - {0}
        assert plan.keyswitches == len(used - {0})

    @given(diag_sets)
    @settings(max_examples=50, deadline=None)
    def test_plan_never_costs_more_than_naive(self, size_and_ds):
        size, ds = size_and_ds
        plan = plan_matvec(ds, size)
        assert plan.keyswitches <= np.count_nonzero(ds)
        assert 1 <= plan.n1 <= size
        assert plan.n1 * plan.n2 >= len(ds)  # the grid covers every diagonal

    @given(diag_sets)
    @settings(max_examples=50, deadline=None)
    def test_n1_equals_size_is_per_diagonal_layout(self, size_and_ds):
        """One formula: a plan never costs more keyswitches than one per
        nonzero diagonal, ties exactly when it lands on ``n1 = size``,
        and there it *is* the per-diagonal layout — one giant-step-0
        group holding every diagonal as it came, rotated by its own
        index."""
        size, ds = size_and_ds
        plan = plan_matvec(ds, size)
        nonzero = sorted(int(d) for d in ds if d)
        assert plan.keyswitches <= len(nonzero)
        assert (plan.keyswitches == len(nonzero)) == (plan.n1 == size)
        if plan.n1 == size:
            diags = {int(d): np.full(4, float(d) + 1.0) for d in ds}
            groups = grouped_diagonals(diags, plan)
            assert list(groups) == [0]
            assert list(groups[0]) == list(diags)
            for d, vec in diags.items():
                np.testing.assert_array_equal(groups[0][d], vec)
            assert plan.rotation_steps() == tuple(nonzero)

    @given(matrices)
    @settings(max_examples=30, deadline=None)
    def test_groups_are_rolled_diagonals(self, w):
        """grouped_diagonals: rolling each group entry back by its giant
        step recovers the original diagonal, and the grouping is a
        bijection."""
        size = max(w.shape)
        diags = diagonals_of(w, SLOTS)
        plan = plan_matvec(diags.keys(), size)
        groups = grouped_diagonals(diags, plan)
        covered = []
        for g, inner in groups.items():
            for b, vec in inner.items():
                covered.append(g + b)
                np.testing.assert_array_equal(np.roll(vec, -g), diags[g + b])
        assert sorted(covered) == sorted(diags)

    def test_empty_diagonals_rejected(self):
        with pytest.raises(ValueError, match="no nonzero diagonals"):
            plan_matvec([], 8)

    def test_out_of_range_diagonals_rejected(self):
        with pytest.raises(ValueError):
            plan_matvec([9], 8)
        with pytest.raises(ValueError):
            plan_matvec([-1], 8)

    def test_large_size_scan_window_still_optimal_for_dense(self):
        """size > 256 uses the √size scan window; for dense diagonals the
        optimum lives there, so cost stays ~2√D."""
        size = 512
        plan = plan_matvec(range(size), size)
        assert plan.n1 < size
        assert plan.keyswitches <= 2 * int(np.sqrt(size)) + 2
