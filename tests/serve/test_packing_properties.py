"""Property tests for the SIMD block / grid packing geometry.

Hypothesis sweeps layouts the example-based suite never enumerates:
arbitrary (size, slots) block layouts, ragged batch widths, and
channel-shard counts both under- and over-subscribing the channel axis.
The invariants pinned here are exactly what the serving layer leans on —
no two requests ever share a slot, pack/unpack is lossless, and a
channel-sharded split is a partition of the flat activation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.packing import (
    BlockLayout,
    GridLayout,
    MultiGridLayout,
    pack_batch,
    unpack_blocks,
)

# sizes stay small so the sweep is fast; slots = size * 2 * blocks mirrors
# real ring geometries (always enough room for at least one block)
layouts = st.integers(1, 32).flatmap(
    lambda size: st.integers(1, 8).map(
        lambda blocks: BlockLayout(size=size, slots=2 * size * blocks)
    )
)


@st.composite
def packed_batches(draw):
    layout = draw(layouts)
    batch = draw(st.integers(1, layout.max_batch))
    widths = draw(
        st.lists(st.integers(1, layout.size), min_size=batch, max_size=batch)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    xs = [rng.normal(size=w) for w in widths]
    return layout, xs


@given(layouts)
def test_blocks_are_disjoint_and_in_bounds(layout):
    spans = [
        range(layout.offset(b), layout.offset(b) + layout.stride)
        for b in range(layout.max_batch)
    ]
    occupied = [s for span in spans for s in span]
    assert len(set(occupied)) == len(occupied)  # no slot shared
    assert max(occupied) < layout.slots


@given(packed_batches())
@settings(max_examples=200, deadline=None)
def test_pack_unpack_round_trip(case):
    layout, xs = case
    packed = pack_batch(xs, layout)
    width = min(len(x) for x in xs)
    rows = unpack_blocks(packed, layout, width=width, batch=len(xs))
    assert rows.shape == (len(xs), width)
    for row, x in zip(rows, xs):
        np.testing.assert_array_equal(row, x[:width])


@given(packed_batches())
@settings(max_examples=100, deadline=None)
def test_pack_replicates_each_block(case):
    layout, xs = case
    packed = pack_batch(xs, layout)
    for b, x in enumerate(xs):
        off = layout.offset(b)
        np.testing.assert_array_equal(
            packed[off : off + len(x)],
            packed[off + layout.size : off + layout.size + len(x)],
        )
    # trailing unused blocks must stay zero (neighbours never leak)
    for b in range(len(xs), layout.max_batch):
        off = layout.offset(b)
        assert not packed[off : off + layout.stride].any()


grids = st.tuples(
    st.integers(1, 12),  # channels
    st.integers(1, 6),   # height
    st.integers(1, 6),   # width
)


@given(grids, st.integers(1, 16))
def test_multigrid_split_partitions_channels(chw, num_shards):
    c, h, w = chw
    mg = MultiGridLayout.split(c, h, w, num_shards)
    assert mg.num_shards == min(num_shards, c)
    assert mg.total_channels == c
    # a balanced contiguous split: sizes differ by at most one
    sizes = [g.channels for g in mg.shards]
    assert max(sizes) - min(sizes) <= 1
    # every global channel maps to exactly one (shard, local) cell
    seen = set()
    for ch in range(c):
        s, local = mg.shard_of(ch)
        assert 0 <= local < mg.shards[s].channels
        seen.add((s, local))
    assert len(seen) == c


@given(grids, st.integers(1, 16), st.integers(0, 2**16))
def test_multigrid_split_concat_round_trip(chw, num_shards, seed):
    c, h, w = chw
    mg = MultiGridLayout.split(c, h, w, num_shards)
    values = np.random.default_rng(seed).normal(size=c * h * w)
    parts = mg.split_values(values)
    assert len(parts) == mg.num_shards
    np.testing.assert_array_equal(np.concatenate(parts), values)
    # each part is exactly its shard's element count
    assert [len(p) for p in parts] == [g.num_elements for g in mg.shards]


@given(grids, st.integers(1, 3), st.integers(1, 3))
def test_grid_pool_keeps_positions_injective_and_nested(chw, kernel, stride):
    c, h, w = chw
    if kernel > h or kernel > w:
        return  # invalid pool for this grid; constructor rejects it
    dense = GridLayout.dense(c, h, w)
    pooled = dense.pooled(kernel, stride)
    pos = pooled.positions().ravel()
    assert len(np.unique(pos)) == pos.size  # injective (checked, but pin it)
    # pooled positions are a subset of the dense grid's slots
    assert set(pos.tolist()) <= set(dense.positions().ravel().tolist())
