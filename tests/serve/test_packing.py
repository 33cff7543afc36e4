"""Pure block-layout math + parity with the ciphertext-level packing."""

import numpy as np
import pytest

from repro.fhe.packing import BlockLayout, pack_batch, unpack_blocks


class TestBlockLayout:
    def test_geometry(self):
        lay = BlockLayout(size=8, slots=256)
        assert lay.stride == 16
        assert lay.max_batch == 16
        assert lay.offset(3) == 48

    def test_non_divisible_slots(self):
        # 256 // 12 = 21 blocks, 4 trailing slots unused
        lay = BlockLayout(size=6, slots=256)
        assert lay.stride == 12
        assert lay.max_batch == 21
        assert lay.offset(20) + lay.stride == 252

    def test_single_block_when_slots_tight(self):
        # stride exceeds slots: capacity degrades to one request
        lay = BlockLayout(size=6, slots=8)
        assert lay.max_batch == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            BlockLayout(size=0, slots=16)
        with pytest.raises(ValueError):
            BlockLayout(size=32, slots=16)
        with pytest.raises(ValueError):
            BlockLayout(size=4, slots=64).offset(8)


class TestPackUnpack:
    def layout(self):
        return BlockLayout(size=4, slots=32)

    def test_single_vector_replicated(self):
        lay = self.layout()
        x = np.array([1.0, 2.0, 3.0])
        packed = pack_batch([x], lay)
        np.testing.assert_array_equal(packed[:3], x)
        np.testing.assert_array_equal(packed[4:7], x)  # wraparound replica
        assert not packed[8:].any()

    def test_batch_of_max(self):
        lay = self.layout()
        xs = [np.full(4, float(b + 1)) for b in range(lay.max_batch)]
        packed = pack_batch(xs, lay)
        for b in range(lay.max_batch):
            off = lay.offset(b)
            np.testing.assert_array_equal(packed[off : off + 8], [b + 1.0] * 8)

    def test_non_divisible_width(self):
        # input shorter than size: tail of each half-block stays zero
        lay = self.layout()
        packed = pack_batch([[5.0], [7.0]], lay)
        assert packed[0] == 5.0 and packed[4] == 5.0
        assert packed[8] == 7.0 and packed[12] == 7.0
        assert packed.sum() == 24.0

    def test_roundtrip(self):
        lay = BlockLayout(size=5, slots=64)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(4, 5))
        packed = pack_batch(xs, lay)
        got = unpack_blocks(packed, lay, width=5, batch=4)
        np.testing.assert_array_equal(got, xs)

    def test_unpack_truncated_span(self):
        lay = self.layout()
        packed = pack_batch([[1.0, 2.0], [3.0, 4.0]], lay)
        # only the leading span up to the last needed slot is required
        got = unpack_blocks(packed[:10], lay, width=2, batch=2)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            unpack_blocks(packed[:9], lay, width=2, batch=2)

    def test_rejects_bad_batches(self):
        lay = self.layout()
        with pytest.raises(ValueError):
            pack_batch([], lay)
        with pytest.raises(ValueError):
            pack_batch([np.zeros(4)] * (lay.max_batch + 1), lay)
        with pytest.raises(ValueError):
            pack_batch([np.zeros(5)], lay)
        with pytest.raises(ValueError):
            unpack_blocks(np.zeros(32), lay, width=2, batch=0)


class TestParityWithEncryptedNetwork:
    def test_layout_matches_model(self, toy):
        _, enc = toy
        lay = enc.layout
        assert lay.stride == enc.block_stride
        assert lay.max_batch == enc.max_batch

    def test_pack_matches_model(self, toy):
        _, enc = toy
        lay = enc.layout
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 8))
        np.testing.assert_array_equal(pack_batch(xs, lay), enc.pack_batch(xs))
