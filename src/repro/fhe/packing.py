"""SIMD block layout: pure (no-crypto) geometry of batched ciphertexts.

One CKKS ciphertext has ``slots = N/2`` plaintext slots; a single
request of a compiled square-width-``size`` model needs only ``2·size``
of them (vector + the wraparound replica that keeps the Halevi-Shoup
cyclic diagonals aligned).  Up to ``slots // (2·size)`` independent
requests therefore share one ciphertext in disjoint *blocks*.  This
module is the single source of truth for that geometry — used by
:class:`repro.fhe.network.EncryptedNetwork` on ciphertexts and read by
the serving layer through the network's ``layout``.

:class:`GridLayout` is the second geometry this module owns: where the
elements of an NCHW activation tensor sit inside one request block.
Convolutions emit densely packed channel-major activations; strided
pools leave their outputs at the window-corner slots of the *input*
grid (rotate-and-sum never compacts), so downstream layers read through
a strided grid.  The CNN compiler (:mod:`repro.fhe.cnn`) threads one
``GridLayout`` through the network and lowers every conv/pool/linear
against it.

:class:`MultiGridLayout` is the third: a channel-sharded activation
spread over ``K`` ciphertexts.  Wide layers overflow one request block
(``C·H·W > size``), so the channel axis is split into contiguous shards
— shard ``s`` holds channels ``[offset_s, offset_s + C_s)`` in its *own*
ciphertext, laid out by a per-shard :class:`GridLayout` that shares the
spatial geometry of every other shard.  Convs/linears lowered against a
multi-grid become ``K_out × K_in`` block matrices
(:func:`repro.fhe.cnn.conv2d_shard_matrices`); pools and activations
apply shard-by-shard because they never mix channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockLayout",
    "GridLayout",
    "MultiGridLayout",
    "pack_batch",
    "unpack_blocks",
]


@dataclass(frozen=True)
class BlockLayout:
    """Geometry of the SIMD request blocks inside one ciphertext."""

    size: int   #: square layer width of the compiled model
    slots: int  #: CKKS slot count (ring degree / 2)

    def __post_init__(self):
        if self.size < 1 or self.slots < 1:
            raise ValueError(f"invalid layout: size={self.size}, slots={self.slots}")
        if self.size > self.slots:
            raise ValueError(f"layer size {self.size} exceeds slot count {self.slots}")

    @property
    def stride(self) -> int:
        """Slots consumed per request (vector + replica half)."""
        return 2 * self.size

    @property
    def max_batch(self) -> int:
        """How many requests fit one ciphertext."""
        return max(1, self.slots // self.stride)

    def offset(self, block: int) -> int:
        """First slot of block ``block``."""
        if not 0 <= block < self.max_batch:
            raise ValueError(f"block {block} out of range 0..{self.max_batch - 1}")
        return block * self.stride


@dataclass(frozen=True)
class GridLayout:
    """Slot positions of a ``(C, H, W)`` activation inside one block.

    Element ``(c, h, w)`` lives at slot
    ``c·chan_stride + h·row_stride + w·col_stride``.  A dense layout has
    ``(chan_stride, row_stride, col_stride) = (H·W, W, 1)``; a stride-s
    pool multiplies the spatial strides by ``s`` while shrinking the
    logical extent, leaving the grid *strided* (valid values at window
    corners, garbage in between — downstream matvec matrices simply have
    zero columns at the garbage slots).
    """

    channels: int
    height: int
    width: int
    chan_stride: int
    row_stride: int
    col_stride: int

    def __post_init__(self):
        if min(self.channels, self.height, self.width) < 1:
            raise ValueError(f"invalid grid extent: {self}")
        if min(self.chan_stride, self.row_stride, self.col_stride) < 1:
            raise ValueError(f"invalid grid strides: {self}")
        pos = self.positions()
        if len(np.unique(pos)) != pos.size:
            raise ValueError(f"grid layout is not injective: {self}")

    @classmethod
    def dense(cls, channels: int, height: int, width: int) -> "GridLayout":
        """Channel-major packed layout (what conv outputs are lowered to)."""
        return cls(
            channels=channels,
            height=height,
            width=width,
            chan_stride=height * width,
            row_stride=width,
            col_stride=1,
        )

    @property
    def num_elements(self) -> int:
        return self.channels * self.height * self.width

    @property
    def span(self) -> int:
        """Slots needed to hold the grid (max occupied slot + 1)."""
        return (
            (self.channels - 1) * self.chan_stride
            + (self.height - 1) * self.row_stride
            + (self.width - 1) * self.col_stride
            + 1
        )

    def slot_of(self, c: int, h: int, w: int) -> int:
        """Slot index of element ``(c, h, w)``."""
        if not (0 <= c < self.channels and 0 <= h < self.height and 0 <= w < self.width):
            raise ValueError(f"({c}, {h}, {w}) outside grid {self}")
        return c * self.chan_stride + h * self.row_stride + w * self.col_stride

    def positions(self) -> np.ndarray:
        """``(C, H, W)`` array of slot indices (flattens to NCHW order)."""
        c = np.arange(self.channels)[:, None, None] * self.chan_stride
        h = np.arange(self.height)[None, :, None] * self.row_stride
        w = np.arange(self.width)[None, None, :] * self.col_stride
        return c + h + w

    def pooled(self, kernel: int, stride: int) -> "GridLayout":
        """Layout after a ``kernel``×``kernel`` stride-``stride`` pool.

        Rotate-and-sum leaves each output at its window's top-left corner
        slot, so the spatial strides grow by the pool stride and the
        extents shrink to the output resolution.
        """
        if kernel < 1 or stride < 1:
            raise ValueError(f"invalid pool kernel={kernel} stride={stride}")
        if kernel > self.height or kernel > self.width:
            raise ValueError(f"pool window {kernel} exceeds grid {self}")
        return GridLayout(
            channels=self.channels,
            height=(self.height - kernel) // stride + 1,
            width=(self.width - kernel) // stride + 1,
            chan_stride=self.chan_stride,
            row_stride=self.row_stride * stride,
            col_stride=self.col_stride * stride,
        )

    def global_pooled(self) -> "GridLayout":
        """Layout after a global average pool (one value per channel)."""
        return GridLayout(
            channels=self.channels,
            height=1,
            width=1,
            chan_stride=self.chan_stride,
            row_stride=self.row_stride,
            col_stride=self.col_stride,
        )


@dataclass(frozen=True)
class MultiGridLayout:
    """A ``(C, H, W)`` activation channel-sharded across ``K`` ciphertexts.

    ``shards[s]`` is the :class:`GridLayout` of shard ``s``'s *own* slot
    space (every shard starts at slot 0 of its ciphertext); channels are
    split contiguously, so global channel ``c`` lives in the shard whose
    ``[offset, offset + channels)`` range contains it.  All shards share
    one spatial geometry — heights, widths and strides agree — which is
    what lets pools and activations run shard-by-shard with identical
    rotation steps.
    """

    shards: tuple

    def __post_init__(self):
        if not self.shards:
            raise ValueError("multi-grid needs at least one shard")
        g0 = self.shards[0]
        for g in self.shards[1:]:
            if (g.height, g.width, g.chan_stride, g.row_stride, g.col_stride) != (
                g0.height, g0.width, g0.chan_stride, g0.row_stride, g0.col_stride
            ):
                raise ValueError(f"shard geometries disagree: {g0} vs {g}")

    @classmethod
    def split(
        cls, channels: int, height: int, width: int, num_shards: int
    ) -> "MultiGridLayout":
        """Shard a dense ``(C, H, W)`` activation across ``min(K, C)``
        ciphertexts with a balanced contiguous channel split."""
        return cls.from_grid(GridLayout.dense(channels, height, width), num_shards)

    @classmethod
    def from_grid(cls, grid: GridLayout, num_shards: int) -> "MultiGridLayout":
        """Shard an existing (possibly strided) grid's channel axis.

        Shard counts follow ``np.array_split`` — as balanced as a
        contiguous split allows, never more shards than channels.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        counts = [
            len(part)
            for part in np.array_split(
                np.arange(grid.channels), min(num_shards, grid.channels)
            )
        ]
        shards = tuple(
            GridLayout(
                channels=c,
                height=grid.height,
                width=grid.width,
                chan_stride=grid.chan_stride,
                row_stride=grid.row_stride,
                col_stride=grid.col_stride,
            )
            for c in counts
        )
        return cls(shards=shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_channels(self) -> int:
        return sum(g.channels for g in self.shards)

    @property
    def channel_offsets(self) -> tuple:
        """First global channel of each shard."""
        offsets = []
        total = 0
        for g in self.shards:
            offsets.append(total)
            total += g.channels
        return tuple(offsets)

    @property
    def span(self) -> int:
        """Slots the widest shard needs in its ciphertext."""
        return max(g.span for g in self.shards)

    @property
    def num_elements(self) -> int:
        return sum(g.num_elements for g in self.shards)

    def shard_of(self, c: int) -> tuple:
        """``(shard index, local channel)`` holding global channel ``c``."""
        if not 0 <= c < self.total_channels:
            raise ValueError(f"channel {c} outside 0..{self.total_channels - 1}")
        for s, off in enumerate(self.channel_offsets):
            if c < off + self.shards[s].channels:
                return s, c - off
        raise AssertionError("unreachable")  # pragma: no cover

    def positions(self) -> list:
        """Per-shard ``(C_s, H, W)`` slot-index arrays (channel order)."""
        return [g.positions() for g in self.shards]

    def pooled(self, kernel: int, stride: int) -> "MultiGridLayout":
        """Every shard pooled identically (geometry stays shared)."""
        return MultiGridLayout(tuple(g.pooled(kernel, stride) for g in self.shards))

    def global_pooled(self) -> "MultiGridLayout":
        return MultiGridLayout(tuple(g.global_pooled() for g in self.shards))

    def split_values(self, values: np.ndarray) -> list:
        """Split a flat NCHW activation into per-shard flat vectors.

        Channels are contiguous in NCHW order, so each shard's elements
        are one slice of the flat vector — the client-side packing rule
        for sharded inputs (each part then packs like an MLP vector).
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        g0 = self.shards[0]
        per_channel = g0.height * g0.width
        if len(values) != self.total_channels * per_channel:
            raise ValueError(
                f"expected {self.total_channels * per_channel} values, got {len(values)}"
            )
        bounds = np.cumsum(
            [g.channels * per_channel for g in self.shards[:-1]]
        )
        return [part for part in np.split(values, bounds)]


def pack_batch(xs, layout: BlockLayout) -> np.ndarray:
    """Pack a batch of input vectors into one slot vector.

    Block ``b`` holds vector ``b`` twice: at ``offset(b)`` and again at
    ``offset(b) + size`` (the wraparound replica the cyclic diagonals
    need).  Unused trailing blocks stay zero.
    """
    xs = [np.asarray(x, dtype=np.float64).ravel() for x in xs]
    if not xs:
        raise ValueError("empty batch")
    if len(xs) > layout.max_batch:
        raise ValueError(f"batch {len(xs)} exceeds SIMD capacity {layout.max_batch}")
    packed = np.zeros(layout.slots)
    for b, x in enumerate(xs):
        if len(x) > layout.size:
            raise ValueError(f"input dim {len(x)} exceeds layer size {layout.size}")
        off = layout.offset(b)
        packed[off : off + len(x)] = x
        packed[off + layout.size : off + layout.size + len(x)] = x
    return packed


def unpack_blocks(
    values: np.ndarray, layout: BlockLayout, width: int, batch: int
) -> np.ndarray:
    """Demultiplex per-client results: ``(batch, width)`` from slot values.

    ``values`` may be truncated anywhere past the last needed slot
    (decryption only decodes the leading span).
    """
    if not 1 <= batch <= layout.max_batch:
        raise ValueError(f"batch {batch} out of range 1..{layout.max_batch}")
    if width > layout.size:
        raise ValueError(f"width {width} exceeds layer size {layout.size}")
    values = np.asarray(values).ravel()
    need = layout.offset(batch - 1) + width
    if len(values) < need:
        raise ValueError(f"need {need} slot values for batch {batch}, got {len(values)}")
    return np.stack(
        [values[layout.offset(b) : layout.offset(b) + width] for b in range(batch)]
    )
