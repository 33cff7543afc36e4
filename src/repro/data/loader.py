"""Mini-batch loader with optional augmentation."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate (x, y) mini-batches over in-memory arrays.

    Parameters
    ----------
    augment:
        If True, apply random horizontal flips and ±2px translations —
        cheap augmentation that keeps small synthetic tasks from
        memorising instantly.
    seed:
        Shuffle / augmentation seed; each fresh iteration advances the
        stream deterministically.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int = 64,
        shuffle: bool = True,
        augment: bool = False,
        seed: Optional[int] = 0,
    ):
        if len(x) != len(y):
            raise ValueError(f"x/y length mismatch: {len(x)} vs {len(y)}")
        if len(x) == 0:
            raise ValueError("empty dataset")
        self.x = x
        self.y = np.asarray(y)
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.augment = augment
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return (len(self.x) + self.batch_size - 1) // self.batch_size

    def _augment_batch(self, xb: np.ndarray) -> np.ndarray:
        n = len(xb)
        out = xb.copy()
        # Horizontal flip half the batch.
        flip = self._rng.random(n) < 0.5
        out[flip] = out[flip, :, :, ::-1]
        # Random translation in [-2, 2] px via zero-padded roll.
        shifts = self._rng.integers(-2, 3, size=(n, 2))
        for i in range(n):  # small batch loop; shifts differ per sample
            dy, dx = shifts[i]
            if dy or dx:
                out[i] = np.roll(out[i], (dy, dx), axis=(1, 2))
        return out

    def __iter__(self) -> Iterator[tuple]:
        n = len(self.x)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            xb = self.x[idx]
            if self.augment:
                xb = self._augment_batch(xb)
            yield xb, self.y[idx]
