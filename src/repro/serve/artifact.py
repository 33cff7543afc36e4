"""Compiled serving artifact: one plaintext memo for steady-state inference.

Encoding a plaintext (canonical embedding + RNS lift) costs as much as a
handful of homomorphic ops, and a bare forward pass pays it for every
Halevi-Shoup diagonal, bias, mask and PAF coefficient on *every
request* — pure waste, since the model never changes and a fixed
network meets each constant at one deterministic ``(level, scale)``.

A plaintext reaches an executor in exactly one way: the executor hands
the raw value to ``ev.mul_plain`` / ``ev.add_plain`` and the evaluator's
encoder encodes it.  :class:`ModelArtifact` wraps a compiled
:class:`~repro.fhe.network.EncryptedNetwork` of any family
(``ModelArtifact(compile_network(model, params, policy=...))``) by
installing a :class:`PlaintextCache` *as* that encoder: a memo keyed on
``(value bytes, level, scale)`` whose hits are bit-identical to a fresh
encode.  :meth:`ModelArtifact.warm` fills it with one **shadow** forward
— the real executor over :class:`~repro.ckks.shadow.ShadowEvaluator`
values carrying the memo as their encoder — so every plaintext a real
forward will ask for (diagonals, biases, pool and attention masks,
PAF leaves, Newton constants, alignment corrections) is encoded once,
with no keys, no encryption and no ring arithmetic beyond the encodes
themselves.  After that, steady-state requests do **zero**
plaintext encoding; request payloads (``encrypt``, recrypt's re-entry)
bypass the memo and never churn it.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

import numpy as np

from repro.ckks.encoder import Plaintext
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.shadow import ShadowEvaluator
from repro.fhe.network import EncryptedNetwork

__all__ = ["PlaintextCache", "ModelArtifact"]


class PlaintextCache:
    """The plaintext memo: a memoising drop-in for a
    :class:`~repro.ckks.encoder.CkksEncoder`.

    ``encode(values, level, scale)`` is an LRU memo keyed on the value
    bytes plus the exact ``(level, scale)`` pair, so a cached plaintext
    is bit-identical to a fresh encode; ``encode_fresh`` bypasses it and
    everything else (``ctx``, ``decode``, ...) is the wrapped encoder's.
    Bounded: the least recently used entry goes first.  Thread-safe; a
    race encodes twice, never corrupts.
    """

    def __init__(self, encoder, max_entries: int = 4096):
        self._encoder = encoder
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(values, level: int, scale: float):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            return ("scalar", float(arr), level, float(scale))
        return (arr.tobytes(), level, float(scale))

    def encode(self, values, level: int, scale: float | None = None) -> Plaintext:
        scale = float(scale if scale is not None else self._encoder.ctx.scale)
        key = self._key(values, level, scale)
        with self._lock:
            pt = self._entries.get(key)
            if pt is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return pt
            self.misses += 1
        pt = self._encoder.encode(values, level, scale)
        with self._lock:
            self._entries[key] = pt
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return pt

    def encode_fresh(self, values, level: int, scale: float | None = None) -> Plaintext:
        """Unmemoised encode — the evaluator routes request payloads
        here so one-shot data never enters the memo."""
        return self._encoder.encode(values, level, scale)

    def __getattr__(self, name):
        return getattr(self._encoder, name)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class ModelArtifact:
    """A compiled model with the plaintext memo installed on its evaluator.

    Parameters
    ----------
    model:
        A compiled :class:`~repro.fhe.network.EncryptedNetwork` (any
        model family).  Its evaluator's encoder becomes the memo; a
        network that already carries one (an earlier artifact over the
        same compile) keeps it, and both artifacts share it.
    max_entries:
        Bound on the memo this artifact installs.
    """

    def __init__(self, model: EncryptedNetwork, max_entries: int = 4096):
        self.model = model
        if not isinstance(model.ev.encoder, PlaintextCache):
            model.ev.encoder = PlaintextCache(model.ev.encoder, max_entries=max_entries)
        #: the plaintext memo — the model evaluator's encoder itself
        self.cache: PlaintextCache = model.ev.encoder

    # ------------------------------------------------------------------
    def forward(self, ct, ev=None):
        """Encrypted forward of the wrapped model.

        ``ct`` is the shard ciphertext *list* (``encrypt_batch_shards``)
        and the return value the output shard list; a bare ciphertext
        (a single-ciphertext model's ``encrypt_batch``) comes back as a
        bare ciphertext.  Only ``benchmarks/ladder`` still calls this;
        everything else calls ``model.forward_shards`` /
        ``model.forward`` directly.
        """
        if isinstance(ct, (list, tuple)):
            return self.model.forward_shards(ct, ev=ev)
        return self.model.forward(ct, ev=ev)

    def fresh_evaluator(self, seed: int = 1):
        """A new evaluator over the model's own baked keys, sharing the
        memoising encoder — what a worker thread runs the default
        tenant's batches with.  Stub models used by the concurrency
        harness override this hook instead of faking a full key chain.
        """
        ev = CkksEvaluator(self.model.ctx, self.model.keys, seed=seed)
        ev.encoder = self.model.ev.encoder
        return ev

    def warm(self) -> "ModelArtifact":
        """Fill the memo with one shadow forward.

        The model's own executor runs over
        :class:`~repro.ckks.shadow.ShadowEvaluator` values whose encoder
        is the memo, so exactly the ``(value, level, scale)`` triples a
        real forward encodes are encoded — and nothing else happens: no
        keys, no encryption, no keyswitch.  After this, serving any
        batch size hits only memoised plaintexts (all batch sizes share
        the max-batch-tiled constants).
        """
        net = self.model
        shadow = ShadowEvaluator(net.ctx, encoder=self.cache)
        net.forward_shards(
            [shadow.encrypt(None) for _ in range(net.num_input_shards)], ev=shadow
        )
        return self

    def stats(self) -> dict:
        return self.cache.stats()
