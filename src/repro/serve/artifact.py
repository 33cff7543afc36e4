"""Compiled serving artifact: one plaintext memo for steady-state inference.

Encoding a plaintext (canonical embedding + RNS lift) costs as much as a
handful of homomorphic ops, and a bare forward pass pays it for every
Halevi-Shoup diagonal, bias, mask and PAF coefficient on *every
request* — pure waste, since the model never changes and a fixed
network meets each constant at one deterministic ``(level, scale)``.

A plaintext reaches an executor in exactly one way: the executor hands
the raw value to ``ev.mul_plain`` / ``ev.add_plain`` and the evaluator's
encoder encodes it.  :class:`ModelArtifact` wraps a compiled
:class:`~repro.fhe.network.EncryptedNetwork` (any family;
:meth:`ModelArtifact.compile` compiles and wraps in one step) by
installing a :class:`PlaintextCache` *as* that encoder: a memo keyed on
``(value bytes, level, scale)`` whose hits are bit-identical to a fresh
encode.  :meth:`ModelArtifact.warm` fills it with one **shadow** forward
— the real executor over :class:`~repro.ckks.shadow.ShadowEvaluator`
values carrying the memo as their encoder — so every plaintext a real
forward will ask for (diagonals, biases, pool and attention masks,
affine vectors, PAF leaves, Newton constants, alignment corrections) is
encoded once, with no keys, no encryption and no ring arithmetic beyond
the encodes themselves.  After that, steady-state requests do **zero**
plaintext encoding; request payloads (``encrypt``, recrypt's re-entry)
bypass the memo and never churn it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from collections import OrderedDict
from threading import Lock

import numpy as np

from repro.ckks.encoder import Plaintext
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.rns import RnsPoly
from repro.ckks.shadow import ShadowEvaluator
from repro.fhe.network import EncryptedNetwork, compile_network

__all__ = ["PlaintextCache", "ModelArtifact", "ArtifactMismatchError"]

#: On-disk format tag for persisted encoding caches.
_CACHE_FORMAT = "repro-artifact-cache-v1"


class ArtifactMismatchError(RuntimeError):
    """A persisted cache was built for a different compiled model."""


def _feed_digest(h, value) -> None:
    """Feed one node payload value into ``h``: arrays by their bytes,
    PAFs / polynomials by their coefficients, containers element-wise,
    scalars and strings by ``repr``."""
    if isinstance(value, np.ndarray):
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed_digest(h, item)
        h.update(b"]")
    elif hasattr(value, "components"):  # CompositePAF
        _feed_digest(h, value.components)
    elif hasattr(value, "coeffs"):  # OddPolynomial / Polynomial
        _feed_digest(h, value.coeffs)
    else:
        h.update(repr(value).encode() + b";")


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

    # ------------------------------------------------------------------
    # persistence (raw arrays only — no locks, no context objects)
    # ------------------------------------------------------------------
    def export_entries(self) -> list:
        """Cache contents as picklable tuples, LRU order preserved."""
        with self._lock:
            return [
                (key, pt.poly.data, tuple(pt.poly.prime_indices), pt.poly.is_ntt, pt.scale)
                for key, pt in self._entries.items()
            ]

    def import_entries(self, ctx, entries) -> int:
        """Rebuild plaintexts against ``ctx`` and install them (warm-start)."""
        count = 0
        with self._lock:
            for key, data, prime_indices, is_ntt, scale in entries:
                poly = RnsPoly(ctx, data, list(prime_indices), is_ntt)
                self._entries[key] = Plaintext(poly=poly, scale=scale)
                count += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return count


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

    @classmethod
    def compile(cls, nn_model, params, *, policy=None, **kwargs) -> "ModelArtifact":
        """:func:`repro.fhe.network.compile_network` + wrap, in one step.

        The single serving-side compile entry: all compile options ride
        one :class:`repro.fhe.ir.CompilePolicy` (``policy=``) — refresh
        placement, input shape, shard count, seed, BatchNorm folding —
        and every model family goes through the one lowering
        (:func:`repro.fhe.lower.lower`).  Remaining ``kwargs`` go to the
        :class:`ModelArtifact` constructor.
        """
        return cls(compile_network(nn_model, params, policy=policy), **kwargs)

    # ------------------------------------------------------------------
    def forward(self, ct, ev=None):
        """Encrypted forward of the wrapped model.

        ``ct`` is the shard ciphertext *list* (``encrypt_batch_shards``)
        and the return value the output shard list; a bare ciphertext
        (a single-ciphertext model's ``encrypt_batch``) comes back as a
        bare ciphertext.
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

    # ------------------------------------------------------------------
    # persistence / warm-start
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Digest of everything a cache entry's validity depends on.

        Covers the CKKS arithmetic (ring degree, full prime ladder,
        canonical scale) and the compiled node stack — *every* payload
        field of every node (block grids, shard biases, PAF and
        polynomial coefficients, attention projections, pool/affine
        constants, refresh method, ...), read generically off the node
        dataclasses so a new node type or field is covered the day it is
        added.  These are the inputs that determine which ``(value,
        level, scale)`` keys a forward encodes.  A persisted cache from
        a different compile must be rejected, not silently half-hit.
        """
        h = hashlib.sha256()
        ctx = self.model.ctx
        h.update(f"{ctx.n}|{float(ctx.scale)}|".encode())
        h.update(",".join(str(int(p)) for p in ctx.all_primes).encode())
        for node in self.model.layers:
            h.update(f"|{node.kind}".encode())
            for f in dataclasses.fields(node):
                # analysis metadata, not payload: intervals are (re)set by
                # propagate_intervals after compile, layouts describe the
                # lowering whose result is already in the weights
                if f.name not in ("interval", "layout"):
                    h.update(f"|{f.name}=".encode())
                    _feed_digest(h, getattr(node, f.name))
        return h.hexdigest()

    def save_cache(self, path) -> int:
        """Persist the encoding cache (pickle); returns the entry count.

        The payload is raw RNS arrays plus the model fingerprint —
        context objects, locks and evaluators never touch the disk.
        """
        entries = self.cache.export_entries()
        payload = {
            "format": _CACHE_FORMAT,
            "fingerprint": self.fingerprint(),
            "entries": entries,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return len(entries)

    def load_cache(self, path) -> int:
        """Warm-start from a persisted cache; returns entries installed.

        Validates the format tag and the model fingerprint
        (:class:`ArtifactMismatchError` on any mismatch) and rebuilds
        every plaintext against this model's context — after this,
        steady-state serving hits the memo without running :meth:`warm`.
        """
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != _CACHE_FORMAT:
            raise ArtifactMismatchError(f"{path}: not a {_CACHE_FORMAT} file")
        if payload.get("fingerprint") != self.fingerprint():
            raise ArtifactMismatchError(
                f"{path}: cache was built for a different compiled model "
                "(parameters or weights changed) — re-warm and re-save"
            )
        return self.cache.import_entries(self.model.ctx, payload["entries"])
