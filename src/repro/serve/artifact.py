"""Compiled serving artifact: pre-encoded plaintexts for steady-state inference.

Encoding a plaintext (canonical embedding + RNS lift) costs as much as a
handful of homomorphic ops, and the vanilla forward pass pays it for
every Halevi-Shoup diagonal of every linear layer on *every request* —
pure waste, since the model weights never change and a fixed network
visits each linear layer at one deterministic ``(level, scale)`` pair.

:class:`ModelArtifact` wraps a compiled
:class:`~repro.fhe.network.EncryptedNetwork` — any model compiled by
:func:`~repro.fhe.network.compile_network` (MLP, CNN, sharded ResNet or
transformer; :meth:`ModelArtifact.compile` runs that compile and wraps
in one step); pool masks and affine vectors ride the
activation-constant cache below — with two caches keyed on
``(value digest, level, scale)``:

* the explicit diagonal/bias path — :meth:`ModelArtifact.encoded_linear`
  hands the matvec executor
  (:func:`repro.fhe.linear.encrypted_matvec_shards`) ready-made
  :class:`~repro.ckks.Plaintext` objects in the shape of each layer's
  ``K_out × K_in`` grid of grouped diagonals (``1 × 1`` for a
  single-ciphertext layer), and the per-output-shard biases encoded at
  the *post-rescale* level and scale, so they land exactly where the
  matvec adds them;
* the activation-constant path — :meth:`ModelArtifact.prewarm_activations`
  walks each PAF layer's compiled :class:`~repro.ckks.poly_plan.ReluPlan`
  and pre-encodes every coefficient leaf and the ReLU gate constant at
  its exact ``(level, scale)`` (the plan knows the canonical scale
  schedule, so the keys match the evaluator's encodes bit-for-bit);
* an optional :class:`CachingEncoder` installed on the model's evaluator,
  which additionally memoises the scale-alignment corrections that
  ``poly_eval`` encodes (data-independent, but derived from intermediate
  drift — they land in the cache on the first evaluation).

After one warm-up pass, steady-state requests do **zero** plaintext
encoding — every encode is a dictionary hit.
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
from repro.fhe.network import EncryptedNetwork, compile_network

__all__ = ["PlaintextCache", "CachingEncoder", "ModelArtifact", "ArtifactMismatchError"]

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
    """LRU memo of ``encode(values, level, scale) -> Plaintext``.

    Keys digest the value bytes plus the exact ``(level, scale)`` pair, so
    a cached plaintext is bit-identical to a fresh encode.  Bounded:
    one-shot values (e.g. per-request client inputs routed through a
    :class:`CachingEncoder`) churn through while the per-layer constants
    stay hot.  Thread-safe; a race encodes twice, never corrupts.
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


class CachingEncoder:
    """Drop-in :class:`~repro.ckks.encoder.CkksEncoder` proxy that routes
    ``encode`` through a :class:`PlaintextCache` and delegates the rest."""

    def __init__(self, inner, cache: PlaintextCache):
        self._inner = inner
        self.cache = cache

    def encode(self, values, level: int, scale: float | None = None) -> Plaintext:
        return self.cache.encode(values, level, scale)

    def encode_fresh(self, values, level: int, scale: float | None = None) -> Plaintext:
        """Uncached encode — ``CkksEvaluator.encrypt`` routes per-request
        payloads here so one-shot inputs never churn the LRU."""
        return self._inner.encode(values, level, scale)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ModelArtifact:
    """A compiled model plus everything steady-state serving reuses.

    Parameters
    ----------
    model:
        A compiled :class:`~repro.fhe.network.EncryptedNetwork` (any
        model family).
    max_entries:
        Bound on the shared plaintext cache.
    cache_activations:
        Install a :class:`CachingEncoder` on the model's evaluator so PAF
        constants, pool masks, affine vectors and alignment corrections
        are memoised too (the explicit diagonal path works either way).
    """

    def __init__(
        self,
        model: EncryptedNetwork,
        max_entries: int = 4096,
        cache_activations: bool = True,
    ):
        self.model = model
        base_encoder = model.ev.encoder
        if isinstance(base_encoder, CachingEncoder):  # already wrapped
            base_encoder = base_encoder._inner
        self.cache = PlaintextCache(base_encoder, max_entries=max_entries)
        #: (layer_index, level, scale) -> (diagonal Plaintexts, bias Plaintext)
        self._linear_memo: dict = {}
        if cache_activations:
            model.ev.encoder = CachingEncoder(base_encoder, self.cache)

    @classmethod
    def compile(cls, nn_model, params, *, policy=None, **kwargs) -> "ModelArtifact":
        """:func:`repro.fhe.network.compile_network` + wrap, in one step.

        The single serving-side compile entry: all compile options ride
        one :class:`repro.fhe.ir.CompilePolicy` (``policy=``) — refresh
        placement, input shape, shard count, seed, BatchNorm folding —
        and every model family goes through the one lowering
        (:func:`repro.fhe.lower.lower`).  Every per-shard-pair diagonal
        block (including merge projections, keyed at the skip branch's
        level) pre-encodes through the same cache.  Remaining ``kwargs``
        go to the :class:`ModelArtifact` constructor.
        """
        return cls(compile_network(nn_model, params, policy=policy), **kwargs)

    # ------------------------------------------------------------------
    def encoded_linear(self, layer_index: int, level: int, scale: float):
        """Pre-encoded ``(blocks, biases)`` for one linear layer or merge
        projection — the ``encoded`` provider of
        :meth:`~repro.fhe.network.EncryptedNetwork.forward_shards`.

        ``blocks`` mirrors the layer's ``K_out × K_in`` grid of grouped
        ``{giant: {baby: Plaintext}}`` diagonals (``None`` where a block
        is all zero), every diagonal encoded at the incoming
        ciphertext's ``(level, scale)`` (the default ``mul_plain``
        choice, preserving the canonical-scale invariant) — the *skip
        branch's* coordinates for a merge projection, which the forward
        passes in; ``biases`` the per-output-shard bias list at
        ``(level-1, scale²/q_level)`` — exactly where each shard sits
        after the matvec's rescale — or ``None`` without any.

        A fixed network meets each layer at one deterministic ``(level,
        scale)``, so the assembled tuple is memoised per layer — the
        steady-state path does no per-diagonal digesting either, just one
        dict hit per linear layer.
        """
        key = (layer_index, level, float(scale))
        memo = self._linear_memo.get(key)
        if memo is not None:
            return memo
        blocks = [
            [
                {
                    g: {
                        b: self.cache.encode(vec, level, scale)
                        for b, vec in inner.items()
                    }
                    for g, inner in groups.items()
                }
                if groups is not None
                else None
                for groups in row
            ]
            for row in self.model.matvec_groups[layer_index]
        ]
        bias_pts = None
        bias_list = self.model.matvec_bias_slots.get(layer_index)
        if bias_list is not None:
            q_top = self.model.ctx.q_chain[level]
            post_scale = scale * scale / q_top
            bias_pts = [
                None if vec is None
                else self.cache.encode(vec, level - 1, post_scale)
                for vec in bias_list
            ]
        self._linear_memo[key] = (blocks, bias_pts)
        return blocks, bias_pts

    def activation_encodings(self, layer_index: int) -> list:
        """``(value, level, scale)`` of one PAF layer's plan constants.

        The layer's input level comes from the model's static schedule
        (:meth:`~repro.fhe.network.EncryptedNetwork.layer_input_levels`), its
        input scale from the canonical scale invariant — both
        deterministic for a fixed network, so the returned coordinates
        are exactly those the evaluator will encode at.
        """
        plan = self.model.paf_plans[layer_index]
        level = self.model.layer_input_levels()[layer_index]
        ctx = self.model.ctx
        return plan.constant_encodings(
            ctx.q_chain, level, ctx.canonical_scale(level)
        )

    def prewarm_activations(self) -> int:
        """Pre-encode every PAF layer's coefficient plaintexts.

        Seeds the shared cache with each activation's leaf coefficients
        and gate constant at their exact ``(level, scale)`` — cheaper
        than a full :meth:`warm` forward pass, and the evaluator's own
        encodes then hit the cache key-for-key.  Returns the number of
        plaintexts encoded.
        """
        count = 0
        for i in self.model.paf_plans:
            for value, level, scale in self.activation_encodings(i):
                self.cache.encode(value, level, scale)
                count += 1
        return count

    def forward(self, ct, ev=None, executor=None):
        """Encrypted forward using the pre-encoded linear layers.

        ``ct`` is the shard ciphertext *list* (``encrypt_batch_shards``)
        and the return value the output shard list — the pre-encoded
        path covers every block and merge projection; a bare ciphertext
        (a single-ciphertext model's ``encrypt_batch``) comes back as a
        bare ciphertext.  ``executor`` schedules the independent
        shard-grid blocks on a
        :class:`~repro.serve.executor.BlockExecutor`.
        """
        if isinstance(ct, (list, tuple)):
            return self.model.forward_shards(
                ct, encoded=self.encoded_linear, ev=ev, executor=executor
            )
        return self.model.forward(ct, encoded=self.encoded_linear, ev=ev)

    def fresh_evaluator(self, seed: int = 1):
        """A new evaluator over the model's own baked keys, sharing the
        (caching) encoder — what a worker thread runs the default
        tenant's batches with.  Stub models used by the concurrency
        harness override this hook instead of faking a full key chain.
        """
        ev = CkksEvaluator(self.model.ctx, self.model.keys, seed=seed)
        ev.encoder = self.model.ev.encoder
        return ev

    def warm(self, batch: int | None = None) -> "ModelArtifact":
        """Run one zero-input forward to populate every cache entry.

        After this, serving any batch size hits only cached plaintexts
        (all batch sizes share the max-batch-tiled diagonals).
        """
        dim = sum(self.model.input_splits or [self.model.size])
        xs = [np.zeros(dim)] * (batch or 1)
        self.forward(self.model.encrypt_batch_shards(xs))
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
        (:class:`ArtifactMismatchError` on any mismatch), rebuilds every
        plaintext against this model's context, and re-memoises the
        per-layer linear tuples — after this, steady-state serving hits
        the cache without ever running :meth:`warm`'s forward pass.
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
        count = self.cache.import_entries(self.model.ctx, payload["entries"])
        # rebuild the per-layer memo from the now-hot cache: every encode
        # below is a dictionary hit, so this is pure assembly
        self._linear_memo.clear()
        levels = self.model.layer_input_levels()
        branch_levels = self.model.merge_branch_levels()
        for i in self.model.matvec_groups:
            # a merge projection reads its saved branch's coordinates
            level = branch_levels.get(i, levels[i])
            self.encoded_linear(i, level, self.model.ctx.canonical_scale(level))
        return count
