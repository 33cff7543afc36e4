"""CKKS canonical-embedding encoder.

Messages are vectors of ``N/2`` complex (here: real) slot values.  The
encoder maps slots to a real polynomial via the canonical embedding σ:
slot ``j`` is the evaluation of the plaintext polynomial at
``ζ_j = ω^{5^j}`` with ``ω = exp(iπ/N)`` a primitive 2N-th root of unity
(the 5-power orbit makes slot rotations correspond to Galois
automorphisms ``X -> X^{5^k}``).

Encoding computes ``c_k = (2/N) · Re( Σ_j conj(ζ_j^k) z_j )``, scaled by Δ
and rounded; decoding evaluates at the ζ_j and divides by the ciphertext's
tracked scale.  Both are chunked matrix products to bound memory at large N.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from threading import Lock

import numpy as np

from repro.ckks.context import CkksContext

__all__ = ["Plaintext", "CkksEncoder", "PlaintextStore"]


@dataclass
class Plaintext:
    """An encoded message: its ``(level+1, n)`` NTT rows over the chain
    primes ``q_0..q_level`` and the scale it carries."""

    data: np.ndarray
    scale: float


def crt_compose_centered(rows: np.ndarray, primes) -> np.ndarray:
    """CRT-reconstruct the centred big-int coefficients (an object array)
    of coefficient-domain ``rows``, one per prime of ``primes``.

    Only the decode boundary needs it; O(N · rows) Python-int work.
    """
    primes = [int(p) for p in primes]
    q = math.prod(primes)
    acc = np.zeros(rows.shape[-1], dtype=object)
    for row, p in zip(rows, primes):
        qi = q // p
        acc += row.astype(object) * (qi * pow(qi, p - 2, p))
    acc %= q
    # centre into (-q/2, q/2]
    return np.where(acc > q // 2, acc - q, acc)


class CkksEncoder:
    """Encode/decode between slot vectors and ring plaintexts."""

    #: column chunk bounding the complex work matrix to ~32 MB
    _CHUNK = 1024

    #: ring sizes up to this keep the full (N/2, N) embedding basis
    #: cached — 8·N² bytes, so ≤ 32 MB at the threshold; larger rings
    #: fall back to chunked recomputation
    _CACHE_MAX_N = 2048

    def __init__(self, ctx: CkksContext):
        self.ctx = ctx
        n = ctx.n
        m = ctx.slots
        # orbit exponents: 5^j mod 2N for j = 0..m-1
        exps = np.empty(m, dtype=np.int64)
        e = 1
        for j in range(m):
            exps[j] = e
            e = (e * 5) % (2 * n)
        #: angles θ_j with ζ_j = exp(i θ_j)
        self.theta = np.pi * exps.astype(np.float64) / n
        # per-chunk basis caches (sign=-1 for embed, +1 for project);
        # built lazily, exactly the arrays the uncached loop would form
        self._basis_chunks: dict = {}

    def _basis_chunk(self, sign: int, start: int, stop: int) -> np.ndarray:
        """``exp(sign·i·θ_j·k)`` for columns ``start:stop``.

        Recomputing the complex exponentials per encode dominates encode
        cost once the NTTs are vectorised, so small rings cache them.
        The cached arrays are byte-for-byte what the uncached path built,
        and the chunked matmul structure is unchanged — embeddings (and
        therefore ciphertexts) are bit-identical with and without the
        cache.
        """
        key = (sign, start)
        chunk = self._basis_chunks.get(key)
        if chunk is None:
            ks = np.arange(start, stop)
            chunk = np.exp(sign * 1j * np.outer(self.theta, ks))
            if self.ctx.n <= self._CACHE_MAX_N:
                self._basis_chunks[key] = chunk
        return chunk

    # ------------------------------------------------------------------
    def embed(self, values: np.ndarray) -> np.ndarray:
        """Slot vector -> real coefficient vector (unscaled, float)."""
        n = self.ctx.n
        m = self.ctx.slots
        z = np.zeros(m, dtype=np.complex128)
        values = np.asarray(values)
        if values.size > m:
            raise ValueError(f"too many slot values: {values.size} > {m}")
        z[: values.size] = values
        coeffs = np.empty(n, dtype=np.float64)
        for start in range(0, n, self._CHUNK):
            stop = min(start + self._CHUNK, n)
            basis = self._basis_chunk(-1, start, stop)  # conj(ζ_j^k)
            coeffs[start:stop] = (2.0 / n) * np.real(z @ basis)
        return coeffs

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Real coefficient vector -> slot values (evaluate at the ζ_j)."""
        n = self.ctx.n
        out = np.zeros(self.ctx.slots, dtype=np.complex128)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        for start in range(0, n, self._CHUNK):
            stop = min(start + self._CHUNK, n)
            basis = self._basis_chunk(1, start, stop)  # ζ_j^k
            out += basis @ coeffs[start:stop]
        return out

    # ------------------------------------------------------------------
    def encode(self, values, level: int, scale: float | None = None) -> Plaintext:
        """Encode a slot vector (or scalar broadcast) at a chain level:
        :meth:`lift` of :meth:`round`."""
        scale = float(scale if scale is not None else self.ctx.scale)
        return self.lift(self.round(values, scale), level, scale)

    def round(self, values, scale: float) -> np.ndarray:
        """The plaintext polynomial's integer coefficients
        ``round(scale·σ⁻¹(values))`` — int64, or Python ints (an object
        array) once one reaches 2^62.

        Complex slot vectors (the refresh CtS/StC diagonals) embed as they
        are — a real coefficient vector evaluating to any complex slot
        assignment always exists; everything else is coerced to float64.
        """
        values = np.asarray(values)
        if not np.iscomplexobj(values):
            values = values.astype(np.float64, copy=False)
        if values.ndim == 0:
            # scalar broadcast: constant polynomial — O(1), no embedding
            coeffs = np.zeros(self.ctx.n)
            coeffs[0] = float(values) * scale
        else:
            coeffs = self.embed(values) * scale
        rounded = np.round(coeffs)
        if np.max(np.abs(rounded)) < 2**62:
            return rounded.astype(np.int64)
        return np.array([int(c) for c in rounded], dtype=object)

    def lift(self, coeffs: np.ndarray, level: int, scale: float) -> Plaintext:
        """The NTT-form plaintext of :meth:`round`'s coefficients over the
        chain primes ``q_0..q_level``."""
        backend, chain = self.ctx.backend, range(level + 1)
        if coeffs.dtype == object:  # huge scales: Python ints, reduced row by row
            rows = np.stack([coeffs % p for p in self.ctx.q_chain[: level + 1]])
            data = backend.ntt_forward(rows.astype(np.int64), chain)
        else:
            data = backend.lift(coeffs, chain)
        return Plaintext(data=data, scale=float(scale))

    def decode(self, data: np.ndarray, scale: float, num_values: int | None = None) -> np.ndarray:
        """Decode NTT rows over ``q_0..q_level`` back to (real) slot values."""
        chain = range(data.shape[0])
        rows = self.ctx.backend.ntt_inverse(data, chain)
        big = crt_compose_centered(rows, self.ctx.q_chain[: data.shape[0]])
        slots = np.real(self.project(big.astype(np.float64))) / scale
        if num_values is not None:
            slots = slots[:num_values]
        return slots


class PlaintextStore:
    """The plaintexts of a compiled network's constants, encoded once.

    :class:`repro.fhe.network.EncryptedNetwork` fills it at compile with
    one shadow forward (:meth:`add` for every raw value the executor
    hands the evaluator, at the ``(level, scale)`` a real forward meets
    it), and every evaluator resolves raw values through :meth:`resolve`
    (a matvec's inner sum, whose fused product lifts what it is handed)
    or :meth:`encode` (every other product and sum).  An entry keeps
    :meth:`CkksEncoder.round`'s integer coefficients (``n`` int64s), so a
    hit pays only :meth:`CkksEncoder.lift` — no embedding, no rounding;
    :meth:`warm` swaps every entry for its lift, which a hit then returns
    as is.  Either way a hit is byte-identical to
    :meth:`CkksEncoder.encode`; a miss *is* that encode and inserts
    nothing, so request data never enters the store.

    Keys are the value's dtype, shape and the SHA-256 of its bytes plus
    the exact level and scale — never a cast, so complex values differing
    in their imaginary part, or a scalar and a one-slot vector, are
    different entries.  An entry holds a *reference* to the array it was
    filled from (the network's own, no copy) and a hit must
    ``np.array_equal`` it, so exactness never rests on the hash: a value
    changed in place since the fill misses and encodes fresh.  Lookups
    are thread-safe (the entries only change in :meth:`warm`, by one swap
    of the whole table).
    """

    def __init__(self, encoder: CkksEncoder):
        self.encoder = encoder
        #: key -> coefficients, or the :class:`Plaintext` after :meth:`warm`
        self._entries: dict = {}
        #: key -> the array an entry was filled from (a reference)
        self._sources: dict = {}
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(values, level: int, scale: float) -> tuple:
        arr = np.asarray(values)
        digest = hashlib.sha256(np.ascontiguousarray(arr).view(np.uint8)).digest()
        return (arr.dtype.str, arr.shape, digest, level, float(scale))

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, values, level: int, scale: float) -> None:
        """Encode ``values`` for ``(level, scale)`` unless already held."""
        arr = np.asarray(values)
        key = self._key(arr, level, scale)
        if key not in self._entries:
            self._sources[key] = arr
            self._entries[key] = self.encoder.round(arr, float(scale))

    def resolve(self, values, level: int, scale: float):
        """The held entry of ``values`` at ``(level, scale)`` as it is —
        rounded coefficients, or the :class:`Plaintext` after :meth:`warm`
        — or, on a miss, a fresh :meth:`CkksEncoder.encode`."""
        arr = np.asarray(values)
        key = self._key(arr, level, scale)
        entry = self._entries.get(key)
        if entry is not None and not np.array_equal(self._sources[key], arr):
            entry = None  # a digest hit on other values, or a source changed since
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        if entry is None:
            return self.encoder.encode(values, level, scale)
        return entry

    def encode(self, values, level: int, scale: float) -> Plaintext:
        """The plaintext of ``values`` at ``(level, scale)``: held, or
        encoded fresh — :meth:`resolve`, lifted when it is coefficients."""
        entry = self.resolve(values, level, scale)
        if isinstance(entry, Plaintext):
            return entry
        return self.encoder.lift(entry, level, scale)

    def warm(self) -> None:
        """Hold every entry in NTT form — what a server reads its steady
        state from; the coefficients a bare network keeps are
        ``1/(level+1)`` of those bytes."""
        self._entries = {
            key: entry
            if isinstance(entry, Plaintext)
            else self.encoder.lift(entry, key[-2], key[-1])
            for key, entry in self._entries.items()
        }
