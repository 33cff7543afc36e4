"""CKKS canonical-embedding encoder.

Messages are vectors of ``N/2`` complex (here: real) slot values.  The
encoder maps slots to a real polynomial via the canonical embedding σ:
slot ``j`` is the evaluation of the plaintext polynomial at
``ζ_j = ω^{5^j}`` with ``ω = exp(iπ/N)`` a primitive 2N-th root of unity
(the 5-power orbit makes slot rotations correspond to Galois
automorphisms ``X -> X^{5^k}``).

Encoding computes ``c_k = (2/N) · Re( Σ_j conj(ζ_j^k) z_j )``, scaled by Δ
and rounded; decoding evaluates at the ζ_j and divides by the ciphertext's
tracked scale.  Both are one length-2N FFT (numpy's pocketfft): the slot
values sit at the orbit exponents ``5^j mod 2N`` (``CkksContext._orbit``)
of an otherwise zero vector, the special FFT of HEAAN written as a plain
transform; nothing is cached between calls.
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

    def __init__(self, ctx: CkksContext):
        self.ctx = ctx

    # ------------------------------------------------------------------
    def embed(self, values: np.ndarray) -> np.ndarray:
        """Slot vector -> real coefficient vector (unscaled, float)."""
        n = self.ctx.n
        values = np.asarray(values)
        if values.size > self.ctx.slots:
            raise ValueError(f"too many slot values: {values.size} > {self.ctx.slots}")
        # slot j at exponent 5^j of a length-2N transform: Σ_j z_j ω^{-5^j k}
        w = np.zeros(2 * n, dtype=np.complex128)
        w[self.ctx._orbit[: values.size]] = values
        return (2.0 / n) * np.real(np.fft.fft(w)[:n])

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Real coefficient vector -> slot values (evaluate at the ζ_j)."""
        n = self.ctx.n
        coeffs = np.asarray(coeffs, dtype=np.float64)
        # Σ_k c_k ω^{5^j k}: the zero-padded length-2N inverse transform
        return 2 * n * np.fft.ifft(coeffs, 2 * n)[self.ctx._orbit]

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
        if not np.isfinite(values).all():
            raise ValueError("cannot encode non-finite slot values")
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

    def _check_fits(self, coeffs: np.ndarray, level: int) -> None:
        """Raise ``ValueError`` unless :meth:`round`'s coefficients are
        centred residues of ``Q_level = q_0···q_level`` (``2·max|c| <
        Q_level``): past that the plaintext wraps into other values."""
        peak = int(np.max(np.abs(coeffs)))
        q = math.prod(self.ctx.q_chain[: level + 1])
        if 2 * peak >= q:
            raise ValueError(
                f"plaintext coefficients reach {peak:.3g}, past half the "
                f"level-{level} modulus {q:.3g}: the slot values would wrap"
            )

    def lift(self, coeffs: np.ndarray, level: int, scale: float) -> Plaintext:
        """The NTT-form plaintext of :meth:`round`'s coefficients over the
        chain primes ``q_0..q_level``; ``ValueError`` when they do not fit
        (:meth:`_check_fits`)."""
        self._check_fits(coeffs, level)
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

    Entries are keyed by content — the value's dtype, shape and the
    SHA-256 of its bytes plus the exact level and scale, never a cast —
    so equal values share one entry, while complex values differing in
    their imaginary part, or a scalar and a one-slot vector, do not.
    Only :meth:`add` hashes.  A lookup goes by the held object: an array
    by its identity (:meth:`add` keeps a reference, so the identity stays
    its own, and makes it and the array owning its memory read-only, so a
    write after the fill raises instead of serving a stale entry), a 0-d
    value by its dtype and value; anything else — an equal copy included
    — misses and encodes fresh.  Lookups are thread-safe (the entries only
    change in :meth:`warm`, by one swap of the whole table).
    """

    def __init__(self, encoder: CkksEncoder):
        self.encoder = encoder
        #: content key -> coefficients, or the :class:`Plaintext` after :meth:`warm`
        self._entries: dict = {}
        #: lookup key -> (the value it was added as, its content key)
        self._held: dict = {}
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(values, level: int, scale: float) -> tuple:
        """The lookup key: an array's identity, a 0-d value's dtype and
        value — no pass over the bytes."""
        arr = np.asarray(values)
        if arr.ndim:
            return (id(arr), level, float(scale))
        return (arr.dtype.str, arr.item(), level, float(scale))

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, values, level: int, scale: float) -> None:
        """Encode ``values`` for ``(level, scale)`` unless already held,
        and freeze the array it came as."""
        arr = np.asarray(values)
        key = self._key(arr, level, scale)
        if key in self._held:
            return
        digest = hashlib.sha256(np.ascontiguousarray(arr).view(np.uint8)).digest()
        content = (arr.dtype.str, arr.shape, digest, level, float(scale))
        if content not in self._entries:
            coeffs = self.encoder.round(arr, float(scale))
            self.encoder._check_fits(coeffs, level)
            self._entries[content] = coeffs
        base = arr
        while isinstance(base, np.ndarray):
            base.flags.writeable = False
            base = base.base
        self._held[key] = (arr, content)

    def resolve(self, values, level: int, scale: float):
        """The held entry of ``values`` at ``(level, scale)`` as it is —
        rounded coefficients, or the :class:`Plaintext` after :meth:`warm`
        — or, on a miss, a fresh :meth:`CkksEncoder.encode`."""
        held = self._held.get(self._key(values, level, scale))
        with self._lock:
            if held is None:
                self.misses += 1
            else:
                self.hits += 1
        if held is None:
            return self.encoder.encode(values, level, scale)
        return self._entries[held[1]]

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
