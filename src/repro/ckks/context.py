"""CKKS context: parameters, modulus chain and per-prime NTT plans.

The modulus chain is ``[q0, q1, ..., qL, P]``: a larger first prime ``q0``
(holds the final message), ``L`` rescaling primes close to the scale
``Δ = 2^scale_bits``, and one special prime ``P`` used only for hybrid
keyswitching.  All primes are NTT-friendly and < 2^30 (int64 safety).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.backend import resolve_backend
from repro.ckks.ntt import NttPlan, _bit_reverse_indices
from repro.ckks.primes import generate_primes, generate_scale_tracking_primes

__all__ = ["CkksParams", "CkksContext"]


@dataclass(frozen=True)
class CkksParams:
    """CKKS parameter set.

    ``depth`` is the number of rescaling levels available (the chain gets
    ``depth`` scale primes); a fresh ciphertext sits at level ``depth`` and
    each multiply+rescale consumes one level.
    """

    n: int = 2048                 # ring degree (slots = n/2)
    scale_bits: int = 25          # log2(Δ)
    depth: int = 8                # rescaling levels
    first_prime_bits: int = 29    # q0
    special_prime_bits: int = 29  # P (keyswitch hop)
    error_std: float = 3.2        # discrete gaussian σ
    #: pick each scale prime near the *running* canonical scale instead of
    #: near 2^scale_bits — mandatory beyond ~20 levels, where nearest-to-Δ
    #: primes let the canonical schedule collapse double-exponentially
    #: (see :func:`repro.ckks.primes.generate_scale_tracking_primes`)
    scale_tracking: bool = False
    #: kernel backend name (``"reference"`` / ``"vectorized"``); ``None``
    #: resolves the ``REPRO_BACKEND`` env var, defaulting to reference —
    #: see :mod:`repro.ckks.backend` (all backends are bit-identical)
    backend: str | None = None

    @property
    def slots(self) -> int:
        return self.n // 2

    @staticmethod
    def paper_grade() -> "CkksParams":
        """The paper's SEAL configuration scale: N=32768, ~881-bit modulus.

        881 ≈ 29 + 29 · 28 + 29 with 28-bit scale primes; constructible but
        slow in pure Python — used only for explicitly-requested runs.
        """
        return CkksParams(
            n=32768, scale_bits=28, depth=29, first_prime_bits=30, special_prime_bits=30
        )

    @staticmethod
    def latency_grade(depth: int = 12) -> "CkksParams":
        """Mid-size context for the latency benchmarks (Fig. 1 / Tab. 4)."""
        return CkksParams(n=8192, scale_bits=25, depth=depth)

    @staticmethod
    def test_grade(depth: int = 6, n: int = 1024) -> "CkksParams":
        """Small fast context for unit tests."""
        return CkksParams(n=n, scale_bits=25, depth=depth)


class CkksContext:
    """Precomputed modulus chain, NTT plans and RNS constants."""

    def __init__(self, params: CkksParams):
        self.params = params
        n = params.n
        if params.scale_tracking:
            primes = generate_scale_tracking_primes(
                n,
                params.scale_bits,
                params.depth,
                first_prime_bits=params.first_prime_bits,
                special_prime_bits=params.special_prime_bits,
            )
        else:
            sizes = (
                [params.first_prime_bits]
                + [params.scale_bits] * params.depth
                + [params.special_prime_bits]
            )
            primes = generate_primes(n, sizes)
        #: q0..qL (the ciphertext chain), excluding the special prime
        self.q_chain = primes[:-1]
        #: the keyswitching special prime
        self.special_prime = primes[-1]
        #: all primes, special last — index space for RNS rows
        self.all_primes = self.q_chain + [self.special_prime]
        self.plans = [NttPlan.get(n, p) for p in self.all_primes]
        self.scale = float(2**params.scale_bits)

        arr = np.array(self.all_primes, dtype=np.int64)
        self._primes_arr = arr
        # q_j^{-1} mod q_i tables are built lazily where needed; the two
        # heavily-used constant families are precomputed here:
        # (a) rescale: q_last^{-1} mod q_j for every prefix length
        self._rescale_inv = {}
        for level in range(1, len(self.q_chain)):
            q_last = self.q_chain[level]
            self._rescale_inv[level] = np.array(
                [pow(q_last, p - 2, p) for p in self.q_chain[:level]], dtype=np.int64
            )
        # (b) keyswitch: P^{-1} mod q_j
        self._p_inv = np.array(
            [pow(self.special_prime, p - 2, p) for p in self.q_chain], dtype=np.int64
        )
        # (c) Galois automorphisms as NTT-domain permutations (lazy per g)
        self._galois_perms: dict = {}
        self._bitrev = _bit_reverse_indices(n)
        # (d) the canonical per-level scale schedule, from Δ at the top
        s = self.scale
        self._canonical_scales = {self.max_level: s}
        for level in range(self.max_level, 0, -1):
            s = s * s / self.q_chain[level]
            self._canonical_scales[level - 1] = s
        # kernel backend last: it reads the tables built above
        self.backend = resolve_backend(params.backend, self)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.params.n

    @property
    def slots(self) -> int:
        return self.params.slots

    @property
    def max_level(self) -> int:
        """Fresh ciphertexts start here (number of rescales available)."""
        return len(self.q_chain) - 1

    def canonical_scale(self, level: int) -> float:
        """The canonical scale of ``level``: ``S_{l-1} = S_l² / q_l`` from the top.

        Every compiled executor keeps ciphertexts on this per-level schedule
        (it is what lets plaintexts pre-encode at deterministic scales, and
        what a refresh must hand its output back *on*); the tracer reports
        scale drift against it.
        """
        return self._canonical_scales[level]

    def primes_at_level(self, level: int) -> list:
        """Chain primes active at ``level`` (q_0..q_level)."""
        return self.q_chain[: level + 1]

    def rescale_inverses(self, level: int) -> np.ndarray:
        """q_level^{-1} mod q_j for j < level."""
        return self._rescale_inv[level]

    def p_inverses(self, level: int) -> np.ndarray:
        """P^{-1} mod q_j for j <= level."""
        return self._p_inv[: level + 1]

    def galois_ntt_permutation(self, g: int) -> np.ndarray:
        """NTT-slot permutation realising ``X -> X^g`` in evaluation domain.

        The forward negacyclic NTT evaluates a polynomial at the odd root
        powers ``ψ^{t_i}`` with ``t_i = 2·bitrev(i) + 1``, so the Galois
        automorphism ``(φ_g f)(ψ^{t_i}) = f(ψ^{g·t_i mod 2N})`` is a pure
        reindexing of the transform output — no signs, no NTTs.  This is
        what makes rotation *hoisting* cheap: decomposed keyswitch digits
        can be kept in NTT form and permuted per Galois element.  The
        permutation depends only on ``(N, g)`` and is cached.
        """
        g = g % (2 * self.n)
        perm = self._galois_perms.get(g)
        if perm is None:
            t = 2 * self._bitrev + 1
            tg = t * g % (2 * self.n)
            # bit reversal is an involution, so it is its own inverse map
            perm = self._bitrev[(tg - 1) // 2]
            self._galois_perms[g] = perm
        return perm

    def set_backend(self, backend=None):
        """Swap the kernel backend on a live context.

        ``backend`` is a registered name, a :class:`KernelBackend`
        instance bound to this context, or ``None`` (re-resolve the
        ``REPRO_BACKEND`` env var / default).  Backends are bit-identical
        by contract, so switching mid-computation is safe — ciphertexts
        produced before and after the switch interoperate exactly.  Used
        by the conformance suite and ``--check-backends`` tooling to run
        the same compiled model under every backend without re-keygen.
        """
        self.backend = resolve_backend(backend, self)
        return self.backend

    def modulus_bits(self) -> float:
        """Total log2 of the ciphertext modulus (without the special prime)."""
        return float(sum(np.log2(p) for p in self.q_chain))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CkksContext(n={self.n}, depth={self.params.depth}, "
            f"scale=2^{self.params.scale_bits}, logQ={self.modulus_bits():.0f})"
        )
