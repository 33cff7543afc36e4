"""CKKS context: parameters, modulus chain and per-prime NTT plans.

The modulus chain is ``[q0, q1, ..., qL, p_0, ..., p_{α-1}]``: a larger
first prime ``q0`` (holds the final message), ``L`` rescaling primes
close to the scale ``Δ = 2^scale_bits``, and ``α`` special primes
(``P = p_0···p_{α-1}``) used only for grouped hybrid keyswitching — a
keyswitch digit is a group of ``α`` consecutive chain primes, and
``α = ceil((L+1) / dnum)`` so the top of the chain decomposes into at
most ``dnum`` digits (:mod:`repro.ckks.keys`).  All primes are
NTT-friendly and < 2^30 (int64 safety).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.ckks.backend import resolve_backend
from repro.ckks.ntt import NttPlan, _bit_reverse_indices
from repro.ckks.primes import generate_primes, generate_scale_tracking_primes

__all__ = ["CkksParams", "CkksContext", "BaseConversion"]


class BaseConversion(NamedTuple):
    """Constants of one centred approximate RNS base conversion.

    The input rows are residues over ``sources``, split into consecutive
    groups of ``weights.shape[2]`` primes (the last group may be
    shorter); each group ``g`` with modulus ``Q_g`` converts on its own:

        y_i = centred([x_i · (Q_g/q_i)^{-1}]_{q_i}),
        out[g, t] = Σ_{i∈g} y_i · [(Q_g/q_i) mod p_t]   (mod p_t),

    which is the centred value ``[x]_{Q_g}`` plus a multiple ``u·Q_g``,
    ``|u| ≤ |g|/2`` — the *same* integer on every target row, so targets
    may include the group's own primes (where it reproduces ``x_i``).
    :meth:`KernelBackend.base_convert` is the one place this runs.
    """

    sources: tuple        #: prime indices of the input rows
    targets: tuple        #: prime indices of the output rows
    inv: np.ndarray       #: ``(S,)``: ``(Q_g/q_i)^{-1} mod q_i``
    weights: np.ndarray   #: ``(G, T, α)``: ``(Q_g/q_i) mod p_t``, zero-padded


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
    special_prime_bits: int = 29  # each special prime (keyswitch hop)
    #: keyswitch digits at the top of the chain: chain primes are grouped
    #: ``α = ceil((depth+1) / dnum)`` to a digit and the chain carries α
    #: special primes (``dnum >= depth+1`` is one prime per digit and a
    #: single special prime — SEAL's construction)
    dnum: int = 3
    error_std: float = 3.2        # discrete gaussian σ
    #: pick each scale prime near the *running* canonical scale instead of
    #: near 2^scale_bits — mandatory beyond ~20 levels, where nearest-to-Δ
    #: primes let the canonical schedule collapse double-exponentially
    #: (see :func:`repro.ckks.primes.generate_scale_tracking_primes`)
    scale_tracking: bool = False
    #: kernel backend name; ``None`` is the default, ``"vectorized"``
    #: (``"reference"`` is the spec the bit-identity tests select by
    #: name — see :mod:`repro.ckks.backend`; all backends are
    #: bit-identical)
    backend: str | None = None

    @property
    def slots(self) -> int:
        return self.n // 2

    @property
    def alpha(self) -> int:
        """Chain primes per keyswitch digit == number of special primes."""
        return -(-(self.depth + 1) // self.dnum)

    @staticmethod
    def paper_grade() -> "CkksParams":
        """The paper's SEAL configuration scale: N=32768, ~881-bit modulus.

        881 ≈ 29 + 29 · 28 + 29 with 28-bit scale primes; constructible but
        slow in pure Python — used only for explicitly-requested runs.
        One digit per chain prime (``dnum = depth + 1``) keeps SEAL's
        single special prime: a second one would not fit the 881 bits.
        """
        return CkksParams(
            n=32768,
            scale_bits=28,
            depth=29,
            first_prime_bits=30,
            special_prime_bits=30,
            dnum=30,
        )


class CkksContext:
    """Precomputed modulus chain, NTT plans and RNS constants."""

    def __init__(self, params: CkksParams):
        self.params = params
        n = params.n
        num_chain = params.depth + 1
        if params.dnum < 1:
            raise ValueError(f"dnum must be >= 1, got {params.dnum}")
        widest = max(params.first_prime_bits, params.scale_bits)
        if self.alpha > 1 and params.special_prime_bits < widest:
            # a digit reaches α·Q_group/2; dividing its noise away needs
            # P = Π special primes at least as wide as a full group
            raise ValueError(
                f"special_prime_bits={params.special_prime_bits} is narrower than "
                f"the widest chain prime ({widest} bits): grouped keyswitching "
                f"(alpha={self.alpha}) needs special primes at least as wide"
            )
        if params.scale_tracking:
            primes = generate_scale_tracking_primes(
                n,
                params.scale_bits,
                params.depth,
                first_prime_bits=params.first_prime_bits,
                special_prime_bits=params.special_prime_bits,
                num_special=self.alpha,
            )
        else:
            sizes = (
                [params.first_prime_bits]
                + [params.scale_bits] * params.depth
                + [params.special_prime_bits] * self.alpha
            )
            primes = generate_primes(n, sizes)
        #: q0..qL (the ciphertext chain), excluding the special primes
        self.q_chain = primes[:num_chain]
        #: the keyswitching special primes p_0..p_{α-1}
        self.special_primes = primes[num_chain:]
        #: all primes, special last — index space for RNS rows
        self.all_primes = self.q_chain + self.special_primes
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
        # (b) keyswitch: P^{-1} mod q_j, and the per-level base
        # conversions of the digit lift and the divide-by-P descent
        # (lazy: the partial last group's constants depend on the level)
        p_special = math.prod(self.special_primes)
        self._p_inv = np.array(
            [pow(p_special % p, p - 2, p) for p in self.q_chain], dtype=np.int64
        )
        self._digit_lifts: dict = {}
        self._p_descents: dict = {}
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
    def alpha(self) -> int:
        return self.params.alpha

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

    def rescale_inverses(self, level: int) -> np.ndarray:
        """q_level^{-1} mod q_j for j < level."""
        return self._rescale_inv[level]

    def p_inverses(self, level: int) -> np.ndarray:
        """P^{-1} mod q_j for j <= level (P the special-prime product)."""
        return self._p_inv[: level + 1]

    # ------------------------------------------------------------------
    # grouped hybrid keyswitching: digits, bases, conversion constants
    # ------------------------------------------------------------------
    def num_digits(self, level: int) -> int:
        """Keyswitch digits at ``level``: groups of α primes covering
        ``q_0..q_level`` (the last group may be partial)."""
        return -(-(level + 1) // self.alpha)

    def keyswitch_basis(self, level: int) -> list:
        """Prime indices of the extended keyswitch basis at ``level``:
        the special primes *first*, then ``q_0..q_level`` — the row order
        of decomposed digits and of key tensors, chosen so a level is a
        leading slice of the full key tensor."""
        num_chain = len(self.q_chain)
        return list(range(num_chain, num_chain + self.alpha)) + list(range(level + 1))

    def base_conversion(self, sources, targets, group_size: int) -> BaseConversion:
        """Constants converting residues over ``sources`` (consecutive
        groups of ``group_size`` primes) onto ``targets``."""
        sources, targets = tuple(sources), tuple(targets)
        groups = [
            sources[k : k + group_size] for k in range(0, len(sources), group_size)
        ]
        inv = []
        weights = np.zeros((len(groups), len(targets), group_size), dtype=np.int64)
        for g, group in enumerate(groups):
            q_group = math.prod(self.all_primes[i] for i in group)
            for pos, i in enumerate(group):
                q_i = self.all_primes[i]
                cofactor = q_group // q_i
                inv.append(pow(cofactor % q_i, q_i - 2, q_i))
                weights[g, :, pos] = [cofactor % self.all_primes[t] for t in targets]
        return BaseConversion(sources, targets, np.array(inv, dtype=np.int64), weights)

    def digit_lift(self, level: int) -> BaseConversion:
        """Chain rows ``q_0..q_level`` -> one lifted digit per α-group
        over :meth:`keyswitch_basis` — cached per level."""
        conv = self._digit_lifts.get(level)
        if conv is None:
            conv = self._digit_lifts[level] = self.base_conversion(
                range(level + 1), self.keyswitch_basis(level), self.alpha
            )
        return conv

    def p_descent(self, level: int) -> BaseConversion:
        """Special rows -> ``[x]_P`` on ``q_0..q_level`` — cached per level."""
        conv = self._p_descents.get(level)
        if conv is None:
            conv = self._p_descents[level] = self.base_conversion(
                self.keyswitch_basis(level)[: self.alpha], range(level + 1), self.alpha
            )
        return conv

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
        default).  Backends are bit-identical by contract, so switching
        mid-computation is safe — ciphertexts produced before and after
        the switch interoperate exactly.  Used
        by the conformance suite and ``--check-backends`` tooling to run
        the same compiled model under every backend without re-keygen.
        """
        self.backend = resolve_backend(backend, self)
        return self.backend

    def modulus_bits(self) -> float:
        """Total log2 of the ciphertext modulus (without the special primes)."""
        return float(sum(np.log2(p) for p in self.q_chain))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CkksContext(n={self.n}, depth={self.params.depth}, "
            f"scale=2^{self.params.scale_bits}, logQ={self.modulus_bits():.0f})"
        )
