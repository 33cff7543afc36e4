"""RNS polynomials: residue rows over the modulus chain.

An :class:`RnsPoly` stores one int64 row per active prime, either in
coefficient or NTT (evaluation) domain.  All ring arithmetic and domain
conversion dispatch to the context's kernel backend
(:mod:`repro.ckks.backend`) — per-limb or limb-batched, bit-identical
either way; CRT composition to big integers happens only at the decrypt /
decode boundary (Python ints via object arrays).
"""

from __future__ import annotations

import numpy as np

from repro.ckks.context import CkksContext

__all__ = ["RnsPoly", "crt_compose_centered"]


class RnsPoly:
    """Polynomial in RNS representation over ``prime_indices`` of a context.

    ``prime_indices`` index into ``context.all_primes``; ciphertext polys
    use ``[0..level]``, keyswitch operands additionally carry the special
    prime index.
    """

    __slots__ = ("ctx", "data", "prime_indices", "is_ntt")

    def __init__(self, ctx: CkksContext, data: np.ndarray, prime_indices, is_ntt: bool):
        self.ctx = ctx
        self.data = data                      # (len(prime_indices), N) int64
        self.prime_indices = list(prime_indices)
        self.is_ntt = is_ntt

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero(ctx: CkksContext, prime_indices, is_ntt: bool = True) -> "RnsPoly":
        return RnsPoly(
            ctx,
            np.zeros((len(list(prime_indices)), ctx.n), dtype=np.int64),
            prime_indices,
            is_ntt,
        )

    @staticmethod
    def from_int_coeffs(ctx: CkksContext, coeffs: np.ndarray, prime_indices) -> "RnsPoly":
        """Reduce (possibly huge Python-int) coefficients into RNS rows."""
        prime_indices = list(prime_indices)
        rows = np.empty((len(prime_indices), ctx.n), dtype=np.int64)
        big = np.asarray(coeffs, dtype=object)
        for r, idx in enumerate(prime_indices):
            p = ctx.all_primes[idx]
            rows[r] = np.array([int(c) % p for c in big], dtype=np.int64)
        return RnsPoly(ctx, rows, prime_indices, is_ntt=False)

    @staticmethod
    def from_small_coeffs(ctx: CkksContext, coeffs: np.ndarray, prime_indices) -> "RnsPoly":
        """Reduce int64-range coefficients (e.g. noise, secrets) into RNS."""
        prime_indices = list(prime_indices)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        rows = ctx.backend.reduce_coeffs(coeffs, prime_indices)
        return RnsPoly(ctx, rows, prime_indices, is_ntt=False)

    # ------------------------------------------------------------------
    def primes(self) -> list:
        return [self.ctx.all_primes[i] for i in self.prime_indices]

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.ctx, self.data.copy(), self.prime_indices, self.is_ntt)

    def _primes_col(self) -> np.ndarray:
        return np.array(self.primes(), dtype=np.int64)[:, None]

    # ------------------------------------------------------------------
    # domain conversion
    # ------------------------------------------------------------------
    def to_ntt(self) -> "RnsPoly":
        if self.is_ntt:
            return self
        rows = self.ctx.backend.ntt_forward(self.data, self.prime_indices)
        return RnsPoly(self.ctx, rows, self.prime_indices, is_ntt=True)

    def to_coeff(self) -> "RnsPoly":
        if not self.is_ntt:
            return self
        rows = self.ctx.backend.ntt_inverse(self.data, self.prime_indices)
        return RnsPoly(self.ctx, rows, self.prime_indices, is_ntt=False)

    # ------------------------------------------------------------------
    # arithmetic (domain- and basis-matched)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RnsPoly") -> None:
        if self.prime_indices != other.prime_indices:
            raise ValueError("RNS basis mismatch")
        if self.is_ntt != other.is_ntt:
            raise ValueError("domain mismatch (ntt vs coeff)")

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        return RnsPoly(
            self.ctx,
            self.ctx.backend.modadd(self.data, other.data, self.prime_indices),
            self.prime_indices,
            self.is_ntt,
        )

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        return RnsPoly(
            self.ctx,
            self.ctx.backend.modsub(self.data, other.data, self.prime_indices),
            self.prime_indices,
            self.is_ntt,
        )

    def __neg__(self) -> "RnsPoly":
        return RnsPoly(
            self.ctx,
            self.ctx.backend.modneg(self.data, self.prime_indices),
            self.prime_indices,
            self.is_ntt,
        )

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Ring product — both operands must be in NTT domain."""
        self._check_compatible(other)
        if not self.is_ntt:
            raise ValueError("ring multiply requires NTT domain")
        return RnsPoly(
            self.ctx,
            self.ctx.backend.modmul(self.data, other.data, self.prime_indices),
            self.prime_indices,
            True,
        )

    def scalar_mul(self, scalars) -> "RnsPoly":
        """Multiply by per-prime residues (int or array of len == rows)."""
        scalars = np.asarray(scalars, dtype=np.int64)
        if scalars.ndim == 0:
            scalars = scalars % self._primes_col()[:, 0]
        return RnsPoly(
            self.ctx,
            self.ctx.backend.modscale(self.data, scalars, self.prime_indices),
            self.prime_indices,
            self.is_ntt,
        )

    # ------------------------------------------------------------------
    # basis surgery
    # ------------------------------------------------------------------
    def drop_rows(self, keep: int) -> "RnsPoly":
        """Keep the first ``keep`` rows (mod-switch down)."""
        return RnsPoly(self.ctx, self.data[:keep].copy(), self.prime_indices[:keep], self.is_ntt)

    def automorphism(self, g: int) -> "RnsPoly":
        """Apply X -> X^g (g odd, mod 2N); requires coefficient domain."""
        if self.is_ntt:
            raise ValueError("automorphism requires coefficient domain")
        n = self.ctx.n
        idx = np.arange(n, dtype=np.int64)
        dest = idx * g % (2 * n)
        sign = np.where(dest >= n, -1, 1).astype(np.int64)
        dest = np.where(dest >= n, dest - n, dest)
        rows = np.zeros_like(self.data)
        primes = self._primes_col()
        rows[:, dest] = self.data * sign[None, :] % primes
        return RnsPoly(self.ctx, rows, self.prime_indices, is_ntt=False)


def crt_compose_centered(poly: RnsPoly) -> np.ndarray:
    """CRT-reconstruct centered big-int coefficients (object array).

    Only used at the decrypt/decode boundary; O(N · rows) Python-int work.
    """
    poly = poly.to_coeff()
    primes = [int(p) for p in poly.primes()]
    q = 1
    for p in primes:
        q *= p
    acc = np.zeros(poly.ctx.n, dtype=object)
    for r, p in enumerate(primes):
        qi = q // p
        inv = pow(qi, p - 2, p)
        weight = qi * inv
        acc += poly.data[r].astype(object) * weight
    acc %= q
    # centre into (-q/2, q/2]
    half = q // 2
    return np.where(acc > half, acc - q, acc)

