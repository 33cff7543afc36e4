"""Key generation: secret, public, relinearisation and Galois keys.

Keyswitching uses grouped hybrid keyswitching over RNS digits: the chain
primes are grouped ``α`` to a digit (``α = ceil((L+1)/dnum)``) and the
chain carries ``α`` special primes, ``P = p_0···p_{α-1}``.  To switch a
polynomial ``d`` known mod ``Q_l = q_0···q_l`` from key ``w`` to key
``s``, write ``G_k`` for the product of group ``k``'s primes at level
``l`` (the last group may be partial) and

    D_k = [d]_{G_k}              (one small digit per group, lifted onto
                                  the extended basis (p_*, q_0..q_l)),
    g_k ≡ 1 on group k's primes, ≡ 0 on every other chain prime,

so that ``Σ_k D_k·g_k ≡ d (mod Q_l)`` — on each chain row exactly one
term survives, and it is the row's own residue.  The key for digit ``k``
is ``ksk_k = (-a_k·s + e_k + P·g_k·w, a_k)``.  The ciphertext side
computes ``Σ_k D_k · ksk_k`` and divides by ``P`` — noise is
``Σ_k D_k e_k / P`` with ``|D_k| ≤ α·G_k/2 < P`` as long as a special
prime is at least as wide as any chain prime (checked by
:class:`~repro.ckks.context.CkksContext`), so it stays tiny.

In RNS ``P·g_k`` is a 0/``P`` indicator per row — it does not depend on
the level — so a family is **one** tensor pair over the full basis,
built eagerly; level ``l`` uses the leading slice (digits
``[:ceil((l+1)/α)]``, rows special + ``q_0..q_l``).  A family keeps no
reference to the secret it was derived from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.context import CkksContext

__all__ = [
    "SecretKey",
    "PublicKey",
    "KeySwitchFamily",
    "KeyChain",
    "keygen",
]


def _sample_ternary(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(-1, 2, size=n).astype(np.int64)


def _sample_error(n: int, std: float, rng: np.random.Generator) -> np.ndarray:
    return np.round(rng.normal(0.0, std, size=n)).astype(np.int64)


def _sample_uniform(ctx: CkksContext, prime_indices, rng: np.random.Generator) -> np.ndarray:
    """Uniform residues, one row per prime (read as NTT form)."""
    return np.stack(
        [rng.integers(0, ctx.all_primes[i], size=ctx.n, dtype=np.int64) for i in prime_indices]
    )


@dataclass
class SecretKey:
    """Ternary secret: ``data`` holds its NTT rows over every prime
    (``ctx.all_primes`` order, special last), ``coeffs`` the ternary
    coefficients themselves."""

    data: np.ndarray
    coeffs: np.ndarray


@dataclass
class PublicKey:
    """Encryption key ``(b, a)`` with ``b = e - a·s``, as one
    ``(2, L+1, n)`` NTT-form array over the ciphertext chain."""

    data: np.ndarray


class KeySwitchFamily:
    """The keyswitch key for one target polynomial ``w``: one
    ``(key_b, key_a)`` tensor pair, each ``(digits, α+L+1, n)`` in NTT
    form with the special rows first — every level is a slice of it.

    ``w_coeffs`` is ``s²`` for relinearisation or ``s(X^g)`` for a Galois
    element, as small integer coefficients.  The secret is read during
    construction only; all randomness is drawn here, from ``seed``.
    """

    def __init__(self, ctx: CkksContext, secret: "SecretKey", w_coeffs: np.ndarray, seed: int):
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        backend, alpha = ctx.backend, ctx.alpha
        basis = ctx.keyswitch_basis(ctx.max_level)
        s_basis = secret.data[basis]
        w_basis = backend.lift(w_coeffs, basis)
        # P mod each basis prime — zero on the special rows themselves
        p_special = math.prod(ctx.special_primes)
        p_mod = np.array([p_special % ctx.all_primes[i] for i in basis], dtype=np.int64)

        keys_b, keys_a = [], []
        for k in range(ctx.num_digits(ctx.max_level)):
            # P·g_k in RNS: P on group k's own chain rows, 0 everywhere else
            gadget = np.zeros_like(p_mod)
            group = slice(alpha * (k + 1), alpha * (k + 2))
            gadget[group] = p_mod[group]
            a = _sample_uniform(ctx, basis, rng)
            e = backend.lift(_sample_error(ctx.n, ctx.params.error_std, rng), basis)
            # b = e - a·s + P·g_k·w
            b = backend.modsub(e, backend.modmul(a, s_basis, basis), basis)
            keys_b.append(backend.modadd(b, backend.modscale(w_basis, gadget, basis), basis))
            keys_a.append(a)
        self.key_b = np.stack(keys_b)
        self.key_a = np.stack(keys_a)

    def stacked_at_level(self, level: int) -> tuple:
        """The level's ``(key_b, key_a)``: *views* of the family's one
        tensor pair, each ``(ceil((level+1)/α), α+level+1, n)`` — the
        layout the kernel backends consume for the keyswitch inner
        product."""
        digits = self.ctx.num_digits(level)
        rows = self.ctx.alpha + level + 1
        return self.key_b[:digits, :rows], self.key_a[:digits, :rows]


@dataclass
class KeyChain:
    """All keys produced by :func:`keygen`."""

    secret: SecretKey
    public: PublicKey
    relin: KeySwitchFamily
    galois: dict = field(default_factory=dict)   # galois element -> family
    galois_seed: int = 0                         # keygen seed, reused when growing

    def ensure_galois_steps(
        self, ctx: CkksContext, steps, seed: int | None = None
    ) -> "KeyChain":
        """Create Galois key families for any rotation steps still missing.

        The BSGS matvec planner (:mod:`repro.fhe.linear`) decides its
        baby/giant step set *after* looking at a model's diagonals, so the
        key set is grown to match a plan rather than guessed up front;
        this is also how tests enable the naive reference path next to a
        BSGS key set.  Idempotent — existing families are kept, and the
        per-element derivation seed defaults to the chain's own keygen
        seed, so the result is bit-identical to having passed the step to
        :func:`keygen` up front.  Include the string ``"conj"`` for the
        conjugation element.
        """
        for step in steps:
            g = 2 * ctx.n - 1 if step == "conj" else ctx.galois_element(int(step))
            if g not in self.galois:
                self.galois[g] = self.galois_family(ctx, g, seed)
        return self

    def galois_family(
        self, ctx: CkksContext, g: int, seed: int | None = None
    ) -> KeySwitchFamily:
        """Build (without installing) the family for Galois element ``g``:
        target ``s(X^g)``, randomness from the chain's keygen seed and
        ``g`` alone — so *when* or *where* it is built never shows in
        its bytes."""
        seed = self.galois_seed if seed is None else seed
        s_g = _automorphism_int(self.secret.coeffs, g)
        return KeySwitchFamily(ctx, self.secret, s_g, seed=seed + 500 + g)


def keygen(
    ctx: CkksContext,
    seed: int | None = 0,
    galois_steps: tuple = (),
) -> KeyChain:
    """Generate a full key chain.

    ``galois_steps``: slot-rotation step sizes to create Galois keys for
    (element ``5^step mod 2N``); include the string ``"conj"`` for
    conjugation (element ``2N - 1``).
    """
    rng = np.random.default_rng(seed)
    n, backend = ctx.n, ctx.backend
    chain = range(len(ctx.q_chain))

    s_coeffs = _sample_ternary(n, rng)
    secret = SecretKey(data=backend.lift(s_coeffs, range(len(ctx.all_primes))), coeffs=s_coeffs)

    # public key over the ciphertext chain only
    a_pk = _sample_uniform(ctx, chain, rng)
    e_pk = backend.lift(_sample_error(n, ctx.params.error_std, rng), chain)
    b_pk = backend.modsub(e_pk, backend.modmul(a_pk, secret.data[: len(chain)], chain), chain)
    public = PublicKey(data=np.stack([b_pk, a_pk]))

    # relinearisation family: target w = s^2 (exact integer coefficients:
    # ternary * ternary convolution fits easily in int64)
    # compute s^2 exactly via big-int CRT-free convolution: use object math
    # on the small ternary coefficients (negacyclic schoolbook via FFT would
    # risk rounding; N is small enough for a single exact convolution here)
    s_sq = _negacyclic_square_exact(s_coeffs)
    relin = KeySwitchFamily(ctx, secret, s_sq, seed=(seed or 0) + 101)

    chain_keys = KeyChain(
        secret=secret, public=public, relin=relin, galois_seed=seed or 0
    )
    chain_keys.ensure_galois_steps(ctx, galois_steps)
    return chain_keys


def _negacyclic_square_exact(s: np.ndarray) -> np.ndarray:
    """Exact ``s²`` in Z[X]/(X^N+1) for small (ternary) ``s`` — int64.

    |coefficients| ≤ N, so int64 is ample.  Uses the doubling convolution
    via numpy correlate on int64 (exact for these magnitudes).
    """
    n = len(s)
    full = np.convolve(s.astype(np.int64), s.astype(np.int64))
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out


def _automorphism_int(s: np.ndarray, g: int) -> np.ndarray:
    """Apply ``X -> X^g`` to integer coefficients along the last axis
    (exact; a negated coefficient comes back negative, so residue rows
    need reducing mod their primes afterwards)."""
    n = s.shape[-1]
    idx = np.arange(n, dtype=np.int64)
    dest = idx * g % (2 * n)
    sign = np.where(dest >= n, -1, 1).astype(np.int64)
    dest = np.where(dest >= n, dest - n, dest)
    out = np.zeros_like(s)
    out[..., dest] = s * sign
    return out
