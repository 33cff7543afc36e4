"""CKKS evaluator: encrypt/decrypt, add, multiply, rescale, relinearise,
mod-switch, rotate and conjugate.

Conventions
-----------
* A :class:`Ciphertext` is ``(c0, c1)`` in NTT domain over the chain primes
  ``q_0..q_level`` with a tracked float ``scale``; decryption computes
  ``c0 + c1·s``.
* Every ciphertext-ciphertext or ciphertext-plaintext multiply doubles the
  scale; :meth:`rescale` divides by the level's top prime and drops it —
  one *level* consumed (the paper's multiplication-depth currency).
* Relinearisation / rotation use grouped hybrid keyswitching (α chain
  primes per digit, α special primes, approximate RNS base conversion —
  :mod:`repro.ckks.keys`); rescale, rotation and the keyswitch descent
  stay in the NTT domain except for the rows they drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder, Plaintext, PlaintextStore
from repro.ckks.keys import KeyChain, _sample_error, _sample_ternary
from repro.ckks.rns import RnsPoly

__all__ = ["Ciphertext", "CkksEvaluator"]

#: relative scale mismatch tolerated by addition (primes are only ≈ Δ)
_SCALE_RTOL = 0.05


@dataclass
class Ciphertext:
    """A CKKS ciphertext at some chain level."""

    c0: RnsPoly
    c1: RnsPoly
    scale: float
    level: int

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy(), self.scale, self.level)


class CkksEvaluator:
    """All homomorphic operations for one context + key chain."""

    def __init__(self, ctx: CkksContext, keys: KeyChain, seed: int | None = 1):
        self.ctx = ctx
        self.keys = keys
        self.encoder = CkksEncoder(ctx)
        #: where raw constants resolve (empty here: every one encodes
        #: fresh); :meth:`repro.fhe.network.EncryptedNetwork.evaluator`
        #: hands its evaluators the network's compiled store
        self.plaintexts = PlaintextStore(self.encoder)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # encrypt / decrypt
    # ------------------------------------------------------------------
    def encrypt(self, values, level: int | None = None, scale: float | None = None) -> Ciphertext:
        """Encrypt a slot vector (public-key encryption)."""
        level = self.ctx.max_level if level is None else level
        pt = self.encoder.encode(values, level, scale)
        chain = list(range(level + 1))
        n = self.ctx.n
        std = self.ctx.params.error_std
        u = RnsPoly.from_small_coeffs(self.ctx, _sample_ternary(n, self._rng), chain).to_ntt()
        e0 = RnsPoly.from_small_coeffs(self.ctx, _sample_error(n, std, self._rng), chain).to_ntt()
        e1 = RnsPoly.from_small_coeffs(self.ctx, _sample_error(n, std, self._rng), chain).to_ntt()
        pk_b = RnsPoly(self.ctx, self.keys.public.b.data[: level + 1].copy(), chain, True)
        pk_a = RnsPoly(self.ctx, self.keys.public.a.data[: level + 1].copy(), chain, True)
        c0 = pk_b * u + e0 + pt.poly
        c1 = pk_a * u + e1
        return Ciphertext(c0=c0, c1=c1, scale=pt.scale, level=level)

    def decrypt(self, ct: Ciphertext, num_values: int | None = None) -> np.ndarray:
        """Decrypt to (real) slot values."""
        s = self._secret_at(ct.level)
        msg = ct.c0 + ct.c1 * s
        return self.encoder.decode(msg, ct.scale, num_values)

    def _secret_at(self, level: int) -> RnsPoly:
        chain = list(range(level + 1))
        return RnsPoly(self.ctx, self.keys.secret.poly.data[: level + 1].copy(), chain, True)

    # ------------------------------------------------------------------
    # additive ops
    # ------------------------------------------------------------------
    def _check_add(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level} (mod_switch first)")
        if abs(a.scale - b.scale) > _SCALE_RTOL * max(a.scale, b.scale):
            raise ValueError(f"scale mismatch: {a.scale:.3g} vs {b.scale:.3g}")

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_add(a, b)
        return Ciphertext(a.c0 + b.c0, a.c1 + b.c1, a.scale, a.level)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_add(a, b)
        return Ciphertext(a.c0 - b.c0, a.c1 - b.c1, a.scale, a.level)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(-a.c0, -a.c1, a.scale, a.level)

    def _as_plaintext(self, value, level: int, scale: float) -> Plaintext:
        """Resolve ``value`` through :attr:`plaintexts`, or validate an
        already-encoded :class:`Plaintext`.

        Request payloads never come here (``encrypt`` and recrypt's
        re-entry call the encoder).  Precomputed plaintexts (e.g. the
        refresh plans' CtS/StC diagonals from ``repro.ckks.bootstrap``)
        must live at the ciphertext's chain level; the scale is the
        caller's business (checked where addition requires agreement).
        """
        if isinstance(value, Plaintext):
            if value.poly.data.shape[0] != level + 1:
                raise ValueError(
                    f"plaintext encoded for {value.poly.data.shape[0] - 1} "
                    f"levels, ciphertext at level {level}"
                )
            return value
        return self.plaintexts.encode(value, level, scale)

    def add_plain(self, a: Ciphertext, value) -> Ciphertext:
        """Add a scalar / slot vector / pre-encoded :class:`Plaintext`.

        Raw values are encoded at the ciphertext's scale; a ``Plaintext``
        must already carry a matching scale.
        """
        pt = self._as_plaintext(value, a.level, a.scale)
        self._check_add_plain(a, pt.scale)
        return Ciphertext(a.c0 + pt.poly, a.c1.copy(), a.scale, a.level)

    def _check_add_plain(self, a: Ciphertext, pt_scale: float) -> None:
        if abs(pt_scale - a.scale) > _SCALE_RTOL * max(pt_scale, a.scale):
            raise ValueError(
                f"plaintext scale {pt_scale:.3g} != ciphertext scale {a.scale:.3g}"
            )

    # ------------------------------------------------------------------
    # multiplicative ops
    # ------------------------------------------------------------------
    def mul_plain(self, a: Ciphertext, value, scale: float | None = None) -> Ciphertext:
        """Multiply by a plaintext scalar/vector/pre-encoded ``Plaintext``.

        The plaintext is encoded at the ciphertext's own scale by default,
        which keeps the per-level scale unique across evaluation paths
        (the canonical-scale invariant: S_{l-1} = S_l^2 / q_l), so terms
        that meet at an addition agree exactly.  A pre-encoded
        ``Plaintext`` is used as-is (its own scale multiplies in).
        """
        pt = self._as_plaintext(value, a.level, scale if scale is not None else a.scale)
        return Ciphertext(
            a.c0 * pt.poly, a.c1 * pt.poly, a.scale * pt.scale, a.level
        )

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext-ciphertext multiply (+ relinearisation)."""
        self._check_mul(a, b)
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        scale = a.scale * b.scale
        ks0, ks1 = self._keyswitch(d2, self.keys.relin, a.level)
        return Ciphertext(d0 + ks0, d1 + ks1, scale, a.level)

    def square(self, a: Ciphertext) -> Ciphertext:
        return self.mul(a, a)

    def _check_mul(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level} (mod_switch first)")
        if a.level < 1:
            raise ValueError("out of levels: cannot rescale below level 0")

    # ------------------------------------------------------------------
    # rescale / mod switch
    # ------------------------------------------------------------------
    def rescale(self, a: Ciphertext) -> Ciphertext:
        """Divide by the level's top prime and drop it (one level down)."""
        level = a.level
        if level < 1:
            raise ValueError("cannot rescale at level 0")
        ctx = self.ctx
        # both polynomials ride one batched descent: stack -> (2, level+1, n)
        rows = ctx.backend.rescale(np.stack([a.c0.data, a.c1.data]), level)
        chain = list(range(level))
        return Ciphertext(
            RnsPoly(ctx, rows[0], chain, is_ntt=True),
            RnsPoly(ctx, rows[1], chain, is_ntt=True),
            a.scale / ctx.q_chain[level],
            level - 1,
        )

    def mod_switch_to(self, a: Ciphertext, level: int) -> Ciphertext:
        """Drop chain primes without dividing (scale unchanged)."""
        if level > a.level:
            raise ValueError(f"cannot mod-switch up ({a.level} -> {level})")
        if level == a.level:
            return a
        keep = level + 1
        return Ciphertext(
            a.c0.drop_rows(keep), a.c1.drop_rows(keep), a.scale, level
        )

    def mul_rescale(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.rescale(self.mul(a, b))

    def mul_plain_rescale(self, a: Ciphertext, value) -> Ciphertext:
        return self.rescale(self.mul_plain(a, value))

    def align_to(self, a: Ciphertext, level: int, scale: float) -> Ciphertext:
        """Bring ``a`` to (``level``, ``scale``) exactly.

        Rescaling by actual primes (only ≈ Δ) drifts scales apart across
        different evaluation paths; when ``a`` sits above the target level
        the drift is corrected *exactly* by multiplying with the constant
        ``scale·q/(a.scale)`` (a ~Δ-sized integer, encoded precisely) and
        rescaling by ``q`` — landing on the target scale at the target
        level with no extra level consumed beyond the descent itself.  A
        scale that already matches descends by a free mod switch.
        """
        if a.level < level:
            raise ValueError(f"cannot align upward ({a.level} -> {level})")
        if a.level == level or a.scale == scale:
            return self.mod_switch_to(a, level)
        a = self.mod_switch_to(a, level + 1)
        q_next = self.ctx.q_chain[level + 1]
        correction = scale * q_next / a.scale
        out = self.rescale(self.mul_plain(a, 1.0, scale=correction))
        out.scale = scale  # exact by construction (up to encode rounding)
        return out

    # ------------------------------------------------------------------
    # refresh primitives (``repro.ckks.bootstrap`` is the only caller)
    # ------------------------------------------------------------------
    def _trivial_encrypt(self, values, level: int, scale: float) -> Ciphertext:
        """Noiseless encryption ``(encode(values), 0)`` — recrypt's re-entry."""
        pt = self.encoder.encode(values, level, scale)
        zero = RnsPoly.zero(self.ctx, list(range(level + 1)), is_ntt=True)
        return Ciphertext(pt.poly, zero, scale, level)

    def _mod_raise(self, a: Ciphertext, level: int) -> Ciphertext:
        """Lift the centred ``q0`` residues of ``a`` onto the chain up to ``level``."""
        ctx = self.ctx
        q0 = ctx.q_chain[0]
        half = q0 // 2
        chain = list(range(level + 1))

        def lift(poly: RnsPoly) -> RnsPoly:
            residues = poly.to_coeff().data[0]
            centred = ((residues + half) % q0) - half
            return RnsPoly.from_small_coeffs(ctx, centred, chain).to_ntt()

        return Ciphertext(lift(a.c0), lift(a.c1), a.scale, level)

    def _mul_by_i(self, a: Ciphertext) -> Ciphertext:
        """Multiply every slot by ``i`` — exactly and for free.

        In this packing ``ζ_j^{N/2} = i`` for every slot ``j``, so the
        monomial product ``X^{N/2}·c(X)`` (a negacyclic coefficient rotation:
        the wrapped half negates) multiplies all slot values by ``i`` with no
        level, scale or noise cost.
        """
        ctx = self.ctx
        m = ctx.n // 2

        def rot(poly: RnsPoly) -> RnsPoly:
            coeff = poly.to_coeff()
            rows = coeff.data
            primes = np.array(
                [ctx.all_primes[i] for i in coeff.prime_indices], dtype=np.int64
            )[:, None]
            out = np.empty_like(rows)
            out[:, m:] = rows[:, :m]
            out[:, :m] = (primes - rows[:, m:]) % primes
            return RnsPoly(ctx, out, coeff.prime_indices, is_ntt=False).to_ntt()

        return Ciphertext(rot(a.c0), rot(a.c1), a.scale, a.level)

    # ------------------------------------------------------------------
    # keyswitching (grouped hybrid: α chain primes per digit)
    # ------------------------------------------------------------------
    def _keyswitch(self, d: RnsPoly, family, level: int) -> tuple:
        """Switch poly ``d`` (chain basis at ``level``) through a
        :class:`KeySwitchFamily`; returns the (c0, c1) contribution.

        Digits ``D_k = [d]_{G_k}`` (one per group of α chain primes) are
        smaller than ``P``, so after multiplying by the per-digit keys and
        dividing by ``P`` the added noise is ``Σ_k D_k e_k / P`` — a few
        bits.
        """
        return self._apply_keyswitch_keys(
            self._hoist_decompose(d, level), family, level
        )

    def _hoist_decompose(self, d: RnsPoly, level: int) -> np.ndarray:
        """Keyswitch digits of ``d`` in NTT form over the extended basis.

        Returns shape ``(ceil((level+1)/α) digits, α+level+1 basis rows,
        N)``.  This is the expensive half of a keyswitch (inverse NTTs,
        the digit lift's base conversion, forward NTTs) and is
        *independent of the Galois element*: the centred digit
        decomposition commutes exactly with the automorphism (both act
        coefficient-wise / by signed coefficient permutation, and odd
        primes make the centred range symmetric), and the automorphism
        is a pure NTT-slot permutation
        (:meth:`CkksContext.galois_ntt_permutation`).  Computing it once
        and permuting per rotation is rotation *hoisting*.

        The digit pipeline itself is a kernel-backend concern
        (:meth:`KernelBackend.hoist_decompose`).
        """
        return self.ctx.backend.hoist_decompose(d.to_coeff().data, level)

    def _apply_keyswitch_keys(
        self, digits: np.ndarray, family, level: int, perm: np.ndarray | None = None
    ) -> tuple:
        """Inner product of decomposed digits with a key family, then the
        divide-by-``P`` descent back onto the chain basis.

        ``perm`` (an NTT-slot permutation) is applied to every digit first —
        this is the per-rotation half of a hoisted Galois application.
        The arithmetic runs in the kernel backend against the level's
        slice of the family's key tensors.
        """
        ctx = self.ctx
        key_b, key_a = family.stacked_at_level(level)
        rows_b, rows_a = ctx.backend.apply_keyswitch(digits, key_b, key_a, level, perm=perm)
        chain = list(range(level + 1))
        return (
            RnsPoly(ctx, rows_b, chain, is_ntt=True),
            RnsPoly(ctx, rows_a, chain, is_ntt=True),
        )

    # ------------------------------------------------------------------
    # rotations
    # ------------------------------------------------------------------
    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        """Rotate slot vector left by ``steps`` (requires the Galois key)."""
        g = pow(5, steps % self.ctx.slots, 2 * self.ctx.n)
        return self._apply_galois(a, g)

    def rotate_many(self, a: Ciphertext, steps) -> dict:
        """Hoisted rotations: one keyswitch decomposition, many Galois maps.

        Returns ``{step: rotated ciphertext}`` for every requested step.
        The expensive digit decomposition of ``c1``
        (:meth:`_hoist_decompose`) is shared across all steps; each
        rotation then only permutes the NTT-form digits, takes the inner
        product with its Galois keys and divides by ``P`` —
        the Halevi-Shoup hoisting structure.  :meth:`rotate` is the
        one-step case of the same path, so the two are bit-identical.

        Trivial steps (multiples of the slot count) come back as copies
        without touching the decomposition.
        """
        steps = list(steps)
        elements = [pow(5, step % self.ctx.slots, 2 * self.ctx.n) for step in steps]
        rotated = iter(self._galois_many(a, [g for g in elements if g != 1]))
        return {
            step: a.copy() if g == 1 else next(rotated)
            for step, g in zip(steps, elements)
        }

    def conjugate(self, a: Ciphertext) -> Ciphertext:
        """Complex-conjugate the slots (element 2N-1)."""
        return self._apply_galois(a, 2 * self.ctx.n - 1)

    def _apply_galois(self, a: Ciphertext, g: int) -> Ciphertext:
        if g == 1:
            return a.copy()
        return self._galois_many(a, [g])[0]

    def sum_rotated(self, terms: dict) -> Ciphertext:
        """``Σ_g rot(terms[g], g)`` for a ``{step: ciphertext}`` mapping,
        paying one divide-by-``P`` descent for the whole sum.

        Each nontrivial term's ``c1`` is decomposed and multiplied into
        its Galois keys like a :meth:`rotate`, but the key inner products
        are accumulated **in the extended basis** (they are linear) and
        descend once; trivial steps (multiples of the slot count) are
        plain additions.  A single-term call is bit-identical to
        :meth:`rotate`; a many-term call equals the ``rotate`` + ``add``
        spelling up to the rounding of the descents it does not perform.

        Terms must agree in level and scale exactly as :meth:`add`
        requires; a missing Galois key raises before any ring work.
        """
        first = self._check_sum_terms(terms)
        elements = [pow(5, step % self.ctx.slots, 2 * self.ctx.n) for step in terms]
        self._require_galois_keys(g for g in elements if g != 1)
        ctx, level = self.ctx, first.level
        backend = ctx.backend
        c0 = c1 = acc = None
        for g, ct in zip(elements, terms.values()):
            if g == 1:
                c0 = ct.c0 if c0 is None else c0 + ct.c0
                c1 = ct.c1 if c1 is None else c1 + ct.c1
                continue
            perm = ctx.galois_ntt_permutation(g)
            part = backend.keyswitch_inner_product(
                self._hoist_decompose(ct.c1, level),
                *self.keys.galois[g].stacked_at_level(level),
                level,
                perm=perm,
            )
            acc = part if acc is None else backend.modadd(
                acc, part, ctx.keyswitch_basis(level)
            )
            c0g = RnsPoly(ctx, ct.c0.to_ntt().data[:, perm], ct.c0.prime_indices, True)
            c0 = c0g if c0 is None else c0 + c0g
        if acc is None:
            return Ciphertext(c0.copy(), c1.copy(), first.scale, level)
        chain = list(range(level + 1))
        ks0, ks1 = (
            RnsPoly(ctx, rows, chain, is_ntt=True)
            for rows in backend.keyswitch_descent(acc, level)
        )
        return Ciphertext(
            c0 + ks0, ks1 if c1 is None else c1 + ks1, first.scale, level
        )

    def _check_sum_terms(self, terms: dict):
        """The first term of a :meth:`sum_rotated`, once every other term
        is known to add to it."""
        if not terms:
            raise ValueError("sum_rotated needs at least one term")
        first, *rest = terms.values()
        for ct in rest:
            self._check_add(first, ct)
        return first

    def _require_galois_keys(self, elements) -> None:
        for g in elements:
            if g not in self.keys.galois:
                raise KeyError(
                    f"no Galois key for element {g}; pass the step to "
                    "keygen(galois_steps=...)"
                )

    def _galois_many(self, a: Ciphertext, elements: list) -> list:
        """``φ_g(a)`` for each nontrivial Galois element, entirely in the
        NTT domain: ``c1`` is decomposed once, and each element permutes
        ``c0`` and the digits by its NTT-slot permutation before the key
        inner product."""
        if not elements:
            return []
        self._require_galois_keys(elements)
        c0 = a.c0.to_ntt()
        digits = self._hoist_decompose(a.c1, a.level)
        out = []
        for g in elements:
            perm = self.ctx.galois_ntt_permutation(g)
            ks0, ks1 = self._apply_keyswitch_keys(
                digits, self.keys.galois[g], a.level, perm=perm
            )
            c0g = RnsPoly(self.ctx, c0.data[:, perm], c0.prime_indices, is_ntt=True)
            out.append(Ciphertext(c0g + ks0, ks1, a.scale, a.level))
        return out
