"""CKKS evaluator: encrypt/decrypt, add, multiply, rescale, relinearise,
mod-switch, rotate and conjugate.

Conventions
-----------
* A :class:`Ciphertext` is ``(c0, c1)`` in NTT domain over the chain primes
  ``q_0..q_level`` with a tracked float ``scale``; decryption computes
  ``c0 + c1·s``.  Both halves live in one ``(2, level+1, n)`` array, so
  every additive op, plaintext product, tensor and rescale is one
  kernel-backend call over the pair.
* Every ciphertext-ciphertext or ciphertext-plaintext multiply doubles the
  scale; :meth:`rescale` divides by the level's top prime and drops it —
  one *level* consumed (the paper's multiplication-depth currency).
* Relinearisation / rotation use grouped hybrid keyswitching (α chain
  primes per digit, α special primes, approximate RNS base conversion —
  :mod:`repro.ckks.keys`): the backend's
  :meth:`~repro.ckks.backend.KernelBackend.hoist_decompose` then
  :meth:`~repro.ckks.backend.KernelBackend.apply_keyswitch`.  Every
  backend pipeline takes NTT rows in and gives NTT rows out, so the
  evaluator makes no NTT call of its own: a rescale and the keyswitch
  descent are ModDowns, the digit decomposition and
  :meth:`CkksEvaluator._mod_raise` ModUps
  (:meth:`~repro.ckks.backend.KernelBackend.mod_up`,
  :meth:`~repro.ckks.backend.KernelBackend.mod_down`).
"""

from __future__ import annotations

import numpy as np

from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder, Plaintext, PlaintextStore
from repro.ckks.keys import KeyChain, _sample_error, _sample_ternary

__all__ = ["Ciphertext", "CkksEvaluator"]

#: relative scale mismatch tolerated by addition (primes are only ≈ Δ)
_SCALE_RTOL = 0.05


class Ciphertext:
    """A CKKS ciphertext at some chain level: ``data`` holds ``(c0, c1)``
    as one ``(2, level+1, n)`` NTT-form array.  Only
    :class:`CkksEvaluator` builds one."""

    __slots__ = ("ctx", "data", "scale", "level")

    def __init__(self, ctx: CkksContext, data: np.ndarray, scale: float, level: int):
        self.ctx = ctx
        self.data = data
        self.scale = scale
        self.level = level

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.ctx, self.data.copy(), self.scale, self.level)


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
        ctx = self.ctx
        level = ctx.max_level if level is None else level
        pt = self.encoder.encode(values, level, scale)
        chain = list(range(level + 1))
        n, std, backend = ctx.n, ctx.params.error_std, ctx.backend
        noise = np.stack([
            _sample_ternary(n, self._rng),
            _sample_error(n, std, self._rng),
            _sample_error(n, std, self._rng),
        ])
        u, e0, e1 = backend.lift(noise, chain)
        pk = self.keys.public.data[:, : level + 1]
        # (pk_b·u + e0 + m, pk_a·u + e1)
        err = np.stack([backend.modadd(e0, pt.data, chain), e1])
        data = backend.modadd(backend.modmul(pk, u, chain), err, chain)
        return Ciphertext(ctx, data, pt.scale, level)

    def decrypt(self, ct: Ciphertext, num_values: int | None = None) -> np.ndarray:
        """Decrypt to (real) slot values: decode ``c0 + c1·s``."""
        backend, chain = self.ctx.backend, range(ct.level + 1)
        s = self.keys.secret.data[: ct.level + 1]
        msg = backend.modadd(ct.data[0], backend.modmul(ct.data[1], s, chain), chain)
        return self.encoder.decode(msg, ct.scale, num_values)

    # ------------------------------------------------------------------
    # additive ops
    # ------------------------------------------------------------------
    @staticmethod
    def _check_terms(level_a: int, scale_a: float, level_b: int, scale_b: float) -> None:
        if level_a != level_b:
            raise ValueError(f"level mismatch: {level_a} vs {level_b} (mod_switch first)")
        if abs(scale_a - scale_b) > _SCALE_RTOL * max(scale_a, scale_b):
            raise ValueError(f"scale mismatch: {scale_a:.3g} vs {scale_b:.3g}")

    def _check_add(self, a: Ciphertext, b: Ciphertext) -> None:
        self._check_terms(a.level, a.scale, b.level, b.scale)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_add(a, b)
        data = self.ctx.backend.modadd(a.data, b.data, range(a.level + 1))
        return Ciphertext(self.ctx, data, a.scale, a.level)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_add(a, b)
        data = self.ctx.backend.modsub(a.data, b.data, range(a.level + 1))
        return Ciphertext(self.ctx, data, a.scale, a.level)

    def negate(self, a: Ciphertext) -> Ciphertext:
        data = self.ctx.backend.modneg(a.data, range(a.level + 1))
        return Ciphertext(self.ctx, data, a.scale, a.level)

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
            if value.data.shape[0] != level + 1:
                raise ValueError(
                    f"plaintext encoded for {value.data.shape[0] - 1} "
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
        c0 = self.ctx.backend.modadd(a.data[0], pt.data, range(a.level + 1))
        return Ciphertext(self.ctx, np.stack([c0, a.data[1]]), a.scale, a.level)

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
        # one product over both halves: the plaintext broadcasts
        data = self.ctx.backend.modmul(a.data, pt.data, range(a.level + 1))
        return Ciphertext(self.ctx, data, a.scale * pt.scale, a.level)

    def mul_plain_sum(self, terms) -> Ciphertext:
        """``Σ_k ct_k ⊙ pt_k`` over ``(ciphertext, value)`` pairs — a
        matvec's inner sum, as one kernel-backend call.

        Each value is what :meth:`mul_plain` takes at its ciphertext's
        scale (raw, resolved through :attr:`plaintexts`, or a pre-encoded
        :class:`Plaintext`), and the products must add as :meth:`add`
        requires; the sum carries the first product's scale and is
        byte-identical to the ``mul_plain`` + ``add`` spelling.  A held
        entry reaches the backend as its coefficients and is lifted
        inside the fused step.  Every mismatch raises before any ring
        work.
        """
        terms = list(terms)
        level, scale = self._check_plain_sum(terms)
        plains = [self._plain_rows(value, level, ct.scale) for ct, value in terms]
        data = self.ctx.backend.mul_plain_sum(
            [ct.data for ct, _ in terms], plains, range(level + 1)
        )
        return Ciphertext(self.ctx, data, scale, level)

    def _check_plain_sum(self, terms: list) -> tuple:
        """The ``(level, scale)`` of a :meth:`mul_plain_sum`, once every
        :class:`Plaintext` fits its ciphertext's level and every product
        adds to the first (a raw value multiplies in its ciphertext's
        scale, a ``Plaintext`` its own)."""
        if not terms:
            raise ValueError("mul_plain_sum needs at least one term")
        level, scale = terms[0][0].level, None
        for ct, value in terms:
            pt_scale = ct.scale
            if isinstance(value, Plaintext):
                pt_scale = self._as_plaintext(value, ct.level, ct.scale).scale
            product = ct.scale * pt_scale
            scale = product if scale is None else scale
            self._check_terms(level, scale, ct.level, product)
        return level, scale

    def _plain_rows(self, value, level: int, scale: float) -> np.ndarray:
        """What :meth:`mul_plain_sum` hands the backend for ``value``:
        NTT rows, or a held entry's int64 coefficients to lift."""
        if isinstance(value, Plaintext):
            return value.data
        entry = self.plaintexts.resolve(value, level, scale)
        if isinstance(entry, Plaintext):
            return entry.data
        if entry.dtype == object:  # huge scales: the encoder reduces Python ints
            return self.encoder.lift(entry, level, scale).data
        return entry

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext-ciphertext multiply (+ relinearisation)."""
        self._check_mul(a, b)
        backend, chain = self.ctx.backend, range(a.level + 1)
        d = backend.tensor(a.data, b.data, chain)  # (d0, d1, d2)
        ks = backend.apply_keyswitch(
            backend.hoist_decompose(d[2], a.level),
            *self.keys.relin.stacked_at_level(a.level),
            a.level,
        )
        data = backend.modadd(d[:2], ks, chain)
        return Ciphertext(self.ctx, data, a.scale * b.scale, a.level)

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
        data = ctx.backend.rescale(a.data, level)  # both halves, one descent
        return Ciphertext(ctx, data, a.scale / ctx.q_chain[level], level - 1)

    def mod_switch_to(self, a: Ciphertext, level: int) -> Ciphertext:
        """Drop chain primes without dividing (scale unchanged)."""
        if level > a.level:
            raise ValueError(f"cannot mod-switch up ({a.level} -> {level})")
        if level == a.level:
            return a
        return Ciphertext(self.ctx, a.data[:, : level + 1].copy(), a.scale, level)

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
        data = np.stack([pt.data, np.zeros_like(pt.data)])
        return Ciphertext(self.ctx, data, scale, level)

    def _mod_raise(self, a: Ciphertext, level: int) -> Ciphertext:
        """Lift the centred ``q0`` residues of ``a`` onto the chain up to
        ``level``: one ModUp from ``q_0``."""
        ctx = self.ctx
        conv = ctx._conversions(level).mod_raise
        data = ctx.backend.mod_up(a.data[:, :1], conv)[:, 0]
        return Ciphertext(ctx, data, a.scale, level)

    def _mul_by_i(self, a: Ciphertext) -> Ciphertext:
        """Multiply every slot by ``i`` — exactly and for free.

        In this packing ``ζ_j^{N/2} = i`` for every slot ``j``, so the
        monomial product ``X^{N/2}·c(X)`` (a negacyclic coefficient rotation:
        the wrapped half negates) multiplies all slot values by ``i`` with no
        level, scale or noise cost.  The NTT is a ring isomorphism, so that
        product is one pointwise multiply by the lifted monomial.
        """
        ctx = self.ctx
        backend, chain = ctx.backend, range(a.level + 1)
        monomial = np.zeros(ctx.n, dtype=np.int64)
        monomial[ctx.n // 2] = 1
        data = backend.modmul(a.data, backend.lift(monomial, chain), chain)
        return Ciphertext(ctx, data, a.scale, a.level)

    # ------------------------------------------------------------------
    # rotations
    # ------------------------------------------------------------------
    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        """Rotate slot vector left by ``steps`` (requires the Galois key)."""
        return self._apply_galois(a, self.ctx.galois_element(steps))

    def rotate_many(self, a: Ciphertext, steps) -> dict:
        """Hoisted rotations: one keyswitch decomposition, many Galois maps.

        Returns ``{step: rotated ciphertext}`` for every requested step.
        The expensive digit decomposition of ``c1`` (the backend's
        ``hoist_decompose``) is shared across all steps; each
        rotation then only permutes the NTT-form digits, takes the inner
        product with its Galois keys and divides by ``P`` —
        the Halevi-Shoup hoisting structure.  :meth:`rotate` is the
        one-step case of the same path, so the two are bit-identical.

        Trivial steps (multiples of the slot count) come back as copies
        without touching the decomposition.
        """
        steps = list(steps)
        elements = [self.ctx.galois_element(step) for step in steps]
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
        elements = [self.ctx.galois_element(step) for step in terms]
        self._require_galois_keys(g for g in elements if g != 1)
        ctx, level = self.ctx, first.level
        backend, chain = ctx.backend, range(level + 1)
        fixed = c0 = acc = None  # trivial terms (both halves); moved c0s
        for g, ct in zip(elements, terms.values()):
            if g == 1:
                fixed = ct.data if fixed is None else backend.modadd(fixed, ct.data, chain)
                continue
            perm = ctx.galois_ntt_permutation(g)
            part = backend.keyswitch_inner_product(
                backend.hoist_decompose(ct.data[1], level),
                *self.keys.galois[g].stacked_at_level(level),
                level,
                perm=perm,
            )
            acc = part if acc is None else backend.modadd(
                acc, part, ctx.keyswitch_basis(level)
            )
            c0g = ct.data[0][:, perm]
            c0 = c0g if c0 is None else backend.modadd(c0, c0g, chain)
        if acc is None:
            return Ciphertext(ctx, fixed.copy(), first.scale, level)
        data = backend.keyswitch_descent(acc, level)  # (ks0, ks1), ours to write
        data[0] = backend.modadd(c0, data[0], chain)
        if fixed is not None:
            data = backend.modadd(fixed, data, chain)
        return Ciphertext(ctx, data, first.scale, level)

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
        ctx, backend, chain = self.ctx, self.ctx.backend, range(a.level + 1)
        digits = backend.hoist_decompose(a.data[1], a.level)
        out = []
        for g in elements:
            perm = ctx.galois_ntt_permutation(g)
            data = backend.apply_keyswitch(
                digits, *self.keys.galois[g].stacked_at_level(a.level), a.level, perm=perm
            )
            data[0] = backend.modadd(a.data[0][:, perm], data[0], chain)
            out.append(Ciphertext(ctx, data, a.scale, a.level))
        return out
