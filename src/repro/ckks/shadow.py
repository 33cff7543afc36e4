"""Shadow evaluation: run the real executors over ``(level, scale)`` values.

A :class:`ShadowEvaluator` goes wherever a
:class:`~repro.ckks.evaluator.CkksEvaluator` goes — under a
:class:`~repro.ckks.instrumentation.CountingEvaluator`, under a
:class:`repro.obs.TracingEvaluator`, into
:meth:`repro.fhe.network.EncryptedNetwork.forward_shards` via ``ev=`` —
but its ciphertexts carry no ring data and it holds no keys.  Handed a
:class:`~repro.ckks.encoder.PlaintextStore` it adds every raw plaintext
it meets to it, at the ``(level, scale)`` a real evaluator would look
it up at (how :class:`repro.fhe.network.EncryptedNetwork` encodes its
constants at compile); without one it encodes nothing.  Because the
executors, the level/scale rules and the counting proxy are the *same
code* that runs a real forward, the op counts, the per-layer levels and
the output ``(level, scale)`` of a shadow run equal the real run's by
construction: the cost model is the executor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.context import CkksContext
from repro.ckks.encoder import Plaintext
from repro.ckks.evaluator import CkksEvaluator

__all__ = ["ShadowCiphertext", "ShadowEvaluator"]


@dataclass
class ShadowCiphertext:
    """The ``(level, scale)`` of a ciphertext, without the ciphertext."""

    level: int
    scale: float

    def copy(self) -> "ShadowCiphertext":
        return ShadowCiphertext(self.level, self.scale)


class ShadowEvaluator(CkksEvaluator):
    """The evaluator's level/scale arithmetic with the ring left out.

    Every primitive applies exactly the level and scale update — and
    raises exactly the ``ValueError`` — of its
    :class:`~repro.ckks.evaluator.CkksEvaluator` counterpart; the
    admissibility checks and the composites (``square``, ``mul_rescale``,
    ``mul_plain_rescale``, ``align_to``) are inherited, not restated.
    There are no keys (any rotation step is admissible) and no op
    booking: wrap it in a ``CountingEvaluator`` to count.
    :attr:`plaintexts` is ``None`` unless set to a
    :class:`~repro.ckks.encoder.PlaintextStore`: then every raw value
    passed to ``mul_plain`` / ``add_plain`` is added to it exactly where
    the real evaluator would look it up — the ring work of a shadow run
    is then those encodes alone.

    >>> from repro.ckks import CkksContext, CkksParams
    >>> from repro.ckks.instrumentation import CountingEvaluator
    >>> ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=3))
    >>> ev = CountingEvaluator(ShadowEvaluator(ctx))
    >>> x = ev.encrypt(None)
    >>> y = ev.mul_rescale(x, ev.rotate(x, 1))
    >>> y.level, y.scale == ctx.canonical_scale(2)
    (2, True)
    >>> dict(ev.counts)
    {'encrypt': 1, 'rotate': 1, 'mul': 1, 'rescale': 1}
    >>> ev.add(x, y)
    Traceback (most recent call last):
        ...
    ValueError: level mismatch: 3 vs 2 (mod_switch first)
    """

    def __init__(self, ctx: CkksContext):
        self.ctx = ctx
        self.plaintexts = None

    # -- encrypt / decrypt ---------------------------------------------
    def encrypt(self, values, level: int | None = None, scale: float | None = None):
        return ShadowCiphertext(
            self.ctx.max_level if level is None else level,
            float(self.ctx.scale if scale is None else scale),
        )

    def decrypt(self, ct, num_values: int | None = None) -> np.ndarray:
        return np.zeros(self.ctx.slots if num_values is None else num_values)

    def _trivial_encrypt(self, values, level: int, scale: float):
        return ShadowCiphertext(level, scale)

    # -- additive ops ---------------------------------------------------
    def add(self, a, b):
        self._check_add(a, b)
        return ShadowCiphertext(a.level, a.scale)

    sub = add

    def negate(self, a):
        return a.copy()

    def _plain_scale(self, value, level: int, scale: float) -> float:
        """The scale ``value`` multiplies in: its own for a pre-encoded
        (and here level-checked) :class:`Plaintext`, else ``scale`` — a
        raw value is added to :attr:`plaintexts`, when there is one."""
        if isinstance(value, Plaintext):
            return self._as_plaintext(value, level, scale).scale
        if self.plaintexts is not None:
            self.plaintexts.add(value, level, scale)
        return float(scale)

    def add_plain(self, a, value):
        self._check_add_plain(a, self._plain_scale(value, a.level, a.scale))
        return a.copy()

    # -- multiplicative ops ---------------------------------------------
    def mul_plain(self, a, value, scale: float | None = None):
        pt_scale = self._plain_scale(
            value, a.level, scale if scale is not None else a.scale
        )
        return ShadowCiphertext(a.level, a.scale * pt_scale)

    def mul(self, a, b):
        self._check_mul(a, b)
        return ShadowCiphertext(a.level, a.scale * b.scale)

    # -- rescale / mod switch -------------------------------------------
    def rescale(self, a):
        if a.level < 1:
            raise ValueError("cannot rescale at level 0")
        return ShadowCiphertext(a.level - 1, a.scale / self.ctx.q_chain[a.level])

    def mod_switch_to(self, a, level: int):
        if level > a.level:
            raise ValueError(f"cannot mod-switch up ({a.level} -> {level})")
        return a if level == a.level else ShadowCiphertext(level, a.scale)

    def _mod_raise(self, a, level: int):
        return ShadowCiphertext(level, a.scale)

    # -- Galois maps ----------------------------------------------------
    def rotate_many(self, a, steps) -> dict:
        return {step: a.copy() for step in steps}

    def _apply_galois(self, a, g: int):
        return a.copy()

    def sum_rotated(self, terms: dict):
        return self._check_sum_terms(terms).copy()

    def _mul_by_i(self, a):
        return a.copy()
