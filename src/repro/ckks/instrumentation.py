"""Operation accounting for CKKS evaluators.

Wraps a :class:`~repro.ckks.evaluator.CkksEvaluator` and counts every
homomorphic operation — the raw material of the analytic latency model and
of tests asserting that the depth-optimal evaluator performs exactly the
op counts the paper's cost analysis assumes.

Also hosts the :func:`span` tracing hook the encrypted executors call at
layer/executor boundaries.  An evaluator that carries a ``tracer``
attribute (:class:`repro.obs.TracingEvaluator`) gets a real span; every
other evaluator gets the shared no-op :data:`NULL_SPAN`, so tracing is
a single failed attribute lookup per *span site* (per layer, not per
homomorphic op) when disabled — and never touches ciphertext contents
either way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.ckks.evaluator import Ciphertext, CkksEvaluator

__all__ = ["CountingEvaluator", "span", "NULL_SPAN"]


class _NullSpan:
    """Inert stand-in for :class:`repro.obs.Span` when no tracer is attached.

    ``__enter__`` returns itself so call sites can unconditionally invoke
    the recording methods; all of them discard their arguments.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def ct_entry(self, ct) -> None:
        """No-op twin of :meth:`repro.obs.Span.ct_entry`."""

    def ct_exit(self, ct, level_slack: int | None = None) -> None:
        """No-op twin of :meth:`repro.obs.Span.ct_exit`."""

    def set(self, **attrs) -> None:
        """No-op twin of :meth:`repro.obs.Span.set`."""


#: the shared do-nothing span returned when ``ev`` has no tracer
NULL_SPAN = _NullSpan()


def span(ev, name: str, kind: str = "span", **attrs):
    """Open a tracing span on ``ev``'s attached tracer, if any.

    The instrumented executors (``repro.fhe.network``, ``repro.fhe.linear``,
    ``repro.ckks.poly_eval``) call this at their boundaries::

        with span(ev, "matvec:shards", kind="matvec") as sp:
            sp.ct_entry(ct)
            ...
            sp.ct_exit(out)

    With a bare :class:`~repro.ckks.evaluator.CkksEvaluator` (or a
    :class:`CountingEvaluator`) this returns :data:`NULL_SPAN` and the
    whole block is observationally free.
    """
    tracer = getattr(ev, "tracer", None)
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, kind=kind, **attrs)

_COUNTED = (
    "encrypt",
    "decrypt",
    "add",
    "sub",
    "negate",
    "add_plain",
    "mul",
    "mul_plain",
    "rescale",
    "mod_switch_to",
    "rotate",
    "conjugate",
)


class CountingEvaluator:
    """Proxy evaluator recording per-op counts.

    Drop-in for any code that takes a ``CkksEvaluator`` (duck-typed):

    >>> counting = CountingEvaluator(ev)          # doctest: +SKIP
    >>> eval_paf_relu(counting, ct, paf)          # doctest: +SKIP
    >>> counting.counts["mul"]                    # doctest: +SKIP
    """

    def __init__(self, inner: CkksEvaluator):
        self._inner = inner
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.counts.clear()

    @property
    def nonscalar_mult_count(self) -> int:
        """Ciphertext×ciphertext multiplications (squarings included).

        The currency of polynomial-evaluation cost (each one pays a
        relinearisation keyswitch); the Paterson–Stockmeyer op-count
        regression suite pins this against
        :attr:`repro.ckks.poly_plan.PolyPlan.nonscalar_mults`.
        """
        return self.counts["mul"]

    @property
    def keyswitch_count(self) -> int:
        """Total keyswitch (Galois/relin) applications — the dominant cost.

        Hoisted rotations still pay the key inner product + special-prime
        descent per Galois element, so each counts as one keyswitch; the
        shared digit decomposition is booked separately under
        ``hoist_decompose``.
        """
        c = self.counts
        return c["rotate"] + c["rotate_hoisted"] + c["conjugate"] + c["mul"]

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in _COUNTED and callable(attr):
            def wrapped(*args, __name=name, __attr=attr, **kwargs):
                self.counts[__name] += 1
                return __attr(*args, **kwargs)

            return wrapped
        return attr

    def rotate_many(self, a: Ciphertext, steps) -> dict:
        """Hoisted rotations: one ``hoist_decompose`` plus one
        ``rotate_hoisted`` per nontrivial step (trivial steps are free
        copies, exactly as the inner evaluator treats them)."""
        steps = list(steps)
        slots = self._inner.ctx.slots
        nontrivial = sum(1 for s in steps if s % slots != 0)
        out = self._inner.rotate_many(a, steps)  # may raise before any work
        if nontrivial:
            self.counts["hoist_decompose"] += 1
            self.counts["rotate_hoisted"] += nontrivial
        return out

    # Composite convenience methods call the inner evaluator's primitives
    # directly, which would bypass the proxy; count their pieces here.
    def square(self, a: Ciphertext) -> Ciphertext:
        self.counts["mul"] += 1
        return self._inner.square(a)

    def mul_rescale(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["mul"] += 1
        self.counts["rescale"] += 1
        return self._inner.mul_rescale(a, b)

    def mul_plain_rescale(self, a: Ciphertext, value) -> Ciphertext:
        self.counts["mul_plain"] += 1
        self.counts["rescale"] += 1
        return self._inner.mul_plain_rescale(a, value)

    # The inner align_to calls the inner evaluator's primitives, bypassing
    # the proxy: book the free mod switch or the one drift correction
    # (plaintext mult + rescale) it is about to perform.
    def align_to(self, a: Ciphertext, level: int, scale: float):
        if a.level > level:
            if a.scale == scale:
                self.counts["mod_switch_to"] += 1
            else:
                self.counts["align_correction"] += 1
                self.counts["mul_plain"] += 1
                self.counts["rescale"] += 1
        return self._inner.align_to(a, level, scale)
