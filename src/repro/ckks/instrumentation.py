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

import math
from collections import Counter

import numpy as np

from repro.ckks.backend import KernelBackend
from repro.ckks.evaluator import Ciphertext, CkksEvaluator

__all__ = ["CountingEvaluator", "RowCountingBackend", "keyswitches", "span", "NULL_SPAN"]


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


def keyswitches(ops) -> int:
    """Keyswitch (Galois/relin key inner product) total of an op-counts
    mapping — the dominant cost.

    Hoisted rotations still pay the key inner product per Galois
    element, so each counts as one keyswitch; the shared digit
    decomposition is booked separately under ``hoist_decompose``.
    A keyswitch does not imply a divide-by-``P`` descent of its own:
    the terms of one ``sum_rotated`` each count here and share a
    single descent (the NTT-row meter, :class:`RowCountingBackend`,
    sees that saving; this count does not).
    """
    return sum(ops.get(op, 0) for op in ("rotate", "rotate_hoisted", "conjugate", "mul"))


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
        """:func:`keyswitches` of the counts recorded so far."""
        return keyswitches(self.counts)

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

    def sum_rotated(self, terms: dict) -> Ciphertext:
        """``Σ_g rot(ct_g, g)``: one ``rotate`` per nontrivial step (each
        is a key inner product of its own) and ``len(terms) - 1``
        ``add``s — the books of the ``rotate`` + ``add`` spelling; the
        descent the terms share is not an op of its own."""
        slots = self._inner.ctx.slots
        out = self._inner.sum_rotated(terms)  # may raise before any work
        nontrivial = sum(1 for s in terms if s % slots != 0)
        if nontrivial:
            self.counts["rotate"] += nontrivial
        if len(terms) > 1:
            self.counts["add"] += len(terms) - 1
        return out

    def mul_plain_sum(self, terms) -> Ciphertext:
        """``Σ_k ct_k ⊙ pt_k``: ``len(terms)`` ``mul_plain`` and
        ``len(terms) - 1`` ``add`` — the books of the ``mul_plain`` +
        ``add`` spelling it fuses."""
        terms = list(terms)
        out = self._inner.mul_plain_sum(terms)  # may raise before any work
        self.counts["mul_plain"] += len(terms)
        if len(terms) > 1:
            self.counts["add"] += len(terms) - 1
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


class RowCountingBackend(KernelBackend):
    """The structural meter below the op counts: NTT rows transformed.

    Wraps whichever backend a context has — ``ctx.set_backend(
    RowCountingBackend(ctx.backend))`` — and hands every call unchanged
    to the wrapped backend's own entry point (same calls, same bytes,
    same ``name``).  A call that transforms books its rows from its
    shapes, never from what the wrapped backend does inside it, so the
    books are exact and backend-invariant: they see what
    ``keyswitch_count`` cannot — how many decompositions and
    divide-by-``P`` descents a forward paid.  Every basis change is a
    :meth:`~KernelBackend.mod_up` or a :meth:`~KernelBackend.mod_down`,
    booked from its conversion's shape: per leading entry (a ciphertext
    half, say), a ModUp of ``S`` sources onto ``G`` groups of ``T``
    targets books ``S`` inverse and ``G·T`` forward rows, a ModDown
    ``S`` inverse and ``T`` forward.  So a rescale at level ``l`` books
    one inverse and ``l`` forward rows, a decomposition ``l+1`` inverse
    and one forward row per digit row, a descent α inverse and ``l+1``
    forward:

    >>> from repro.ckks import CkksContext, CkksParams
    >>> ctx = CkksContext(CkksParams(n=64, depth=4, backend="reference"))
    >>> meter = ctx.set_backend(RowCountingBackend(ctx.backend))
    >>> level, alpha = ctx.max_level, ctx.alpha
    >>> level, alpha
    (4, 2)
    >>> _ = meter.rescale(np.zeros((level + 1, ctx.n), dtype=np.int64), level)
    >>> meter.inverse_rows, meter.forward_rows
    (1, 4)
    >>> meter.reset()
    >>> _ = meter.keyswitch_descent(np.zeros((alpha + level + 1, ctx.n), dtype=np.int64), level)
    >>> meter.inverse_rows, meter.forward_rows
    (2, 5)
    """

    def __init__(self, inner: KernelBackend):
        super().__init__(inner.ctx)
        self.inner = inner
        self.name = inner.name
        self.reset()

    def reset(self) -> None:
        self.forward_rows = 0
        self.inverse_rows = 0

    @property
    def ntt_rows(self) -> int:
        return self.forward_rows + self.inverse_rows

    def _forward(self, out):
        """Book every row of ``out`` as forward-transformed."""
        self.forward_rows += out.size // self.ctx.n
        return out

    def ntt_forward(self, rows, prime_indices):
        self.forward_rows += rows.size // self.ctx.n
        return self.inner.ntt_forward(rows, prime_indices)

    def ntt_inverse(self, rows, prime_indices):
        self.inverse_rows += rows.size // self.ctx.n
        return self.inner.ntt_inverse(rows, prime_indices)

    def lift(self, coeffs, prime_indices):
        return self._forward(self.inner.lift(coeffs, prime_indices))

    def mul_plain_sum(self, cts, plains, prime_indices):
        out = self.inner.mul_plain_sum(cts, plains, prime_indices)
        lifted = sum(np.ndim(pt) == 1 for pt in plains)  # (n,) coefficients
        self.forward_rows += lifted * len(prime_indices)
        return out

    def mod_up(self, rows, conv):
        out = self._forward(self.inner.mod_up(rows, conv))
        self.inverse_rows += math.prod(out.shape[:-3]) * len(conv.sources)
        return out

    def mod_down(self, rows, conv):
        out = self._forward(self.inner.mod_down(rows, conv))
        self.inverse_rows += math.prod(out.shape[:-2]) * len(conv.sources)
        return out

    def keyswitch_inner_product(self, digits, key_b, key_a, level, perm=None):
        return self.inner.keyswitch_inner_product(digits, key_b, key_a, level, perm=perm)

    def modadd(self, a, b, prime_indices):
        return self.inner.modadd(a, b, prime_indices)

    def modsub(self, a, b, prime_indices):
        return self.inner.modsub(a, b, prime_indices)

    def modneg(self, a, prime_indices):
        return self.inner.modneg(a, prime_indices)

    def modmul(self, a, b, prime_indices):
        return self.inner.modmul(a, b, prime_indices)

    def modscale(self, a, scalars, prime_indices):
        return self.inner.modscale(a, scalars, prime_indices)

    def tensor(self, a, b, prime_indices):
        return self.inner.tensor(a, b, prime_indices)
