"""Hierarchical execution tracing for compiled encrypted networks.

A :class:`Tracer` records a tree of :class:`Span` observations.  Each
span carries wall time, the HE-op deltas accumulated while it was open
(keyswitches, nonscalar mults, rescales — diffed from a live
:class:`~repro.ckks.instrumentation.CountingEvaluator` counter), and the
ciphertext state at entry and exit: level, log2(scale), drift of the
actual scale against the canonical per-level schedule
(``S_{l-1} = S_l² / q_l``), and — on layer spans, where the network
knows its static schedule — the remaining *level slack* over what the
downstream layers still need.

Attach a tracer by wrapping any evaluator in :class:`TracingEvaluator`
and passing it where an evaluator goes::

    tev = TracingEvaluator(enc.ev)
    outs = enc.forward_shards(cts, ev=tev)
    trace = tev.tracer.to_dict()            # JSON-ready span tree

The instrumented executor discovers the tracer through the ``tracer``
attribute via :func:`repro.ckks.instrumentation.span`; an evaluator
without one costs a single failed attribute lookup per span site and
nothing else — tracing is provably non-perturbing (the tracer only ever
*reads* ``ct.level`` / ``ct.scale``), which the differential suite in
``tests/obs`` pins down to bit-identical ciphertext outputs.

The tracer itself needs no cryptography, so span mechanics are plainly
testable:

>>> t = Tracer()
>>> with t.span("forward", kind="forward"):
...     with t.span("layer00:linear", kind="layer") as sp:
...         sp.set(layer=0)
>>> [s.name for s in t.iter_spans()]
['forward', 'layer00:linear']
>>> t.roots[0].children[0].attrs["layer"]
0

One tracer serves one thread (the serving layer attaches one per worker
evaluator).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from repro.ckks.instrumentation import keyswitches

__all__ = ["Span", "Tracer", "TracingEvaluator", "TRACE_FORMAT"]

#: schema tag written into every exported trace
TRACE_FORMAT = "repro-trace-v1"


@dataclass
class Span:
    """One node of the trace tree."""

    name: str
    kind: str = "span"
    start_s: float = 0.0            #: seconds since the tracer's epoch
    duration_s: float = 0.0
    ops: dict = field(default_factory=dict)     #: HE-op deltas while open
    entry: dict | None = None       #: ciphertext state at entry
    exit: dict | None = None        #: ciphertext state at exit
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    # managed by the owning tracer
    _tracer: "Tracer | None" = field(default=None, repr=False)
    _counts_at: dict | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self)
        return False

    # ------------------------------------------------------------------
    def ct_entry(self, ct) -> None:
        """Record the ciphertext state entering this span.

        ``ct`` may be a single ciphertext or a shard list (state is read
        from shard 0 — shards travel at one common level and scale).
        """
        self.entry = self._tracer.ct_state(ct)

    def ct_exit(self, ct, level_slack: int | None = None) -> None:
        """Record the ciphertext state leaving this span.

        ``level_slack`` — levels remaining at exit beyond what the
        downstream schedule still needs — is supplied by callers that
        know the static schedule (``EncryptedNetwork`` layer spans).
        """
        self.exit = self._tracer.ct_state(ct)
        if level_slack is not None:
            self.attrs["level_slack"] = int(level_slack)

    def set(self, **attrs) -> None:
        """Attach free-form attributes to the span."""
        self.attrs.update(attrs)

    # ------------------------------------------------------------------
    @property
    def keyswitches(self) -> int:
        """Keyswitch delta of this span
        (:func:`repro.ckks.instrumentation.keyswitches`)."""
        return keyswitches(self.ops)

    @property
    def nonscalar_mults(self) -> int:
        return self.ops.get("mul", 0)

    def to_dict(self, span_id: int, parent_id: int | None) -> dict:
        return {
            "id": span_id,
            "parent": parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_ms": self.start_s * 1e3,
            "duration_ms": self.duration_s * 1e3,
            "ops": dict(self.ops),
            "entry": self.entry,
            "exit": self.exit,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects a span tree for one traced execution.

    ``counts`` is a live mapping of HE-op counters to snapshot at span
    boundaries (a :class:`~collections.Counter` shared with a
    ``CountingEvaluator``); ``ctx`` a
    :class:`~repro.ckks.context.CkksContext` used to compute the
    canonical per-level scale schedule for drift accounting.  Both are
    optional — :class:`TracingEvaluator` wires them up.
    """

    def __init__(self, ctx=None, counts=None):
        self.ctx = ctx
        self._counts = counts
        self.reset()

    def reset(self) -> None:
        """Drop all recorded spans and restart the epoch."""
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "span", **attrs) -> Span:
        """Create a span to be opened with a ``with`` block."""
        return Span(name=name, kind=kind, attrs=dict(attrs), _tracer=self)

    def _open(self, sp: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        if self._counts is not None:
            sp._counts_at = dict(self._counts)
        sp.start_s = time.perf_counter() - self._t0

    def _close(self, sp: Span) -> None:
        sp.duration_s = time.perf_counter() - self._t0 - sp.start_s
        if self._counts is not None:
            before = sp._counts_at or {}
            sp.ops = {
                k: int(v) - before.get(k, 0)
                for k, v in self._counts.items()
                if int(v) != before.get(k, 0)
            }
            sp._counts_at = None
        # unwind to (and past) this span even if inner spans leaked open
        while self._stack:
            if self._stack.pop() is sp:
                break

    # ------------------------------------------------------------------
    # ciphertext state
    # ------------------------------------------------------------------
    def scheduled_scale(self, level: int) -> float | None:
        """Canonical scale at ``level`` (``S_{l-1} = S_l²/q_l`` from Δ at
        the top of the chain); ``None`` without a context."""
        if self.ctx is None:
            return None
        return self.ctx.canonical_scale(level)

    def ct_state(self, ct) -> dict:
        """Level / scale observation of a ciphertext (or shard list)."""
        if isinstance(ct, (list, tuple)):
            ct = ct[0]
        state = {
            "level": int(ct.level),
            "log2_scale": math.log2(ct.scale),
        }
        sched = self.scheduled_scale(ct.level)
        if sched is not None:
            state["scale_drift"] = ct.scale / sched - 1.0
        return state

    # ------------------------------------------------------------------
    # views / export
    # ------------------------------------------------------------------
    def iter_spans(self):
        """All spans, depth-first (parents before children)."""
        stack = list(reversed(self.roots))
        while stack:
            sp = stack.pop()
            yield sp
            stack.extend(reversed(sp.children))

    def layer_spans(self) -> list:
        """The ``kind == "layer"`` spans, in execution order."""
        return [sp for sp in self.iter_spans() if sp.kind == "layer"]

    def to_dict(self, meta: dict | None = None) -> dict:
        """Flatten the span tree into the ``repro-trace-v1`` schema.

        Spans come out depth-first with integer ids and parent links;
        ``meta`` (e.g. ``{"model": "toy_resnet"}``) is merged into the
        trace header alongside the context geometry when available.
        """
        header: dict = {"format": TRACE_FORMAT}
        if self.ctx is not None:
            header["context"] = {
                "n": self.ctx.n,
                "depth": self.ctx.params.depth,
                "scale_bits": self.ctx.params.scale_bits,
                "backend": self.ctx.backend.name,
            }
        if meta:
            header.update(meta)
        spans: list = []

        def walk(sp: Span, parent_id: int | None) -> None:
            span_id = len(spans)
            spans.append(sp.to_dict(span_id, parent_id))
            for child in sp.children:
                walk(child, span_id)

        for root in self.roots:
            walk(root, None)
        header["spans"] = spans
        return header

    def to_json(self, meta: dict | None = None, indent: int = 2) -> str:
        return json.dumps(self.to_dict(meta), indent=indent, sort_keys=False)

    def write_json(self, path, meta: dict | None = None) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(meta))
            fh.write("\n")


class TracingEvaluator:
    """Evaluator proxy that carries a :class:`Tracer`.

    Composes with (and auto-wraps in) a
    :class:`~repro.ckks.instrumentation.CountingEvaluator`, whose live
    counter feeds the per-span HE-op deltas; every evaluator method is
    delegated untouched, so the homomorphic computation is bit-identical
    with or without the wrapper::

        tev = TracingEvaluator(enc.ev)
        enc.forward_shards(cts, ev=tev)
        tev.tracer.write_json("trace.json", meta={"model": "toy_resnet"})

    ``reset()`` (delegated to the counter) does *not* clear the tracer;
    call ``tracer.reset()`` to start a fresh trace.
    """

    def __init__(self, inner, tracer: Tracer | None = None):
        from repro.ckks.instrumentation import CountingEvaluator

        if not isinstance(inner, CountingEvaluator):
            inner = CountingEvaluator(inner)
        self.counting = inner
        if tracer is None:
            tracer = Tracer(ctx=inner.ctx, counts=inner.counts)
        else:
            tracer.ctx = tracer.ctx or inner.ctx
            if tracer._counts is None:
                tracer._counts = inner.counts
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.counting, name)
