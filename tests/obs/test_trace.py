"""Tracer mechanics: span trees, op deltas, export schema, null spans.

All pure-Python — no cryptography; the crypto-facing guarantees
(non-perturbation, op-delta balance) live in ``test_differential.py``.
"""

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.ckks.instrumentation import NULL_SPAN, span
from repro.obs import TRACE_FORMAT, Tracer


def fake_ct(level=5, scale=2.0**40):
    return SimpleNamespace(level=level, scale=scale)


class TestSpanTree:
    def test_nesting(self):
        t = Tracer()
        with t.span("root"):
            with t.span("a"):
                with t.span("a1"):
                    pass
            with t.span("b"):
                pass
        assert [s.name for s in t.iter_spans()] == ["root", "a", "a1", "b"]
        (root,) = t.roots
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_sibling_roots(self):
        t = Tracer()
        with t.span("first"):
            pass
        with t.span("second"):
            pass
        assert [r.name for r in t.roots] == ["first", "second"]

    def test_durations_nest(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert outer.start_s <= inner.start_s
        assert (
            inner.start_s + inner.duration_s
            <= outer.start_s + outer.duration_s
        )

    def test_leaked_inner_span_unwinds(self):
        # closing an outer span pops any inner span left open, so a
        # mid-layer exception can't corrupt the next batch's tree
        t = Tracer()
        outer = t.span("outer")
        outer.__enter__()
        t.span("leaked").__enter__()
        outer.__exit__(None, None, None)
        with t.span("next"):
            pass
        assert [r.name for r in t.roots] == ["outer", "next"]

    def test_reset_drops_spans(self):
        t = Tracer()
        with t.span("gone"):
            pass
        t.reset()
        assert t.roots == []
        with t.span("kept"):
            pass
        assert [r.name for r in t.roots] == ["kept"]

    def test_attrs_and_set(self):
        t = Tracer()
        with t.span("s", kind="layer", layer=3) as sp:
            sp.set(extra="x")
        assert sp.kind == "layer"
        assert sp.attrs == {"layer": 3, "extra": "x"}


class TestOpDeltas:
    def test_deltas_diff_live_counter(self):
        counts = Counter()
        t = Tracer(counts=counts)
        counts["rotate"] += 2
        with t.span("outer") as outer:
            counts["rotate"] += 3
            with t.span("inner") as inner:
                counts["mul"] += 1
                counts["rescale"] += 2
        assert inner.ops == {"mul": 1, "rescale": 2}
        # outer includes its own rotations plus everything inner did
        assert outer.ops == {"rotate": 3, "mul": 1, "rescale": 2}
        assert outer.keyswitches == 4
        assert outer.nonscalar_mults == 1

    def test_zero_deltas_omitted(self):
        counts = Counter(rotate=7)
        t = Tracer(counts=counts)
        with t.span("idle") as sp:
            pass
        assert sp.ops == {}


class TestCtState:
    def test_reads_level_and_scale(self):
        t = Tracer()
        state = t.ct_state(fake_ct(level=4, scale=2.0**40))
        assert state["level"] == 4
        assert state["log2_scale"] == pytest.approx(40.0)
        assert "scale_drift" not in state  # no context, no schedule

    def test_shard_list_uses_first(self):
        t = Tracer()
        state = t.ct_state([fake_ct(level=2), fake_ct(level=9)])
        assert state["level"] == 2

    def test_scale_drift_against_schedule(self):
        # the schedule is the context's (CkksContext.canonical_scale)
        ctx = SimpleNamespace(canonical_scale={2: 2.0**40, 1: 2.0**40}.get)
        t = Tracer(ctx=ctx)
        assert t.scheduled_scale(2) == 2.0**40
        assert t.scheduled_scale(1) == 2.0**40
        on = t.ct_state(fake_ct(level=1, scale=2.0**40))
        assert on["scale_drift"] == pytest.approx(0.0)
        off = t.ct_state(fake_ct(level=1, scale=2.0**40 * 1.5))
        assert off["scale_drift"] == pytest.approx(0.5)

    def test_ct_entry_exit_and_slack(self):
        t = Tracer()
        with t.span("layer", kind="layer") as sp:
            sp.ct_entry(fake_ct(level=5))
            sp.ct_exit(fake_ct(level=4), level_slack=2)
        assert sp.entry["level"] == 5
        assert sp.exit["level"] == 4
        assert sp.attrs["level_slack"] == 2


class TestExport:
    def build(self):
        counts = Counter()
        t = Tracer(counts=counts)
        with t.span("forward", kind="forward"):
            with t.span("layer00:linear", kind="layer") as sp:
                counts["rotate"] += 4
                sp.ct_entry(fake_ct(level=3))
                sp.ct_exit(fake_ct(level=2), level_slack=1)
        return t

    def test_to_dict_schema(self):
        d = self.build().to_dict(meta={"model": "m"})
        assert d["format"] == TRACE_FORMAT
        assert d["model"] == "m"
        assert [s["id"] for s in d["spans"]] == [0, 1]
        assert [s["parent"] for s in d["spans"]] == [None, 0]
        layer = d["spans"][1]
        assert layer["ops"] == {"rotate": 4}
        assert layer["entry"]["level"] == 3
        assert layer["attrs"]["level_slack"] == 1
        assert layer["duration_ms"] >= 0

    def test_json_round_trip(self, tmp_path):
        t = self.build()
        path = tmp_path / "trace.json"
        t.write_json(path, meta={"model": "m"})
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(t.to_json(meta={"model": "m"}))

    def test_layer_spans_in_execution_order(self):
        t = Tracer()
        with t.span("forward", kind="forward"):
            for i in range(3):
                with t.span(f"layer{i:02d}:linear", kind="layer"):
                    pass
        assert [s.name for s in t.layer_spans()] == [
            "layer00:linear",
            "layer01:linear",
            "layer02:linear",
        ]


class TestNullSpan:
    def test_plain_evaluator_gets_null_span(self):
        # any object without a .tracer attribute — the disabled path
        assert span(object(), "anything") is NULL_SPAN

    def test_null_span_is_inert(self):
        with span(object(), "x", kind="layer") as sp:
            assert sp is NULL_SPAN
            sp.ct_entry(fake_ct())
            sp.ct_exit(fake_ct(), level_slack=0)
            sp.set(a=1)

    def test_traced_evaluator_gets_real_span(self):
        t = Tracer()
        ev = SimpleNamespace(tracer=t)
        with span(ev, "real", kind="layer") as sp:
            assert sp is not NULL_SPAN
        assert [r.name for r in t.roots] == ["real"]
