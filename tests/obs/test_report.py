"""Slack reports and the tools/ trace pipeline over synthetic traces.

Builds small hand-rolled ``repro-trace-v1`` dicts (no crypto) and runs
them through :mod:`repro.obs.report` and the stdlib-only CI scripts —
``check_trace``, ``check_slack``, ``trace_to_chrome`` — including the
corrupted variants each gate must reject.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs import format_slack_report, slack_baseline_entry, slack_report

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def make_span(span_id, parent, name, kind, start, dur, ops=None, **extra):
    return {
        "id": span_id,
        "parent": parent,
        "name": name,
        "kind": kind,
        "start_ms": start,
        "duration_ms": dur,
        "ops": ops or {},
        "entry": extra.get("entry"),
        "exit": extra.get("exit"),
        "attrs": extra.get("attrs", {}),
    }


def make_trace(model="toy"):
    """A well-formed two-layer forward trace."""
    def lvl(level):
        return {"level": level, "log2_scale": 40.0, "scale_drift": 0.0}
    return {
        "format": "repro-trace-v1",
        "model": model,
        "spans": [
            make_span(
                0, None, "forward", "forward", 0.0, 10.0,
                ops={"rotate": 4, "mul": 2, "rescale": 3},
                entry=lvl(5), exit=lvl(2),
            ),
            make_span(
                1, 0, "layer00:linear", "layer", 0.5, 4.0,
                ops={"rotate": 4, "rescale": 1},
                entry=lvl(5), exit=lvl(4), attrs={"level_slack": 1},
            ),
            make_span(
                2, 0, "layer01:paf", "layer", 5.0, 4.5,
                ops={"mul": 2, "rescale": 2},
                entry=lvl(4), exit=lvl(2),
                attrs={"level_slack": 0},
            ),
            make_span(
                3, 2, "poly", "poly", 5.5, 3.0,
                ops={"mul": 2, "rescale": 2},
                entry=lvl(4), exit=lvl(2),
            ),
        ],
    }


class TestSlackReport:
    def test_report_fields(self):
        rep = slack_report(make_trace())
        assert rep["model"] == "toy"
        assert [r["name"] for r in rep["layers"]] == [
            "layer00:linear",
            "layer01:paf",
        ]
        assert rep["min_slack"] == 0
        assert rep["tightest"] == ["layer01:paf"]
        assert rep["max_abs_drift"] == 0.0
        paf = rep["layers"][1]
        assert paf["keyswitches"] == 2  # its 2 ct*ct mults relinearise
        assert paf["nonscalar_mults"] == 2
        assert paf["entry_level"] == 4 and paf["exit_level"] == 2

    def test_format_mentions_tightest_layer(self):
        text = format_slack_report(slack_report(make_trace()))
        assert "layer01:paf" in text
        assert "min slack 0" in text

    def test_baseline_entry(self):
        entry = slack_baseline_entry(slack_report(make_trace()))
        assert entry == {
            "layers": {"layer00:linear": 1, "layer01:paf": 0},
            "min_slack": 0,
        }


class TestCheckTrace:
    @pytest.fixture(scope="class")
    def tool(self):
        return load_tool("check_trace")

    def test_valid_trace_passes(self, tool):
        assert tool.check_trace(make_trace()) == []

    def test_bad_format_tag(self, tool):
        assert tool.check_trace({"format": "v0", "spans": []})

    def test_parent_must_be_earlier_span(self, tool):
        trace = make_trace()
        trace["spans"][1]["parent"] = 3
        assert any("parent" in e for e in tool.check_trace(trace))

    def test_child_escaping_parent_interval(self, tool):
        trace = make_trace()
        trace["spans"][3]["duration_ms"] = 100.0
        assert any("escapes" in e for e in tool.check_trace(trace))

    def test_parent_ops_must_cover_children(self, tool):
        trace = make_trace()
        trace["spans"][3]["ops"]["mul"] = 99
        assert any("ops[mul]" in e for e in tool.check_trace(trace))

    def test_level_must_not_increase(self, tool):
        trace = make_trace()
        trace["spans"][1]["exit"]["level"] = 9
        assert any("above entry level" in e for e in tool.check_trace(trace))

    def test_layer_ops_must_balance_root(self, tool):
        trace = make_trace()
        trace["spans"][0]["ops"]["rotate"] = 5  # root claims an extra rotate
        assert any("summed layer ops" in e for e in tool.check_trace(trace))


class TestCheckSlack:
    @pytest.fixture(scope="class")
    def tool(self):
        return load_tool("check_slack")

    def test_slack_of(self, tool):
        model, layers = tool.slack_of(make_trace())
        assert model == "toy"
        assert layers == {"layer00:linear": 1, "layer01:paf": 0}

    def test_drop_is_a_regression(self, tool):
        baseline = {
            "models": {"toy": {"layers": {"layer00:linear": 1}, "min_slack": 1}}
        }
        regressions, improvements = tool.compare(
            baseline, {"toy": {"layer00:linear": 0}}
        )
        assert regressions and not improvements

    def test_gain_is_an_improvement(self, tool):
        baseline = {
            "models": {"toy": {"layers": {"layer00:linear": 0}, "min_slack": 0}}
        }
        regressions, improvements = tool.compare(
            baseline, {"toy": {"layer00:linear": 2}}
        )
        assert improvements and not regressions

    def test_missing_model_fails(self, tool):
        baseline = {"models": {"toy": {"layers": {"a": 1}, "min_slack": 1}}}
        regressions, _ = tool.compare(baseline, {})
        assert regressions

    def test_update_then_check_round_trips(self, tool, tmp_path):
        trace_path = tmp_path / "trace_toy.json"
        trace_path.write_text(json.dumps(make_trace()))
        baseline = tmp_path / "slack_baseline.json"
        assert (
            tool.main(
                ["check_slack", str(trace_path), "--baseline", str(baseline),
                 "--update"]
            )
            == 0
        )
        assert (
            tool.main(
                ["check_slack", str(trace_path), "--baseline", str(baseline)]
            )
            == 0
        )


class TestTraceToChrome:
    @pytest.fixture(scope="class")
    def tool(self):
        return load_tool("trace_to_chrome")

    def test_events_map_spans(self, tool):
        chrome = tool.to_chrome(make_trace())
        events = chrome["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata record
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 4
        layer = next(e for e in xs if e["name"] == "layer00:linear")
        assert layer["cat"] == "layer"
        assert layer["ts"] == pytest.approx(500.0)    # 0.5 ms in µs
        assert layer["dur"] == pytest.approx(4000.0)  # 4.0 ms in µs
        assert layer["args"]["ops"] == {"rotate": 4, "rescale": 1}
        assert layer["args"]["level_slack"] == 1
        assert layer["args"]["entry"]["level"] == 5

    def test_rejects_foreign_format(self, tool):
        with pytest.raises(ValueError):
            tool.to_chrome({"format": "something-else", "spans": []})
