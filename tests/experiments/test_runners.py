"""Smoke + shape tests for the experiment runners (tiny budgets).

The full regeneration runs, with every paper-shape check, are
``python -m repro.experiments all``; these tests verify the runners'
structure, the cheapest invariants, and that a check reports a failure.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import (
    PAPER_FORMS,
    PAPER_TABLE2,
    check_fig8,
    check_table4,
    fig7,
    fig8,
    print_table2,
    run_depth_schedule,
    run_measured_depths,
    run_table2,
)
from repro.ckks import CkksParams
from repro.experiments import table4
from repro.experiments.table4 import run_fig1, run_latency_table
from repro.fhe import latency
from repro.fhe.latency import LatencyResult, measure_relu_latency
from repro.paf import get_paf


class TestTable2:
    def test_matches_paper_exactly(self):
        got = {k: (v["degree"], v["mult_depth"]) for k, v in run_table2().items()}
        assert got == PAPER_TABLE2

    def test_print_contains_all_forms(self):
        text = print_table2(run_table2())
        for form in PAPER_TABLE2:
            assert form in text


class TestAppendixDepth:
    def test_schedule_total(self):
        sched = run_depth_schedule("f1g2")
        assert max(d for _, d in sched) == 5

    def test_measured_equals_analytic(self):
        measured = run_measured_depths(n=256, include_alpha10=False)
        for form, v in measured.items():
            assert v["measured"] == v["analytic"], form


class TestLatency:
    def test_latency_table_includes_baseline(self):
        res = run_latency_table(forms=["f1g2"], repeats=1)
        assert "alpha10" in res and "f1g2" in res
        assert res["alpha10"].seconds > res["f1g2"].seconds

    def test_latency_table_samples_forms_interleaved_and_takes_medians(self, monkeypatch):
        """Round after round, one sample per form (so a slow stretch of
        the machine hits every form), and each form's median."""
        calls = []
        rng = np.random.default_rng(0)

        def sample(paf, params, repeats=1):
            calls.append((paf.name, float(rng.uniform())))
            return LatencyResult(paf.name, 0, 0, calls[-1][1], 0, 0.0)

        monkeypatch.setattr(table4, "measure_relu_latency", sample)
        res = run_latency_table(forms=["f1g2", "f1f1g1g1"], repeats=7)
        assert list(res) == ["alpha10", "f1g2", "f1f1g1g1"]
        names = [res[form].paf_name for form in res]
        assert [name for name, _ in calls] == names * 7
        for form, name in zip(res, names):
            drawn = [seconds for who, seconds in calls if who == name]
            assert res[form].seconds == float(np.median(drawn))
        assert table4.LATENCY_REPEATS >= 7

    def test_relu_latency_samples_are_warm(self, monkeypatch):
        """An untimed call runs before the clock is first read."""
        events = []
        real_eval, clock = latency.eval_paf_relu, latency.time.perf_counter

        def evaluate(*args, **kwargs):
            events.append("eval")
            return real_eval(*args, **kwargs)

        def tick():
            events.append("clock")
            return clock()

        monkeypatch.setattr(latency, "eval_paf_relu", evaluate)
        monkeypatch.setattr(latency, "time", SimpleNamespace(perf_counter=tick))
        paf = get_paf("f1g2")
        measure_relu_latency(paf, CkksParams(n=256, scale_bits=25, depth=8), repeats=2)
        assert events == ["eval"] + ["clock", "eval", "clock"] * 2

    def test_fig1_frontier_structure(self):
        fake_t4 = {
            "rows": {
                "f1g2": {"latency_s": 1.0, "ss_accuracy": 0.5},
                "f1f1g1g1": {"latency_s": 2.0, "ss_accuracy": 0.7},
            },
            "baseline_latency": 8.0,
            "original_accuracy": 0.72,
        }
        fig1 = run_fig1(fake_t4)
        assert len(fig1["points"]) == 3
        names = [p.name for p in fig1["frontier"]]
        assert "f1g2" in names and "f1f1g1g1" in names

    def test_table4_checks(self):
        rows = {
            "f1g2": {"latency_s": 1.0, "ss_accuracy": 0.5, "speedup": 8.0, "mult_depth": 5},
            "f1f1g1g1": {"latency_s": 2.0, "ss_accuracy": 0.7, "speedup": 4.0, "mult_depth": 8},
        }
        t4 = {"rows": rows, "baseline_latency": 8.0, "original_accuracy": 0.72}
        assert all(check_table4(t4).values())
        rows["f1f1g1g1"]["speedup"] = 0.9
        failed = [name for name, ok in check_table4(t4).items() if not ok]
        assert failed == ["f1f1g1g1: speedup over alpha10 > 1"]


def _stub_training(monkeypatch, module, baseline_fn):
    """Replace ``module``'s baseline, model and SmartPAF with no-op stubs."""
    base = SimpleNamespace(accuracy=0.9, dataset=None)
    result = SimpleNamespace(ds_accuracy=0.5)

    class StubSmartPAF:
        def __init__(self, *args, **kwargs):
            pass

        def replace_only(self, model, dataset):
            return 0.5, 0.5

        def fit(self, model, dataset):
            return result

    monkeypatch.setattr(module, baseline_fn, lambda seed: base)
    monkeypatch.setattr(module, "fresh_model", lambda b: None)
    monkeypatch.setattr(module, "SmartPAF", StubSmartPAF)


class TestQuickFormLists:
    """``run_fig7`` / ``run_fig8`` own their quick-scale form subsets."""

    @pytest.mark.parametrize(
        "module, baseline_fn, run, quick",
        [
            (fig7, "resnet_imagenet_baseline", fig7.run_fig7, ["f1f1g1g1", "f2g2", "f1g2"]),
            (fig8, "default_baseline", fig8.run_fig8, ["f1f1g1g1", "f1g2"]),
        ],
    )
    def test_default_forms(self, monkeypatch, module, baseline_fn, run, quick):
        _stub_training(monkeypatch, module, baseline_fn)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert list(run()["forms"]) == quick
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert list(run()["forms"]) == PAPER_FORMS

    def test_fig8_check_fails_when_pa_lags(self):
        result = {"forms": {"f1g2": {"progressive": 0.3, "direct+direct": 0.5}}}
        assert check_fig8(result) == {"mean(progressive - direct+direct) > -0.05": False}


class TestPaperForms:
    def test_five_forms(self):
        assert len(PAPER_FORMS) == 5
        assert PAPER_FORMS[0] == "f1f1g1g1"
