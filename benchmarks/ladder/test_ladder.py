"""Checks of the ladder harness itself, against its ``--smoke`` sizing.

Run explicitly (tier-1's ``testpaths`` does not collect it):

    PYTHONPATH=src python -m pytest benchmarks/ladder/test_ladder.py -q

About two minutes: one smoke pass over the four workloads plus the
traced smoke of the two cheap ones.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import compare  # noqa: E402
import declaration  # noqa: E402
import loadgen  # noqa: E402
import samples  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _driver_call(workload: str, trace: int) -> subprocess.CompletedProcess:
    """What the benchmark driver runs, at smoke size."""
    return subprocess.run(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    decl = declaration.load()
    assert sorted(decl) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert decl["paths"] == ["benchmarks/ladder"]
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in decl["command"])
    assert isinstance(decl["run_seconds"], int) and 1 <= decl["run_seconds"] <= 60
    assert 2 <= len(decl["workloads"]) <= 8
    for w in decl["workloads"]:
        assert sorted(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(decl["end_to_end"]) <= 16 and 1 <= len(decl["per_layer"]) <= 128
    for m in decl["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in decl["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in decl[key]]
    assert len(names) == len(set(names))
    assert all(declaration.NAME_RE.match(n) for n in names)
    assert all(m["better"] in ("lower", "higher") for m in decl["end_to_end"] + decl["per_layer"])
    setup = declaration.metric_table("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in decl["end_to_end"])


def test_every_per_layer_metric_is_measured_by_one_declared_workload():
    workloads = declaration.workload_names()
    per_layer = set(declaration.metric_table("per_layer"))
    owned = {w: declaration.owned(w) for w in workloads}
    assert all(owned.values()), "every workload measures some layer"
    assert set().union(*owned.values()) == per_layer
    assert sum(len(names) for names in owned.values()) == len(per_layer)
    assert declaration.owner("ckks.backend.vectorized.n512_l34.rescale_us") == "transformer_forward"
    assert declaration.owner("ckks.backend.vectorized.n2048_l10.rescale_us") == "paf_relu_sweep"
    assert declaration.owner("fhe.ir.toy_cnn.compile_s") == "serve_mixed_open"
    assert declaration.owner("fhe.node.toy_resnet.paf_s") == "resnet_forward"
    with pytest.raises(KeyError):
        declaration.owner("made.up.metric")


# ----------------------------------------------------------------------
# smoke runs validate against the declaration, both ways
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    """One ``run.py --smoke`` pass: every workload, each in its own subprocess."""
    path = tmp_path_factory.mktemp("ladder") / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*RUN, "--smoke", "--seed", "3", "--json", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(path) as fh:
        return json.load(fh), wall


def test_smoke_set_carries_every_declared_metric_and_nothing_else(smoke_set):
    payload, _ = smoke_set
    assert (payload["schema"], payload["trace"]) == (declaration.SCHEMA, 0)
    (run,) = payload["runs"]
    assert set(run["fingerprint"]) == {"cpu_model", "nproc", "python", "numpy", "commit"}
    assert sorted(run["workloads"]) == sorted(declaration.workload_names())
    for name, rec in run["workloads"].items():
        result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
        assert declaration.validate_result(result, trace=False) == [], name
        assert rec["correct"] and rec["failed"] == 0, name
        assert rec["detail"]["fail_share"] == 0.0
        assert all(m["value"] > 0 for m in rec["metrics"].values()), name


def test_smoke_set_is_fast(smoke_set):
    _, wall = smoke_set
    assert wall < 90, f"smoke took {wall:.0f} s (sized for < 60 s on a quiet 2-core box)"


@pytest.mark.parametrize("workload", ["paf_relu_sweep", "serve_mixed_open"])
def test_traced_smoke_measures_its_own_layers_and_prints_every_declared_one(workload):
    proc = _driver_call(workload, trace=1)  # run.py also runs tools/check_trace.py on the traces
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert declaration.validate_result(result, trace=True) == []
    with open(HERE / "out" / f"a_{workload}.json") as fh:
        record = json.load(fh)
    # the record holds what this workload measured, and only metrics it owns;
    # the result line fills the other workloads' metrics with 0
    assert record["metrics"] and set(record["metrics"]) <= declaration.owned(workload)
    prefix = "ckks.poly_eval.f1g2." if workload == "paf_relu_sweep" else "serve.queue.open."
    assert all(m["value"] for n, m in record["metrics"].items() if n.startswith(prefix))
    for name, entry in result["metrics"].items():
        assert entry == record["metrics"].get(name, {"value": 0.0, "unit": entry["unit"]})
    # 20 open-loop requests support no p90: it is left out, not zeroed
    assert "serve.request.open.latency_p90_s" not in record["metrics"]
    assert sorted((HERE / "out").glob("trace_*.json"))


def test_validation_catches_missing_and_undeclared_metrics():
    declared = declaration.metric_table("end_to_end")
    metrics = {n: {"value": 1.0, "unit": d["unit"]} for n, d in declared.items()}
    good = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    assert declaration.validate_result(good, trace=False) == []
    missing = dict(good, metrics={k: v for k, v in metrics.items() if k != "setup_s"})
    assert any("setup_s not emitted" in p for p in declaration.validate_result(missing, False))
    extra = dict(good, metrics=dict(metrics, **{"made up!": {"value": 1.0, "unit": "s"}}))
    problems = declaration.validate_result(extra, False)
    assert any("not declared" in p for p in problems) and any("[A-Za-z0-9_.-]" in p for p in problems)
    wrong_unit = dict(good, metrics=dict(metrics, setup_s={"value": 1.0, "unit": "ms"}))
    assert any("unit" in p for p in declaration.validate_result(wrong_unit, False))


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's own files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ladder", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "paf_relu_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 2
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_unknown_workload_is_a_usage_error():
    proc = _driver_call("no_such_workload", trace=0)
    assert proc.returncode == 2 and not proc.stdout.strip()


# ----------------------------------------------------------------------
# failures are counted, not raised
# ----------------------------------------------------------------------
def test_a_wrong_oracle_is_counted_in_fail_share_not_raised():
    os.environ.setdefault("REPRO_BACKEND", "vectorized")
    import workloads as wl

    sweep = wl.PafSweep(seed=3, sizing=wl.Sizing(seconds=0.0, smoke=True))
    sweep.oracle = [want + 1.0 for want in sweep.oracle]  # deliberately wrong
    loop = wl.closed_loop(sweep.operation, seconds=0.0, min_ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)
    assert len(loop.durations) == 2  # a miss still took its time

    def raises():
        raise RuntimeError("depth wall")

    loop = wl.closed_loop(raises, seconds=0.0, min_ops=3)
    assert (loop.attempted, loop.failed, loop.durations) == (3, 3, [])
    assert not wl.matches_oracle([1.0, 2.0, 3.1], [1.0, 2.0, 3.0])
    assert wl.matches_oracle([1.0, 2.0, 3.001], [1.0, 2.0, 3.0])
    assert not wl.matches_oracle([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])


def test_rows_are_chosen_on_the_plaintext_side_only():
    os.environ.setdefault("REPRO_BACKEND", "vectorized")
    import numpy as np
    import workloads as wl
    from repro.core.surgery import replaced_layers
    from repro.fhe import toy
    from repro.nn.tensor import Tensor

    model, _ = toy.compiled_toy(with_model=True)
    calibration = np.random.default_rng(0).normal(size=(64, 8))
    (layer,) = [layer for _, layer in replaced_layers(model)]
    seen = []
    layer.forward = lambda x: seen.append(np.abs(x.data).max()) or type(layer).forward(layer, x)
    try:
        for row in calibration:
            model(Tensor(row[None]))
    finally:
        del layer.forward
    shares = np.array(seen) / layer.static_scale
    assert shares.max() == pytest.approx(1.0)  # the row that set the static scale
    verdicts = [wl.in_domain(model, calibration, row) for row in calibration]
    assert verdicts == list(shares <= wl.DOMAIN_SHARE)
    assert 0 < sum(verdicts) < len(verdicts)
    assert "forward" not in vars(layer)  # the probe is gone
    inside = calibration[int(np.argmin(shares))]
    assert not wl.in_domain(model, calibration, 10.0 * inside)  # beyond the calibration inputs


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
class _StallingServer:
    """Resolves every request at once — but its ``submit`` blocks on the
    request named ``stall`` (a server applying backpressure)."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s

    def submit(self, payload) -> Future:
        if payload == "stall":
            time.sleep(self.stall_s)
        if payload == "shed":
            raise OverflowError("queue full")
        future: Future = Future()
        future.set_result(payload)
        return future


def test_open_loop_times_from_due_time_and_reports_lag():
    server = _StallingServer(stall_s=0.3)
    records, wall = loadgen.run_schedule(
        [0.0, 0.05, 0.10, 0.60], ["stall", "a", "shed", "b"], server.submit, timeout_s=5.0
    )
    stalled, behind, shed, later = records
    # the stall is the first request's own latency ...
    assert stalled.lag_s < 0.05 and stalled.latency_s >= 0.3
    # ... and the request due during it was sent late: served instantly,
    # yet charged the wait from the instant it was due
    assert behind.lag_s >= 0.2
    assert behind.latency_s >= behind.lag_s >= 0.2
    assert behind.done_s - behind.submitted_s < 0.05
    # a shed request is that request's failure, not the generator's
    assert isinstance(shed.error, OverflowError) and shed.latency_s is None
    # once the stall has drained the generator is back on schedule
    assert later.lag_s < 0.05 and later.error is None and later.result == "b"
    assert wall >= 0.6


def test_poisson_schedule_is_seeded():
    import numpy as np

    a = loadgen.poisson_schedule(np.random.default_rng(5), 6.0, 200)
    b = loadgen.poisson_schedule(np.random.default_rng(5), 6.0, 200)
    assert (a == b).all() and (np.diff(a) > 0).all()
    assert 200 / 6.0 * 0.7 < a[-1] < 200 / 6.0 * 1.3


# ----------------------------------------------------------------------
# statistics and verdicts
# ----------------------------------------------------------------------
def test_percentile_refused_when_fewer_than_ten_samples_lie_beyond_it():
    assert samples.percentile(range(1, 201), 95) == 190  # 10 beyond
    assert samples.percentile(range(1, 101), 90) == 90
    with pytest.raises(samples.TooFewSamples):
        samples.percentile(range(1, 200), 95)  # 199 samples: 9 beyond
    with pytest.raises(samples.TooFewSamples):
        samples.percentile([4.4] * 6, 95)  # a forward loop has no tail


def test_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert samples.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_compare_verdicts():
    assert compare.verdict(1.0, 1.05, "lower", 0.10, noise=0.01) == "same"
    assert compare.verdict(1.0, 1.20, "lower", 0.10, noise=0.01) == "worse"
    assert compare.verdict(1.0, 0.80, "lower", 0.10, noise=0.01) == "better"
    assert compare.verdict(10.0, 8.0, "higher", 0.10, noise=0.05) == "worse"
    assert compare.verdict(10.0, 12.0, "higher", 0.10, noise=0.05) == "better"
    assert compare.verdict(1.0, 1.0, "lower", 0.10, noise=0.15) == "unresolved"
    assert compare.verdict(1.0, 2.0, "lower", 0.10, noise=None) == "unresolved"


def _set(latency: float) -> dict:
    metrics = {n: {"value": 1.0, "unit": d["unit"]} for n, d in
               declaration.metric_table("end_to_end").items()}
    metrics["latency_p50_s"] = {"value": latency, "unit": "s"}
    return {"workloads": {"serve_mixed_open": {"metrics": metrics}}}


def test_noise_is_measured_between_runs_and_same_code_is_never_better():
    def latency_row(*args, **kwargs):
        return next(r for r in compare.compare(*args, **kwargs) if r["metric"] == "latency_p50_s")

    bound = declaration.metric_table("end_to_end")["latency_p50_s"]["bound"]
    # the reviewed record: 0.119 s then 0.0868 s from the same code is noise, not a gain
    row = latency_row([_set(0.119)], [_set(0.0868)], same_code=True)
    assert row["noise"] == pytest.approx((0.119 - 0.0868) / 0.1029) and row["noise"] > bound
    assert row["verdict"] == "unresolved"
    assert latency_row([_set(0.100)], [_set(0.104)], same_code=True)["verdict"] == "same"
    # one set a side: nothing to measure the noise from
    assert latency_row([_set(0.100)], [_set(0.200)])["verdict"] == "unresolved"
    # two sets a side that agree: a real difference resolves
    row = latency_row([_set(0.100), _set(0.104)], [_set(0.150), _set(0.154)])
    assert row["noise"] == pytest.approx(0.004 / 0.102) and row["verdict"] == "worse"
    # ... and two that do not agree with each other resolve nothing
    assert latency_row([_set(0.100), _set(0.140)], [_set(0.150), _set(0.154)])["verdict"] == "unresolved"


def test_compare_rows_cover_every_workload_metric_pair(smoke_set):
    payload, _ = smoke_set
    rows = compare.compare(payload["runs"], payload["runs"], same_code=True)
    declared = declaration.metric_table("end_to_end")
    assert len(rows) == len(payload["runs"][0]["workloads"]) * len(declared)
    assert all(r["ratio_b_over_a"] == 1.0 and r["verdict"] == "same" for r in rows)
    text = compare.format_rows(rows)
    assert "ratio (x of A)" in text and "latency_p50_s [s]" in text
