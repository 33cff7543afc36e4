"""Tab. 4 / Fig. 1 — latency-accuracy comparison vs the 27-degree baseline.

Latency: measured encrypted-ReLU wall clock per PAF on our CKKS (relative
latencies are the reproduced quantity — the paper used SEAL at N=32768 on
a Threadripper).  Accuracy: SMART-PAF SS accuracy from the Tab. 3 pipeline;
the α=10 column is the paper's prior-work baseline.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.pareto import ParetoPoint, pareto_frontier
from repro.analysis.tables import format_table
from repro.ckks import CkksParams
from repro.core import SmartPAF
from repro.experiments.common import (
    PAPER_FORMS,
    default_baseline,
    fresh_model,
    is_quick,
    quick_config,
)
from repro.fhe import measure_relu_latency
from repro.paf import get_paf, minimax_alpha10_deg27

__all__ = ["run_latency_table", "run_table4", "print_table4", "check_table4", "run_fig1"]

#: warm samples behind each form's Tab. 4 latency: the quick forms are
#: only ~25 % apart, so one sample per form can flip their order
LATENCY_REPEATS = 7


def _latency_params() -> CkksParams:
    # one context deep enough for the deepest form (alpha10: 11 levels)
    n = 2048 if is_quick() else 8192
    return CkksParams(n=n, scale_bits=25, depth=12)


def run_latency_table(forms=None, repeats: int = LATENCY_REPEATS) -> dict:
    """Encrypted-ReLU latency per form, including the α=10 baseline:
    the median of ``repeats`` warm samples per form, taken in rounds of
    one sample per form, so drift of the machine over the run reaches
    every form alike."""
    params = _latency_params()
    pafs = {"alpha10": minimax_alpha10_deg27()}
    pafs.update((form, get_paf(form)) for form in forms or PAPER_FORMS)
    samples = {name: [] for name in pafs}
    for _ in range(repeats):
        for name, paf in pafs.items():
            samples[name].append(measure_relu_latency(paf, params))
    return {
        name: dataclasses.replace(
            runs[0], seconds=float(np.median([r.seconds for r in runs]))
        )
        for name, runs in samples.items()
    }


def run_table4(seed: int = 0, forms=None, with_accuracy: bool = True) -> dict:
    forms = forms or (PAPER_FORMS if not is_quick() else ["f1f1g1g1", "f1g2"])
    latency = run_latency_table(forms)
    base_lat = latency["alpha10"].seconds
    out: dict = {"rows": {}, "baseline_latency": base_lat}
    base = default_baseline(seed) if with_accuracy else None
    if base is not None:
        out["original_accuracy"] = base.accuracy
    for form in forms:
        row = {
            "latency_s": latency[form].seconds,
            "speedup": base_lat / latency[form].seconds,
            "mult_depth": latency[form].mult_depth,
            "degree": latency[form].reported_degree,
        }
        if base is not None:
            model = fresh_model(base)
            cfg = quick_config().with_techniques(ct=True, pa=True, at=True)
            res = SmartPAF(lambda f=form: get_paf(f), cfg).fit(model, base.dataset)
            row["ss_accuracy"] = res.ss_accuracy
            row["ds_accuracy"] = res.ds_accuracy
        out["rows"][form] = row
    return out


def print_table4(result: dict) -> str:
    rows = []
    for form, r in result["rows"].items():
        rows.append(
            [
                form,
                r["degree"],
                r["mult_depth"],
                r["latency_s"],
                r["speedup"],
                r.get("ss_accuracy", float("nan")),
            ]
        )
    title = (
        "Table 4: SMART-PAF vs 27-degree minimax "
        f"(baseline ReLU latency {result['baseline_latency']:.3f}s"
    )
    if "original_accuracy" in result:
        title += f", original acc {result['original_accuracy']:.3f}"
    title += ")"
    table = format_table(
        ["form", "degree", "depth", "latency (s)", "speedup", "SS acc"], rows, title
    )
    fig1 = run_fig1(result)
    frontier = {p.name for p in fig1["frontier"]}
    points = [
        [p.name, p.latency, p.accuracy, "*" if p.name in frontier else ""]
        for p in fig1["points"]
    ]
    return table + "\n\n" + format_table(
        ["design point", "latency (s)", "accuracy", "frontier"],
        points,
        title="Figure 1: latency-accuracy trade-off (frontier marked *)",
    )


def check_table4(result: dict) -> dict:
    """Shape checks: every low-degree form is faster than the 27-degree
    baseline, speedup follows multiplication depth (lower depth, faster),
    and the Fig. 1 frontier holds a SMART-PAF (non-baseline) point."""
    rows = result["rows"]
    checks = {f"{form}: speedup over alpha10 > 1": r["speedup"] > 1.0 for form, r in rows.items()}
    by_depth = sorted(rows.values(), key=lambda r: r["mult_depth"])
    checks["speedup of the shallowest form >= speedup of the deepest"] = (
        by_depth[0]["speedup"] >= by_depth[-1]["speedup"]
    )
    checks["Fig. 1 frontier holds a non-alpha10 point"] = any(
        not p.name.startswith("alpha10") for p in run_fig1(result)["frontier"]
    )
    return checks


def run_fig1(table4: dict) -> dict:
    """Fig. 1: Pareto frontier from the Tab. 4 design points."""
    points = [
        ParetoPoint(form, r["latency_s"], r.get("ss_accuracy", 0.0))
        for form, r in table4["rows"].items()
    ]
    points.append(
        ParetoPoint(
            "alpha10(baseline)",
            table4["baseline_latency"],
            table4.get("original_accuracy", 0.0),
        )
    )
    frontier = pareto_frontier(points)
    return {"points": points, "frontier": frontier}
