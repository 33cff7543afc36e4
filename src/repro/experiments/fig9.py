"""Fig. 9 — training curves: baseline vs SMART-PAF (f1²∘g1² ReLU).

The paper shows the baseline (direct replacement, regression-initialised
coefficients) starting ~34% below SMART-PAF and decaying across steps,
while SMART-PAF's curve climbs after each progressive replacement, with
SWA / AT event markers.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.core import SmartPAF
from repro.experiments.common import (
    default_baseline,
    fresh_model,
    quick_config,
)
from repro.paf import get_paf

__all__ = ["run_fig9", "print_fig9", "check_fig9"]


def run_fig9(seed: int = 0, form: str = "f1f1g1g1") -> dict:
    base = default_baseline(seed)

    # baseline: direct replacement + training other layers, no CT/PA/AT
    model_b = fresh_model(base)
    cfg_b = dc_replace(
        quick_config(epochs_per_group=2, max_groups_per_step=2).with_techniques(
            ct=False, pa=False, at=False
        ),
        initial_target="other",
    )
    res_b = SmartPAF(lambda: get_paf(form), cfg_b, kinds=("relu",)).fit(
        model_b, base.dataset
    )

    # SMART-PAF: CT + PA + AT
    model_s = fresh_model(base)
    cfg_s = quick_config(epochs_per_group=2, max_groups_per_step=2).with_techniques(
        ct=True, pa=True, at=True
    )
    res_s = SmartPAF(lambda: get_paf(form), cfg_s, kinds=("relu",)).fit(
        model_s, base.dataset
    )

    return {
        "original_accuracy": base.accuracy,
        "form": form,
        "baseline": {
            "curve": res_b.schedule.curve,
            "events": res_b.schedule.events,
            "final": res_b.ds_accuracy,
        },
        "smartpaf": {
            "curve": res_s.schedule.curve,
            "events": res_s.schedule.events,
            "final": res_s.ds_accuracy,
        },
    }


def print_fig9(result: dict) -> str:
    lines = [
        f"Figure 9: training curves, {result['form']} "
        f"(original {result['original_accuracy']:.3f})"
    ]
    for label in ("baseline", "smartpaf"):
        curve = result[label]["curve"]
        trace = " ".join(f"{v:.2f}" for v in curve)
        lines.append(f"{label:9s} final={result[label]['final']:.3f}  curve: {trace}")
        events = ", ".join(f"{e}@{i}" for i, e in result[label]["events"][:12])
        lines.append(f"          events: {events}")
    return "\n".join(lines)


def check_fig9(result: dict) -> dict:
    """Shape checks: SMART-PAF ends at least level with the baseline
    strategy, and its curve records progressive replacement and SWA."""
    labels = [e for _, e in result["smartpaf"]["events"]]
    return {
        "SMART-PAF final >= baseline final - 0.03": (
            result["smartpaf"]["final"] >= result["baseline"]["final"] - 0.03
        ),
        "SMART-PAF curve has replace:* events": any(
            label.startswith("replace:") for label in labels
        ),
        "SMART-PAF curve has an SWA event": any(label == "SWA" for label in labels),
    }
