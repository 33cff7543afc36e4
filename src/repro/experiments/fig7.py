"""Fig. 7 — Coefficient Tuning vs baseline, post-replacement accuracy
WITHOUT fine-tuning.

Top panel: replace ReLU only; bottom panel: replace all non-polynomial
operators.  The paper reports CT improving 1.05-3.32× with larger gains
for lower-degree PAFs, and the all-non-poly rows sitting well below the
ReLU-only rows (MaxPooling sensitivity, Sec. 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core import SmartPAF
from repro.experiments.common import (
    PAPER_FORMS,
    fresh_model,
    is_quick,
    quick_config,
    resnet_imagenet_baseline,
)
from repro.paf import get_paf

__all__ = ["run_fig7", "print_fig7", "check_fig7"]


def run_fig7(seed: int = 0, forms=None) -> dict:
    """Returns {form: {panel: {"baseline": acc, "ct": acc}}} (DS accuracy).

    Forms run from highest to lowest degree; quick mode runs three.
    """
    base = resnet_imagenet_baseline(seed)
    forms = forms or (PAPER_FORMS if not is_quick() else ["f1f1g1g1", "f2g2", "f1g2"])
    out: dict = {"original_accuracy": base.accuracy, "forms": {}}
    for form in forms:
        per_panel = {}
        for panel, kinds in (("relu_only", ("relu",)), ("all_nonpoly", ("relu", "maxpool"))):
            accs = {}
            for label, ct in (("baseline", False), ("ct", True)):
                model = fresh_model(base)
                cfg = quick_config().with_techniques(ct=ct)
                runner = SmartPAF(lambda f=form: get_paf(f), cfg, kinds=kinds)
                ds_acc, _ = runner.replace_only(model, base.dataset)
                accs[label] = ds_acc
            per_panel[panel] = accs
        out["forms"][form] = per_panel
    return out


def print_fig7(result: dict) -> str:
    rows = []
    for form, panels in result["forms"].items():
        r = panels["relu_only"]
        a = panels["all_nonpoly"]
        rows.append(
            [
                form,
                r["baseline"],
                r["ct"],
                r["ct"] / max(r["baseline"], 1e-9),
                a["baseline"],
                a["ct"],
                a["ct"] / max(a["baseline"], 1e-9),
            ]
        )
    return format_table(
        ["form", "relu base", "relu CT", "gain", "all base", "all CT", "gain"],
        rows,
        title=(
            "Figure 7: post-replacement val acc w/o fine-tune "
            f"(original {result['original_accuracy']:.3f})"
        ),
    )


def check_fig7(result: dict) -> dict:
    """Shape checks: CT helps on average (the paper reports 1.05-3.32x
    gains), and replacing MaxPooling too costs accuracy against ReLU-only
    replacement (Sec. 5.2) for the lowest-degree form, where the
    nested-call error is largest."""
    forms = result["forms"]
    gains = [
        panels["all_nonpoly"]["ct"] - panels["all_nonpoly"]["baseline"]
        for panels in forms.values()
    ]
    lowest = list(forms)[-1]
    low = forms[lowest]
    return {
        "mean CT gain (all non-poly) > -0.02": np.mean(gains) > -0.02,
        f"{lowest}: all-non-poly baseline <= ReLU-only baseline + 0.02": (
            low["all_nonpoly"]["baseline"] <= low["relu_only"]["baseline"] + 0.02
        ),
    }
