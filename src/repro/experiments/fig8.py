"""Fig. 8 — Progressive Approximation vs direct strategies (fine-tuned).

Three strategies per PAF form (ReLU replacement, ResNet-18/ImageNet-1k
stand-in):

* ``direct+direct``      — replace all sites at once, train other layers
  (the prior-work baseline);
* ``direct+progressive`` — replace all at once but train progressively
  (the paper's collapsing green bar);
* ``progressive``        — PA proper: replace one site at a time, fine-tune
  after each (the orange bar).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.analysis.tables import format_table
from repro.core import SmartPAF
from repro.experiments.common import (
    PAPER_FORMS,
    default_baseline,
    fresh_model,
    is_quick,
    quick_config,
)
from repro.paf import get_paf

__all__ = ["run_fig8", "print_fig8", "check_fig8"]

STRATEGIES = {
    # (progressive_replacement, initial_target)
    "direct+direct": (False, "other"),
    "direct+progressive": (False, "paf"),
    "progressive": (True, "paf"),
}


def run_fig8(seed: int = 0, forms=None) -> dict:
    """Returns {form: {strategy: DS accuracy}}; quick mode runs two forms."""
    base = default_baseline(seed)
    forms = forms or (PAPER_FORMS if not is_quick() else ["f1f1g1g1", "f1g2"])
    out: dict = {"original_accuracy": base.accuracy, "forms": {}}
    for form in forms:
        per = {}
        for label, (progressive, target) in STRATEGIES.items():
            model = fresh_model(base)
            cfg = dc_replace(
                quick_config().with_techniques(ct=False, at=False),
                progressive=progressive,
                initial_target=target,
            )
            runner = SmartPAF(lambda f=form: get_paf(f), cfg, kinds=("relu",))
            res = runner.fit(model, base.dataset)
            per[label] = res.ds_accuracy
        out["forms"][form] = per
    return out


def print_fig8(result: dict) -> str:
    rows = [
        [form, v["direct+direct"], v["direct+progressive"], v["progressive"]]
        for form, v in result["forms"].items()
    ]
    return format_table(
        ["form", "direct+direct", "direct+prog", "progressive (PA)"],
        rows,
        title=(
            "Figure 8: post-fine-tune val acc by strategy "
            f"(original {result['original_accuracy']:.3f})"
        ),
    )


def check_fig8(result: dict) -> dict:
    """Shape check: PA is competitive with the direct baseline on average
    (the paper reports +0.4-1.9% with one outlier the other way)."""
    diffs = [v["progressive"] - v["direct+direct"] for v in result["forms"].values()]
    return {"mean(progressive - direct+direct) > -0.05": np.mean(diffs) > -0.05}
