"""Appendix C (Tab. 8 / Fig. 10) — multiplication depth walkthrough.

Prints the symbolic depth schedule for ``f1 ∘ g2`` and verifies the
measured level consumption of every registry PAF under CKKS equals its
analytic depth.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.ckks import CkksContext, CkksEvaluator, CkksParams, eval_composite_paf, keygen
from repro.paf import composite_depth_schedule, get_paf, paper_pafs

__all__ = [
    "run_depth_schedule",
    "run_measured_depths",
    "print_appendix_depth",
    "check_appendix_depth",
]


def run_depth_schedule(form: str = "f1g2") -> list:
    """The Tab. 8 symbolic schedule: (expression, depth) pairs."""
    paf = get_paf(form)
    return [(s.expr, s.depth) for s in composite_depth_schedule(paf)]


def run_measured_depths(n: int = 1024, include_alpha10: bool = True) -> dict:
    """Measured CKKS level consumption vs analytic depth for each form."""
    params = CkksParams(n=n, scale_bits=25, depth=11)
    ctx = CkksContext(params)
    keys = keygen(ctx, seed=0)
    ev = CkksEvaluator(ctx, keys)
    x = ev.encrypt(np.linspace(-1, 1, ctx.slots))
    out = {}
    for paf in paper_pafs(include_alpha10=include_alpha10):
        ct = eval_composite_paf(ev, x, paf)
        out[paf.name] = {
            "analytic": paf.mult_depth,
            "measured": ctx.max_level - ct.level,
        }
    return out


def print_appendix_depth(measured: dict) -> str:
    sched = run_depth_schedule("f1g2")
    lines = [
        format_table(
            ["intermediate", "depth"], sched, title="Table 8: f1 ∘ g2 depth schedule"
        ),
        "",
        format_table(
            ["form", "analytic depth", "measured levels"],
            [[k, v["analytic"], v["measured"]] for k, v in measured.items()],
            title="Measured CKKS level consumption (sign PAF only)",
        ),
    ]
    return "\n".join(lines)


def check_appendix_depth(measured: dict) -> dict:
    """Shape checks: measured CKKS level use equals the analytic depth."""
    return {
        f"{form}: measured levels == analytic depth": v["measured"] == v["analytic"]
        for form, v in measured.items()
    }
