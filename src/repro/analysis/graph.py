"""Op-graph analysis: aggregate multiplication depth along a model's
non-polynomial chain (the surgery trace, in inference order)."""

from __future__ import annotations

import numpy as np

from repro.core.surgery import find_nonpoly_sites
from repro.nn.module import Module
from repro.paf.polynomial import CompositePAF
from repro.paf.relu import maxpool_mult_depth, relu_mult_depth

__all__ = ["model_depth_profile"]


def model_depth_profile(
    model: Module, paf: CompositePAF, sample_input: np.ndarray, maxpool_kernel: int = 2
) -> dict:
    """Depth cost of replacing every non-polynomial site with ``paf``.

    Returns per-site depths and the total along the inference chain — the
    level budget (hence bootstrapping pressure) of the approximated model.
    """
    per_site = {}
    total = 0
    for site in find_nonpoly_sites(model, sample_input):
        depth = (
            relu_mult_depth(paf)
            if site.kind == "relu"
            else maxpool_mult_depth(paf, kernel=maxpool_kernel)
        )
        per_site[site.name] = depth
        total += depth
    return {"per_site": per_site, "total_depth": total, "num_sites": len(per_site)}
