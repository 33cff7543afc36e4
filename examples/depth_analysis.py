"""Multiplication-depth analysis (the paper's Appendix C, Tab. 8 / Fig. 10).

Prints the symbolic depth schedule of f1 ∘ g2, verifies measured CKKS level
consumption against the analytic formula for all registry PAFs, and shows
the per-model depth budget of a full PAF-approximated ResNet-18.

Run:  python examples/depth_analysis.py
"""

import numpy as np

from repro.analysis.graph import model_depth_profile
from repro.experiments.appendix_depth import print_appendix_depth, run_measured_depths
from repro.nn.models import resnet18
from repro.paf import get_paf


def main() -> None:
    print(print_appendix_depth(run_measured_depths()))

    print("\nDepth budget of a fully PAF-approximated ResNet-18 (f1^2 o g1^2):")
    model = resnet18(base_width=4, seed=0)
    profile = model_depth_profile(
        model, get_paf("f1f1g1g1"), np.zeros((1, 3, 32, 32)), maxpool_kernel=3
    )
    for name, depth in list(profile["per_site"].items())[:5]:
        print(f"  {name:18s} depth {depth}")
    print(f"  ... ({profile['num_sites']} sites)")
    print(
        f"  total multiplicative depth along the chain: {profile['total_depth']} "
        "(the level/bootstrapping budget an FHE accelerator must provision)"
    )


if __name__ == "__main__":
    main()
