"""Polynomial Approximated Functions (PAFs) for ``sign(x)``.

The building blocks of the paper: odd polynomials, composite PAFs, the
Cheon et al. f/g bases, minimax (Remez) construction, sign→ReLU/Max
reconstruction, multiplication-depth analysis and the distribution-weighted
coefficient refitting backend used by Coefficient Tuning.
"""

from repro.paf.bases import (
    F1,
    F2,
    G1,
    G2,
    G3,
    MINIMAX_ALPHA7,
    f_poly,
    g_poly,
    minimax_alpha7,
)
from repro.paf.composite import PAF_REGISTRY, canonical_key, get_paf, paper_pafs
from repro.paf.depth import (
    composite_depth_schedule,
    depth_schedule,
    paf_depth_table,
)
from repro.paf.fitting import (
    fit_composite,
    fit_last_component,
    profile_to_weights,
    weighted_sign_mse,
)
from repro.paf.minimax import (
    RemezResult,
    composite_precision,
    minimax_alpha10_deg27,
    minimax_composite,
    remez_odd_sign,
)
from repro.paf.polynomial import (
    CompositePAF,
    OddPolynomial,
    Polynomial,
    mult_depth_of_degree,
)
from repro.paf.transformer import (
    RangeReducedExp,
    affine_recip_init,
    exp_paf,
    fit_polynomial,
    gelu_paf,
    gelu_reference,
    newton_recip,
    paf_layer_norm,
    paf_softmax,
    rsqrt_paf,
)
from repro.paf.relu import (
    maxpool_mult_depth,
    paf_max,
    paf_maxpool2d,
    paf_relu,
    relu_mult_depth,
)

__all__ = [
    "CompositePAF",
    "OddPolynomial",
    "mult_depth_of_degree",
    "F1",
    "F2",
    "G1",
    "G2",
    "G3",
    "MINIMAX_ALPHA7",
    "f_poly",
    "g_poly",
    "minimax_alpha7",
    "minimax_alpha10_deg27",
    "minimax_composite",
    "remez_odd_sign",
    "composite_precision",
    "RemezResult",
    "PAF_REGISTRY",
    "get_paf",
    "paper_pafs",
    "canonical_key",
    "paf_relu",
    "paf_max",
    "paf_maxpool2d",
    "relu_mult_depth",
    "maxpool_mult_depth",
    "depth_schedule",
    "composite_depth_schedule",
    "paf_depth_table",
    "fit_last_component",
    "fit_composite",
    "profile_to_weights",
    "weighted_sign_mse",
    "Polynomial",
    "fit_polynomial",
    "RangeReducedExp",
    "exp_paf",
    "gelu_reference",
    "gelu_paf",
    "rsqrt_paf",
    "affine_recip_init",
    "newton_recip",
    "paf_softmax",
    "paf_layer_norm",
]
