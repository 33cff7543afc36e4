"""From-scratch leveled RNS-CKKS (the paper's FHE substrate).

Negacyclic NTT ring arithmetic over 30-bit prime chains, canonical
embedding encoder, public-key encryption, grouped hybrid keyswitching,
rescaling, slot rotation, and depth-optimal PAF evaluation on ciphertexts.
"""

from repro.ckks.bootstrap import (
    RefreshPlan,
    RefreshPrecisionError,
    coeff_to_slot,
    eval_mod,
    mod_raise,
    plan_refresh,
    refresh,
    slot_to_coeff,
)
from repro.ckks.backend import (
    KernelBackend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    resolve_backend,
)
from repro.ckks.context import CkksContext, CkksParams
from repro.ckks.encoder import CkksEncoder, Plaintext, PlaintextStore
from repro.ckks.evaluator import Ciphertext, CkksEvaluator
from repro.ckks.keys import KeyChain, keygen
from repro.ckks.ntt import NttPlan
from repro.ckks.poly_eval import (
    eval_composite_paf,
    eval_paf_max,
    eval_paf_relu,
    eval_poly,
)
from repro.ckks.poly_plan import (
    CompositePlan,
    PolyPlan,
    ReluPlan,
    plan_composite,
    plan_paf_relu,
    plan_poly,
)
from repro.ckks.primes import generate_primes, is_prime
from repro.ckks.rns import RnsPoly, crt_compose_centered
from repro.ckks.security import SecurityReport, security_report
from repro.ckks.shadow import ShadowCiphertext, ShadowEvaluator

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "resolve_backend",
    "CkksParams",
    "CkksContext",
    "CkksEncoder",
    "Plaintext",
    "PlaintextStore",
    "Ciphertext",
    "CkksEvaluator",
    "KeyChain",
    "keygen",
    "NttPlan",
    "RnsPoly",
    "crt_compose_centered",
    "generate_primes",
    "is_prime",
    "eval_poly",
    "eval_composite_paf",
    "eval_paf_relu",
    "eval_paf_max",
    "PolyPlan",
    "CompositePlan",
    "ReluPlan",
    "plan_poly",
    "plan_composite",
    "plan_paf_relu",
    "SecurityReport",
    "security_report",
    "RefreshPlan",
    "RefreshPrecisionError",
    "coeff_to_slot",
    "eval_mod",
    "mod_raise",
    "plan_refresh",
    "refresh",
    "slot_to_coeff",
    "ShadowCiphertext",
    "ShadowEvaluator",
]
