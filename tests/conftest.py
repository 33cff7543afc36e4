"""Repo-wide fixtures: the kernel-backend axis and the polynomial oracle.

``backend`` parametrizes a test over every registered kernel backend
(``reference``, ``vectorized``, plus anything registered via
:func:`repro.ckks.backend.register_backend`).  All backends are
bit-identical by contract (docs/backends.md), so any correctness test
can take the fixture and run unchanged under each — the conformance
suite (``tests/fhe/test_backend_conformance.py``) pins the contract
itself down to the ciphertext bytes.

Session scope keeps same-backend tests grouped, so module-scoped
fixtures layered on top (e.g. the ckks evaluator runtime) are built
once per backend rather than once per test.

``poly_oracle`` is the differential baseline of the one polynomial
executor (``repro.ckks.poly_eval.eval_poly``): the naive *term-by-term
ladder* that used to ship inside it behind ``reference=True``.  It reads
a polynomial's coefficients and nothing of a compiled plan — every term
``c_k x^k`` is its own leaf ``c_k·x`` merged with the binary power-ladder
rungs of ``k - 1``, ``O(degree)`` ciphertext mults — so it can disagree
with the Paterson–Stockmeyer path in every way a planner bug could.
``tests/ckks`` and ``tests/fhe`` share it; ``tests/fhe/conftest.py``'s
network-level ``oracle`` calls it for every activation.
"""

import functools
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.ckks import CkksContext, CkksParams, ShadowEvaluator
from repro.ckks.backend import available_backends
from repro.ckks.instrumentation import CountingEvaluator
from repro.ckks.poly_plan import fold_relu_composite
from repro.paf.polynomial import OddPolynomial


@pytest.fixture(scope="session", params=available_backends())
def backend(request):
    """Name of the kernel backend under test."""
    return request.param


def ladder_eval_poly(ev, x, poly):
    """Term-by-term ladder evaluation of an odd or dense polynomial.

    Rungs ``x^(2^i)`` by repeated squaring; each nonzero term multiplies
    its leaf ``c_k·x`` with the rungs of ``k - 1``'s set bits, always the
    two *shallowest* operands first; terms are summed at the deepest
    one's level and ``c₀`` is a trailing plaintext add.  Every cross-level
    align is exact, so the result sits on the canonical scale
    ``ceil(log2(d+1))`` levels down — the executor's contract.
    """
    dense = poly.dense_coeffs() if isinstance(poly, OddPolynomial) else poly.coeffs
    nonzero = [(k, float(c)) for k, c in enumerate(dense) if k and c != 0.0]
    ladder = {1: x}
    power = 1
    while 2 * power <= nonzero[-1][0] - 1:
        ladder[2 * power] = ev.rescale(ev.square(ladder[power]))
        power *= 2

    terms = []
    for k, c in nonzero:
        operands = [ev.mul_plain_rescale(x, c)]
        operands += [ladder[1 << e] for e in range(k.bit_length()) if (k - 1) >> e & 1]
        while len(operands) > 1:
            operands.sort(key=lambda ct: -ct.level)      # stable: ties keep order
            a, b = operands[:2]
            lo, hi = (a, b) if a.level <= b.level else (b, a)
            hi = ev.align_to(hi, lo.level, lo.scale)
            operands[:2] = []
            operands.append(ev.rescale(ev.mul(hi, lo)))
        terms.append(operands[0])

    anchor = min(terms, key=lambda t: t.level)
    acc = None
    for t in terms:
        t = ev.align_to(t, anchor.level, anchor.scale)
        acc = t if acc is None else ev.add(acc, t)
    return ev.add_plain(acc, float(dense[0])) if dense[0] else acc


def ladder_paf_relu(ev, x, paf, scale=1.0):
    """``x · (0.5 + 0.5·sign(x/scale))`` with every component on the ladder."""
    y = x
    for comp in fold_relu_composite(paf, scale).components:
        y = ladder_eval_poly(ev, y, comp)
    gate = ev.add_plain(y, 0.5)
    return ev.rescale(ev.mul(ev.align_to(x, gate.level, gate.scale), gate))


@functools.lru_cache(maxsize=None)
def _shadow_context(depth: int) -> CkksContext:
    return CkksContext(CkksParams(n=64, scale_bits=25, depth=depth))


def shadow_counts(run, depth: int = 12) -> Counter:
    """Op counts of ``run(ev, ct)``, *measured* over shadow ciphertexts
    (no keys, no ring data: milliseconds) on a depth-``depth`` chain."""
    ev = CountingEvaluator(ShadowEvaluator(_shadow_context(depth)))
    ct = ev.encrypt(None)
    ev.reset()
    run(ev, ct)
    return ev.counts


@pytest.fixture(scope="session")
def poly_oracle():
    """The term-by-term ladder: ``poly_oracle.eval_poly(ev, x, poly)``,
    ``poly_oracle.paf_relu(ev, x, paf, scale=1.0)``, and
    ``poly_oracle.shadow_counts(run)`` to measure any ``run(ev, ct)``."""
    return SimpleNamespace(
        eval_poly=ladder_eval_poly,
        paf_relu=ladder_paf_relu,
        shadow_counts=shadow_counts,
    )
