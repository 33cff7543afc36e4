"""Multiplication-depth analysis (paper Appendix C, Tab. 8 / Fig. 10).

CKKS is leveled: every ciphertext-ciphertext or ciphertext-plaintext
multiplication followed by a rescale consumes one level.  The depth of a
degree-``n`` polynomial under exponentiation-by-squaring is
``ceil(log2(n+1))``; a composite's depth is the sum over components.

:func:`depth_schedule` reproduces Tab. 8's walkthrough: the level at which
every intermediate value of an odd polynomial evaluation becomes available,
using the leaf-folded, term-by-term power-ladder strategy (the test
oracle of ``repro.ckks.poly_eval`` evaluates exactly this way).  The
Paterson–Stockmeyer executor consumes the *same* total per component
(``docs/paf-evaluation.md``), so the symbolic schedule and the measured
level consumption agree — asserted in tests.

>>> from repro.paf.bases import f_poly
>>> max(step.depth for step in depth_schedule(f_poly(2)))   # degree 5
3
>>> from repro.paf.composite import get_paf
>>> max(step.depth for step in composite_depth_schedule(get_paf("f1g2")))
5
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paf.polynomial import CompositePAF, OddPolynomial

__all__ = [
    "DepthStep",
    "depth_schedule",
    "composite_depth_schedule",
    "paf_depth_table",
]


@dataclass(frozen=True)
class DepthStep:
    """One intermediate value of a polynomial evaluation and its depth."""

    expr: str
    depth: int


def depth_schedule(poly: OddPolynomial, var: str = "x") -> list:
    """Symbolic schedule of intermediate values for one odd component.

    Term-by-term strategy — the depth ``repro.ckks.poly_eval.eval_poly``
    lands every term at, and the evaluation the test oracle
    (``tests/conftest.py``) performs literally:

    * binary power ladder ``x^2, x^4, x^8, ...`` by repeated squaring —
      ``x^(2^i)`` available at depth ``i``;
    * each term ``c_k x^k`` (k odd) starts from the plaintext product
      ``c_k * x`` at depth 1 and multiplies in the ladder powers of the
      binary expansion of ``k - 1``, smallest first; the term lands at depth
      ``ceil(log2(k+1))``;
    * the constant (e.g. the 1/2 of the ReLU reconstruction or a static
      scale) folds into ``c_k`` for free.
    """
    steps: list[DepthStep] = []
    degree = poly.degree
    # Power ladder: rungs up to the largest power of two <= degree - 1
    # (the highest ladder factor any term c_k x^k with k <= degree needs).
    i = 1
    while degree > 1 and 2**i <= degree - 1:
        steps.append(DepthStep(expr=f"{var}^{2 ** i}", depth=i))
        i += 1
    # Terms.  Each term c_k x^k is a product of the leaf (c_k * x) at depth 1
    # and the ladder powers x^(2^i) for the set bits of k-1 (x^(2^i) is
    # available at depth i).  Combining always the two *shallowest* operands
    # (a balanced merge) lands the term at exactly ceil(log2(k+1)) — the
    # plain left-fold over the ladder is NOT depth-optimal (e.g. k=11).
    for idx, c in enumerate(poly.coeffs):
        k = 2 * idx + 1
        if k == 1:
            steps.append(DepthStep(expr=f"c{k}*{var}", depth=1))
            continue
        operands = [(1, f"c{k}*{var}")]
        rem, i = k - 1, 0
        while rem:
            if rem & 1:
                operands.append((i, f"{var}^{2 ** i}"))
            rem >>= 1
            i += 1
        operands.sort()
        while len(operands) > 1:
            (d1, e1), (d2, e2) = operands[0], operands[1]
            merged = (max(d1, d2) + 1, f"({e1})*({e2})")
            operands = sorted(operands[2:] + [merged])
        steps.append(DepthStep(expr=f"c{k}*{var}^{k}", depth=operands[0][0]))
    steps.append(
        DepthStep(expr=f"{poly.name or 'p'}({var})", depth=poly.mult_depth)
    )
    return steps


def composite_depth_schedule(paf: CompositePAF) -> list:
    """Depth schedule across a whole composite (Tab. 8 for ``f1 ∘ g2``)."""
    steps: list[DepthStep] = []
    base = 0
    var = "x"
    for comp in paf.components:
        for s in depth_schedule(comp, var=var):
            steps.append(DepthStep(expr=s.expr, depth=s.depth + base))
        base += comp.mult_depth
        var = "y" if var == "x" else chr(ord(var) + 1)
    return steps


@dataclass(frozen=True)
class PAFDepthRow:
    """One row of the Tab. 2 reproduction."""

    name: str
    reported_degree: int
    degree_sum: int
    mult_depth: int
    num_components: int


def paf_depth_table(pafs) -> list:
    """Tab. 2: form / degree / multiplication depth for each PAF.

    >>> from repro.paf.composite import get_paf
    >>> row = paf_depth_table([get_paf("f2g3")])[0]
    >>> (row.name, row.reported_degree, row.mult_depth)
    ('f2 o g3', 12, 6)
    """
    rows = []
    for paf in pafs:
        rows.append(
            PAFDepthRow(
                name=paf.name,
                reported_degree=paf.reported_degree,
                degree_sum=paf.degree_sum,
                mult_depth=paf.mult_depth,
                num_components=paf.num_components,
            )
        )
    return rows
