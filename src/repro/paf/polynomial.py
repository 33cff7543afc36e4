"""Odd polynomials and composite polynomial approximation functions (PAFs).

The paper approximates ``sign(x)`` with *composite* polynomials: a chain of
low-degree odd polynomials applied in sequence (Sec. 2.2, Tab. 2).  Because
``sign`` is odd, every useful component is odd, so we store only the odd-power
coefficients ``c = (c_1, c_3, c_5, ...)`` with

    p(x) = c_1 x + c_3 x^3 + c_5 x^5 + ...

The multiplication depth of a degree-``d`` polynomial evaluated with the
exponentiation-by-squaring strategy is ``ceil(log2(d + 1))`` (Appendix C);
the depth of a composite is the sum of its components' depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "OddPolynomial",
    "Polynomial",
    "CompositePAF",
    "mult_depth_of_degree",
]


def mult_depth_of_degree(degree: int) -> int:
    """Multiplication depth of evaluating a degree-``degree`` polynomial.

    Contemporary methods use the exponentiation-by-squaring strategy, so a
    polynomial whose highest term is ``a * x**n`` consumes
    ``ceil(log2(n + 1))`` levels (paper, Appendix C).
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return math.ceil(math.log2(degree + 1))


@dataclass(frozen=True)
class OddPolynomial:
    """An odd polynomial stored by its odd-power coefficients.

    Parameters
    ----------
    coeffs:
        ``(c_1, c_3, ..., c_{2k+1})`` — coefficient of ``x**(2i+1)`` at
        index ``i``.  Trailing zeros are allowed but affect the reported
        degree, so prefer trimmed coefficient vectors.
    name:
        Optional label used in tables (e.g. ``"f1"``, ``"g2"``).
    """

    coeffs: tuple = field()
    name: str = ""

    def __init__(self, coeffs: Iterable[float], name: str = ""):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ValueError("OddPolynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the highest (odd) power."""
        return 2 * (len(self.coeffs) - 1) + 1

    @property
    def mult_depth(self) -> int:
        """Multiplication depth under exponentiation by squaring."""
        return mult_depth_of_degree(self.degree)

    @property
    def num_coeffs(self) -> int:
        return len(self.coeffs)

    def dense_coeffs(self) -> np.ndarray:
        """Full coefficient vector ``[c_0, c_1, ..., c_d]`` (even entries 0)."""
        dense = np.zeros(self.degree + 1)
        dense[1::2] = self.coeffs
        return dense

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def __call__(self, x):
        """Evaluate at ``x`` (scalar or ndarray), Horner in ``x**2``.

        ``p(x) = x * q(x^2)`` with ``q`` evaluated by Horner's rule; this is
        numerically stable and vectorised.
        """
        x = np.asarray(x, dtype=np.float64)
        acc = np.full_like(x, self.coeffs[-1])
        x2 = x * x
        for c in self.coeffs[-2::-1]:
            acc = acc * x2 + c
        return acc * x

    def derivative(self, x):
        """Evaluate ``p'(x)`` — used by trainable PAF layers' backward pass."""
        x = np.asarray(x, dtype=np.float64)
        # p'(x) = sum (2i+1) c_i x^(2i) : even polynomial, Horner in x^2.
        k = len(self.coeffs) - 1
        acc = np.full_like(x, (2 * k + 1) * self.coeffs[-1])
        x2 = x * x
        for i in range(k - 1, -1, -1):
            acc = acc * x2 + (2 * i + 1) * self.coeffs[i]
        return acc

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def scaled_input(self, scale: float) -> "OddPolynomial":
        """Return ``q`` with ``q(x) = p(x / scale)``.

        Used for Static-Scaling folding: dividing the PAF input by ``scale``
        is free under FHE when folded into the innermost component's
        coefficients (``c_i -> c_i / scale**(2i+1)``).
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        new = [c / scale ** (2 * i + 1) for i, c in enumerate(self.coeffs)]
        return OddPolynomial(new, name=self.name)

    def scaled_output(self, scale: float) -> "OddPolynomial":
        """Return ``q`` with ``q(x) = scale * p(x)``."""
        return OddPolynomial([scale * c for c in self.coeffs], name=self.name)

    def with_coeffs(self, coeffs: Sequence[float]) -> "OddPolynomial":
        """Same name, new coefficients (must keep the degree)."""
        if len(tuple(coeffs)) != len(self.coeffs):
            raise ValueError(
                f"expected {len(self.coeffs)} coefficients, got {len(tuple(coeffs))}"
            )
        return OddPolynomial(coeffs, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "odd-poly"
        terms = " + ".join(
            f"{c:+.6g}*x^{2 * i + 1}" for i, c in enumerate(self.coeffs)
        )
        return f"OddPolynomial<{label}, deg={self.degree}>({terms})"


@dataclass(frozen=True)
class Polynomial:
    """A dense (general, non-odd) polynomial with a declared domain.

    The approximation tier beyond ``sign``-composites: exp, GELU and
    rsqrt fits are general polynomials (they need even powers and a
    constant term), stored by their full coefficient vector

        p(x) = c_0 + c_1 x + ... + c_d x^d

    together with the ``interval`` the fit is valid over — a domain
    contract that no compile path enforces yet (ROADMAP item 3 owns the
    check against the data a layer can actually see).

    Parameters
    ----------
    coeffs:
        ``(c_0, c_1, ..., c_d)`` — coefficient of ``x**i`` at index
        ``i``; the leading coefficient must be nonzero.
    interval:
        ``(lo, hi)`` domain the approximation is declared over.
    name:
        Optional label (e.g. ``"exp"``, ``"gelu"``).
    """

    coeffs: tuple = field()
    interval: tuple = field()
    name: str = ""

    def __init__(self, coeffs: Iterable[float], interval=(-1.0, 1.0), name: str = ""):
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("Polynomial needs degree >= 1 (two coefficients)")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero (trim first)")
        lo, hi = (float(interval[0]), float(interval[1]))
        if not lo < hi:
            raise ValueError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "interval", (lo, hi))
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def mult_depth(self) -> int:
        """Depth under exponentiation by squaring: ``ceil(log2(d + 1))``."""
        return mult_depth_of_degree(self.degree)

    def contains(self, interval) -> bool:
        """Whether a propagated data interval sits inside the fit domain."""
        return self.interval[0] <= interval[0] and interval[1] <= self.interval[1]

    # ------------------------------------------------------------------
    # evaluation / transforms
    # ------------------------------------------------------------------
    def __call__(self, x):
        """Evaluate at ``x`` (scalar or ndarray) by Horner's rule."""
        x = np.asarray(x, dtype=np.float64)
        acc = np.full_like(x, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def scaled_input(self, scale: float) -> "Polynomial":
        """Return ``q`` with ``q(x) = p(x / scale)`` (interval rescaled)."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        new = [c / scale**i for i, c in enumerate(self.coeffs)]
        lo, hi = self.interval
        return Polynomial(new, interval=(lo * scale, hi * scale), name=self.name)

    def scaled_output(self, scale: float) -> "Polynomial":
        """Return ``q`` with ``q(x) = scale * p(x)``."""
        return Polynomial(
            [scale * c for c in self.coeffs], interval=self.interval, name=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "poly"
        lo, hi = self.interval
        return f"Polynomial<{label}, deg={self.degree}, domain=[{lo:.3g}, {hi:.3g}]>"


class CompositePAF:
    """A composite PAF ``p = p_k ∘ ... ∘ p_1`` approximating ``sign(x)``.

    ``components[0]`` is applied first (innermost), matching the paper's
    appendix convention ``f1 ∘ g2 = g2(f1(x))``.

    Parameters
    ----------
    components:
        Component odd polynomials, innermost first.
    name:
        Label used in tables, e.g. ``"f2 o g3"``.
    reported_degree:
        The degree number the paper's Tab. 2 reports for this form (kept as
        metadata because the paper's "degree" column is a naming convention;
        the structurally meaningful quantity is ``mult_depth``).
    """

    def __init__(
        self,
        components: Sequence[OddPolynomial],
        name: str = "",
        reported_degree: int | None = None,
    ):
        components = list(components)
        if not components:
            raise ValueError("CompositePAF needs at least one component")
        self.components = components
        self.name = name or " o ".join(c.name or "p" for c in components)
        self._reported_degree = reported_degree

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def degree_sum(self) -> int:
        """Sum of the component degrees (the paper's headline degree count)."""
        return sum(c.degree for c in self.components)

    @property
    def degree_product(self) -> int:
        """Total algebraic degree of the expanded composite."""
        prod = 1
        for c in self.components:
            prod *= c.degree
        return prod

    @property
    def reported_degree(self) -> int:
        """Degree as reported in the paper's Tab. 2 (falls back to the sum)."""
        return self._reported_degree if self._reported_degree is not None else self.degree_sum

    @property
    def mult_depth(self) -> int:
        """Total multiplication depth = sum of component depths (Appendix C)."""
        return sum(c.mult_depth for c in self.components)

    @property
    def num_components(self) -> int:
        return len(self.components)

    def num_coeffs(self) -> int:
        return sum(c.num_coeffs for c in self.components)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def __call__(self, x):
        """Approximate ``sign(x)`` (vectorised)."""
        y = np.asarray(x, dtype=np.float64)
        for comp in self.components:
            y = comp(y)
        return y

    def intermediate_values(self, x) -> list:
        """Values after each component — used by depth/accuracy diagnostics."""
        values = [np.asarray(x, dtype=np.float64)]
        for comp in self.components:
            values.append(comp(values[-1]))
        return values

    # ------------------------------------------------------------------
    # coefficient flattening (for trainable layers / optimizers)
    # ------------------------------------------------------------------
    def flat_coeffs(self) -> np.ndarray:
        """All coefficients concatenated innermost-first."""
        return np.concatenate([np.asarray(c.coeffs) for c in self.components])

    def with_flat_coeffs(self, flat: Sequence[float]) -> "CompositePAF":
        """Rebuild the composite from a flat coefficient vector."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_coeffs():
            raise ValueError(
                f"expected {self.num_coeffs()} coefficients, got {flat.size}"
            )
        comps = []
        offset = 0
        for comp in self.components:
            n = comp.num_coeffs
            comps.append(comp.with_coeffs(flat[offset : offset + n]))
            offset += n
        return CompositePAF(comps, name=self.name, reported_degree=self._reported_degree)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def scaled_input(self, scale: float) -> "CompositePAF":
        """Fold an input scale ``x -> x/scale`` into the innermost component."""
        comps = [self.components[0].scaled_input(scale)] + list(self.components[1:])
        return CompositePAF(comps, name=self.name, reported_degree=self._reported_degree)

    def copy(self) -> "CompositePAF":
        return CompositePAF(
            list(self.components), name=self.name, reported_degree=self._reported_degree
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompositePAF<{self.name}, degree={self.reported_degree}, "
            f"depth={self.mult_depth}, components={[c.name for c in self.components]}>"
        )
