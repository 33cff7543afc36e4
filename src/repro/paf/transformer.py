"""Dense-polynomial PAFs for transformer blocks: exp/softmax, GELU, rsqrt.

The sign-composite machinery approximates piecewise-linear operators
(ReLU, max); a transformer block needs a second tier of *dense*
polynomial approximations:

* :func:`exp_paf` — a large-interval exponential via Chiang-style range
  reduction: fit a low-degree polynomial ``p(z) ~ exp(z)`` on the
  *shrunk* interval ``[lo / 2^k, hi / 2^k]``, fold the ``1 / 2^k`` input
  scaling into the coefficients (no ciphertext level spent), then square
  the result ``k`` times — ``p(x / 2^k)^(2^k) ~ exp(x)`` over the full
  interval at depth ``deg_depth + k`` instead of the much higher degree
  a direct fit would need.
* :func:`gelu_paf` — a dense fit of the tanh-form GELU used by
  ``repro.nn.functional.gelu``.
* :func:`rsqrt_paf` — a dense fit of ``1 / sqrt(v)`` on a positive
  variance interval, the LayerNorm normaliser.
* :func:`paf_softmax` / :func:`paf_layer_norm` — numpy mirrors of the
  encrypted lowering (mean-stabilised softmax with an affine-seeded
  Newton reciprocal), used both as the *reference model* the encrypted
  transformer is compared against and for calibrating intervals.

All fits are weighted least squares on Chebyshev nodes of the declared
interval; every returned :class:`~repro.paf.polynomial.Polynomial`
carries that interval as its domain contract — declared, not yet
enforced at compile time (ROADMAP item 3 owns that check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.paf.polynomial import Polynomial

__all__ = [
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


def fit_polynomial(
    fn,
    degree: int,
    interval: tuple,
    *,
    name: str = "",
    points: int = 512,
    ridge: float = 1e-12,
) -> Polynomial:
    """Least-squares fit of ``fn`` by a degree-``degree`` polynomial.

    Sampling on Chebyshev nodes of ``interval`` keeps the error from
    piling up at the endpoints the way equispaced least squares does;
    the Vandermonde system is solved in a normalised variable
    ``t in [-1, 1]`` for conditioning and mapped back to raw ``x``
    coefficients afterwards.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    k = np.arange(points, dtype=np.float64)
    t = np.cos(np.pi * (2 * k + 1) / (2 * points))  # Chebyshev nodes in (-1, 1)
    x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    y = np.asarray(fn(x), dtype=np.float64)
    design = t[:, None] ** np.arange(degree + 1)[None, :]
    gram = design.T @ design + ridge * np.eye(degree + 1)
    c_t = np.linalg.solve(gram, design.T @ y)
    # map p(t) with t = (x - mid) / half back to coefficients in x
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    c_x = np.zeros(degree + 1)
    basis = np.array([1.0])  # coefficients of ((x - mid) / half)^j in x
    for j, cj in enumerate(c_t):
        c_x[: j + 1] += cj * basis
        if j < degree:
            basis = (np.convolve(basis, [-mid, 1.0]) / half)
    if c_x[-1] == 0.0:  # pragma: no cover - degenerate fit target
        c_x[-1] = np.finfo(np.float64).tiny
    return Polynomial(c_x, interval=(lo, hi), name=name)


# ----------------------------------------------------------------------
# exp with Chiang-style range reduction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RangeReducedExp:
    """``exp(x) ~ poly(x)^(2^squarings)`` over ``poly.interval``.

    ``poly`` already folds the ``x / 2^squarings`` input shrink into its
    coefficients, so evaluating it costs no extra ciphertext level; the
    ``squarings`` repeated squarings stretch the shrunk-domain fit back
    over the full interval.
    """

    poly: Polynomial
    squarings: int

    @property
    def interval(self) -> tuple:
        return self.poly.interval

    @property
    def mult_depth(self) -> int:
        return self.poly.mult_depth + self.squarings

    def __call__(self, x):
        return self.poly(np.asarray(x, dtype=np.float64)) ** (2**self.squarings)


def exp_paf(
    interval: tuple = (-4.0, 2.0), degree: int = 3, squarings: int = 2
) -> RangeReducedExp:
    """Large-interval ``exp`` PAF via range reduction.

    Fits ``p(z) ~ exp(z)`` on the shrunk ``interval / 2^squarings``
    (where a degree-3 polynomial is already accurate), then folds the
    shrink into the coefficients.  The *relative* error of the fit is
    amplified by a factor ``2^squarings`` by the squaring chain, which
    is exactly why shrinking first wins: the shrunk fit's relative
    error falls much faster than the amplification grows.
    """
    if squarings < 0:
        raise ValueError(f"squarings must be >= 0, got {squarings}")
    lo, hi = float(interval[0]), float(interval[1])
    r = float(2**squarings)
    shrunk = fit_polynomial(
        np.exp, degree, (lo / r, hi / r), name="exp-core"
    )
    folded = shrunk.scaled_input(r)
    folded = Polynomial(folded.coeffs, interval=(lo, hi), name="exp")
    return RangeReducedExp(folded, squarings)


# ----------------------------------------------------------------------
# GELU
# ----------------------------------------------------------------------
_GELU_C = 0.044715
_GELU_S = float(np.sqrt(2.0 / np.pi))


def gelu_reference(x):
    """The tanh-form GELU (Hendrycks-Gimpel) the dense fit targets.

    This is the exact formula of ``repro.nn.functional.gelu`` — the PAF
    and the plaintext model approximate the *same* function, so the
    encrypted/plaintext differential is purely arithmetic noise.
    """
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(_GELU_S * (x + _GELU_C * x**3)))


def gelu_paf(interval: tuple = (-4.0, 4.0), degree: int = 8) -> Polynomial:
    """Dense polynomial GELU over ``interval`` (default degree 8)."""
    return fit_polynomial(gelu_reference, degree, interval, name="gelu")


# ----------------------------------------------------------------------
# rsqrt (LayerNorm normaliser)
# ----------------------------------------------------------------------
def rsqrt_paf(interval: tuple = (0.25, 4.0), degree: int = 6) -> Polynomial:
    """Dense polynomial ``1 / sqrt(v)`` over a positive interval."""
    lo = float(interval[0])
    if lo <= 0.0:
        raise ValueError(f"rsqrt needs a positive interval, got lo={lo}")
    return fit_polynomial(
        lambda v: 1.0 / np.sqrt(v), degree, interval, name="rsqrt"
    )


# ----------------------------------------------------------------------
# Newton reciprocal (softmax normaliser)
# ----------------------------------------------------------------------
def affine_recip_init(interval: tuple) -> tuple:
    """Least-squares affine seed ``y0 = a + b * s`` for ``1 / s``.

    Newton's iteration ``y <- y * (2 - s * y)`` squares the relative
    error each step, so a seed with relative error ``e`` reaches
    ``e^(2^iters)``; the affine least-squares fit over the calibrated
    sum interval keeps ``e`` well under 1 for the ~4x-wide intervals a
    mean-stabilised softmax produces.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if lo <= 0.0:
        raise ValueError(f"reciprocal seed needs a positive interval, got lo={lo}")
    # Newton contracts the *relative* error e = 1 - s * y, so fit the
    # seed to minimise |1 - s * (a + b * s)| — least squares of the
    # constant 1 in the basis {s, s^2} — rather than |1/s - y|.
    s = np.linspace(lo, hi, 512)
    design = np.stack([s, s * s], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, np.ones_like(s), rcond=None)
    return (float(coeffs[0]), float(coeffs[1]))


def newton_recip(s, init: tuple, iters: int = 2):
    """``1 / s`` by ``iters`` Newton steps from the affine seed."""
    s = np.asarray(s, dtype=np.float64)
    y = init[0] + init[1] * s
    for _ in range(iters):
        y = y * (2.0 - s * y)
    return y


# ----------------------------------------------------------------------
# numpy mirrors of the encrypted lowerings
# ----------------------------------------------------------------------
def paf_softmax(
    scores,
    exp: RangeReducedExp,
    recip_init: tuple,
    recip_iters: int = 2,
    axis: int = -1,
):
    """Mean-stabilised softmax, operator-for-operator as encrypted.

    Subtracting the *mean* (not the max — there is no encrypted max
    without another sign-PAF) centres the scores inside the exp fit's
    interval and leaves the softmax value unchanged; the normaliser is
    the affine-seeded Newton reciprocal of the exp sum.
    """
    z = np.asarray(scores, dtype=np.float64)
    z = z - z.mean(axis=axis, keepdims=True)
    e = exp(z)
    total = e.sum(axis=axis, keepdims=True)
    return e * newton_recip(total, recip_init, recip_iters)


def paf_layer_norm(
    x,
    rsqrt: Polynomial,
    gain=None,
    bias=None,
    axis: int = -1,
    eps: float = 1e-5,
):
    """LayerNorm with the rsqrt PAF as normaliser (numpy mirror)."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=axis, keepdims=True)
    var = np.square(x - mean).mean(axis=axis, keepdims=True)
    out = (x - mean) * rsqrt(var + eps)
    if gain is not None:
        out = out * gain
    if bias is not None:
        out = out + bias
    return out
