"""CKKS level refresh (simplified bootstrapping), exactness-gated.

A deep circuit exhausts the rescale chain: every multiplication consumes
one level and at level 0 the computation is over.  *Bootstrapping*
restores levels homomorphically.  This module implements the standard
pipeline shape on top of the existing machinery — and an exactness gate
that makes the precision contract explicit rather than assumed:

``method="evalmod"`` — the real (simplified) pipeline:

1. **ModRaise** (:func:`mod_raise`): reinterpret the level-0 ciphertext
   over the full prime chain.  Decryption now yields ``p + q0·I`` for a
   small integer vector ``I`` — correct *modulo the base prime* ``q0``.
2. **CoeffToSlot** (:func:`coeff_to_slot`): move the polynomial
   coefficients into slot values with the decoding matrix ``A^H``
   (``A_{jk} = ζ_j^k``, ``A⁻¹ = (2/N)·A^H``), run as a BSGS-planned
   :func:`repro.fhe.linear.encrypted_matvec_shards` (``1 × 1`` grid)
   with complex pre-encoded diagonals.  One conjugation separates the two
   coefficient halves ``a`` (real part) and ``b`` (imaginary part).
3. **EvalMod** (:func:`eval_mod`): approximate ``p̃ ↦ p̃ mod q0`` via
   ``(q0/2π)·sin(2π·p̃/q0)``, evaluated as a Chebyshev fit of ``cos`` on
   the range-reduced argument followed by ``r`` exact double-angle steps
   (Han–Ki).  The ``cos`` polynomial runs through the Paterson–Stockmeyer
   planner and executor every PAF uses (:func:`repro.ckks.poly_plan.plan_poly`).
4. **SlotToCoeff** (:func:`slot_to_coeff`): the inverse linear map ``A``
   puts the reduced coefficients back, landing on the canonical scale of
   the target level.

``method="recrypt"`` — the simplified, deterministic variant: decrypt and
re-encrypt (as a noiseless encoding) at the top of the chain.  In a
simulator the key chain is always at hand; recrypt preserves values to
encode rounding (~2^-scale_bits), runs with *zero* keyswitches, and is
byte-identical across kernel backends — which is what the deep-network
demo pipelines and the cross-backend invariance gates need.  The real
pipeline is exercised by the hypothesis suites at parameter points where
its numerics are honest (see below).

Both methods pass through the same **precision gate**: the refreshed
ciphertext is decrypted and compared against the pre-refresh values; a
relative error above the plan's ``rtol`` raises
:class:`RefreshPrecisionError` instead of silently corrupting the
computation downstream.

Parameter honesty
-----------------
``evalmod`` only works when the message amplitude is well below ``q0``:
the sine approximation distorts the signal by ``θ²/6`` at phase
``θ = 2π·Δ·|v|/q0``, and the CoeffToSlot diagonals (``∝ Δ/q0``) must
survive fixed-point encoding.  With this repo's < 2^30 NTT primes that
means ``q0/Δ ≥ 8`` (enforced at plan time) — e.g. ``scale_bits=25`` under
the 29-bit base prime, gated at ``rtol ≈ 5e-2``.  Production systems run
the same pipeline under 50–60-bit primes where both margins are huge;
the structure here is the paper-faithful part, the parameter envelope is
the simulator's.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.context import CkksContext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import Ciphertext, CkksEvaluator
from repro.ckks.instrumentation import span as trace_span
from repro.ckks.poly_plan import plan_poly
from repro.paf.polynomial import Polynomial

__all__ = [
    "RefreshPrecisionError",
    "RefreshPlan",
    "plan_refresh",
    "refresh",
    "mod_raise",
    "coeff_to_slot",
    "slot_to_coeff",
    "eval_mod",
]


class RefreshPrecisionError(ArithmeticError):
    """A refresh left the declared relative-error envelope.

    Carries the measured relative error and the gate it failed, so
    callers (tests, the serving layer) can distinguish "parameters too
    tight" from a plain bug.
    """

    def __init__(self, method: str, rel_err: float, rtol: float):
        self.method = method
        self.rel_err = rel_err
        self.rtol = rtol
        super().__init__(
            f"refresh ({method}) relative error {rel_err:.3e} exceeds the "
            f"declared gate rtol={rtol:.1e}"
        )


# ----------------------------------------------------------------------
# ModRaise
# ----------------------------------------------------------------------
def mod_raise(ev: CkksEvaluator, ct: Ciphertext, target_level: int) -> Ciphertext:
    """Reinterpret a ciphertext over the chain up to ``target_level``.

    The level-0 residues are centred to ``[-q0/2, q0/2)`` and lifted into
    the larger RNS basis unchanged, so the new ciphertext decrypts to
    ``p + q0·I`` — the message plus an unknown small integer multiple of
    the base prime (``|I|`` is bounded by the secret key's Hamming
    weight).  EvalMod's job is to remove the ``q0·I`` part.
    """
    return ev._mod_raise(ev.mod_switch_to(ct, 0), target_level)


# ----------------------------------------------------------------------
# refresh plan
# ----------------------------------------------------------------------
class RefreshPlan:
    """Everything one refresh needs, precomputed once per context.

    Built by :func:`plan_refresh`.  For ``evalmod`` this holds the CtS /
    StC matrices with their BSGS :class:`~repro.fhe.linear.MatvecPlan`\\ s,
    the compiled ``cos`` polynomial plan and the range-reduction
    constants; encoded diagonal plaintexts are memoised per
    ``(level, scale)`` consumption point, so repeated refreshes encode
    nothing.  ``pipeline_levels`` is the depth the refresh itself burns —
    the honest part of the IR node's cost model.
    """

    def __init__(
        self,
        ctx: CkksContext,
        method: str,
        rtol: float,
        *,
        mod_k: int = 0,
        num_double_angles: int = 0,
        cos_poly: Polynomial | None = None,
        cos_plan=None,
        cts_matrix: np.ndarray | None = None,
        stc_matrix: np.ndarray | None = None,
        cts_plan=None,
        stc_plan=None,
    ):
        self.ctx = ctx
        self.method = method
        self.rtol = rtol
        self.mod_k = mod_k
        self.num_double_angles = num_double_angles
        self.cos_poly = cos_poly
        self.cos_plan = cos_plan
        self.cts_matrix = cts_matrix
        self.stc_matrix = stc_matrix
        self.cts_plan = cts_plan
        self.stc_plan = stc_plan
        self._encoded: dict = {}

    @property
    def pipeline_levels(self) -> int:
        """Levels the refresh pipeline itself consumes (0 for recrypt).

        CoeffToSlot spends *two* levels: its diagonals are tiny
        (``∝ 1/q0``) and the double-angle steps amplify any CtS error by
        ``2^r``, so the diagonals encode at a two-prime scale (~2^50)
        where fixed-point quantization is negligible — the standard
        large-prime headroom production bootstrappers get for free,
        bought here with one extra rescale.
        """
        if self.method == "recrypt":
            return 0
        cos_depth = self.cos_plan.mult_depth
        return 3 + cos_depth + self.num_double_angles  # CtS(2) + cos + angles + StC

    @property
    def target_level(self) -> int:
        """Level a refreshed ciphertext lands at."""
        return self.ctx.max_level - self.pipeline_levels

    def galois_steps(self) -> tuple:
        """Rotation steps (plus ``"conj"``) keygen must cover."""
        if self.method == "recrypt":
            return ()
        steps = set(self.cts_plan.rotation_steps())
        steps |= set(self.stc_plan.rotation_steps())
        return tuple(sorted(steps)) + ("conj",)

    # -- encoded complex diagonals, memoised per consumption point -----
    def _encoded_groups(
        self, stage: str, level: int, pt_scale: float, factor: float
    ) -> dict:
        """``factor`` folds the *message scale* into the matrix values.

        The base matrices are scale-free; the refreshed ciphertext's
        actual scale (canonical-with-drift, only known at run time)
        multiplies in here, keyed into the memo alongside the encode
        coordinates.  The plan encodes against its own context, never
        through the running evaluator, so every memo entry is a real
        :class:`~repro.ckks.encoder.Plaintext` whichever evaluator —
        real or shadow — asked first.
        """
        key = (stage, level, pt_scale, factor)
        cached = self._encoded.get(key)
        if cached is not None:
            return cached
        from repro.fhe.linear import grouped_diagonals

        matrix = self.cts_matrix if stage == "cts" else self.stc_matrix
        mv_plan = self.cts_plan if stage == "cts" else self.stc_plan
        m = matrix.shape[0]
        rows = np.arange(m)
        diagonals = {
            d: factor * matrix[rows, (rows + d) % m] for d in range(m)
        }
        encode = CkksEncoder(self.ctx).encode
        encoded = {
            g: {b: encode(vec, level, pt_scale) for b, vec in inner.items()}
            for g, inner in grouped_diagonals(diagonals, mv_plan).items()
        }
        self._encoded[key] = encoded
        return encoded


def plan_refresh(
    ctx: CkksContext,
    *,
    method: str = "recrypt",
    rtol: float | None = None,
    mod_k: int | None = None,
    num_double_angles: int | None = None,
    cos_degree: int = 14,
) -> RefreshPlan:
    """Compile a refresh plan for ``ctx``.

    ``method="recrypt"`` needs no parameters beyond the gate ``rtol``
    (default ``1e-3``).  ``method="evalmod"`` picks the wrap bound ``K``
    from the ring size (the ``q0·I`` term scales with the secret key's
    Hamming weight, so ``K ~ √N``), the double-angle count ``r`` so the
    reduced argument fits a well-conditioned Chebyshev window, and fits
    ``cos`` to ``cos_degree`` (default 14; the fit error is negligible
    against the encode/noise floor).  Default evalmod ``rtol`` is
    ``5e-2`` — see the module docstring for where that envelope comes
    from.
    """
    if method == "recrypt":
        return RefreshPlan(ctx, method, 1e-3 if rtol is None else rtol)
    if method != "evalmod":
        raise ValueError(f"unknown refresh method {method!r}")

    q0 = ctx.q_chain[0]
    ratio = q0 / ctx.scale
    if ratio < 8:
        raise ValueError(
            f"evalmod needs q0/scale >= 8 (message well below the base "
            f"prime); got q0/scale = {ratio:.2f}.  Use smaller scale_bits "
            f"(e.g. first_prime_bits - 4) or method='recrypt'."
        )

    n = ctx.n
    if mod_k is None:
        # |I| is a centred sum of ~2N/3 ternary-weighted q0/2-bounded
        # terms: std ≈ √(N/18); six sigmas, floored for tiny rings
        mod_k = max(5, int(np.ceil(6.0 * np.sqrt(n / 18.0))))
    span_rad = 2.0 * np.pi * (mod_k + 1) + np.pi / 2.0
    if num_double_angles is None:
        num_double_angles = max(1, int(np.ceil(np.log2(span_rad / 3.2))))
    r = num_double_angles
    x_max = span_rad / 2.0**r

    # cos via Chebyshev interpolation on [-x_max, x_max], power basis
    cheb = np.polynomial.chebyshev.Chebyshev.interpolate(
        lambda z: np.cos(z * x_max), cos_degree, domain=[-1.0, 1.0]
    )
    pow_scaled = np.polynomial.chebyshev.cheb2poly(cheb.coef)
    coeffs = [
        float(c) / x_max**k for k, c in enumerate(pow_scaled)
    ]
    cos_poly = Polynomial(coeffs, interval=(-x_max, x_max), name="refresh-cos")
    cos_plan = plan_poly(cos_poly)

    # decoding basis A_{jk} = ζ_j^k restricted to the first N/2 columns;
    # slots = A·(a + ib) for coefficient halves a, b, and A⁻¹ = (2/N)·A^H
    m = ctx.slots
    ks = np.arange(m)
    a_basis = np.exp(1j * np.outer(np.pi * ctx._orbit / n, ks))
    # CtS: conj-separation must come out as 2π·ã/(2^r·q0) (the range-
    # reduced EvalMod argument), so fold 2π/(2^r·q0·N) into A^H; the
    # message scale multiplies in at consumption time (the refreshed
    # ciphertext's actual scale carries rescale drift the plan can't know)
    cts_matrix = (2.0 * np.pi / (2.0**r * q0 * n)) * a_basis.conj().T
    # StC: sin(2πt) ≈ (2π/q0)·p̃, so fold q0/2π back into A (divided by
    # the message scale at consumption time)
    stc_matrix = (q0 / (2.0 * np.pi)) * a_basis

    from repro.fhe.linear import plan_matvec

    mv_plan = plan_matvec(range(m), m)
    return RefreshPlan(
        ctx,
        method,
        5e-2 if rtol is None else rtol,
        mod_k=mod_k,
        num_double_angles=r,
        cos_poly=cos_poly,
        cos_plan=cos_plan,
        cts_matrix=cts_matrix,
        stc_matrix=stc_matrix,
        cts_plan=mv_plan,
        stc_plan=mv_plan,
    )


# ----------------------------------------------------------------------
# pipeline stages (evalmod)
# ----------------------------------------------------------------------
def coeff_to_slot(
    ev: CkksEvaluator, ct: Ciphertext, plan: RefreshPlan
) -> tuple:
    """Move coefficients into slots; returns ``(ct_a, ct_b)``.

    ``ct_a`` holds the EvalMod arguments for the low coefficient half
    (``2π·ã/(2^r·q0)`` in every slot), ``ct_b`` the high half — via one
    BSGS matvec with the folded ``A^H`` diagonals, one conjugation and
    the free ``×i`` monomial product.
    """
    from repro.fhe.linear import encrypted_matvec_shards

    # two-prime encode scale: the matvec's internal rescale leaves the
    # product one prime heavy, and the extra rescale below lands it on
    # the canonical scale two levels down with ~50-bit diagonal precision
    s_next = ev.ctx.canonical_scale(ct.level - 2)
    q_chain = ev.ctx.q_chain
    pt_scale = s_next * q_chain[ct.level] * q_chain[ct.level - 1] / ct.scale
    groups = plan._encoded_groups("cts", ct.level, pt_scale, ct.scale)
    w = ev.rescale(encrypted_matvec_shards(ev, [ct], [[groups]])[0])
    wc = ev.conjugate(w)
    ct_a = ev.add(w, wc)
    ct_b = ev._mul_by_i(ev.sub(wc, w))
    return ct_a, ct_b


def eval_mod(ev: CkksEvaluator, ct: Ciphertext, plan: RefreshPlan) -> Ciphertext:
    """Approximate ``sin(2π·t)`` on the range-reduced argument.

    Input slots hold ``u = 2π·t/2^r``; the phase shift ``-π/2^{r+1}``
    (free plaintext add) moves the Chebyshev ``cos`` fit onto
    ``cos(2^r·x) = cos(2π·t - π/2) = sin(2π·t)``; ``r`` double-angle
    steps (``cos 2θ = 2cos²θ - 1``, one level each) restore the full
    angle.  ``q0``-periodicity is what deletes the ``q0·I`` term.
    """
    from repro.ckks.poly_eval import eval_poly

    r = plan.num_double_angles
    x = ev.add_plain(ct, -np.pi / 2.0 ** (r + 1))
    y = eval_poly(ev, x, plan.cos_poly, plan=plan.cos_plan)
    for _ in range(r):
        doubled = ev.mul_rescale(y, y)
        y = ev.add_plain(ev.add(doubled, doubled), -1.0)
    return y


def slot_to_coeff(
    ev: CkksEvaluator,
    ct_a: Ciphertext,
    ct_b: Ciphertext,
    plan: RefreshPlan,
    msg_scale: float,
) -> Ciphertext:
    """Recombine the halves and move slot values back to coefficients.

    ``msg_scale`` is the scale the refreshed message was encoded at on
    entry (its coefficients are ``msg_scale·v``); dividing it out of the
    StC diagonals makes the output decrypt to ``v`` at the canonical
    scale of the output level, which the diagonals' encode scale lands
    exactly (single rescale).
    """
    from repro.fhe.linear import encrypted_matvec_shards

    y = ev.add(ct_a, ev._mul_by_i(ct_b))
    s_tgt = ev.ctx.canonical_scale(y.level - 1)
    pt_scale = s_tgt * ev.ctx.q_chain[y.level] / y.scale
    groups = plan._encoded_groups("stc", y.level, pt_scale, 1.0 / msg_scale)
    out = encrypted_matvec_shards(ev, [y], [[groups]])[0]
    out.scale = s_tgt  # exact by construction (up to encode rounding)
    return out


# ----------------------------------------------------------------------
# the refresh itself
# ----------------------------------------------------------------------
def refresh(ev: CkksEvaluator, ct: Ciphertext, plan: RefreshPlan) -> Ciphertext:
    """Refresh ``ct`` back to ``plan.target_level``, precision-gated.

    Decrypts the input once for the gate reference (and, under
    ``recrypt``, as the refresh itself), runs the plan's pipeline, then
    decrypts the output and enforces ``plan.rtol`` — raising
    :class:`RefreshPrecisionError` rather than handing a silently
    corrupted ciphertext downstream.  The whole refresh runs inside a
    ``refresh:<method>`` trace span, which is what exempts its
    level-raising transition from the trace checker's monotone-level
    rule.
    """
    ctx = ev.ctx
    with trace_span(
        ev, f"refresh:{plan.method}", kind="refresh",
        method=plan.method, target_level=plan.target_level,
    ) as sp:
        sp.ct_entry(ct)
        reference = ev.decrypt(ct)
        if plan.method == "recrypt":
            target = plan.target_level
            out = ev._trivial_encrypt(reference, target, ctx.canonical_scale(target))
        else:
            raised = mod_raise(ev, ct, ctx.max_level)
            ct_a, ct_b = coeff_to_slot(ev, raised, plan)
            ya = eval_mod(ev, ct_a, plan)
            yb = eval_mod(ev, ct_b, plan)
            out = slot_to_coeff(ev, ya, yb, plan, ct.scale)
        got = ev.decrypt(out)
        err = float(np.max(np.abs(got - reference)))
        ref = float(np.max(np.abs(reference)))
        rel = err / max(ref, 1e-12)
        if rel > plan.rtol:
            raise RefreshPrecisionError(plan.method, rel, plan.rtol)
        sp.set(rel_err=rel)
        sp.ct_exit(out)
    return out
