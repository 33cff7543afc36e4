"""Pluggable kernel backends: the per-limb ↔ limb-batched seam.

Every homomorphic operation in this repo bottoms out in a handful of
exact modular-integer kernels over the ``(limbs, n)`` residue matrix of
an :class:`~repro.ckks.rns.RnsPoly`: negacyclic NTTs, pointwise modular
arithmetic, the centred approximate base conversion and the keyswitch
digit/key inner product.  :class:`KernelBackend` names that seam and
composes the kernels into the pipelines everything above it calls
— :meth:`~KernelBackend.rescale`, :meth:`~KernelBackend.hoist_decompose`
and :meth:`~KernelBackend.apply_keyswitch`, itself the composition of
:meth:`~KernelBackend.keyswitch_inner_product` and
:meth:`~KernelBackend.keyswitch_descent` (grouped hybrid keyswitching:
a digit is a group of α chain primes, lifted onto ``α+level+1`` basis
rows; see :mod:`repro.ckks.keys`).  ``rns``, ``evaluator``,
``fhe/linear`` and ``fhe/network`` call only the interface and never
touch a butterfly.

Two implementations ship:

* :class:`ReferenceBackend` — the spec: one
  :class:`~repro.ckks.ntt.NttPlan` transform per residue row, one
  Python-loop iteration per source prime of a base conversion and per
  keyswitch digit, a reduction after every term.
* :class:`VectorizedBackend` — the same arithmetic with the limb axis
  folded into the numpy kernels: twiddle tables stacked ``(limbs, n)``
  once per context, butterflies sweeping every limb (and every digit)
  of a stack in one pass, base conversion as one batched integer
  matmul, inner products reduced once per chunk.

The two are **bit-identical**, not merely numerically close: all kernels
are exact integer arithmetic mod 30-bit primes, the pipelines are one
shared composition of them, and batching identical elementwise
operations across rows cannot change any residue.  The cross-backend
conformance suite (``tests/fhe/test_backend_conformance``) pins this —
same kernel outputs at every level, same ``c0/c1`` coefficients, same
op counts, same decrypted outputs — which is what lets benchmarks
compare backends as pure wall-time experiments.

Selection: a context gets ``"vectorized"``.  ``"reference"`` stays
registered as the spec and the bit-identity oracle — the conformance,
golden and kernel tests select it by name
(``CkksParams(backend="reference")`` or
:meth:`CkksContext.set_backend`; exactness makes mid-stream switching
safe), and the ``REPRO_BACKEND`` environment variable lets CI run a
whole suite under it without editing a test.

Overflow discipline (int64 throughout): primes are < 2^30, so any
product of two residues is < 2^60 < 2^63, and at most 8 such products
are summed between reductions (:func:`_chunked_modsum`); a base
conversion multiplies a *centred* residue (< 2^29) by a weight (< 2^30)
and sums at most 15 of those (:data:`_CONVERT_CHUNK`).

This module deliberately imports nothing from the rest of ``repro.ckks``
(backends see only raw arrays, prime index lists and context
attributes), so :mod:`repro.ckks.context` can own backend resolution
without an import cycle.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]

#: test-harness override consulted when ``CkksParams.backend`` is None
BACKEND_ENV_VAR = "REPRO_BACKEND"
DEFAULT_BACKEND = "vectorized"


class KernelBackend:
    """Abstract kernel interface over one context's modulus chain.

    All methods operate on raw int64 arrays whose second-to-last axis
    runs over ``prime_indices`` (indices into ``ctx.all_primes``); the
    last axis is the ring dimension.  Implementations must be exact —
    the conformance suite asserts bit-identical results across
    backends, so "fast but approximately right" is not a valid backend.
    """

    #: registry / selection name; subclasses override
    name = "abstract"

    def __init__(self, ctx):
        self.ctx = ctx

    # ------------------------------------------------------------------
    # pointwise modular arithmetic — exact (rows, n) numpy in both
    # backends, shared here
    # ------------------------------------------------------------------
    def _primes_col(self, prime_indices) -> np.ndarray:
        return self.ctx._primes_arr[np.asarray(prime_indices, dtype=np.int64)][:, None]

    def modadd(self, a, b, prime_indices) -> np.ndarray:
        return (a + b) % self._primes_col(prime_indices)

    def modsub(self, a, b, prime_indices) -> np.ndarray:
        return (a - b) % self._primes_col(prime_indices)

    def modneg(self, a, prime_indices) -> np.ndarray:
        return (-a) % self._primes_col(prime_indices)

    def modmul(self, a, b, prime_indices) -> np.ndarray:
        return a * b % self._primes_col(prime_indices)

    def modscale(self, a, scalars, prime_indices) -> np.ndarray:
        """Multiply each residue row by its per-prime scalar."""
        return a * scalars[:, None] % self._primes_col(prime_indices)

    # ------------------------------------------------------------------
    # kernels implemented per backend
    # ------------------------------------------------------------------
    def ntt_forward(self, rows, prime_indices) -> np.ndarray:
        """Forward negacyclic NTT of every residue row.

        ``rows`` has shape ``(..., len(prime_indices), n)``; row ``i``
        along the limb axis is transformed mod
        ``ctx.all_primes[prime_indices[i]]``.
        """
        raise NotImplementedError

    def ntt_inverse(self, rows, prime_indices) -> np.ndarray:
        """Inverse negacyclic NTT of every residue row (same layout)."""
        raise NotImplementedError

    def reduce_coeffs(self, coeffs, prime_indices) -> np.ndarray:
        """Reduce one int64 coefficient vector into ``(limbs, n)`` rows."""
        raise NotImplementedError

    def base_convert(self, rows, conv) -> np.ndarray:
        """Centred approximate base conversion, coefficient domain.

        ``rows`` is ``(..., S, n)`` over ``conv.sources``; each group of
        source primes converts independently onto ``conv.targets``
        (:class:`~repro.ckks.context.BaseConversion` has the formula),
        giving ``(..., G, T, n)``.  The keyswitch digit lift and the
        divide-by-``P`` descent are its two callers.
        """
        raise NotImplementedError

    def inner_product(self, digits, key, prime_indices) -> np.ndarray:
        """``Σ_k digits[k] · key[k]`` mod each basis prime: ``(d, T, n)``
        tensors in, ``(T, n)`` out."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the rescale and keyswitch pipelines — shared: each is a fixed
    # composition of the kernels above, so every backend inherits the
    # same integer formulas and differs only in how a kernel sweeps rows
    # ------------------------------------------------------------------
    def rescale(self, rows, level) -> np.ndarray:
        """Rescale descent, NTT domain in and out: divide
        ``(..., level+1, n)`` chain rows by ``q_level`` with centred
        rounding, returning the ``(..., level, n)`` rows of the level
        below.

        Only the dropped row leaves the NTT domain: it is
        inverse-transformed, centred, reduced onto ``q_0..q_{level-1}``
        and forward-transformed, and the subtract-and-scale happens on
        NTT residues (the transform is linear mod each prime, so this is
        the coefficient-domain descent residue for residue).
        """
        q_last = self.ctx.q_chain[level]
        chain = list(range(level))
        last = self.ntt_inverse(rows[..., level : level + 1, :], [level])
        centered = np.where(last > q_last // 2, last - q_last, last)
        delta = self.ntt_forward(centered % self._primes_col(chain), chain)
        return self.modscale(
            self.modsub(rows[..., :level, :], delta, chain),
            self.ctx.rescale_inverses(level),
            chain,
        )

    def hoist_decompose(self, rows, level) -> np.ndarray:
        """Keyswitch digits of coefficient-domain chain ``rows``, in NTT
        form over the extended basis (special primes, then
        ``q_0..q_level`` — :meth:`CkksContext.keyswitch_basis`).

        A digit is a group of α chain primes lifted onto the whole
        basis, so the result is ``(ceil((level+1)/α), α+level+1, n)``.
        This is the Galois-independent half of a keyswitch (one batched
        base conversion, forward NTTs) — computed once and reused per
        rotation under hoisting.
        """
        ctx = self.ctx
        lifted = self.base_convert(rows, ctx.digit_lift(level))
        return self.ntt_forward(lifted, ctx.keyswitch_basis(level))

    def keyswitch_inner_product(self, digits, key_b, key_a, level, perm=None) -> np.ndarray:
        """Inner products of decomposed ``digits`` with the level's two
        key tensors (each ``(digits, α+level+1, n)``), left **in the
        extended basis**: ``(2, α+level+1, n)``, ``b`` half first.

        ``perm`` (an NTT-slot permutation) is applied to every digit
        first — the per-rotation half of a hoisted Galois application.
        The result is linear in the digits, so several keyswitches'
        accumulators may be added (:meth:`modadd` over
        :meth:`CkksContext.keyswitch_basis`) and share one
        :meth:`keyswitch_descent`.
        """
        basis = self.ctx.keyswitch_basis(level)
        if perm is not None:
            digits = digits[:, :, perm]
        # both halves ride one batched descent: stack -> (2, basis, n)
        return np.stack(
            [self.inner_product(digits, key, basis) for key in (key_b, key_a)]
        )

    def keyswitch_descent(self, acc, level) -> np.ndarray:
        """The divide-by-``P`` descent: ``(..., α+level+1, n)`` NTT rows
        over the extended basis to ``(..., level+1, n)`` over the chain.

        Only the α special rows leave the NTT domain: ``[x]_P`` is base-
        converted onto ``q_0..q_level``, forward-transformed, and
        subtracted and scaled by ``P^{-1}`` on NTT residues.
        """
        ctx = self.ctx
        alpha = ctx.alpha
        basis = ctx.keyswitch_basis(level)
        chain = basis[alpha:]
        special = self.ntt_inverse(acc[..., :alpha, :], basis[:alpha])
        delta = self.base_convert(special, ctx.p_descent(level))[..., 0, :, :]
        return self.modscale(
            self.modsub(acc[..., alpha:, :], self.ntt_forward(delta, chain), chain),
            ctx.p_inverses(level),
            chain,
        )

    def apply_keyswitch(self, digits, key_b, key_a, level, perm=None) -> tuple:
        """One whole keyswitch: :meth:`keyswitch_inner_product` then
        :meth:`keyswitch_descent`.  Returns NTT-domain
        ``(b_rows, a_rows)``, each ``(level+1, n)``.
        """
        return tuple(
            self.keyswitch_descent(
                self.keyswitch_inner_product(digits, key_b, key_a, level, perm=perm), level
            )
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.ctx.n})"


class ReferenceBackend(KernelBackend):
    """The spec: one row, one source prime, one digit at a time."""

    name = "reference"

    def ntt_forward(self, rows, prime_indices):
        out = np.empty_like(rows)
        plans = self.ctx.plans
        for r, idx in enumerate(prime_indices):
            out[..., r, :] = plans[idx].forward(rows[..., r, :])
        return out

    def ntt_inverse(self, rows, prime_indices):
        out = np.empty_like(rows)
        plans = self.ctx.plans
        for r, idx in enumerate(prime_indices):
            out[..., r, :] = plans[idx].inverse(rows[..., r, :])
        return out

    def reduce_coeffs(self, coeffs, prime_indices):
        rows = np.empty((len(prime_indices), self.ctx.n), dtype=np.int64)
        for r, idx in enumerate(prime_indices):
            rows[r] = coeffs % self.ctx.all_primes[idx]
        return rows

    def base_convert(self, rows, conv):
        primes = self.ctx.all_primes
        groups, _, size = conv.weights.shape
        tcol = self._primes_col(conv.targets)
        out = np.zeros(
            rows.shape[:-2] + (groups, len(conv.targets), self.ctx.n), dtype=np.int64
        )
        for r, idx in enumerate(conv.sources):
            q = primes[idx]
            y = rows[..., r, :] * conv.inv[r] % q
            y = np.where(y > q // 2, y - q, y)
            g, pos = divmod(r, size)
            term = y[..., None, :] * conv.weights[g, :, pos, None]
            out[..., g, :, :] = (out[..., g, :, :] + term) % tcol
        return out

    def inner_product(self, digits, key, prime_indices):
        pcol = self._primes_col(prime_indices)
        acc = np.zeros(digits.shape[1:], dtype=np.int64)
        for k in range(digits.shape[0]):
            acc = (acc + digits[k] * key[k]) % pcol
        return acc


def _stockham_forward_limb(x, w_tab, p, n):
    """One limb's forward NTT over a ``(rows, n)`` batch, scalar modulus.

    Stockham-style storage: stage ``s`` keeps the data as
    ``(rows, block, 2^s)`` with butterfly partners in the two contiguous
    block halves, so every read and every arithmetic pass is contiguous
    (the classic in-place layout strides badly once blocks shrink below a
    cache line).  The butterflies themselves — pairings and ψ twiddles —
    are exactly Cooley-Tukey's, so over exact modular integers the output
    is bit-identical to :meth:`repro.ckks.ntt.NttPlan.forward`.

    Reduction is deferred (Harvey-style laziness): only the twiddle
    product is reduced per stage, the add/sub halves grow by one prime's
    magnitude per stage, and values are re-canonicalised every 8 stages.
    With p < 2^30 the multiplicand stays below 8p < 2^33, keeping every
    product under 2^63 — exact int64 throughout.  Inputs must be
    canonical residues (every in-tree caller's invariant).
    """
    rows = x.shape[0]
    Y = np.ascontiguousarray(x).reshape(rows, n, 1)
    t = n
    m = 1
    growth = 1  # |values| < growth · p
    while m < n:
        t //= 2
        if growth == 8:  # next multiply needs |v| < 8p < 2^33
            Y = Y % p
            growth = 1
        A = Y[:, :t, :]
        B = Y[:, t:, :]
        vw = B * w_tab[m : 2 * m]
        vw %= p
        Ynew = np.empty((rows, t, 2 * m), dtype=np.int64)
        np.add(A, vw, out=Ynew[..., 0::2])
        np.subtract(A, vw, out=Ynew[..., 1::2])
        Y = Ynew
        m *= 2
        growth += 1
    return Y.reshape(rows, n) % p


def _stockham_forward_bcast(a, psi_rev, primes, n):
    """Forward NTT with the limb axis carried through every stage.

    Same Stockham dataflow as :func:`_stockham_forward_limb` with
    per-limb moduli as a broadcast divisor — cheaper than the per-limb
    loop when the leading batch is small (a handful of rows per limb
    can't amortise ``limbs`` separate numpy passes).
    """
    batch, limbs = a.shape[0], a.shape[1]
    Y = a.reshape(batch, limbs, n, 1)
    p = primes[None, :, None, None]
    t = n
    m = 1
    growth = 1
    while m < n:
        t //= 2
        if growth == 8:
            Y = Y % p
            growth = 1
        A = Y[:, :, :t, :]
        B = Y[:, :, t:, :]
        vw = B * psi_rev[:, m : 2 * m][None, :, None, :]
        vw %= p
        Ynew = np.empty((batch, limbs, t, 2 * m), dtype=np.int64)
        np.add(A, vw, out=Ynew[..., 0::2])
        np.subtract(A, vw, out=Ynew[..., 1::2])
        Y = Ynew
        m *= 2
        growth += 1
    return Y.reshape(batch, limbs, n) % primes[None, :, None]


#: leading-batch size from which the per-limb scalar-modulus path wins
#: over the broadcast path.  Measured on both toy rings (n=512 on 29/34/46
#: limbs, n=2048 on 9/10/14 limbs, one BLAS thread): broadcast wins or ties
#: through batch 10, the per-limb loop from batch 12 (16 on the 46-limb
#: stack).  Grouped keyswitch tensors carry at most ``dnum`` digits, so the
#: default parameters stay on the broadcast side; one-prime digits
#: (``dnum = depth+1``, e.g. ``paper_grade``) reach the per-limb side.
_LIMB_MAJOR_MIN_BATCH = 12


def _batched_ntt_forward(a, psi_rev, primes, n):
    """Forward negacyclic NTT over a ``(..., limbs, n)`` stack.

    ``psi_rev`` is ``(limbs, n)`` and ``primes`` is ``(limbs,)``; each
    limb's butterflies run mod its own prime.  Dispatches between two
    bit-identical Stockham kernels: large leading batches (one-prime-
    per-digit keyswitch tensors) loop over limbs with a scalar modulus,
    small ones broadcast the modulus across the limb axis.
    """
    shape = a.shape
    limbs = shape[-2]
    a = a.reshape(-1, limbs, n)
    if a.shape[0] >= _LIMB_MAJOR_MIN_BATCH:
        out = np.empty_like(a)
        for i in range(limbs):
            out[:, i, :] = _stockham_forward_limb(
                a[:, i, :], psi_rev[i], int(primes[i]), n
            )
        return out.reshape(shape)
    return _stockham_forward_bcast(a, psi_rev, primes, n).reshape(shape)


def _batched_ntt_inverse(a, psi_inv_rev, n_inv, primes, n):
    """Inverse (Gentleman-Sande) counterpart of :func:`_batched_ntt_forward`.

    Same deferred-reduction discipline; both butterfly halves grow here
    (u+v doubles the bound), so values are re-canonicalised every two
    stages, and the n^{-1} scaling folds into the last stage's twiddles
    so the output lands canonical without an extra full pass.  Inputs
    must be canonical residues (every in-tree caller's invariant).
    """
    pcol = primes[:, None]
    a = a.copy()  # C-contiguous working copy; butterflies run in place
    shape = a.shape
    limbs = shape[-2]
    a = a.reshape(-1, limbs, n)
    p = primes[None, :, None, None]
    t = 1
    m = n
    growth = 1  # |values| < growth · p
    while m > 1:
        h = m // 2
        if growth == 4:  # next stage forms u±v with |·| < 8p < 2^33
            a %= primes[None, :, None]
            growth = 1
        view = a.reshape(-1, limbs, h, 2, t)
        w = psi_inv_rev[:, h : 2 * h]
        u = view[..., 0, :]
        v = view[..., 1, :]
        d = u - v
        np.add(u, v, out=u)  # sum lands in place; d captured the difference
        if h == 1:
            # last stage: fold n^{-1} into both halves (exact — same
            # residues as a separate final scaling pass)
            w_scaled = w * n_inv[:, None] % pcol
            u *= n_inv[None, :, None, None]
            u %= p
            d *= w_scaled[None, :, :, None]
        else:
            d *= w[None, :, :, None]
        d %= p
        view[..., 1, :] = d
        t *= 2
        m = h
        growth *= 2
    return a.reshape(shape)


def _chunked_modsum(prods, pcol):
    """Sum ``(terms, limbs, n)`` over the first axis mod ``pcol``.

    Each term is a raw residue product ≤ (2^30 - 1)^2, so a chunk of 8
    plus the (< 2^30) running accumulator stays below 2^63 - 2^34 + 2^30
    — exact in int64 with one reduction per chunk instead of per term.
    """
    terms = prods.shape[0]
    acc = prods[:8].sum(axis=0) % pcol
    for k in range(8, terms, 8):
        acc = (acc + prods[k : k + 8].sum(axis=0)) % pcol
    return acc


#: source primes one int64 accumulation of :meth:`base_convert` may span:
#: centred residue (< 2^29) × weight (< 2^30) products, 15·2^59 + 2^30 < 2^63
_CONVERT_CHUNK = 15


class VectorizedBackend(KernelBackend):
    """Limb-batched kernels: the limb (and digit) axes live inside numpy.

    Twiddle tables from the context's per-prime :class:`NttPlan`\\ s are
    stacked once into ``(primes, n)`` arrays, so a transform of ``L``
    limbs — or of a whole ``(digits, basis, n)`` keyswitch tensor — is
    log2(n) butterfly stages of whole-tensor ops regardless of how many
    rows ride along.  The keyswitch pipeline never drops back to Python
    per digit or per row: the digit lift and the divide-by-P descent
    are each one batched integer matmul, the key inner product one
    chunked sum.
    """

    name = "vectorized"

    def __init__(self, ctx):
        super().__init__(ctx)
        plans = ctx.plans
        #: stacked twiddle tables, indexed by position in ``ctx.all_primes``
        self._psi = np.stack([plan.psi_rev for plan in plans])
        self._psi_inv = np.stack([plan.psi_inv_rev for plan in plans])
        self._n_inv = np.array([plan.n_inv for plan in plans], dtype=np.int64)
        self._primes = ctx._primes_arr

    def _idx(self, prime_indices) -> np.ndarray:
        return np.asarray(prime_indices, dtype=np.int64)

    def ntt_forward(self, rows, prime_indices):
        idx = self._idx(prime_indices)
        return _batched_ntt_forward(rows, self._psi[idx], self._primes[idx], self.ctx.n)

    def ntt_inverse(self, rows, prime_indices):
        idx = self._idx(prime_indices)
        return _batched_ntt_inverse(
            rows, self._psi_inv[idx], self._n_inv[idx], self._primes[idx], self.ctx.n
        )

    def reduce_coeffs(self, coeffs, prime_indices):
        return coeffs[None, :] % self._primes_col(prime_indices)

    def base_convert(self, rows, conv):
        groups, _, size = conv.weights.shape
        q = self._primes_col(conv.sources)
        y = rows * conv.inv[:, None] % q
        y = np.where(y > q // 2, y - q, y)
        lead = y.shape[:-2]
        if y.shape[-2] != groups * size:  # a partial last group pads with zeros
            padded = np.zeros(lead + (groups * size, self.ctx.n), dtype=np.int64)
            padded[..., : y.shape[-2], :] = y
            y = padded
        y = y.reshape(lead + (groups, size, self.ctx.n))
        tcol = self._primes_col(conv.targets)
        # |y| < 2^29 times a weight < 2^30: fifteen summands plus the
        # running residue stay below 2^63 — one reduction per chunk
        acc = 0
        for c in range(0, size, _CONVERT_CHUNK):
            chunk = slice(c, c + _CONVERT_CHUNK)
            acc = (acc + conv.weights[:, :, chunk] @ y[..., chunk, :]) % tcol
        return acc

    def inner_product(self, digits, key, prime_indices):
        # lazy sum: raw digit·key products are < 2^60, so up to 8 of them
        # sum exactly in int64 — reduce once per chunk of 8 digits
        return _chunked_modsum(digits * key, self._primes_col(prime_indices))


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------
_REGISTRY: dict = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}


def available_backends() -> list:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def register_backend(name: str, cls) -> None:
    """Register a :class:`KernelBackend` subclass under ``name``.

    New backends must pass the cross-backend conformance suite
    (bit-identical ciphertexts, identical op counts) before they are
    trustworthy — see ``docs/backends.md``.
    """
    if not (isinstance(cls, type) and issubclass(cls, KernelBackend)):
        raise TypeError(f"{cls!r} is not a KernelBackend subclass")
    _REGISTRY[name] = cls


def resolve_backend(spec, ctx) -> KernelBackend:
    """Instantiate the backend ``spec`` names for ``ctx``.

    ``spec`` may be a registered name, an already-constructed
    :class:`KernelBackend` bound to ``ctx``, or ``None`` — which falls
    back to the ``REPRO_BACKEND`` environment variable and finally to
    :data:`DEFAULT_BACKEND`.
    """
    if isinstance(spec, KernelBackend):
        if spec.ctx is not ctx:
            raise ValueError("backend instance is bound to a different context")
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    try:
        cls = _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {spec!r}; available: {', '.join(available_backends())}"
        ) from None
    return cls(ctx)
