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
* :class:`VectorizedBackend` — the same arithmetic, one compiled call
  per HE-level step: every pointwise op over a ``(..., limbs, n)``
  stack, the plaintext :meth:`~KernelBackend.lift`, the ciphertext
  tensor, :meth:`~KernelBackend.rescale`,
  :meth:`~KernelBackend.hoist_decompose`, the key inner product (Galois
  gather included, both key halves at once) and the descent are each
  one function of ``_kernels.c`` (built with the system ``cc`` on first
  use and loaded through ``ctypes``), run against two tables stacked
  once per context.

The two are **bit-identical**, not merely numerically close: all kernels
are exact integer arithmetic mod 30-bit primes returning canonical
residues, and every fused call computes exactly the base-class
composition it replaces, so no evaluation order or layout can change
any residue.  The cross-backend conformance suite
(``tests/fhe/test_backend_conformance``) pins this — same kernel outputs
at every level, same ``c0/c1`` coefficients, same op counts, same
decrypted outputs — which is what lets benchmarks compare backends as
pure wall-time experiments.

Selection: a context gets ``"vectorized"``.  ``"reference"`` stays
registered as the spec and the bit-identity oracle — the conformance,
golden and kernel tests select it by name
(``CkksParams(backend="reference")`` or
:meth:`CkksContext.set_backend`; exactness makes mid-stream switching
safe), and the ``REPRO_BACKEND`` environment variable lets CI run a
whole suite under it without editing a test.

Overflow discipline: primes are < 2^30, so any product of two residues
is < 2^60 < 2^63; the spec reduces after every product, the C key inner
product after every 8 (still below 2^63 with the running residue).  The
C NTTs multiply by Shoup twiddles: a twiddle ``w < p`` carries
``floor(w·2^32/p) < 2^32``, lazy butterfly values stay < 4p < 2^32 and
every quotient product is < 2^64.  The C base conversion multiplies a
*centred* residue (< 2^29) by a weight (< 2^30) and sums at most 15 of
those between reductions.  Every other C reduction is a double-precision
quotient estimate corrected into ``[0, p)``, exact for any
``|x| < 2^63 − 2^31``.

The compiled library is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), keyed by a hash of the source, the flags, the
compiler version and the host CPU; a build writes a temp file and
renames it into place, so racing processes never load half a file.
Where the build fails, :class:`VectorizedBackend` runs the base-class
compositions over the spec kernels after one :class:`KernelBuildWarning`
naming the compiler error (the test suite turns that warning into an
error).

This module deliberately imports nothing from the rest of ``repro.ckks``
(backends see only raw arrays, prime index lists and context
attributes), so :mod:`repro.ckks.context` can own backend resolution
without an import cycle.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "KernelBackend",
    "KernelBuildWarning",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
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
    # pointwise modular arithmetic — exact numpy over ``(..., limbs, n)``
    # stacks, ``b`` broadcasting over leading axes (the spec; the
    # vectorized backend runs each as one C call)
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

    def tensor(self, a, b, prime_indices) -> np.ndarray:
        """The ciphertext tensor product of two ``(2, limbs, n)`` NTT
        pairs: ``(a0·b0, a0·b1 + a1·b0, a1·b1)`` as ``(3, limbs, n)``."""
        return np.stack([
            self.modmul(a[0], b[0], prime_indices),
            self.modadd(
                self.modmul(a[0], b[1], prime_indices),
                self.modmul(a[1], b[0], prime_indices),
                prime_indices,
            ),
            self.modmul(a[1], b[1], prime_indices),
        ])

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
        """Reduce ``(..., n)`` int64 coefficient vectors into
        ``(..., limbs, n)`` rows."""
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
    # the lift, rescale and keyswitch pipelines — shared: each is a fixed
    # composition of the kernels above, so every backend inherits the
    # same integer formulas (a backend may fuse one into a single call
    # that must return the same bytes)
    # ------------------------------------------------------------------
    def lift(self, coeffs, prime_indices) -> np.ndarray:
        """NTT-form rows of ``(..., n)`` int64 coefficients:
        ``(..., limbs, n)``, :meth:`reduce_coeffs` then
        :meth:`ntt_forward` — a plaintext, a noise or a secret entering
        the ring."""
        return self.ntt_forward(self.reduce_coeffs(coeffs, prime_indices), prime_indices)

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
        coeffs = np.asarray(coeffs, dtype=np.int64)
        rows = np.empty(coeffs.shape[:-1] + (len(prime_indices), self.ctx.n), dtype=np.int64)
        for r, idx in enumerate(prime_indices):
            rows[..., r, :] = coeffs % self.ctx.all_primes[idx]
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


class KernelBuildWarning(RuntimeWarning):
    """The compiled kernels of :class:`VectorizedBackend` could not be
    built or loaded; the backend runs the spec kernels instead (exact,
    several times slower).  The message names the compiler error."""


#: the C kernels, compiled on first use with the system ``cc``
_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

_native_lock = threading.Lock()
#: the loaded kernel library; ``None`` until the first build, ``False``
#: after a failed one (which is warned about once per process)
_native = None


def _host_cpu() -> str:
    """What ``-march=native`` compiles for: the CPU model and features."""
    try:
        with open("/proc/cpuinfo") as fh:
            lines = {
                line.strip()
                for line in fh
                if line.startswith(("model name", "flags", "Features", "CPU part"))
            }
    except OSError:
        lines = set()
    return "\n".join([platform.machine(), *sorted(lines)])


def _build_kernels() -> Path:
    """Compile :data:`_KERNEL_SOURCE` into the cache unless it is there.

    The file name hashes the source, the flags, the compiler version and
    the host CPU.  The compiler writes a private temp file that is then
    renamed over the target, so a process racing this one to the same
    key only ever sees no file or a whole one.
    """
    source = _KERNEL_SOURCE.read_bytes()
    version = subprocess.run(
        ["cc", "--version"], capture_output=True, text=True, check=True
    ).stdout
    key = hashlib.sha256(
        b"\0".join([source, " ".join(_CFLAGS).encode(), version.encode(), _host_cpu().encode()])
    ).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    target = cache / f"kernels-{key}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
            capture_output=True, text=True, check=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


class _Array:
    """``ctypes`` argtype of one array slot of a kernel.

    The argument must be a live ndarray of ``_dtype_`` — C-contiguous
    unless the slot takes row-strided views (``_strided``, whose
    strides travel as sizes) — and C gets its data pointer for the
    duration of the call: ``ndpointer``'s contract at a fraction of its
    per-argument cost.  A writable contiguous array lends its buffer
    through ``c_char.from_buffer``, whose export holds the array until
    ctypes drops the converted argument; anything else hands over
    ``ctypes.data`` while the call's own argument tuple holds the array.
    """

    _dtype_ = np.dtype(np.int64)
    _strided = False

    @classmethod
    def from_param(cls, obj):
        if type(obj) is not np.ndarray or obj.dtype != cls._dtype_:
            raise TypeError(f"expected an ndarray of {cls._dtype_}, got {type(obj).__name__}")
        flags = obj.flags
        if flags.c_contiguous and flags.writeable and obj.nbytes:
            return ctypes.byref(ctypes.c_char.from_buffer(obj))
        if not (flags.c_contiguous or cls._strided):
            raise TypeError("array argument is not C-contiguous")
        return ctypes.c_void_p(obj.ctypes.data)


class _Int64(_Array):
    _dtype_ = np.dtype(np.int64)


class _Int64Rows(_Array):
    _dtype_ = np.dtype(np.int64)
    _strided = True


class _UInt32(_Array):
    _dtype_ = np.dtype(np.uint32)


def _load_kernels(path: Path) -> ctypes.CDLL:
    """``ctypes`` handle on the built library with every signature
    declared: every array slot is an :class:`_Array`, so ctypes checks
    the dtype and layout of each argument and the call's own arguments
    keep the arrays alive."""
    i64, rows, u32 = _Int64, _Int64Rows, _UInt32
    n, flag = ctypes.c_int64, ctypes.c_int
    lib = ctypes.CDLL(str(path))
    signatures = {
        "ntt": ([i64, i64, n, n, n, i64, i64, u32, n, flag], ctypes.c_int),
        "lift": ([i64, i64, n, n, n, i64, i64, u32, n, flag], ctypes.c_int),
        "pointwise": ([flag, i64, i64, i64, n, n, n, n, i64, i64], None),
        "tensor": ([i64, i64, i64, n, n, i64, i64], None),
        "rescale": ([i64, i64, n, n, n, i64, i64, u32, n], ctypes.c_int),
        "base_convert": ([i64, i64, n, n, i64, i64], ctypes.c_int),
        "hoist_decompose": ([i64, i64, n, n, i64, i64, u32, n], ctypes.c_int),
        "inner_product": (
            [i64, rows, rows, i64, n, n, n, n, i64, flag, i64, i64], ctypes.c_int
        ),
        "keyswitch_descent": ([i64, i64, n, n, i64, i64, u32, n], ctypes.c_int),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


#: ``pointwise`` op codes (``enum`` order in ``_kernels.c``)
_OP_ADD, _OP_SUB, _OP_NEG, _OP_MUL, _OP_SCALE = range(5)


def _native_kernels():
    """The process-wide kernel library, built on the first call; ``None``
    (after one :class:`KernelBuildWarning`) when it cannot be built."""
    global _native
    with _native_lock:
        if _native is None:
            try:
                _native = _load_kernels(_build_kernels())
            except subprocess.CalledProcessError as exc:
                _native = False
                reason = f"`{' '.join(exc.cmd)}` failed: {(exc.stderr or '').strip()}"
            except OSError as exc:
                _native = False
                reason = str(exc)
            if _native is False:
                warnings.warn(
                    f"compiled kernels unavailable ({reason}); VectorizedBackend "
                    "falls back to the NttPlan spec kernels",
                    KernelBuildWarning,
                    stacklevel=3,
                )
    return _native or None


def _shoup(w, primes) -> np.ndarray:
    """Shoup quotients ``floor(w · 2^32 / p)`` of a ``(primes, n)`` table."""
    return ((w << 32) // primes[:, None]).astype(np.uint32)


class VectorizedBackend(KernelBackend):
    """Compiled kernels: one C call per HE-level step.

    Every pointwise op, plaintext lift, rescale, digit decomposition, key
    inner product (with its Galois gather) and divide-by-``P`` descent
    is one call into ``_kernels.c`` (built on first use; see
    :func:`_native_kernels`) over a whole ``(..., limbs, n)`` stack,
    against two tables stacked once per context: an int64 ``(2, K)``
    one (the primes, ``n⁻¹`` mod each) and a uint32 ``(4, K, n)`` one
    (forward and inverse twiddles with their Shoup quotients).  Inputs
    must be canonical residues (every in-tree caller's invariant);
    shapes, prime indices and conversion constants are checked before
    any pointer reaches C.  Without a compiler every method is the
    base-class composition over :class:`ReferenceBackend`'s spec
    kernels and numpy pointwise ops, after one
    :class:`KernelBuildWarning`.
    """

    name = "vectorized"

    def __init__(self, ctx):
        super().__init__(ctx)
        plans = ctx.plans
        primes = ctx._primes_arr
        psi = np.stack([plan.psi_rev for plan in plans])
        psi_inv = np.stack([plan.psi_inv_rev for plan in plans])
        #: the per-context tables every C call reads, indexed by position
        #: in ``ctx.all_primes``: primes and ``n⁻¹`` (int64, ``(2, K)``);
        #: twiddles and Shoup quotients (uint32, ``(4, K, n)``)
        self._ktab = np.stack([primes, [plan.n_inv for plan in plans]]).astype(np.int64)
        self._wtab = np.stack(
            [psi.astype(np.uint32), _shoup(psi, primes),
             psi_inv.astype(np.uint32), _shoup(psi_inv, primes)]
        )
        #: validated prime-index arrays and packed per-level conversions,
        #: built on first use (private: never written once cached)
        self._index_sets: dict = {}
        self._conversions: dict = {}
        self._lib = _native_kernels()

    # ------------------------------------------------------------------
    # argument checks: nothing reaches C unvalidated
    # ------------------------------------------------------------------
    def _indices(self, prime_indices) -> np.ndarray:
        try:
            key = tuple(prime_indices)
            idx = self._index_sets.get(key)
        except TypeError:
            key = idx = None
        if idx is None:
            idx = np.asarray(prime_indices, dtype=np.int64)
            if idx.ndim != 1 or (
                idx.size and (idx.min() < 0 or idx.max() >= self._ktab.shape[1])
            ):
                raise ValueError(f"prime indices {prime_indices!r} outside the context's primes")
            if key is not None:
                self._index_sets[key] = idx
        return idx

    def _stack(self, rows, limbs: int) -> np.ndarray:
        """``rows`` as a C-contiguous int64 ``(..., limbs, n)`` stack
        (a copy only when the layout needs one; never written to)."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim < 2 or rows.shape[-2:] != (limbs, self.ctx.n):
            raise ValueError(
                f"rows of shape {rows.shape} do not match {limbs} limbs of n={self.ctx.n}"
            )
        return rows

    def _pack(self, conv, tail=()) -> np.ndarray:
        """One int64 array holding a :class:`BaseConversion` the way
        ``_kernels.c`` reads it: ``[S, T, G, size, sources, targets, inv,
        weights]``, then ``tail`` (the descent's ``P⁻¹`` per target)."""
        sources = self._indices(conv.sources)
        targets = self._indices(conv.targets)
        inv = np.asarray(conv.inv, dtype=np.int64)
        weights = np.asarray(conv.weights, dtype=np.int64)
        if weights.ndim != 3:
            raise ValueError("base conversion weights must be (groups, targets, size)")
        groups, _, size = weights.shape
        if (
            inv.shape != sources.shape
            or weights.shape[1] != targets.size
            or size < 1
            or groups != -(-sources.size // size)
        ):
            raise ValueError("base conversion constants do not match its sources and targets")
        head = [sources.size, targets.size, groups, size]
        plan = np.concatenate([head, sources, targets, inv, weights.ravel(), tail])
        return plan.astype(np.int64)

    def _conversion(self, kind: str, level: int) -> np.ndarray:
        """The packed digit lift (``"lift"``) or ``P`` descent
        (``"descent"``, with ``P⁻¹`` mod each chain prime) of ``level``."""
        plan = self._conversions.get((kind, level))
        if plan is None:
            ctx = self.ctx
            if kind == "lift":
                plan = self._pack(ctx.digit_lift(level))
            else:
                conv = ctx.p_descent(level)
                if conv.weights.shape[0] != 1:
                    raise ValueError("the P descent converts one group of special primes")
                plan = self._pack(conv, ctx.p_inverses(level))
            self._conversions[(kind, level)] = plan
        return plan

    def _call(self, status: int, what: str) -> None:
        if status:
            raise MemoryError(f"{what} kernel could not allocate its scratch rows")

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _ntt(self, rows, prime_indices, inverse: bool) -> np.ndarray:
        idx = self._indices(prime_indices)
        rows = self._stack(rows, idx.size)
        out = np.empty_like(rows)
        self._call(
            self._lib.ntt(
                rows, out, math.prod(rows.shape[:-2]), idx.size, self.ctx.n,
                idx, self._ktab, self._wtab, self._ktab.shape[1], inverse,
            ),
            "NTT",
        )
        return out

    def ntt_forward(self, rows, prime_indices):
        if self._lib is None:
            return ReferenceBackend.ntt_forward(self, rows, prime_indices)
        return self._ntt(rows, prime_indices, inverse=False)

    def ntt_inverse(self, rows, prime_indices):
        if self._lib is None:
            return ReferenceBackend.ntt_inverse(self, rows, prime_indices)
        return self._ntt(rows, prime_indices, inverse=True)

    def _lift(self, coeffs, prime_indices, transform: bool) -> np.ndarray:
        idx = self._indices(prime_indices)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.int64)
        n = self.ctx.n
        if coeffs.ndim < 1 or coeffs.shape[-1] != n:
            raise ValueError(f"coefficients of shape {coeffs.shape} do not match n={n}")
        lead = coeffs.shape[:-1]
        out = np.empty(lead + (idx.size, n), dtype=np.int64)
        self._call(
            self._lib.lift(
                coeffs, out, math.prod(lead), idx.size, n,
                idx, self._ktab, self._wtab, self._ktab.shape[1], transform,
            ),
            "lift",
        )
        return out

    def reduce_coeffs(self, coeffs, prime_indices):
        if self._lib is None:
            return ReferenceBackend.reduce_coeffs(self, coeffs, prime_indices)
        return self._lift(coeffs, prime_indices, transform=False)

    def lift(self, coeffs, prime_indices):
        if self._lib is None:
            return super().lift(coeffs, prime_indices)
        return self._lift(coeffs, prime_indices, transform=True)

    def base_convert(self, rows, conv):
        if self._lib is None:
            return ReferenceBackend.base_convert(self, rows, conv)
        plan = self._pack(conv)
        sources, targets, groups = (int(v) for v in plan[:3])
        rows = self._stack(rows, sources)
        lead = rows.shape[:-2]
        out = np.empty(lead + (groups, targets, self.ctx.n), dtype=np.int64)
        self._call(
            self._lib.base_convert(rows, out, math.prod(lead), self.ctx.n, plan, self._ktab),
            "base conversion",
        )
        return out

    def inner_product(self, digits, key, prime_indices):
        return ReferenceBackend.inner_product(self, digits, key, prime_indices)

    # ------------------------------------------------------------------
    # pointwise ops: one call per stack, ``b`` broadcast over leading axes
    # ------------------------------------------------------------------
    def _pointwise(self, op: int, a, b, prime_indices) -> np.ndarray:
        idx = self._indices(prime_indices)
        limbs = idx.size
        a = self._stack(a, limbs)
        if op == _OP_SCALE:
            b = np.ascontiguousarray(b, dtype=np.int64)
            if b.shape != (limbs,):
                raise ValueError(f"{b.shape} scalars for {limbs} limbs")
        elif op == _OP_NEG:
            b = a
        else:
            b = self._stack(b, limbs)
            if b.shape != a.shape:
                shape = np.broadcast_shapes(a.shape, b.shape)
                if a.shape != shape:
                    a = np.ascontiguousarray(np.broadcast_to(a, shape))
                lead = b.shape[:-2]
                while lead and lead[0] == 1:
                    lead = lead[1:]
                if lead != shape[len(shape) - 2 - len(lead) : -2]:
                    b = np.ascontiguousarray(np.broadcast_to(b, shape))
        out = np.empty_like(a)
        b_batch = 1 if op == _OP_SCALE else math.prod(b.shape[:-2])
        self._lib.pointwise(
            op, a, b, out, math.prod(a.shape[:-2]), b_batch, limbs, self.ctx.n, idx, self._ktab
        )
        return out

    def modadd(self, a, b, prime_indices):
        if self._lib is None:
            return super().modadd(a, b, prime_indices)
        return self._pointwise(_OP_ADD, a, b, prime_indices)

    def modsub(self, a, b, prime_indices):
        if self._lib is None:
            return super().modsub(a, b, prime_indices)
        return self._pointwise(_OP_SUB, a, b, prime_indices)

    def modneg(self, a, prime_indices):
        if self._lib is None:
            return super().modneg(a, prime_indices)
        return self._pointwise(_OP_NEG, a, None, prime_indices)

    def modmul(self, a, b, prime_indices):
        if self._lib is None:
            return super().modmul(a, b, prime_indices)
        return self._pointwise(_OP_MUL, a, b, prime_indices)

    def modscale(self, a, scalars, prime_indices):
        if self._lib is None:
            return super().modscale(a, scalars, prime_indices)
        return self._pointwise(_OP_SCALE, a, scalars, prime_indices)

    def tensor(self, a, b, prime_indices):
        if self._lib is None:
            return super().tensor(a, b, prime_indices)
        idx = self._indices(prime_indices)
        a = self._stack(a, idx.size)
        b = self._stack(b, idx.size)
        if a.shape[:-2] != (2,) or b.shape[:-2] != (2,):
            raise ValueError(f"tensor needs two (2, limbs, n) pairs, got {a.shape} and {b.shape}")
        out = np.empty((3,) + a.shape[1:], dtype=np.int64)
        self._lib.tensor(a, b, out, idx.size, self.ctx.n, idx, self._ktab)
        return out

    # ------------------------------------------------------------------
    # the rescale and keyswitch pipelines, one call each
    # ------------------------------------------------------------------
    def rescale(self, rows, level):
        if self._lib is None:
            return super().rescale(rows, level)
        if not 1 <= level < len(self.ctx.q_chain):
            raise ValueError(f"no rescale below chain level {level}")
        rows = self._stack(rows, level + 1)
        lead = rows.shape[:-2]
        out = np.empty(lead + (level, self.ctx.n), dtype=np.int64)
        self._call(
            self._lib.rescale(
                rows, out, math.prod(lead), level, self.ctx.n,
                self.ctx.rescale_inverses(level), self._ktab, self._wtab, self._ktab.shape[1],
            ),
            "rescale",
        )
        return out

    def hoist_decompose(self, rows, level):
        if self._lib is None:
            return super().hoist_decompose(rows, level)
        plan = self._conversion("lift", level)
        sources, targets, groups = (int(v) for v in plan[:3])
        rows = self._stack(rows, sources)
        lead = rows.shape[:-2]
        out = np.empty(lead + (groups, targets, self.ctx.n), dtype=np.int64)
        self._call(
            self._lib.hoist_decompose(
                rows, out, math.prod(lead), self.ctx.n,
                plan, self._ktab, self._wtab, self._ktab.shape[1],
            ),
            "digit decomposition",
        )
        return out

    def keyswitch_inner_product(self, digits, key_b, key_a, level, perm=None):
        if self._lib is None:
            return super().keyswitch_inner_product(digits, key_b, key_a, level, perm=perm)
        n = self.ctx.n
        basis = self._indices(self.ctx.keyswitch_basis(level))
        digits = self._stack(digits, basis.size)
        if digits.ndim != 3:
            raise ValueError(f"digits of shape {digits.shape} are not (digits, basis, n)")
        key_b, key_a, stride = self._key_pair(key_b, key_a, digits.shape)
        if perm is None:
            perm, use_perm = basis, 0  # a placeholder the kernel never reads
        else:
            perm, use_perm = np.ascontiguousarray(perm, dtype=np.int64), 1
            if perm.shape != (n,):
                raise ValueError(f"a slot permutation of shape {perm.shape} for n={n}")
        out = np.empty((2,) + digits.shape[1:], dtype=np.int64)
        self._call(
            self._lib.inner_product(
                digits, key_b, key_a, out, digits.shape[0], basis.size, n,
                stride, perm, use_perm, basis, self._ktab,
            ),
            "key inner product",
        )
        return out

    @staticmethod
    def _key_pair(key_b, key_a, shape) -> tuple:
        """Both key halves as ``shape`` int64 arrays whose rows are
        contiguous and whose digits sit one common stride apart (a
        level's slice of a family's tensors already is), plus that stride
        in elements; anything else is copied into that layout."""
        keys = [np.asarray(key, dtype=np.int64) for key in (key_b, key_a)]
        for key in keys:
            if key.shape != shape:
                raise ValueError(f"key of shape {key.shape} for digits of shape {shape}")
        row = shape[-1] * 8
        stride = keys[0].strides[0]
        if any(
            key.strides[1:] != (row, 8) or key.strides[0] != stride for key in keys
        ) or stride % 8 or stride < shape[1] * row:
            keys = [np.ascontiguousarray(key) for key in keys]
            stride = shape[1] * row
        return keys[0], keys[1], stride // 8

    def keyswitch_descent(self, acc, level):
        if self._lib is None:
            return super().keyswitch_descent(acc, level)
        plan = self._conversion("descent", level)
        special, chain = (int(v) for v in plan[:2])
        acc = self._stack(acc, special + chain)
        lead = acc.shape[:-2]
        out = np.empty(lead + (chain, self.ctx.n), dtype=np.int64)
        self._call(
            self._lib.keyswitch_descent(
                acc, out, math.prod(lead), self.ctx.n,
                plan, self._ktab, self._wtab, self._ktab.shape[1],
            ),
            "keyswitch descent",
        )
        return out


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
