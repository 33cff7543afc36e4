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
* :class:`VectorizedBackend` — the same arithmetic over whole stacks:
  the NTTs and the base conversion are compiled C (``_kernels.c``,
  built with the system ``cc`` on first use and loaded through
  ``ctypes``), one call per ``(..., limbs, n)`` stack against twiddle
  tables stacked once per context; the key inner product is one numpy
  sum reduced once per chunk.

The two are **bit-identical**, not merely numerically close: all kernels
are exact integer arithmetic mod 30-bit primes returning canonical
residues, and the pipelines are one shared composition of them, so no
evaluation order or layout can change any residue.  The cross-backend
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

Overflow discipline: primes are < 2^30, so any product of two residues
is < 2^60 < 2^63, and at most 8 such products are summed in int64
between reductions (:func:`_chunked_modsum`).  The C NTTs multiply by
Shoup twiddles: a twiddle ``w < p`` carries ``floor(w·2^32/p) < 2^32``,
lazy butterfly values stay < 4p < 2^32 and every quotient product is
< 2^64.  The C base conversion multiplies a *centred* residue (< 2^29)
by a weight (< 2^30) and sums at most 15 of those between reductions.

The compiled library is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), keyed by a hash of the source, the flags, the
compiler version and the host CPU; a build writes a temp file and
renames it into place, so racing processes never load half a file.
Where the build fails, :class:`VectorizedBackend` runs the spec
kernels after one :class:`KernelBuildWarning` naming the compiler
error (the test suite turns that warning into an error).

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


def _load_kernels(path: Path) -> ctypes.CDLL:
    """``ctypes`` handle on the built library with every signature
    declared: arrays go in as C-contiguous ``ndpointer``\\ s, so ctypes
    checks their dtype and the call's own arguments keep them alive."""
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u32 = np.ctypeslib.ndpointer(np.uint32, flags="C_CONTIGUOUS")
    n = ctypes.c_int64
    lib = ctypes.CDLL(str(path))
    lib.ntt.argtypes = [i64, i64, n, n, n, i64, i64, u32, u32, i64, ctypes.c_int]
    lib.ntt.restype = ctypes.c_int
    lib.base_convert.argtypes = [i64, i64, n, n, n, i64, i64, n, n, n, i64, i64]
    lib.base_convert.restype = ctypes.c_int
    return lib


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
    """Compiled kernels: whole residue stacks per call.

    The negacyclic NTTs and the base conversion run in C
    (``_kernels.c``, built on first use; see :func:`_native_kernels`):
    one call sweeps every row of a ``(..., limbs, n)`` stack — a whole
    ``(digits, basis, n)`` keyswitch tensor included — against twiddle
    tables stacked once per context with their Shoup quotients.  The key
    inner product stays one chunked numpy sum.  Inputs must be canonical
    residues (every in-tree caller's invariant); shapes and prime
    indices are checked before any pointer reaches C.  Without a
    compiler the NTTs and the base conversion are
    :class:`ReferenceBackend`'s spec kernels, after one
    :class:`KernelBuildWarning`.
    """

    name = "vectorized"

    def __init__(self, ctx):
        super().__init__(ctx)
        plans = ctx.plans
        self._primes = ctx._primes_arr
        psi = np.stack([plan.psi_rev for plan in plans])
        psi_inv = np.stack([plan.psi_inv_rev for plan in plans])
        #: stacked twiddle tables and their Shoup quotients, indexed by
        #: position in ``ctx.all_primes``
        self._psi, self._psi_shoup = psi.astype(np.uint32), _shoup(psi, self._primes)
        self._psi_inv = psi_inv.astype(np.uint32)
        self._psi_inv_shoup = _shoup(psi_inv, self._primes)
        self._n_inv = np.array([plan.n_inv for plan in plans], dtype=np.int64)
        self._lib = _native_kernels()

    def _indices(self, prime_indices) -> np.ndarray:
        idx = np.asarray(prime_indices, dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= self._primes.size)):
            raise ValueError(f"prime indices {prime_indices!r} outside the context's primes")
        return idx

    def _stack(self, rows, idx) -> np.ndarray:
        """``rows`` as a C-contiguous int64 ``(..., len(idx), n)`` stack
        (a copy only when the layout needs one; never written to)."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim < 2 or rows.shape[-2:] != (idx.size, self.ctx.n):
            raise ValueError(
                f"rows of shape {rows.shape} do not match {idx.size} limbs of n={self.ctx.n}"
            )
        return rows

    def _ntt(self, rows, prime_indices, inverse: bool) -> np.ndarray:
        idx = self._indices(prime_indices)
        rows = self._stack(rows, idx)
        out = np.empty_like(rows)
        psi, psi_shoup = (
            (self._psi_inv, self._psi_inv_shoup) if inverse else (self._psi, self._psi_shoup)
        )
        status = self._lib.ntt(
            rows, out, math.prod(rows.shape[:-2]), idx.size, self.ctx.n,
            idx, self._primes, psi, psi_shoup, self._n_inv, inverse,
        )
        if status:
            raise MemoryError("NTT kernel could not allocate its scratch row")
        return out

    def ntt_forward(self, rows, prime_indices):
        if self._lib is None:
            return ReferenceBackend.ntt_forward(self, rows, prime_indices)
        return self._ntt(rows, prime_indices, inverse=False)

    def ntt_inverse(self, rows, prime_indices):
        if self._lib is None:
            return ReferenceBackend.ntt_inverse(self, rows, prime_indices)
        return self._ntt(rows, prime_indices, inverse=True)

    def reduce_coeffs(self, coeffs, prime_indices):
        return coeffs[None, :] % self._primes_col(prime_indices)

    def base_convert(self, rows, conv):
        if self._lib is None:
            return ReferenceBackend.base_convert(self, rows, conv)
        sources = self._indices(conv.sources)
        targets = self._indices(conv.targets)
        rows = self._stack(rows, sources)
        inv = np.ascontiguousarray(conv.inv, dtype=np.int64)
        weights = np.ascontiguousarray(conv.weights, dtype=np.int64)
        groups, _, size = weights.shape
        if (
            inv.shape != sources.shape
            or weights.shape[1] != targets.size
            or size < 1
            or groups != -(-sources.size // size)
        ):
            raise ValueError("base conversion constants do not match its sources and targets")
        lead = rows.shape[:-2]
        out = np.empty(lead + (groups, targets.size, self.ctx.n), dtype=np.int64)
        src_primes = self._primes[sources]
        tgt_primes = self._primes[targets]
        status = self._lib.base_convert(
            rows, out, math.prod(lead), sources.size, self.ctx.n,
            src_primes, inv, groups, targets.size, size, weights, tgt_primes,
        )
        if status:
            raise MemoryError("base conversion kernel could not allocate its scratch rows")
        return out

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
