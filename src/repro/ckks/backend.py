"""Pluggable kernel backends: the per-limb ↔ limb-batched seam.

Every homomorphic operation in this repo bottoms out in a handful of
exact modular-integer kernels over ``(limbs, n)`` int64 residue rows —
a ciphertext half, a plaintext, a key or a secret, each over a basis its
caller knows: negacyclic NTTs, pointwise modular arithmetic, the
centred approximate base conversion and the keyswitch digit/key inner
product.  :class:`KernelBackend` names that seam and composes the
kernels into the pipelines everything above it calls.  A basis change
is one of two steps, each over the
:class:`~repro.ckks.context.BaseConversion` it runs:
:meth:`~KernelBackend.mod_up` (convert source rows onto more primes)
and :meth:`~KernelBackend.mod_down` (drop source rows and divide the
kept ones by their product).  The pipelines are one-liners over them —
:meth:`~KernelBackend.rescale` is a one-prime ModDown,
:meth:`~KernelBackend.hoist_decompose` the digit ModUp and
:meth:`~KernelBackend.keyswitch_descent` the divide-by-``P`` ModDown —
and :meth:`~KernelBackend.apply_keyswitch` is
:meth:`~KernelBackend.keyswitch_inner_product` then the descent
(grouped hybrid keyswitching: a digit is a group of α chain primes,
lifted onto ``α+level+1`` basis rows; see :mod:`repro.ckks.keys`).
Every pipeline takes NTT rows in and gives NTT rows out: the rows a step
must see as coefficients leave the NTT domain only inside its call.
``encoder``, ``keys``, ``evaluator``, ``fhe/linear`` and ``fhe/network``
call only the interface and never touch a butterfly.

Two implementations ship:

* :class:`ReferenceBackend` — the spec: one
  :class:`~repro.ckks.ntt.NttPlan` transform per residue row, one
  Python-loop iteration per source prime of a base conversion and per
  keyswitch digit, a reduction after every term.  Its per-row kernels
  (coefficient reduction, base conversion, digit/key inner product) are
  what the base class's pipelines compose; no caller uses them directly.
* :class:`VectorizedBackend` — the same arithmetic, one compiled call
  per HE-level step: every pointwise op over a ``(..., limbs, n)``
  stack, the plaintext :meth:`~KernelBackend.lift`, the ciphertext
  tensor, a matvec's :meth:`~KernelBackend.mul_plain_sum`, the key
  inner product (Galois gather included, both key halves at once),
  :meth:`~KernelBackend.mod_up` and :meth:`~KernelBackend.mod_down` are
  each one function of ``_kernels.c`` (built with the system ``cc`` on first
  use into a cffi extension module), run against two tables stacked
  once per context.

The two are **bit-identical**, not merely numerically close: all kernels
are exact integer arithmetic mod 30-bit primes returning canonical
residues, and every fused call computes exactly the base-class
composition it replaces, so no evaluation order or layout can change
any residue.  The cross-backend conformance suite
(``tests/fhe/test_backend_conformance``) pins this — same kernel outputs
at every level, same ciphertext bytes, same op counts, same
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
every quotient product is < 2^64.  The C base conversion inside
ModUp and ModDown multiplies a *centred* residue (< 2^29)
by a weight (< 2^30) and sums at most 15 of those between reductions.
Every other C reduction is a double-precision quotient estimate
corrected into ``[0, p)``, exact for any ``|x| < 2^63 − 2^31``.

The compiled module is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), keyed by a hash of the source, its header, the
flags, the compiler version, the host CPU, the interpreter's extension
suffix and the cffi version; a build writes a temp file and renames it
into place, so racing processes never load half a file.  Where the
build or the load fails (``cffi`` missing included),
:func:`resolve_backend` hands ``"vectorized"`` contexts a
:class:`ReferenceBackend` after one :class:`KernelBuildWarning` naming
the error (the test suite turns that warning into an error); a
:class:`VectorizedBackend` always runs its library.

This module deliberately imports nothing from the rest of ``repro.ckks``
(backends see only raw arrays, prime index lists and context
attributes), so :mod:`repro.ckks.context` can own backend resolution
without an import cycle.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import io
import math
import os
import platform
import subprocess
import sysconfig
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

    # ------------------------------------------------------------------
    # the lift, plaintext product sum and the two basis changes — the
    # spec.  Each is a fixed composition of the NTTs and the pointwise
    # ops; the lift, ModUp, ModDown and key inner product also use
    # ReferenceBackend's per-row kernels (``reduce_coeffs``,
    # ``base_convert``, ``inner_product``), so a backend without those
    # overrides these four.  An override is one fused call that must
    # return the same bytes
    # ------------------------------------------------------------------
    def lift(self, coeffs, prime_indices) -> np.ndarray:
        """NTT-form rows of ``(..., n)`` int64 coefficients:
        ``(..., limbs, n)``, :meth:`ReferenceBackend.reduce_coeffs` then
        :meth:`ntt_forward` — a plaintext, a noise or a secret entering
        the ring."""
        return self.ntt_forward(self.reduce_coeffs(coeffs, prime_indices), prime_indices)

    def mul_plain_sum(self, cts, plains, prime_indices) -> np.ndarray:
        """``Σ_t cts[t] ⊙ plains[t]``, a matvec's inner sum: each
        ``(2, limbs, n)`` NTT pair times a plaintext that broadcasts over
        both halves — ``(limbs, n)`` NTT rows, or ``(n,)`` int64
        coefficients that go through :meth:`lift` first — as one
        ``(2, limbs, n)`` pair: :meth:`modmul` per term, :meth:`modadd`
        between them."""
        if not cts or len(cts) != len(plains):
            raise ValueError(f"{len(cts)} ciphertexts for {len(plains)} plaintexts")
        acc = None
        for ct, pt in zip(cts, plains):
            if np.ndim(pt) == 1:
                pt = self.lift(pt, prime_indices)
            term = self.modmul(ct, pt, prime_indices)
            acc = term if acc is None else self.modadd(acc, term, prime_indices)
        return acc

    def mod_up(self, rows, conv) -> np.ndarray:
        """ModUp: ``(..., S, n)`` NTT rows over ``conv.sources`` to
        ``(..., G, T, n)`` NTT rows over ``conv.targets``, one block per
        source group (:class:`~repro.ckks.context.BaseConversion`):
        :meth:`ntt_inverse`, :meth:`ReferenceBackend.base_convert`, then
        :meth:`ntt_forward`.  Block ``g`` holds the group's centred value
        (up to a small multiple of its modulus) on every target."""
        coeffs = self.ntt_inverse(rows, conv.sources)
        return self.ntt_forward(self.base_convert(coeffs, conv), conv.targets)

    def mod_down(self, rows, conv) -> np.ndarray:
        """ModDown: drop ``conv``'s source rows and divide the kept
        target rows by the sources' product with centred rounding —
        ``(..., S+T, n)`` NTT rows to ``(..., T, n)`` over
        ``conv.targets``, for a conversion of one source group.  The
        dropped rows lead when they are special primes (the order of
        :meth:`CkksContext.keyswitch_basis`) and trail otherwise, as a
        chain stack ends with its top prime.

        Only the dropped rows leave the NTT domain: they are base-
        converted onto the targets, forward-transformed, and subtracted
        and scaled by ``conv.divisor_inv`` on NTT residues (the transform
        is linear mod each prime, so this is the coefficient-domain
        descent residue for residue).
        """
        drop, keep = self._mod_down_rows(conv)
        dropped = rows[..., drop : drop + len(conv.sources), :]
        kept = rows[..., keep : keep + len(conv.targets), :]
        coeffs = self.ntt_inverse(dropped, conv.sources)
        delta = self.ntt_forward(self.base_convert(coeffs, conv)[..., 0, :, :], conv.targets)
        return self.modscale(
            self.modsub(kept, delta, conv.targets), conv.divisor_inv, conv.targets
        )

    def _mod_down_rows(self, conv) -> tuple:
        """The first input rows of a :meth:`mod_down` over ``conv``'s
        dropped and kept rows; ``ValueError`` if it cannot run one."""
        divisor_inv = conv.divisor_inv
        if (
            len(conv.weights) != 1
            or not conv.sources
            or not conv.targets
            or divisor_inv is None
            or np.shape(divisor_inv) != (len(conv.targets),)
        ):
            raise ValueError(
                "a ModDown converts one group of sources onto other primes, "
                "and divides those by the sources' product"
            )
        if conv.sources[0] >= len(self.ctx.q_chain):  # special primes lead
            return 0, len(conv.sources)
        return len(conv.targets), 0

    def rescale(self, rows, level) -> np.ndarray:
        """Divide ``(..., level+1, n)`` NTT chain rows by ``q_level``
        with centred rounding: the ``(..., level, n)`` rows of the level
        below — a one-prime :meth:`mod_down`."""
        return self.mod_down(rows, self.ctx._conversions(level).rescale)

    def hoist_decompose(self, rows, level) -> np.ndarray:
        """Keyswitch digits of the ``(..., level+1, n)`` NTT-form chain
        ``rows``, in NTT form over the extended basis (special primes,
        then ``q_0..q_level`` — :meth:`CkksContext.keyswitch_basis`): the
        :meth:`mod_up` of :meth:`CkksContext.digit_lift`.

        A digit is a group of α chain primes lifted onto the whole
        basis, so the result is ``(..., ceil((level+1)/α), α+level+1,
        n)``.  This is the expensive half of a keyswitch
        and it is *independent of the Galois element*: the centred digit
        decomposition commutes exactly with the automorphism (both act
        coefficient-wise or by signed coefficient permutation, and odd
        primes make the centred range symmetric), and the automorphism
        is a pure NTT-slot permutation
        (:meth:`CkksContext.galois_ntt_permutation`).  Computing it once
        and permuting per rotation is rotation *hoisting*.
        """
        return self.mod_up(rows, self.ctx._conversions(level).lift)

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
        over the extended basis to ``(..., level+1, n)`` over the chain —
        the :meth:`mod_down` of :meth:`CkksContext.p_descent`."""
        return self.mod_down(acc, self.ctx._conversions(level).descent)

    def apply_keyswitch(self, digits, key_b, key_a, level, perm=None) -> np.ndarray:
        """One whole keyswitch of decomposed ``digits``:
        :meth:`keyswitch_inner_product` then :meth:`keyswitch_descent`.
        Returns the NTT-form ``(2, level+1, n)`` pair, ``b`` half first.

        ``perm`` is the per-rotation half of a hoisted Galois
        application; the digits (:meth:`hoist_decompose`) are shared.
        Digits ``D_k`` are smaller than ``P``, so after the per-digit key
        products and the divide-by-``P`` the added noise is
        ``Σ_k D_k e_k / P`` — a few bits.
        """
        acc = self.keyswitch_inner_product(digits, key_b, key_a, level, perm=perm)
        return self.keyswitch_descent(acc, level)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.ctx.n})"


class ReferenceBackend(KernelBackend):
    """The spec: one row, one source prime, one digit at a time — the
    NTTs and the per-row kernels the base class's pipelines compose."""

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
        """Reduce ``(..., n)`` int64 coefficient vectors into
        ``(..., limbs, n)`` rows."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        rows = np.empty(coeffs.shape[:-1] + (len(prime_indices), self.ctx.n), dtype=np.int64)
        for r, idx in enumerate(prime_indices):
            rows[..., r, :] = coeffs % self.ctx.all_primes[idx]
        return rows

    def base_convert(self, rows, conv):
        """Centred approximate base conversion, coefficient domain.

        ``rows`` is ``(..., S, n)`` over ``conv.sources``; each group of
        source primes converts independently onto ``conv.targets``
        (:class:`~repro.ckks.context.BaseConversion` has the formula),
        giving ``(..., G, T, n)``.  The keyswitch digit lift and the
        divide-by-``P`` descent are its two callers.
        """
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
        """``Σ_k digits[k] · key[k]`` mod each basis prime: ``(d, T, n)``
        tensors in, ``(T, n)`` out."""
        pcol = self._primes_col(prime_indices)
        acc = np.zeros(digits.shape[1:], dtype=np.int64)
        for k in range(digits.shape[0]):
            acc = (acc + digits[k] * key[k]) % pcol
        return acc


class KernelBuildWarning(RuntimeWarning):
    """The compiled kernels of :class:`VectorizedBackend` could not be
    built or loaded; contexts asking for ``"vectorized"`` run
    :class:`ReferenceBackend` instead (exact, several times slower).
    The message names the compiler error."""


#: the C kernels, compiled on first use with the system ``cc``; the
#: header declares their entry points and is the binding's cffi ``cdef``
_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_HEADER = _KERNEL_SOURCE.with_suffix(".h")
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

_native_lock = threading.Lock()
#: the loaded kernel module (its ``ffi`` and ``lib``); ``None`` until the
#: first build, ``False`` after a failed one (warned about once per process)
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


def _module_path() -> tuple:
    """Name and cache path of the kernel module this process can load.

    Both hash the source, the header, the flags, the compiler version,
    the host CPU, the interpreter's extension suffix and the cffi
    version (read off ``_cffi_backend``, which every cffi module runs
    on, so a cache hit imports neither ``cffi`` nor ``pycparser``).
    """
    import _cffi_backend

    version = subprocess.run(
        ["cc", "--version"], capture_output=True, text=True, check=True
    ).stdout
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    parts = [
        _KERNEL_SOURCE.read_bytes(), _KERNEL_HEADER.read_bytes(), " ".join(_CFLAGS).encode(),
        version.encode(), _host_cpu().encode(), suffix.encode(),
        _cffi_backend.__version__.encode(),
    ]
    name = "_kernels_" + hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    return name, cache / f"{name}{suffix}"


def _build_kernels() -> tuple:
    """Compile :data:`_KERNEL_SOURCE` into a cffi extension module in
    the cache unless it is there; its name and path.

    cffi emits the module's wrapper from the header, and ``cc`` compiles
    it with the source into a private temp file that is then renamed
    over the target, so a process racing this one to the same key only
    ever sees no file or a whole one.
    """
    name, target = _module_path()
    if target.exists():
        return name, target
    import cffi  # only a build parses the header

    ffi = cffi.FFI()
    ffi.cdef(_KERNEL_HEADER.read_text())
    ffi.set_source(name, '#include <stdint.h>\n#include "_kernels.h"\n', compiler_verbose=False)
    wrapper = io.StringIO()
    ffi.emit_c_code(wrapper)
    paths = sysconfig.get_paths()
    includes = dict.fromkeys([paths["include"], paths["platinclude"], str(_KERNEL_SOURCE.parent)])
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *_CFLAGS, *(f"-I{d}" for d in includes), "-o", tmp,
             "-x", "c", "-", str(_KERNEL_SOURCE)],
            input=wrapper.getvalue(), capture_output=True, text=True, check=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return name, target


def _load_kernels(name: str, path: Path):
    """Import the built module from its cache path."""
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


#: ``pointwise`` op codes (``enum`` order in ``_kernels.c``)
_OP_ADD, _OP_SUB, _OP_NEG, _OP_MUL, _OP_SCALE = range(5)


def _native_kernels():
    """The process-wide kernel module, built on the first call; ``None``
    (after one :class:`KernelBuildWarning`) when it cannot be built or
    loaded, ``cffi`` missing included."""
    global _native
    with _native_lock:
        if _native is None:
            try:
                _native = _load_kernels(*_build_kernels())
            except subprocess.CalledProcessError as exc:
                _native = False
                reason = f"`{' '.join(exc.cmd)}` failed: {(exc.stderr or '').strip()}"
            except (OSError, ImportError) as exc:
                _native = False
                reason = str(exc)
            if _native is False:
                warnings.warn(
                    f"compiled kernels unavailable ({reason}); contexts run the "
                    "reference backend",
                    KernelBuildWarning,
                    stacklevel=3,
                )
    return _native or None


def _shoup(w, primes) -> np.ndarray:
    """Shoup quotients ``floor(w · 2^32 / p)`` of a ``(primes, n)`` table."""
    return ((w << 32) // primes[:, None]).astype(np.uint32)


class VectorizedBackend(KernelBackend):
    """Compiled kernels: one C call per HE-level step.

    Every NTT, pointwise op, plaintext lift, plaintext product sum, key
    inner product (with its Galois gather), ModUp and ModDown is one
    call into ``_kernels.c`` (built on
    first use; see :func:`_native_kernels`) over a whole
    ``(..., limbs, n)`` stack,
    against two tables stacked once per context: an int64 ``(2, K)``
    one (the primes, ``n⁻¹`` mod each) and a uint32 ``(4, K, n)`` one
    (forward and inverse twiddles with their Shoup quotients).  Inputs
    must be canonical residues (every in-tree caller's invariant);
    shapes, dtypes, prime indices and conversion constants are checked
    before any pointer reaches C, and every array crosses as a
    ``from_buffer`` object of the live ndarray, which holds the array
    until the call returns.  Without the library there is no instance:
    the constructor raises, and :func:`resolve_backend` picks
    :class:`ReferenceBackend` instead.
    """

    name = "vectorized"

    def __init__(self, ctx):
        native = _native_kernels()
        if native is None:
            raise RuntimeError("the compiled kernels could not be built (see KernelBuildWarning)")
        super().__init__(ctx)
        self._lib = native.lib
        self._ffi = native.ffi
        self._int64_array = native.ffi.typeof("int64_t[]")
        self._pointer_array = native.ffi.typeof("int64_t *[]")
        plans = ctx.plans
        primes = ctx._primes_arr
        psi = np.stack([plan.psi_rev for plan in plans])
        psi_inv = np.stack([plan.psi_inv_rev for plan in plans])
        #: the per-context tables every C call reads, indexed by position
        #: in ``ctx.all_primes``: primes and ``n⁻¹`` (int64, ``(2, K)``);
        #: twiddles and Shoup quotients (uint32, ``(4, K, n)``)
        self._num_primes = len(plans)
        self._ktab = self._buffer(
            np.stack([primes, [plan.n_inv for plan in plans]]).astype(np.int64)
        )
        self._wtab = native.ffi.from_buffer(
            "uint32_t[]",
            np.stack(
                [psi.astype(np.uint32), _shoup(psi, primes),
                 psi_inv.astype(np.uint32), _shoup(psi_inv, primes)]
            ),
        )
        #: validated prime-index sets and packed conversions as the
        #: buffers C reads, built on first use (private: never written
        #: once cached)
        self._index_sets: dict = {}
        self._conversions: dict = {}

    # ------------------------------------------------------------------
    # argument checks: nothing reaches C unvalidated
    # ------------------------------------------------------------------
    def _buffer(self, arr: np.ndarray):
        """``arr``'s memory as the ``int64_t[]`` C reads or writes: a
        ``from_buffer`` object that holds the array while it lives.  The
        buffer protocol refuses a non-contiguous array."""
        if arr.dtype != np.int64:
            raise TypeError(f"expected an int64 array, got {arr.dtype}")
        return self._ffi.from_buffer(self._int64_array, arr)

    def _index_array(self, prime_indices) -> np.ndarray:
        idx = np.asarray(prime_indices, dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= self._num_primes)):
            raise ValueError(f"prime indices {prime_indices!r} outside the context's primes")
        return idx

    def _indices(self, prime_indices):
        """The validated index set as C reads it; ``len`` is its limb count."""
        try:
            key = tuple(prime_indices)
            idx = self._index_sets.get(key)
        except TypeError:
            key = idx = None
        if idx is None:
            idx = self._buffer(self._index_array(prime_indices))
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

    def _pack(self, conv, tail=()):
        """One int64 buffer holding a :class:`BaseConversion` the way
        ``_kernels.c`` reads it: ``[S, T, G, size, sources, targets, inv,
        weights]``, then ``tail``."""
        sources = self._index_array(conv.sources)
        targets = self._index_array(conv.targets)
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
        return self._buffer(plan.astype(np.int64))

    def _conversion(self, conv, down: bool = False):
        """``conv`` packed for C once per conversion object (the context
        caches its own per level).  For a ModDown (``down``) the tail is
        the input row of its first dropped row, then its divisor
        inverses."""
        key = (id(conv), down)
        held = self._conversions.get(key)
        if held is None:
            tail = [self._mod_down_rows(conv)[0], *conv.divisor_inv] if down else ()
            # the entry holds ``conv``, so no other object takes its id
            held = self._conversions[key] = (conv, self._pack(conv, tail))
        return held[1]

    def _call(self, status: int, what: str) -> None:
        if status:
            raise MemoryError(f"{what} kernel could not allocate its scratch rows")

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _ntt(self, rows, prime_indices, inverse: bool) -> np.ndarray:
        idx = self._indices(prime_indices)
        rows = self._stack(rows, len(idx))
        out = np.empty_like(rows)
        self._call(
            self._lib.ntt(
                self._buffer(rows), self._buffer(out), math.prod(rows.shape[:-2]), len(idx),
                self.ctx.n, idx, self._ktab, self._wtab, self._num_primes, inverse,
            ),
            "NTT",
        )
        return out

    def ntt_forward(self, rows, prime_indices):
        return self._ntt(rows, prime_indices, inverse=False)

    def ntt_inverse(self, rows, prime_indices):
        return self._ntt(rows, prime_indices, inverse=True)

    def lift(self, coeffs, prime_indices):
        idx = self._indices(prime_indices)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.int64)
        n = self.ctx.n
        if coeffs.ndim < 1 or coeffs.shape[-1] != n:
            raise ValueError(f"coefficients of shape {coeffs.shape} do not match n={n}")
        lead = coeffs.shape[:-1]
        out = np.empty(lead + (len(idx), n), dtype=np.int64)
        self._call(
            self._lib.lift(
                self._buffer(coeffs), self._buffer(out), math.prod(lead), len(idx), n,
                idx, self._ktab, self._wtab, self._num_primes,
            ),
            "lift",
        )
        return out

    # ------------------------------------------------------------------
    # pointwise ops: one call per stack, ``b`` broadcast over leading axes
    # ------------------------------------------------------------------
    def _pointwise(self, op: int, a, b, prime_indices) -> np.ndarray:
        idx = self._indices(prime_indices)
        limbs = len(idx)
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
            op, self._buffer(a), self._buffer(b), self._buffer(out), math.prod(a.shape[:-2]),
            b_batch, limbs, self.ctx.n, idx, self._ktab,
        )
        return out

    def modadd(self, a, b, prime_indices):
        return self._pointwise(_OP_ADD, a, b, prime_indices)

    def modsub(self, a, b, prime_indices):
        return self._pointwise(_OP_SUB, a, b, prime_indices)

    def modneg(self, a, prime_indices):
        return self._pointwise(_OP_NEG, a, None, prime_indices)

    def modmul(self, a, b, prime_indices):
        return self._pointwise(_OP_MUL, a, b, prime_indices)

    def modscale(self, a, scalars, prime_indices):
        return self._pointwise(_OP_SCALE, a, scalars, prime_indices)

    def tensor(self, a, b, prime_indices):
        idx = self._indices(prime_indices)
        a = self._stack(a, len(idx))
        b = self._stack(b, len(idx))
        if a.shape[:-2] != (2,) or b.shape[:-2] != (2,):
            raise ValueError(f"tensor needs two (2, limbs, n) pairs, got {a.shape} and {b.shape}")
        out = np.empty((3,) + a.shape[1:], dtype=np.int64)
        self._lib.tensor(
            self._buffer(a), self._buffer(b), self._buffer(out), len(idx), self.ctx.n,
            idx, self._ktab,
        )
        return out

    def mul_plain_sum(self, cts, plains, prime_indices):
        idx = self._indices(prime_indices)
        limbs, n = len(idx), self.ctx.n
        if not cts or len(cts) != len(plains):
            raise ValueError(f"{len(cts)} ciphertexts for {len(plains)} plaintexts")
        pairs = [self._stack(ct, limbs) for ct in cts]  # one pointer each, never stacked
        for ct in pairs:
            if ct.shape != (2, limbs, n):
                raise ValueError(f"a ciphertext of shape {ct.shape} is not (2, {limbs}, {n})")
        rows = [np.ascontiguousarray(pt, dtype=np.int64) for pt in plains]
        for pt in rows:
            if pt.shape not in ((n,), (limbs, n)):
                raise ValueError(f"a plaintext of shape {pt.shape} for {limbs} limbs of n={n}")
        coeff = np.array([pt.ndim == 1 for pt in rows], dtype=np.int64)  # lift these
        out = np.empty((2, limbs, n), dtype=np.int64)
        # the pointer arrays hold addresses only: these lists hold the
        # buffers (and through them the arrays) until C returns
        ct_bufs = [self._buffer(ct) for ct in pairs]
        pt_bufs = [self._buffer(pt) for pt in rows]
        new, pointers = self._ffi.new, self._pointer_array
        self._call(
            self._lib.mul_plain_sum(
                new(pointers, ct_bufs), new(pointers, pt_bufs), self._buffer(coeff),
                len(pairs), self._buffer(out), limbs, n,
                idx, self._ktab, self._wtab, self._num_primes,
            ),
            "plaintext product sum",
        )
        return out

    # ------------------------------------------------------------------
    # the two basis changes, one call each
    # ------------------------------------------------------------------
    def mod_up(self, rows, conv):
        plan = self._conversion(conv)
        rows = self._stack(rows, plan[0])
        lead = rows.shape[:-2]
        out = np.empty(lead + (plan[2], plan[1], self.ctx.n), dtype=np.int64)
        self._call(
            self._lib.mod_up(
                self._buffer(rows), self._buffer(out), math.prod(lead), self.ctx.n,
                plan, self._ktab, self._wtab, self._num_primes,
            ),
            "ModUp",
        )
        return out

    def mod_down(self, rows, conv):
        plan = self._conversion(conv, down=True)
        dropped, kept = plan[0], plan[1]
        rows = self._stack(rows, dropped + kept)
        lead = rows.shape[:-2]
        out = np.empty(lead + (kept, self.ctx.n), dtype=np.int64)
        self._call(
            self._lib.mod_down(
                self._buffer(rows), self._buffer(out), math.prod(lead), self.ctx.n,
                plan, self._ktab, self._wtab, self._num_primes,
            ),
            "ModDown",
        )
        return out

    def keyswitch_inner_product(self, digits, key_b, key_a, level, perm=None):
        n = self.ctx.n
        basis = self._indices(self.ctx.keyswitch_basis(level))
        digits = self._stack(digits, len(basis))
        if digits.ndim != 3 or not digits.shape[0]:
            raise ValueError(f"digits of shape {digits.shape} are not (digits, basis, n)")
        # ``held`` keeps the key buffers (and their arrays) until C returns
        (key_b, key_a), held, stride = self._key_pair(key_b, key_a, digits.shape)
        if perm is None:
            perm, use_perm = basis, 0  # a placeholder the kernel never reads
        else:
            perm, use_perm = np.ascontiguousarray(perm, dtype=np.int64), 1
            if perm.shape != (n,):
                raise ValueError(f"a slot permutation of shape {perm.shape} for n={n}")
            perm = self._buffer(perm)
        out = np.empty((2,) + digits.shape[1:], dtype=np.int64)
        self._call(
            self._lib.inner_product(
                self._buffer(digits), key_b, key_a, self._buffer(out), digits.shape[0],
                len(basis), n, stride, perm, use_perm, basis, self._ktab,
            ),
            "key inner product",
        )
        return out

    def _key_pair(self, key_b, key_a, shape) -> tuple:
        """Both key halves as C reads them — each the buffer of the
        contiguous array that owns it plus the element offset of its
        first row, the buffers themselves (which hold those arrays), and
        the element stride between digits.  A level's slice of a family's
        tensors crosses uncopied: its rows are contiguous and its digits
        sit one common stride apart; anything else is copied into the
        contiguous layout first."""
        keys = [np.asarray(key, dtype=np.int64) for key in (key_b, key_a)]
        for key in keys:
            if key.shape != shape:
                raise ValueError(f"key of shape {key.shape} for digits of shape {shape}")
        digits, limbs, n = shape
        stride = keys[0].strides[0]
        owners = [key if key.base is None else key.base for key in keys]
        if any(
            key.strides[1:] != (n * 8, 8) or key.strides[0] != stride for key in keys
        ) or stride % 8 or stride < limbs * n * 8 or not all(
            type(owner) is np.ndarray and owner.dtype == np.int64 and owner.flags.c_contiguous
            for owner in owners
        ):
            keys = owners = [np.ascontiguousarray(key) for key in keys]
            stride = limbs * n * 8
        stride //= 8
        span = (digits - 1) * stride + limbs * n  # elements C reads from the first
        wholes = [self._buffer(owner) for owner in owners]
        pointers = []
        for key, whole in zip(keys, wholes):
            offset = (self._buffer(key[0, 0]) + 0) - whole  # pointer - array: elements
            if not 0 <= offset <= len(whole) - span:
                raise ValueError("a key's rows lie outside the array that owns them")
            pointers.append(whole + offset)
        return pointers, wholes, stride


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
    :data:`DEFAULT_BACKEND`.  ``"vectorized"`` resolves to
    :class:`ReferenceBackend` where the compiled kernels cannot be built
    (after one :class:`KernelBuildWarning` per process).
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
    if cls is VectorizedBackend and _native_kernels() is None:
        cls = ReferenceBackend
    return cls(ctx)
