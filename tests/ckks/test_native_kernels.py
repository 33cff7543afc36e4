"""The compiled kernels behind :class:`VectorizedBackend`: the checks in
front of every C call, the on-disk build cache, the no-compiler fallback
to the reference backend and concurrent use of one backend.

The NTT algebra itself is pinned property by property in
``test_backend_ntt.py``, every other entry point in
``test_kernel_properties.py``; here every output is held byte-equal to
:class:`ReferenceBackend` (the spec) or to the same call on a
contiguous copy.
"""

import ctypes
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.ckks.backend as backend_mod
from repro.ckks import CkksContext, CkksParams
from repro.ckks.backend import KernelBuildWarning, ReferenceBackend, VectorizedBackend


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(CkksParams(n=256, scale_bits=25, depth=5, dnum=2, backend="vectorized"))


def residues(ctx, lead, idx, seed=0):
    """Canonical rows ``lead + (len(idx), n)`` over ``ctx.all_primes[idx]``."""
    rng = np.random.default_rng(seed)
    primes = ctx._primes_arr[list(idx)][:, None]
    return rng.integers(0, 2**62, size=lead + (len(idx), ctx.n)) % primes


#: every function of ``_kernels.c``
ENTRY_POINTS = (
    "ntt", "lift", "pointwise", "tensor", "mul_plain_sum", "rescale", "base_convert",
    "hoist_decompose", "inner_product", "keyswitch_descent",
)


def kernel_outputs(be, ctx, seed=0):
    """Every kernel and every fused step on seeded stacks — one list of
    arrays to compare byte for byte across backends: both NTTs, both
    base conversions, each pointwise op (``b`` broadcast), the tensor,
    the lift, a sum of plaintext products (held coefficients and NTT
    rows, one reversed pair), the rescale, a decomposition, key inner
    products (a level's strided key slice, permutation on and off) and a
    descent."""
    top = ctx.max_level
    low = top - 1
    chain = list(range(top + 1))
    basis = ctx.keyswitch_basis(top)
    x = residues(ctx, (2,), chain, seed)
    y = residues(ctx, (), chain, seed + 1)
    special = residues(ctx, (2,), basis[: ctx.alpha], seed + 2)
    keys = residues(ctx, (2, ctx.num_digits(top)), basis, seed + 3)
    low_keys = keys[:, : ctx.num_digits(low), : ctx.alpha + low + 1]
    coeffs = np.random.default_rng(seed).integers(-(2**62), 2**62, size=(3, ctx.n))
    perm = ctx.galois_ntt_permutation(5)
    digits = be.hoist_decompose(x[0], top)
    low_digits = be.hoist_decompose(x[1, : low + 1], low)
    acc = be.keyswitch_inner_product(digits, keys[0], keys[1], top, perm=perm)
    return [
        be.ntt_forward(x, chain),
        be.ntt_inverse(x, chain),
        be.base_convert(x[0], ctx.digit_lift(top)),
        be.base_convert(special, ctx.p_descent(top)),
        be.modadd(x, y, chain),
        be.modsub(x, y, chain),
        be.modneg(x, chain),
        be.modmul(x, y, chain),
        be.modscale(x, y[:, 0], chain),
        be.tensor(x, x[::-1], chain),
        be.reduce_coeffs(coeffs, chain),
        be.lift(coeffs, basis),
        be.mul_plain_sum([x, x[::-1], x], [coeffs[0], y, coeffs[1]], chain),
        be.rescale(x, top),
        digits,
        acc,
        be.keyswitch_inner_product(low_digits, low_keys[0], low_keys[1], low),
        be.keyswitch_descent(acc, top),
    ]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestInputChecks:
    def test_shape_limb_count_n_and_index_mismatches_raise(self, ctx):
        be = VectorizedBackend(ctx)
        x = residues(ctx, (2,), [0, 1, 2])
        for transform in (be.ntt_forward, be.ntt_inverse):
            with pytest.raises(ValueError):
                transform(x, [0, 1])  # limb count
            with pytest.raises(ValueError):
                transform(x[..., :-1], [0, 1, 2])  # ring size
            with pytest.raises(ValueError):
                transform(x[0, 0], [0])  # no limb axis
            with pytest.raises(ValueError):
                transform(x, [0, 1, len(ctx.all_primes)])  # past the last prime
            with pytest.raises(ValueError):
                transform(x, [0, 1, -1])
        conv = ctx.digit_lift(2)
        with pytest.raises(ValueError):
            be.base_convert(x[:, :2], conv)  # rows over too few sources
        with pytest.raises(ValueError):
            be.base_convert(x, conv._replace(weights=conv.weights[:, :-1]))
        with pytest.raises(ValueError):
            be.base_convert(x, conv._replace(inv=conv.inv[:-1]))

    def test_fused_steps_check_their_shapes(self, ctx):
        be = VectorizedBackend(ctx)
        top = ctx.max_level
        chain = list(range(top + 1))
        basis = ctx.keyswitch_basis(top)
        x = residues(ctx, (2,), chain)
        for op in (be.modadd, be.modsub, be.modmul):
            with pytest.raises(ValueError):
                op(x, x[:, :-1], chain)  # limb count
            with pytest.raises(ValueError):
                op(x, x[..., :-1], chain[:-1])  # ring size
            with pytest.raises(ValueError):
                op(x, residues(ctx, (3,), chain), chain)  # lead shapes do not broadcast
        with pytest.raises(ValueError):
            be.modscale(x, np.ones(top, dtype=np.int64), chain)
        with pytest.raises(ValueError):
            be.tensor(x[:1], x[:1], chain)  # not a pair
        with pytest.raises(ValueError):
            be.lift(np.zeros(ctx.n + 1, dtype=np.int64), chain)
        with pytest.raises(ValueError):
            be.rescale(x, 0)  # nothing below level 0
        with pytest.raises(ValueError):
            be.rescale(x[:, :-1], top)
        with pytest.raises(ValueError):
            be.hoist_decompose(x[0], top - 1)
        with pytest.raises(ValueError):
            be.keyswitch_descent(x, top)  # no special rows
        digits = be.hoist_decompose(x[0], top)
        keys = residues(ctx, (2, digits.shape[0]), basis)
        with pytest.raises(ValueError):
            be.keyswitch_inner_product(digits, keys[0][:, :-1], keys[1], top)
        with pytest.raises(ValueError):
            be.keyswitch_inner_product(digits[:, :-1], keys[0], keys[1], top)
        with pytest.raises(ValueError):
            be.keyswitch_inner_product(digits, *keys, top, perm=np.arange(ctx.n - 1))

    def test_mul_plain_sum_checks_every_term_before_the_call(self, ctx, monkeypatch):
        be = VectorizedBackend(ctx)
        chain = list(range(ctx.max_level + 1))
        x = residues(ctx, (2,), chain)
        rows = residues(ctx, (), chain)
        coeffs = np.zeros(ctx.n, dtype=np.int64)

        def no_call(*args):
            raise AssertionError("mul_plain_sum reached C with a bad shape")

        monkeypatch.setattr(be, "_lib", SimpleNamespace(mul_plain_sum=no_call))
        bad = {
            "no terms": ([], []),
            "fewer plaintexts than ciphertexts": ([x, x], [rows]),
            "a ciphertext with a limb too few": ([x, x[:, :-1]], [rows, rows]),
            "one half, not a pair": ([x[0]], [rows]),
            "three halves": ([np.concatenate([x, x[:1]])], [rows]),
            "coefficients of the wrong length": ([x], [coeffs[:-1]]),
            "NTT rows with a limb too many": ([x], [residues(ctx, (), chain + [0])]),
            "a stack of plaintexts": ([x], [x]),
        }
        for name, (cts, plains) in bad.items():
            with pytest.raises(ValueError):
                be.mul_plain_sum(cts, plains, chain)
                pytest.fail(name)

    def test_pointer_array_slot_checks_and_holds_every_array(self):
        slot = backend_mod._Int64Arrays
        arrays = [np.arange(4, dtype=np.int64), np.zeros((2, 3), dtype=np.int64)]
        pointers = slot.from_param(arrays)
        assert [pointers[i] for i in range(2)] == [a.ctypes.data for a in arrays]
        assert all(held is a for held, a in zip(pointers._arrays, arrays))
        for bad in (
            [np.arange(4, dtype=np.int32)],
            [np.zeros((2, 4), dtype=np.int64)[:, ::2]],
            [list(range(4))],
        ):
            with pytest.raises(TypeError):
                slot.from_param(bad)

    def test_inputs_never_mutated(self, ctx):
        be = VectorizedBackend(ctx)
        x = residues(ctx, (3,), range(ctx.max_level + 1))
        kept = x.copy()
        be.ntt_forward(x, range(x.shape[-2]))
        be.ntt_inverse(x, range(x.shape[-2]))
        be.base_convert(x, ctx.digit_lift(ctx.max_level))
        assert x.tobytes() == kept.tobytes()

    def test_non_contiguous_inputs_match_their_contiguous_copies(self, ctx):
        be = VectorizedBackend(ctx)
        top = ctx.max_level
        chain = list(range(top + 1))
        x = residues(ctx, (2,), chain)
        wide = np.repeat(x, 2, axis=-1)  # every residue twice along n
        views = {
            # the dropped row ``rescale`` inverse-transforms
            "level slice": (x[..., top : top + 1, :], [top]),
            "limb-major transpose": (x.transpose(1, 0, 2).copy().transpose(1, 0, 2), chain),
            "strided ring axis": (wide[..., ::2], chain),
            "reversed limbs": (x[:, ::-1], chain[::-1]),
        }
        for name, (view, idx) in views.items():
            assert not view.flags.c_contiguous, name
            copy = np.ascontiguousarray(view)
            for transform in (be.ntt_forward, be.ntt_inverse):
                assert transform(view, idx).tobytes() == transform(copy, idx).tobytes(), name
        conv = ctx.digit_lift(top)
        assert (
            be.base_convert(wide[0, :, ::2], conv).tobytes()
            == be.base_convert(x[0], conv).tobytes()
        )

    def test_c_calls_get_live_arrays_not_addresses(self, ctx, monkeypatch):
        """Every pointer argument of every entry point reaches ctypes as
        the ndarray itself — held by the call's own argument tuple until C
        returns — never as a bare ``.ctypes.data`` integer whose array may
        already be freed; a pointer-array slot (the terms of a plaintext
        product sum) gets a list of contiguous int64 ndarrays.  The one
        argument kind beyond the call's own data is the backend's two
        per-context tables, passed as the backend's own arrays.
        Fancy-indexed temporaries then give the spec's bytes."""
        be = VectorizedBackend(ctx)
        lib = be._lib
        calls = []

        def recording(fn):
            def call(*args):
                tables = 0
                for arg, argtype in zip(args, fn.argtypes, strict=True):
                    if argtype is backend_mod._Int64Arrays:  # one pointer per term
                        assert isinstance(arg, list) and arg
                        for a in arg:
                            assert isinstance(a, np.ndarray) and a.dtype == np.int64
                            assert a.flags.c_contiguous
                    elif hasattr(argtype, "_dtype_"):  # an array slot
                        assert isinstance(arg, np.ndarray) and arg.dtype == argtype._dtype_
                        assert arg.flags.c_contiguous or argtype._strided
                        if arg.dtype == np.uint32:
                            assert arg is be._wtab
                        tables += arg is be._ktab or arg is be._wtab
                    else:  # no raw pointer slot at all: sizes and flags only
                        assert argtype in (ctypes.c_int64, ctypes.c_int)
                assert tables >= 1, fn.__name__  # every entry point reads ktab
                calls.append(fn.__name__)
                return fn(*args)

            return call

        recorded = SimpleNamespace(
            **{name: recording(getattr(lib, name)) for name in ENTRY_POINTS}
        )
        monkeypatch.setattr(be, "_lib", recorded)
        ref = ReferenceBackend(ctx)
        x = residues(ctx, (4,), range(ctx.max_level + 1))
        pick = np.array([3, 0, 2])
        assert_same_bytes(kernel_outputs(be, ctx), kernel_outputs(ref, ctx))
        for transform in ("ntt_forward", "ntt_inverse"):
            got = getattr(be, transform)(x[[2, 0]][:, pick], pick.tolist())
            want = getattr(ref, transform)(x[[2, 0]][:, pick], pick.tolist())
            assert got.tobytes() == want.tobytes()
        assert set(calls) == set(ENTRY_POINTS)


class TestBuild:
    def test_failed_build_warns_once_and_stays_bit_identical(self, ctx, monkeypatch):
        """Where the kernels cannot be built, a context asking for
        ``vectorized`` runs ``reference`` — warned about once per
        process — with the compiled backend's bytes; no
        :class:`VectorizedBackend` exists without its library."""
        compiled = VectorizedBackend(ctx)

        def fail():
            raise subprocess.CalledProcessError(
                1, ["cc", "-O3"], stderr="cc: fatal error: no input files"
            )

        monkeypatch.setattr(backend_mod, "_native", None)
        monkeypatch.setattr(backend_mod, "_build_kernels", fail)
        with pytest.warns(KernelBuildWarning, match="no input files"):
            fallback = CkksContext(ctx.params)
        assert fallback.backend.name == "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failure is reported once per process
            assert CkksContext(ctx.params).backend.name == "reference"
            with pytest.raises(RuntimeError, match="could not be built"):
                VectorizedBackend(ctx)
        assert_same_bytes(kernel_outputs(fallback.backend, fallback), kernel_outputs(compiled, ctx))

    def test_missing_compiler_names_it(self, ctx, monkeypatch, tmp_path):
        monkeypatch.setattr(backend_mod, "_native", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path))  # no `cc` on it
        with pytest.warns(KernelBuildWarning, match="cc"):
            assert CkksContext(ctx.params).backend.name == "reference"
        assert not list(tmp_path.iterdir())

    def test_racing_processes_build_one_whole_library(self, tmp_path):
        """Two fresh interpreters released together build into one empty
        cache: both load a working library, exactly one ``.so`` is left
        and no temp file; a third process reuses it without compiling."""
        src = Path(backend_mod.__file__).resolve().parents[2]
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path / "cache"),
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        )
        go = tmp_path / "go"
        script = (
            "import sys, time, pathlib\n"
            "import numpy as np\n"
            "from repro.ckks import CkksContext, CkksParams\n"
            "from repro.ckks.backend import ReferenceBackend, VectorizedBackend\n"
            "pathlib.Path(sys.argv[1]).touch()\n"
            "while not pathlib.Path(sys.argv[2]).exists():\n"
            "    time.sleep(0.001)\n"
            "ctx = CkksContext(CkksParams(n=64, depth=2, backend='reference'))\n"
            "be = VectorizedBackend(ctx)\n"
            "x = np.arange(3 * 64).reshape(3, 64) % ctx._primes_arr[:3, None]\n"
            "want = ReferenceBackend(ctx).ntt_forward(x, [0, 1, 2])\n"
            "assert np.array_equal(be.ntt_forward(x, [0, 1, 2]), want)\n"
        )
        warn_error = ["-W", "error::RuntimeWarning"]

        def spawn(name):
            ready = tmp_path / f"ready-{name}"
            cmd = [sys.executable, *warn_error, "-c", script, str(ready), str(go)]
            return ready, subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE, text=True)

        racers = [spawn("a"), spawn("b")]
        try:
            for ready, proc in racers:
                while not ready.exists():
                    assert proc.poll() is None, proc.stderr.read()
                    time.sleep(0.01)
            go.touch()
            for _, proc in racers:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
        finally:
            for _, proc in racers:
                proc.kill()
        (built,) = (tmp_path / "cache" / "repro").iterdir()
        assert built.suffix == ".so"
        before = built.stat()
        again = subprocess.run(
            [sys.executable, *warn_error, "-c", script, str(tmp_path / "ready-c"), str(go)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert again.returncode == 0, again.stderr
        after = built.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert list((tmp_path / "cache" / "repro").iterdir()) == [built]


def test_threads_sharing_one_backend_get_sequential_bytes(ctx):
    """ctypes releases the GIL around every C call, and the server runs
    several workers on one backend: concurrent calls on different stacks
    must give exactly what the same calls give one after another."""
    be = VectorizedBackend(ctx)
    seeds = range(4)  # more threads than a small runner has cores
    sequential = {seed: kernel_outputs(be, ctx, seed) for seed in seeds}
    barrier = threading.Barrier(len(seeds))
    results = {seed: [] for seed in seeds}

    def work(seed):
        barrier.wait(timeout=30)
        for _ in range(25):
            results[seed].append(kernel_outputs(be, ctx, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in seeds:
        assert len(results[seed]) == 25
        for outputs in results[seed]:
            assert_same_bytes(outputs, sequential[seed])
