"""The compiled kernels behind :class:`VectorizedBackend`: the checks in
front of every C call, the buffers C gets, the on-disk build cache, the
no-compiler and no-cffi fallbacks to the reference backend and
concurrent use of one backend.

The NTT algebra itself is pinned property by property in
``test_backend_ntt.py``, every other entry point in
``test_kernel_properties.py``; here every output is held byte-equal to
:class:`ReferenceBackend` (the spec) or to the same call on a
contiguous copy.
"""

import gc
import os
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
import weakref
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
    "ntt", "lift", "pointwise", "tensor", "mul_plain_sum", "mod_up", "inner_product", "mod_down",
)


def kernel_outputs(be, ctx, seed=0):
    """Every entry point on seeded stacks — one list of arrays to
    compare byte for byte across backends: both NTTs, each pointwise op
    (``b`` broadcast), the tensor, the lift, a sum of plaintext products
    (held coefficients and NTT rows, one reversed pair), the rescale, a
    decomposition, key inner products (a level's strided key slice,
    permutation on and off) and a descent."""
    top = ctx.max_level
    low = top - 1
    chain = list(range(top + 1))
    basis = ctx.keyswitch_basis(top)
    x = residues(ctx, (2,), chain, seed)
    y = residues(ctx, (), chain, seed + 1)
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
        be.modadd(x, y, chain),
        be.modsub(x, y, chain),
        be.modneg(x, chain),
        be.modmul(x, y, chain),
        be.modscale(x, y[:, 0], chain),
        be.tensor(x, x[::-1], chain),
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

    @pytest.mark.parametrize("kind", ["lift", "descent", "rescale"])
    def test_conversion_constants_are_checked_before_any_call(self, ctx, monkeypatch, kind):
        """The decomposition (its level's ``lift``), the descent
        (``descent``) and the rescale (``rescale``) pack their base
        conversion before C sees it: rows over too few sources, weights
        missing a target, inverses missing a source and (a ModDown)
        divisor inverses missing a target each raise, and nothing
        reaches C."""
        top = ctx.max_level
        step, entry, rows = {
            "lift": ("hoist_decompose", "mod_up", residues(ctx, (), range(top + 1))),
            "descent": ("keyswitch_descent", "mod_down", residues(ctx, (2,), ctx.keyswitch_basis(top))),
            "rescale": ("rescale", "mod_down", residues(ctx, (2,), range(top + 1))),
        }[kind]

        def no_call(*args):
            raise AssertionError(f"{step} reached C unchecked")

        good = ctx._conversions

        def corrupt(field, cut):
            def conversions(level):
                convs = good(level)
                conv = getattr(convs, kind)
                return convs._replace(**{kind: conv._replace(**{field: cut(conv)})})

            return conversions

        bad = {
            "rows over too few sources": (rows[..., 1:, :], good),
            "weights missing a target": (rows, corrupt("weights", lambda c: c.weights[:, :-1])),
            "inverses missing a source": (rows, corrupt("inv", lambda c: c.inv[:-1])),
        }
        if entry == "mod_down":
            bad["divisor inverses missing a target"] = (
                rows, corrupt("divisor_inv", lambda c: c.divisor_inv[:-1])
            )
        for name, (stack, conversions) in bad.items():
            be = VectorizedBackend(ctx)  # fresh: a backend caches what it packed
            with monkeypatch.context() as m:
                m.setattr(be, "_lib", SimpleNamespace(**{entry: no_call}))
                m.setattr(ctx, "_conversions", conversions)
                with pytest.raises(ValueError):
                    getattr(be, step)(stack, top)
                    pytest.fail(name)

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

    def test_inputs_never_mutated(self, ctx):
        be = VectorizedBackend(ctx)
        x = residues(ctx, (3,), range(ctx.max_level + 1))
        kept = x.copy()
        be.ntt_forward(x, range(x.shape[-2]))
        be.ntt_inverse(x, range(x.shape[-2]))
        be.hoist_decompose(x, ctx.max_level)
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
        assert (
            be.hoist_decompose(wide[0, :, ::2], top).tobytes()
            == be.hoist_decompose(x[0], top).tobytes()
        )

    def test_c_calls_get_live_buffers_not_addresses(self, ctx):
        """Every pointer argument of every entry point reaches C as a
        ``from_buffer`` object of a live ndarray of the parameter's
        declared element type — the object itself, or (a key half) an
        element offset into one that the backend holds until C returns —
        never as an integer address whose array may already be freed.
        Fancy-indexed temporaries then give the spec's bytes."""
        with Recording() as rec:
            be = VectorizedBackend(ctx)
            ref = ReferenceBackend(ctx)
            x = residues(ctx, (4,), range(ctx.max_level + 1))
            pick = np.array([3, 0, 2])
            assert_same_bytes(kernel_outputs(be, ctx), kernel_outputs(ref, ctx))
            for transform in ("ntt_forward", "ntt_inverse"):
                got = getattr(be, transform)(x[[2, 0]][:, pick], pick.tolist())
                want = getattr(ref, transform)(x[[2, 0]][:, pick], pick.tolist())
                assert got.tobytes() == want.tobytes()
        assert set(rec.calls) == set(ENTRY_POINTS)

    def test_pointer_arrays_hold_their_terms_and_dtypes_are_checked(self, ctx):
        """A plaintext product sum's pointer arrays hold addresses only:
        the backend keeps every term's buffer — and through it the term,
        here a temporary copy nothing else references — alive until C
        returns.  An array of the wrong dtype or layout never becomes a
        buffer, so it cannot reach C."""
        chain = list(range(ctx.max_level + 1))
        x = residues(ctx, (2,), chain)
        y = residues(ctx, (), chain)
        coeffs = np.random.default_rng(0).integers(-(2**40), 2**40, size=ctx.n)
        with Recording() as rec:
            be = VectorizedBackend(ctx)
            got = be.mul_plain_sum(
                [x[:, :, ::-1], x[::-1]], [coeffs.astype(np.int32), y.T.copy().T], chain
            )
        assert rec.calls == ["mul_plain_sum"]
        want = ReferenceBackend(ctx).mul_plain_sum(
            [x[:, :, ::-1], x[::-1]], [coeffs.astype(np.int32), y], chain
        )
        assert got.tobytes() == want.tobytes()
        for bad in (
            np.zeros(4, dtype=np.int32),
            np.zeros(4, dtype=np.uint64),
            np.zeros(4, dtype=np.float64),
        ):
            with pytest.raises(TypeError):
                be._buffer(bad)
        with pytest.raises(ValueError, match="contiguous"):
            be._buffer(np.zeros((2, 4), dtype=np.int64)[:, ::2])


class Recording:
    """Builds :class:`VectorizedBackend` instances over a recording
    ``ffi`` and ``lib``: every ``from_buffer`` is remembered by weak
    reference only, and every C call checks each pointer argument
    against the buffers still alive at that moment (after a collection),
    then runs the real kernel."""

    def __init__(self):
        self.patch = pytest.MonkeyPatch.context()
        self.native = backend_mod._native_kernels()
        self.buffers = []  # (buffer ref, array ref, element ctype, address, size)
        self.calls = []

    def __enter__(self):
        ffi = self.native.ffi
        lib = SimpleNamespace(
            **{name: self.checking(getattr(self.native.lib, name)) for name in ENTRY_POINTS}
        )
        shim = SimpleNamespace(typeof=ffi.typeof, new=ffi.new, from_buffer=self.from_buffer)
        self.patch.__enter__().setattr(backend_mod, "_native", SimpleNamespace(ffi=shim, lib=lib))
        return self

    def __exit__(self, *exc):
        self.patch.__exit__(*exc)

    def from_buffer(self, ctype, array):
        ffi = self.native.ffi
        buf = ffi.from_buffer(ctype, array)
        item = ffi.typeof(buf).item
        address = int(ffi.cast("intptr_t", buf))
        self.buffers.append(
            (weakref.ref(buf), weakref.ref(array), item, address, len(buf) * ffi.sizeof(item))
        )
        return buf

    def live_buffer(self, pointer, item):
        """The recorded, still-alive buffer that is ``pointer`` or that
        ``pointer`` points into."""
        ffi = self.native.ffi
        assert isinstance(pointer, ffi.CData), f"an address, not a buffer: {pointer!r}"
        address = int(ffi.cast("intptr_t", pointer))
        live = [(buf(), array(), *rest) for buf, array, *rest in self.buffers]
        live = [entry for entry in live if entry[0] is not None]
        for buf, array, kind, start, size in sorted(live, key=lambda e: e[0] is not pointer):
            if buf is pointer or start <= address < start + size:
                assert array is not None
                assert array.dtype == {"int64_t": np.int64, "uint32_t": np.uint32}[kind.cname]
                assert kind is item, f"{kind.cname} buffer for a {item.cname} parameter"
                return buf
        raise AssertionError("a pointer into no live from_buffer object")

    def checking(self, fn):
        ffi = self.native.ffi

        def call(*args):
            gc.collect()
            params = ffi.typeof(fn).args
            assert len(args) == len(params)
            for arg, param in zip(args, params):
                if param.kind != "pointer":  # sizes and flags
                    assert type(arg) in (int, bool), (fn.__name__, arg)
                elif param.item.kind == "pointer":  # one pointer per term
                    assert isinstance(arg, ffi.CData) and len(arg)
                    for t in range(len(arg)):
                        self.live_buffer(arg[t], param.item.item)
                else:
                    buf = self.live_buffer(arg, param.item)
                    if ffi.typeof(arg).kind == "array":
                        assert buf is arg  # the buffer itself, not a copy of its address
            self.calls.append(fn.__name__)
            return fn(*args)

        return call


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
        cache: both load a working module, exactly one ``.so`` is left
        and no temp file; a third process reuses it without compiling,
        and without importing ``cffi`` or ``pycparser``."""
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
            "assert sys.argv[3:] != ['hit'] or not {'cffi', 'pycparser'} & set(sys.modules)\n"
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
            [sys.executable, *warn_error, "-c", script, str(tmp_path / "ready-c"), str(go), "hit"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert again.returncode == 0, again.stderr
        after = built.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert list((tmp_path / "cache" / "repro").iterdir()) == [built]


    def test_cache_name_hashes_the_header_and_the_interpreter(self, monkeypatch, tmp_path):
        """Interpreters sharing one cache directory never load each
        other's module: the name and the file change with the extension
        suffix, and with the header the binding is generated from."""
        name, path = backend_mod._module_path()
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        assert path.name == name + suffix
        get_config_var = sysconfig.get_config_var
        with monkeypatch.context() as m:
            m.setattr(
                sysconfig, "get_config_var",
                lambda key: ".cpython-399-other.so" if key == "EXT_SUFFIX" else get_config_var(key),
            )
            other_name, other_path = backend_mod._module_path()
        assert other_name != name and other_path.name == other_name + ".cpython-399-other.so"
        header = tmp_path / "_kernels.h"
        header.write_text(backend_mod._KERNEL_HEADER.read_text() + "\n/* edited */\n")
        monkeypatch.setattr(backend_mod, "_KERNEL_HEADER", header)
        edited_name, edited_path = backend_mod._module_path()
        assert edited_name not in (name, other_name) and edited_path.suffix == path.suffix

    @pytest.mark.parametrize("missing", [("cffi",), ("cffi", "_cffi_backend")])
    def test_missing_cffi_warns_once_and_falls_back(self, ctx, monkeypatch, tmp_path, missing):
        """Without ``cffi`` a fresh cache cannot be built, and without its
        ``_cffi_backend`` no module loads: the process warns once and
        every ``vectorized`` context runs the reference backend."""
        monkeypatch.setattr(backend_mod, "_native", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        for module in missing:
            monkeypatch.setitem(sys.modules, module, None)  # the import raises
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backends = [CkksContext(ctx.params).backend.name for _ in range(2)]
            with pytest.raises(RuntimeError, match="could not be built"):
                VectorizedBackend(ctx)
        assert backends == ["reference", "reference"]
        (warning,) = caught
        assert warning.category is KernelBuildWarning and "cffi" in str(warning.message)


def test_threads_sharing_one_backend_get_sequential_bytes(ctx):
    """Every C call releases the GIL (cffi's default), and the server runs
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
