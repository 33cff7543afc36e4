"""One plaintext path: the compiled network encodes its constants once,
every evaluator reads them, and a served (warmed) forward is the bare
forward byte for byte — plus ``ModelArtifact``, the shell over it."""

import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks import CkksEvaluator, PlaintextStore
from repro.ckks.backend import KernelBackend, VectorizedBackend
from repro.ckks.encoder import CkksEncoder, Plaintext
from repro.fhe import toy as toy_models
from repro.fhe.network import compile_network
from repro.serve.artifact import ModelArtifact


def _assert_same_bytes(got, want):
    """Two shard lists (or bare ciphertexts) hold the same ciphertext bytes."""
    got = got if isinstance(got, list) else [got]
    want = want if isinstance(want, list) else [want]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.level, a.scale) == (b.level, b.scale)
        assert np.array_equal(a.data, b.data)


class TestModelArtifact:
    def test_steady_state_does_zero_encoding(self, toy):
        _, enc = toy
        art = ModelArtifact(enc).warm()
        entries, misses = len(art.cache), art.cache.misses
        for _ in range(2):
            art.model.forward(enc.encrypt_batch([np.ones(8)]))
        assert (len(art.cache), art.cache.misses) == (entries, misses)

    def test_warm_populates_all_linear_layers(self):
        """Every diagonal sits in the store at its layer's coordinates on
        the graph's static schedule, every bias one rescale below."""
        enc = toy_models.compiled_toy()
        art = ModelArtifact(enc).warm()
        levels = enc.graph.input_levels(enc.ctx.max_level)
        held = art.cache._held
        for i, ((groups,),) in enc.matvec_groups.items():
            level = levels[i]
            scale = enc.ctx.canonical_scale(level)
            for inner in groups.values():
                for vec in inner.values():
                    assert held[PlaintextStore._key(vec, level, scale)][0] is vec
            (bias,) = enc.matvec_bias_slots[i]
            key = PlaintextStore._key(bias, level - 1, enc.ctx.canonical_scale(level - 1))
            assert held[key][0] is bias

    def test_second_artifact_shares_the_memo(self):
        """Two shells over one network read the one store it owns."""
        enc = toy_models.compiled_toy()
        first = ModelArtifact(enc)
        second = ModelArtifact(enc)
        assert first.cache is second.cache is enc.plaintexts
        second.warm()
        enc.forward(enc.encrypt_batch([np.ones(8)]))
        assert first.cache.hits > 0 and first.cache.misses == 0


#: family -> (builder, flat input dim).  The stacked transformer leads:
#: the recrypt test below parametrizes over it alone, and pytest shares a
#: module-scoped fixture between the two only at the same param index.
FAMILIES = {
    "toy_transformer_stacked": (
        functools.partial(toy_models.compiled_toy_transformer, num_blocks=2),
        32,
    ),
    "toy_mlp": (toy_models.compiled_toy, 8),
    "toy_cnn": (toy_models.compiled_toy_cnn, 64),
    "toy_resnet": (toy_models.compiled_toy_resnet, 64),
    "toy_transformer": (toy_models.compiled_toy_transformer, 32),
}


@pytest.fixture(scope="module")
def served(request):
    """One family, compiled, warmed as a server warms it, then sent one
    real request.

    The request is a random in-domain row encrypted by a seeded
    evaluator over the network's own keys: every compile of one family
    bakes the same keys, so the same ciphertexts drive the bare compile
    of the tests below.
    """
    build, dim = FAMILIES[request.param]
    enc = build()
    compiled = (len(enc.plaintexts), enc.plaintexts.misses)
    enc.warm()
    x = np.random.default_rng(5).uniform(-0.5, 0.5, size=dim)
    cts = enc.encrypt_batch_shards([x], ev=CkksEvaluator(enc.ctx, enc.keys, seed=5))
    return SimpleNamespace(
        build=build,
        enc=enc,
        compiled=compiled,
        cts=cts,
        out=enc.forward_shards(cts),
    )


@pytest.mark.parametrize("served", list(FAMILIES), indirect=True)
class TestOnePath:
    """A plaintext reaches the executor one way — through the store the
    compile filled — in coefficient form on a bare network and in NTT
    form on a served one, with the same bytes out."""

    def test_real_forward_after_warm_adds_no_miss_and_no_entry(self, served):
        entries, misses = served.compiled
        assert entries > 0 and misses == 0
        store = served.enc.plaintexts
        assert (len(store), store.misses) == served.compiled
        assert store.hits >= entries
        assert all(isinstance(pt, Plaintext) for pt in store._entries.values())

    def test_held_arrays_are_read_only(self, served):
        """Lookups go by the held array's identity, so compile freezes
        each one (and the array owning its memory): a write after compile
        raises instead of leaving a stale entry behind."""
        held = [values for values, _ in served.enc.plaintexts._held.values() if values.ndim]
        assert held
        for values in held:
            assert not values.flags.writeable
            assert values.base is None or not values.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0][0] = 0.0

    def test_output_byte_identical_to_unwrapped_compile(self, served):
        bare = served.build()
        entry = next(iter(bare.plaintexts._entries.values()))
        assert entry.dtype == np.int64  # coefficient form: never warmed
        _assert_same_bytes(bare.forward_shards(served.cts), served.out)
        assert bare.plaintexts.misses == 0

    def test_warm_is_a_shadow_pass(self, served, monkeypatch):
        """Filling the store at compile and warming it take no
        encryption, no keyswitch, not one real ciphertext — and hold the
        keys the served network holds."""

        def tripwire(*args, **kwargs):
            raise AssertionError("the plaintext fill left the shadow")

        # the real evaluator's ring work and every backend's keyswitch
        # decomposition; a shadow overrides or never reaches each of these
        for op in ("encrypt", "mul", "_galois_many"):
            monkeypatch.setattr(CkksEvaluator, op, tripwire)
        for backend in (KernelBackend, VectorizedBackend):
            monkeypatch.setattr(backend, "hoist_decompose", tripwire)
        monkeypatch.setattr("repro.ckks.evaluator.Ciphertext", tripwire)
        enc = served.build().warm()
        assert set(enc.plaintexts._entries) == set(served.enc.plaintexts._entries)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_bare_forward_embeds_only_its_payloads(family, monkeypatch):
    """After compile, a bare forward embeds no constant: the only
    embeddings left are payloads — recrypt's re-entries (``encrypt``
    runs before the count)."""
    build, dim = FAMILIES[family]
    enc = build()
    cts = enc.encrypt_batch_shards([np.linspace(-0.5, 0.5, dim)])
    counts = {"embed": 0, "payload": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(CkksEncoder, "embed", counted("embed", CkksEncoder.embed))
    monkeypatch.setattr(
        CkksEvaluator,
        "_trivial_encrypt",
        counted("payload", CkksEvaluator._trivial_encrypt),
    )
    enc.forward_shards(cts)
    assert counts["embed"] == counts["payload"]
    assert (counts["payload"] > 0) == bool(enc.refresh_plans)


@pytest.mark.parametrize("served", list(FAMILIES)[:1], indirect=True)
def test_recrypt_keeps_request_data_out_of_the_memo(served):
    """The refresh re-encodes the *decrypted request* on its way back in:
    that plaintext is payload, not a model constant, and goes to the
    encoder like ``encrypt``'s does — three forwards, not one entry or
    miss more."""
    assert served.enc.refresh_plans  # the family that recrypts
    for _ in range(2):  # the fixture ran the first
        served.enc.forward_shards(served.cts)
    store = served.enc.plaintexts
    assert (len(store), store.misses) == served.compiled


@pytest.mark.parametrize(
    "family", ["toy_resnet", pytest.param("toy_transformer", marks=pytest.mark.slow)]
)
def test_two_threads_share_the_store(family):
    """The sharing a worker pool runs: one :meth:`evaluator` per thread
    over shared keys, both reading the one warmed store, thread switches
    forced often.  Both outputs are the single-thread forward byte for
    byte, and the store is read, never written."""
    build, dim = FAMILIES[family]
    enc = build()
    x = np.random.default_rng(5).uniform(-0.5, 0.5, size=dim)
    cts = enc.encrypt_batch_shards([x])
    want = enc.forward_shards(cts)  # one thread, coefficient form
    enc.warm()
    entries = dict(enc.plaintexts._entries)
    start = Barrier(2)

    def forward(k):
        ev = enc.evaluator(enc.keys, seed=100 + k)
        assert ev.plaintexts is enc.plaintexts and ev.encoder is enc.ev.encoder
        start.wait(timeout=60)
        return enc.forward_shards(cts, ev=ev)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(forward, k) for k in range(2)]
            outs = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for out in outs:
        _assert_same_bytes(out, want)
    assert enc.plaintexts.misses == 0
    assert all(enc.plaintexts._entries[k] is pt for k, pt in entries.items())
    assert len(enc.plaintexts) == len(entries)


class TestUnifiedCompile:
    """``compile_network(...)`` is the one compile, and what a server
    takes; the ladder's ``ModelArtifact`` shell only wraps its result."""

    def test_compile_dispatches_mlp_and_matches_direct(self, toy):
        model, enc = toy
        net = compile_network(model, toy_models.TOY_PARAMS)
        assert [type(n) for n in net.graph.nodes] == [type(n) for n in enc.graph.nodes]
        x = np.linspace(-1, 1, 8)
        got = net.ev.decrypt(net.forward(net.encrypt_batch([x])), num_values=3)
        want = enc.ev.decrypt(enc.forward(enc.encrypt_batch([x])), num_values=3)
        # independent encryption randomness: only the approximation, not
        # the bits, is shared
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_policy_carries_compile_options(self, toy):
        from repro.fhe.ir import CompilePolicy

        model, _ = toy
        net = compile_network(model, toy_models.TOY_PARAMS, policy=CompilePolicy(seed=2))
        assert net.policy.seed == 2

    def test_per_family_classmethods_removed(self):
        assert [n for n in dir(ModelArtifact) if n.startswith("compile")] == []
        shell = {n for n in vars(ModelArtifact) if not n.startswith("_")}
        assert shell == {"forward", "warm"}
