"""The plaintext memo: bit-identical hits, one shadow fill, zero steady-state encodes."""

import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksParams
from repro.ckks.encoder import CkksEncoder, Plaintext
from repro.fhe import toy as toy_models
from repro.fhe.network import compile_network
from repro.serve.artifact import ModelArtifact, PlaintextCache


@pytest.fixture(scope="module")
def encoder():
    return CkksEncoder(CkksContext(CkksParams(n=512, scale_bits=25, depth=3)))


def _assert_same_bytes(got, want):
    """Two shard lists (or bare ciphertexts) hold the same ciphertext bytes."""
    got = got if isinstance(got, list) else [got]
    want = want if isinstance(want, list) else [want]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.level, a.scale) == (b.level, b.scale)
        assert np.array_equal(a.c0.data, b.c0.data)
        assert np.array_equal(a.c1.data, b.c1.data)


class TestPlaintextCache:
    def test_hit_returns_identical_plaintext(self, encoder):
        cache = PlaintextCache(encoder)
        v = np.arange(8.0)
        a = cache.encode(v, level=2, scale=2.0**25)
        b = cache.encode(v, level=2, scale=2.0**25)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_equals_fresh_encode(self, encoder):
        cache = PlaintextCache(encoder)
        v = np.linspace(-1, 1, 16)
        pt = cache.encode(v, level=1, scale=2.0**25)
        fresh = encoder.encode(v, 1, 2.0**25)
        np.testing.assert_array_equal(pt.poly.data, fresh.poly.data)

    def test_key_distinguishes_level_and_scale(self, encoder):
        cache = PlaintextCache(encoder)
        v = np.ones(4)
        cache.encode(v, level=1, scale=2.0**25)
        cache.encode(v, level=2, scale=2.0**25)
        cache.encode(v, level=2, scale=2.0**24)
        assert cache.misses == 3 and cache.hits == 0

    def test_scalar_values(self, encoder):
        cache = PlaintextCache(encoder)
        cache.encode(0.5, level=1)
        cache.encode(0.5, level=1)
        assert cache.hits == 1

    def test_lru_eviction_bounds_entries(self, encoder):
        cache = PlaintextCache(encoder, max_entries=4)
        for i in range(10):
            cache.encode(float(i), level=0, scale=2.0**20)
        assert len(cache) == 4
        # most recent entries survive
        cache.encode(9.0, level=0, scale=2.0**20)
        assert cache.hits == 1

    def test_delegates_and_caches(self, encoder):
        """The memo *is* the drop-in encoder: everything but ``encode``
        is the wrapped encoder's."""
        cache = PlaintextCache(encoder)
        assert cache.ctx is encoder.ctx           # delegation
        pt = cache.encode(np.ones(4), 1, 2.0**25)
        assert isinstance(pt, Plaintext)
        np.testing.assert_allclose(cache.decode(pt.poly, pt.scale, 4), np.ones(4), atol=1e-5)
        cache.encode(np.ones(4), 1, 2.0**25)
        assert cache.hits == 1

    def test_encode_fresh_bypasses_the_memo(self, encoder):
        cache = PlaintextCache(encoder)
        pt = cache.encode_fresh(np.ones(4), 1, 2.0**25)
        np.testing.assert_array_equal(
            pt.poly.data, encoder.encode(np.ones(4), 1, 2.0**25).poly.data
        )
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


class TestModelArtifact:
    def test_steady_state_does_zero_encoding(self, toy):
        _, enc = toy
        art = ModelArtifact(enc).warm()
        entries, misses = len(art.cache), art.cache.misses
        for _ in range(2):
            art.model.forward(enc.encrypt_batch([np.ones(8)]))
        assert (len(art.cache), art.cache.misses) == (entries, misses)

    def test_warm_populates_all_linear_layers(self):
        """Every diagonal sits in the memo at its layer's coordinates on
        the graph's static schedule, every bias one rescale below."""
        enc = toy_models.compiled_toy()
        art = ModelArtifact(enc).warm()
        levels = enc.graph.input_levels(enc.ctx.max_level)
        keys = set(art.cache._entries)
        for i, ((groups,),) in enc.matvec_groups.items():
            level = levels[i]
            scale = enc.ctx.canonical_scale(level)
            for inner in groups.values():
                for vec in inner.values():
                    assert PlaintextCache._key(vec, level, scale) in keys
            (bias,) = enc.matvec_bias_slots[i]
            assert PlaintextCache._key(
                bias, level - 1, enc.ctx.canonical_scale(level - 1)
            ) in keys

    def test_stats_shape(self, toy):
        _, enc = toy
        stats = ModelArtifact(enc).stats()
        assert set(stats) == {"entries", "hits", "misses", "hit_rate"}

    def test_second_artifact_shares_the_memo(self):
        """Wrapping a network twice must not orphan the first artifact:
        both read the one memo the evaluator feeds."""
        enc = toy_models.compiled_toy()
        first = ModelArtifact(enc)
        second = ModelArtifact(enc)
        assert first.cache is second.cache is enc.ev.encoder
        second.warm()
        enc.forward(enc.encrypt_batch([np.ones(8)]))
        assert first.stats() == second.stats()
        assert first.stats()["hits"] > 0
        assert len(first.cache) == len(second.cache) > 0


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
    """One family, compiled, shadow-warmed, then sent one real request.

    The request is a random in-domain row encrypted by a seeded
    evaluator over the network's own keys: every compile of one family
    bakes the same keys, so the same ciphertexts drive the un-wrapped
    compile of the tests below.
    """
    build, dim = FAMILIES[request.param]
    art = ModelArtifact(build()).warm()
    after_warm = (len(art.cache), art.cache.misses)
    x = np.random.default_rng(5).uniform(-0.5, 0.5, size=dim)
    enc = art.model
    cts = enc.encrypt_batch_shards([x], ev=CkksEvaluator(enc.ctx, enc.keys, seed=5))
    return SimpleNamespace(
        build=build,
        art=art,
        after_warm=after_warm,
        cts=cts,
        out=enc.forward_shards(cts),
    )


@pytest.mark.parametrize("served", list(FAMILIES), indirect=True)
class TestOnePath:
    """A plaintext reaches the executor one way — through the encoder —
    and one shadow forward has put every one of them in the memo."""

    def test_real_forward_after_warm_adds_no_miss_and_no_entry(self, served):
        entries, misses = served.after_warm
        assert entries == misses > 0
        assert (len(served.art.cache), served.art.cache.misses) == served.after_warm
        assert served.art.cache.hits >= entries

    def test_output_byte_identical_to_unwrapped_compile(self, served):
        bare = served.build()
        assert type(bare.ev.encoder) is CkksEncoder
        _assert_same_bytes(bare.forward_shards(served.cts), served.out)

    def test_warm_is_a_shadow_pass(self, served, monkeypatch):
        """No encryption, no keyswitch, not one real ciphertext — and the
        same key set a warm without the tripwires encodes."""
        enc = served.build()

        def tripwire(*args, **kwargs):
            raise AssertionError("warm() left the shadow")

        for op in ("encrypt", "rotate", "mul"):
            monkeypatch.setattr(enc.ev, op, tripwire)
        monkeypatch.setattr("repro.ckks.evaluator.Ciphertext", tripwire)
        art = ModelArtifact(enc).warm()
        assert set(art.cache._entries) == set(served.art.cache._entries)


@pytest.mark.parametrize("served", list(FAMILIES)[:1], indirect=True)
def test_recrypt_keeps_request_data_out_of_the_memo(served):
    """The refresh re-encodes the *decrypted request* on its way back in:
    that plaintext is payload, not a model constant, and must bypass the
    memo like ``encrypt``'s does — three forwards, not one entry more."""
    assert served.art.model.refresh_plans  # the family that recrypts
    for _ in range(2):  # the fixture ran the first
        served.art.model.forward_shards(served.cts)
    assert (len(served.art.cache), served.art.cache.misses) == served.after_warm


@pytest.mark.parametrize(
    "family", ["toy_resnet", pytest.param("toy_transformer", marks=pytest.mark.slow)]
)
def test_two_threads_fill_a_cold_shared_memo(family):
    """The sharing a worker pool runs: one ``fresh_evaluator`` per thread
    over shared keys and one shared memo — cold here, so both threads
    race to encode every constant of a multi-shard forward.  Both outputs
    are the single-thread forward byte for byte, and every entry the race
    left is a fresh encode of its key: it encodes twice, never corrupts."""
    build, dim = FAMILIES[family]
    enc = build()
    x = np.random.default_rng(5).uniform(-0.5, 0.5, size=dim)
    cts = enc.encrypt_batch_shards([x])
    want = enc.forward_shards(cts)  # one thread, the plain encoder
    art = ModelArtifact(enc)
    assert len(art.cache) == 0
    start = Barrier(2)

    def forward(k):
        ev = art.fresh_evaluator(seed=100 + k)
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

    assert art.cache.misses >= len(art.cache) > 0
    for (*_, value, level, scale), pt in art.cache._entries.items():
        if isinstance(value, bytes):
            value = np.frombuffer(value)
        fresh = art.cache.encode_fresh(value, level, scale)
        assert np.array_equal(pt.poly.data, fresh.poly.data)
        assert list(pt.poly.prime_indices) == list(fresh.poly.prime_indices)
        assert (pt.poly.is_ntt, pt.scale) == (fresh.poly.is_ntt, fresh.scale)


class TestUnifiedCompile:
    """``ModelArtifact(compile_network(...))`` is the one way to build a
    serving artifact: the artifact adds the memo, the compile is the
    one entry every other caller uses."""

    def test_compile_dispatches_mlp_and_matches_direct(self, toy):
        model, enc = toy
        art = ModelArtifact(compile_network(model, toy_models.TOY_PARAMS))
        assert [type(n) for n in art.model.graph.nodes] == [
            type(n) for n in enc.graph.nodes
        ]
        x = np.linspace(-1, 1, 8)
        got = art.model.ev.decrypt(
            art.model.forward(art.model.encrypt_batch([x])), num_values=3
        )
        want = enc.ev.decrypt(enc.forward(enc.encrypt_batch([x])), num_values=3)
        # independent encryption randomness: only the approximation, not
        # the bits, is shared
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_policy_carries_compile_options(self, toy):
        from repro.fhe.ir import CompilePolicy

        model, _ = toy
        art = ModelArtifact(
            compile_network(model, toy_models.TOY_PARAMS, policy=CompilePolicy(seed=2))
        )
        assert art.model.policy.seed == 2

    def test_per_family_classmethods_removed(self):
        assert [n for n in dir(ModelArtifact) if n.startswith("compile")] == []
