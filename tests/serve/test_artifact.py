"""Encoding caches: correctness of cached plaintexts and steady-state hits."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams
from repro.ckks.encoder import CkksEncoder, Plaintext
from repro.serve.artifact import CachingEncoder, ModelArtifact, PlaintextCache


@pytest.fixture(scope="module")
def encoder():
    return CkksEncoder(CkksContext(CkksParams(n=512, scale_bits=25, depth=3)))


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


class TestCachingEncoder:
    def test_delegates_and_caches(self, encoder):
        cache = PlaintextCache(encoder)
        wrapped = CachingEncoder(encoder, cache)
        assert wrapped.ctx is encoder.ctx           # delegation
        pt = wrapped.encode(np.ones(4), 1, 2.0**25)
        assert isinstance(pt, Plaintext)
        wrapped.encode(np.ones(4), 1, 2.0**25)
        assert cache.hits == 1


class TestModelArtifact:
    def test_encoded_linear_matches_raw_path(self, toy):
        _, enc = toy
        art = ModelArtifact(enc, cache_activations=False)
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(3, 8))
        ct_raw = enc.forward(enc.encrypt_batch(xs))
        ct_pre = art.forward(enc.encrypt_batch(xs))
        raw = enc.decrypt_logits(ct_raw, 3, batch=3)
        pre = enc.decrypt_logits(ct_pre, 3, batch=3)
        np.testing.assert_allclose(pre, raw, atol=1e-3)

    def test_steady_state_does_zero_encoding(self, toy):
        _, enc = toy
        art = ModelArtifact(enc, cache_activations=False).warm()
        misses_after_warm = art.cache.misses
        for _ in range(2):
            art.forward(enc.encrypt_batch([np.ones(8)]))
        assert art.cache.misses == misses_after_warm  # no fresh encodes at all
        # steady state short-circuits on the per-layer memo, one hit per layer
        assert len(art._linear_memo) == len(enc.matvec_plans)

    def test_warm_populates_all_linear_layers(self, toy):
        _, enc = toy
        art = ModelArtifact(enc, cache_activations=False).warm()
        n_diags = sum(
            len(inner)
            for ((groups,),) in enc.matvec_groups.values()
            for inner in groups.values()
        )
        n_bias = len(enc.matvec_bias_slots)
        assert len(art.cache) == n_diags + n_bias

    def test_encoded_payload_follows_matvec_plan(self, toy):
        """Every layer gets a grid of grouped {giant: {baby: Plaintext}}
        payloads (1 x 1 here) whose shape mirrors the pre-rotated raw
        groups, plus the one-element bias list."""
        _, enc = toy
        art = ModelArtifact(enc, cache_activations=False)
        i = next(iter(enc.matvec_groups))
        ct = enc.encrypt_batch([np.zeros(8)])
        ((payload,),), (bias,) = art.encoded_linear(i, ct.level, ct.scale)
        ((raw,),) = enc.matvec_groups[i]
        assert {g: set(inner) for g, inner in payload.items()} == {
            g: set(inner) for g, inner in raw.items()
        }
        assert isinstance(bias, Plaintext)
        for inner in payload.values():
            for pt in inner.values():
                assert isinstance(pt, Plaintext)

    def test_stats_shape(self, toy):
        _, enc = toy
        art = ModelArtifact(enc, cache_activations=False)
        stats = art.stats()
        assert set(stats) == {"entries", "hits", "misses", "hit_rate"}


class TestActivationPrewarm:
    """Pre-encoded PAF coefficient cache (the activation-plan path)."""

    def test_layer_input_levels_schedule(self, toy):
        from repro.paf.relu import relu_mult_depth

        _, enc = toy
        levels = enc.layer_input_levels()
        level = enc.ctx.max_level
        for i in sorted(enc.matvec_plans.keys() | enc.paf_plans.keys()):
            assert levels[i] == level
            level -= 1 if i in enc.matvec_plans else relu_mult_depth(
                enc.layers[i].paf
            )

    def test_prewarm_counts_and_steady_state_hits(self, toy):
        _, enc = toy
        original_encoder = enc.ev.encoder
        try:
            art = ModelArtifact(enc, cache_activations=True)
            expected = sum(
                plan.num_leaves + 1 for plan in enc.paf_plans.values()
            )
            count = art.prewarm_activations()
            assert count == expected
            assert len(art.cache) == expected       # nothing else encoded yet
            art.warm()
            # every prewarmed constant was consumed from the cache (the
            # evaluator's encodes matched the plan's (value, level, scale)
            # coordinates key-for-key)
            assert art.cache.hits >= count
            for value, level, scale in art.activation_encodings(
                next(iter(enc.paf_plans))
            ):
                hits = art.cache.hits
                art.cache.encode(value, level, scale)
                assert art.cache.hits == hits + 1
            # steady state: a further forward encodes nothing fresh —
            # activation constants and alignment corrections included
            misses_after_warm = art.cache.misses
            art.forward(enc.encrypt_batch([np.ones(8)]))
            assert art.cache.misses == misses_after_warm
        finally:
            enc.ev.encoder = original_encoder

    def test_prewarmed_forward_bit_identical(self, toy):
        _, enc = toy
        original_encoder = enc.ev.encoder
        try:
            ct = enc.encrypt_batch([np.linspace(-1, 1, 8)])
            plain_art = ModelArtifact(enc, cache_activations=False)
            out_a = plain_art.forward(ct)
            warm_art = ModelArtifact(enc, cache_activations=True)
            warm_art.prewarm_activations()
            out_b = warm_art.forward(ct)
            # cached plaintexts are bit-identical to fresh encodes, so the
            # whole encrypted forward is too
            assert np.array_equal(out_a.c0.data, out_b.c0.data)
            assert np.array_equal(out_a.c1.data, out_b.c1.data)
        finally:
            enc.ev.encoder = original_encoder


class TestPersistence:
    def test_export_import_entries_round_trip(self, toy):
        _, enc = toy
        art = ModelArtifact(enc)
        art.warm()
        entries = art.cache.export_entries()
        assert len(entries) == len(art.cache)
        art2 = ModelArtifact(enc)
        assert art2.cache.import_entries(enc.ctx, entries) == len(entries)
        # an imported plaintext is bit-identical to the original
        key = entries[0][0]
        pt_a = art.cache._entries[key]
        pt_b = art2.cache._entries[key]
        np.testing.assert_array_equal(pt_a.poly.data, pt_b.poly.data)
        assert pt_a.scale == pt_b.scale

    def test_save_load_cache_warm_starts(self, toy, tmp_path):
        _, enc = toy
        art = ModelArtifact(enc)
        art.warm()
        path = tmp_path / "toy.cache"
        saved = art.save_cache(path)
        assert saved == len(art.cache)

        cold = ModelArtifact(enc)
        assert cold.load_cache(path) == saved
        # the per-layer memo was rebuilt: a forward hits only the cache
        misses_before = cold.cache.misses
        x = np.random.default_rng(2).normal(size=8)
        ct = enc.encrypt_batch([x])
        cold.forward(ct)
        assert cold.cache.misses == misses_before

    def test_loaded_forward_bit_identical(self, toy, tmp_path):
        _, enc = toy
        art = ModelArtifact(enc)
        art.warm()
        path = tmp_path / "toy.cache"
        art.save_cache(path)
        warm2 = ModelArtifact(enc)
        warm2.load_cache(path)
        x = np.random.default_rng(3).normal(size=8)
        ct = enc.encrypt_batch([x])  # one encryption, two forwards
        a = enc.decrypt_logits(art.forward(ct), 3, batch=1)
        b = enc.decrypt_logits(warm2.forward(ct), 3, batch=1)
        np.testing.assert_array_equal(a, b)

    def test_fingerprint_is_stable_and_model_sensitive(self, toy):
        _, enc = toy
        art = ModelArtifact(enc)
        assert art.fingerprint() == ModelArtifact(enc).fingerprint()

    def test_load_rejects_other_models_cache(self, toy, tmp_path):
        from repro.fhe.toy import compiled_toy_cnn
        from repro.serve import ArtifactMismatchError

        _, enc = toy
        art = ModelArtifact(enc)
        art.warm()
        path = tmp_path / "toy.cache"
        art.save_cache(path)
        other = ModelArtifact(compiled_toy_cnn())
        with pytest.raises(ArtifactMismatchError, match="different compiled model"):
            other.load_cache(path)

    def test_load_rejects_same_weights_different_paf(self, toy, tmp_path):
        """The paper's sweep axis: the same MLP (same weights, same static
        scale, same CKKS parameters) compiled with f1∘g2 and with f2∘g2
        encodes different activation constants — the fingerprint covers
        every node payload, so the f1∘g2 cache is refused."""
        from repro.core import calibrate_static_scales, convert_to_static, replace_all
        from repro.fhe.network import compile_network
        from repro.fhe.toy import TOY_PARAMS
        from repro.nn.models import mlp
        from repro.paf import get_paf
        from repro.serve import ArtifactMismatchError

        _, enc = toy
        art = ModelArtifact(enc)
        art.warm()
        path = tmp_path / "toy_f1g2.cache"
        art.save_cache(path)

        model = mlp(8, hidden=(6,), num_classes=3, seed=0)
        replace_all(model, get_paf("f2g2"), np.zeros((1, 8)))
        calibrate_static_scales(model, [np.random.default_rng(0).normal(size=(64, 8))])
        convert_to_static(model)
        other = compile_network(model, TOY_PARAMS)
        for a, b in zip(enc.layers, other.layers):  # only the PAF differs
            assert a.kind == b.kind
            if a.kind == "linear":
                np.testing.assert_array_equal(a.blocks[0][0], b.blocks[0][0])
            else:
                assert a.scale == b.scale
        with pytest.raises(ArtifactMismatchError, match="different compiled model"):
            ModelArtifact(other).load_cache(path)

    def test_load_rejects_foreign_format(self, toy, tmp_path):
        import pickle

        from repro.serve import ArtifactMismatchError

        _, enc = toy
        path = tmp_path / "bogus.cache"
        with open(path, "wb") as fh:
            pickle.dump({"format": "something-else", "entries": []}, fh)
        with pytest.raises(ArtifactMismatchError):
            ModelArtifact(enc).load_cache(path)


class TestUnifiedCompile:
    """``ModelArtifact.compile`` is the one serving-side compile entry."""

    def test_compile_dispatches_mlp_and_matches_direct(self, toy):
        from repro.fhe.toy import TOY_PARAMS

        model, enc = toy
        art = ModelArtifact.compile(model, TOY_PARAMS, cache_activations=False)
        assert [type(n) for n in art.model.graph.nodes] == [
            type(n) for n in enc.graph.nodes
        ]
        x = np.linspace(-1, 1, 8)
        got = art.model.ev.decrypt(
            art.forward(art.model.encrypt_batch([x])), num_values=3
        )
        want = enc.ev.decrypt(enc.forward(enc.encrypt_batch([x])), num_values=3)
        # independent compile -> fresh keys and encryption randomness;
        # only the approximation, not the bits, is shared
        np.testing.assert_allclose(got, want, atol=1e-3)

    def test_policy_carries_compile_options(self, toy):
        from repro.fhe.ir import CompilePolicy
        from repro.fhe.toy import TOY_PARAMS

        model, _ = toy
        art = ModelArtifact.compile(
            model,
            TOY_PARAMS,
            policy=CompilePolicy(seed=2),
            cache_activations=False,
        )
        assert art.model.policy.seed == 2

    def test_per_family_classmethods_removed(self):
        names = [n for n in vars(ModelArtifact) if n.startswith("compile")]
        assert names == ["compile"]
