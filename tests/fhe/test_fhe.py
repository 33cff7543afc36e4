"""Tests for encrypted linear algebra, MLP compilation and the latency harness."""

from collections import Counter

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    ShadowEvaluator,
    keygen,
)
from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe import (
    compile_network,
    diagonals_of,
    encrypted_matvec,
    encrypted_matvec_shards,
    grouped_diagonals,
    measure_op_micros,
    measure_relu_latency,
    plan_matvec,
)
from repro.nn.models import mlp
from repro.paf import get_paf, paper_pafs


class TestDiagonals:
    def test_reconstruct_matrix(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 4))
        diags = diagonals_of(w, slots=16)
        rebuilt = np.zeros((4, 4))
        for d, vec in diags.items():
            for i in range(4):
                rebuilt[i, (i + d) % 4] = vec[i]
        np.testing.assert_allclose(rebuilt, w)

    def test_sparse_matrix_skips_zero_diagonals(self):
        w = np.eye(4)
        diags = diagonals_of(w, slots=8)
        assert list(diags) == [0]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            diagonals_of(np.zeros((100, 100)), slots=64)

    def test_required_rotation_steps(self):
        w = np.eye(4)
        assert plan_matvec(diagonals_of(w, 8).keys(), 4).rotation_steps() == ()


class TestEncryptedMatvec:
    @pytest.fixture(scope="class")
    def rt(self):
        ctx = CkksContext(CkksParams(n=512, scale_bits=25, depth=3))
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 6))
        steps = tuple(d for d in diagonals_of(w, ctx.slots) if d)
        keys = keygen(ctx, seed=0, galois_steps=steps)
        return ctx, CkksEvaluator(ctx, keys), w

    def test_matches_plaintext(self, rt):
        ctx, ev, w = rt
        rng = np.random.default_rng(1)
        x = rng.normal(size=6)
        packed = np.zeros(ctx.slots)
        packed[:6] = x
        packed[6:12] = x
        out = encrypted_matvec(ev, ev.encrypt(packed), w)
        got = ev.decrypt(out, num_values=6)
        np.testing.assert_allclose(got, w @ x, atol=5e-3)

    def test_bias(self, rt):
        ctx, ev, w = rt
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        b = rng.normal(size=6)
        packed = np.zeros(ctx.slots)
        packed[:6] = x
        packed[6:12] = x
        out = encrypted_matvec(ev, ev.encrypt(packed), w, bias=b)
        got = ev.decrypt(out, num_values=6)
        np.testing.assert_allclose(got, w @ x + b, atol=5e-3)

    def test_consumes_one_level(self, rt):
        ctx, ev, w = rt
        packed = np.zeros(ctx.slots)
        ct = ev.encrypt(packed)
        out = encrypted_matvec(ev, ct, w)
        assert out.level == ct.level - 1

    def test_all_zero_weight_rejected_upfront(self, rt):
        """An all-zero matrix fails validation before any homomorphic op
        runs (it used to raise only after looping over zero diagonals),
        on the reference and on the grouped grid alike."""
        ctx, ev, _ = rt
        counting = CountingEvaluator(ev)
        ct = counting.encrypt(np.zeros(ctx.slots))
        counting.reset()
        with pytest.raises(ValueError, match="no nonzero diagonals"):
            encrypted_matvec(counting, ct, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="no nonzero diagonals"):
            encrypted_matvec(counting, ct, diagonals={})
        with pytest.raises(ValueError, match="reads no nonzero block"):
            encrypted_matvec_shards(counting, [ct], [[{}]])
        assert sum(counting.counts.values()) == 0  # nothing executed

    def test_missing_weight_and_diagonals_rejected(self, rt):
        ctx, ev, _ = rt
        ct = ev.encrypt(np.zeros(ctx.slots))
        with pytest.raises(ValueError, match="need either"):
            encrypted_matvec(ev, ct)


class TestCompileMlp:
    def test_rejects_exact_relu(self):
        model = mlp(8, hidden=(4,), num_classes=3, seed=0)
        with pytest.raises(TypeError, match="exact ReLU"):
            compile_network(model, CkksParams(n=512, scale_bits=25, depth=10))

    def test_rejects_unlowered_leaf_instead_of_dropping_it(self):
        """A Linear stack walks the same op sequence as a conv stack: a
        leaf with no encrypted lowering fails the compile by name (it
        used to vanish, and the network decrypted to wrong logits)."""
        from repro.nn.layers import GELU, Linear
        from repro.nn.module import Sequential

        model = Sequential(Linear(4, 4), GELU(), Linear(4, 2))
        with pytest.raises(TypeError, match=r"'1' \(GELU\) has no encrypted lowering"):
            compile_network(model, CkksParams(n=512, scale_bits=25, depth=10))

    def test_depth_validation(self):
        from repro.core import replace_all

        model = mlp(8, hidden=(4,), num_classes=3, seed=0)
        replace_all(model, get_paf("f1f1g1g1"), np.zeros((1, 8)))
        with pytest.raises(ValueError):
            compile_network(model, CkksParams(n=512, scale_bits=25, depth=3))

    def test_end_to_end_agrees_with_plaintext(self):
        from repro.core import calibrate_static_scales, convert_to_static, replace_all
        from repro.nn import Tensor, no_grad

        rng = np.random.default_rng(0)
        model = mlp(8, hidden=(6,), num_classes=3, seed=0)
        replace_all(model, get_paf("f1g2"), np.zeros((1, 8)))
        x_cal = rng.normal(size=(64, 8))
        calibrate_static_scales(model, [x_cal])
        convert_to_static(model)
        enc = compile_network(model, CkksParams(n=512, scale_bits=25, depth=9))
        model.eval()
        x = rng.normal(size=(3, 8))
        with no_grad():
            plain = model(Tensor(x)).data
        for i in range(3):
            logits = enc.decrypt_logits(enc.forward(enc.encrypt_input(x[i])), 3)
            np.testing.assert_allclose(logits, plain[i], atol=0.05)
            assert enc.predict(x[i], 3) == int(plain[i].argmax())


class TestLatencyHarness:
    def test_measure_relu_latency_levels(self):
        paf = get_paf("f1g2")
        res = measure_relu_latency(paf, CkksParams(n=512, scale_bits=25, depth=7))
        assert res.seconds > 0
        assert res.levels_consumed == paf.mult_depth + 1
        assert res.max_error < 0.05

    def test_depth_too_small_rejected(self):
        with pytest.raises(ValueError):
            measure_relu_latency(
                get_paf("f1f1g1g1"), CkksParams(n=512, scale_bits=25, depth=3)
            )

    def test_latency_ordering_follows_depth(self):
        """A single cold timing is noise-bound (the first call of a
        runtime is its slowest), so both runtimes are warmed first and
        the medians of interleaved repeats compared."""
        params = CkksParams(n=512, scale_bits=25, depth=10)
        pafs = {"deep": get_paf("f1f1g1g1"), "shallow": get_paf("f1g2")}
        for paf in pafs.values():
            measure_relu_latency(paf, params)
        times = {name: [] for name in pafs}
        for _ in range(7):
            for name, paf in pafs.items():
                times[name].append(measure_relu_latency(paf, params).seconds)
        deep, shallow = (float(np.median(times[name])) for name in ("deep", "shallow"))
        assert shallow < deep

    @staticmethod
    def _counts(ev, run) -> dict:
        """Op tally of ``run(counting evaluator, fresh ciphertext)``."""
        counting = CountingEvaluator(ev)
        ct = counting.encrypt(np.zeros(ev.ctx.slots))
        counting.reset()
        run(counting, ct)
        return dict(counting.counts)

    def test_op_counts_positive_and_ordered(self, poly_oracle):
        """Shadow counts == measured counts for every paper PAF (on the
        term-by-term oracle, alpha=10 baseline included), and the deep baseline costs
        the most nonscalar mults."""
        ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=12))
        real, shadow = CkksEvaluator(ctx, keygen(ctx, seed=0)), ShadowEvaluator(ctx)
        counts = {}
        for paf in paper_pafs(include_alpha10=True):
            def run(ev, ct, paf=paf):
                poly_oracle.paf_relu(ev, ct, paf)

            counts[paf.name] = self._counts(shadow, run)
            assert counts[paf.name] == self._counts(real, run), paf.name
        assert counts["alpha=10"]["mul"] > counts["f1 o g2"]["mul"]
        for c in counts.values():
            assert c["mul"] > 0 and c["mul_plain"] > 0

    def test_matvec_cost_model_counts(self):
        """Shadow counts == measured counts for the grouped matvec the
        executor runs — a dense 16-diagonal BSGS block and a 2-diagonal
        block no factoring helps (planned at ``n1 = size``), which still
        shares one hoisted decomposition."""
        ctx = CkksContext(CkksParams(n=128, scale_bits=25, depth=2))
        rng = np.random.default_rng(0)
        cases = {}
        for size in (16, 2):
            diags = diagonals_of(rng.normal(size=(size, size)), ctx.slots)
            plan = plan_matvec(diags.keys(), size)
            cases[size] = plan, [[grouped_diagonals(diags, plan)]]
        steps = {s for plan, _ in cases.values() for s in plan.rotation_steps()}
        real = CkksEvaluator(ctx, keygen(ctx, seed=0, galois_steps=tuple(steps)))
        counts = {}
        for size, (plan, blocks) in cases.items():
            def run(ev, ct, blocks=blocks):
                encrypted_matvec_shards(ev, [ct], blocks)

            counts[size] = self._counts(ShadowEvaluator(ctx), run)
            assert counts[size] == self._counts(real, run)
        assert cases[16][0].n1 < 16 and cases[2][0].n1 == 2
        assert counts[16] == {
            "hoist_decompose": 1,
            "rotate_hoisted": 3,    # baby steps sharing one decomposition
            "rotate": 3,            # giant steps
            "mul_plain": 16,
            "add": 15,
            "rescale": 1,
        }
        assert counts[2] == {
            "hoist_decompose": 1,
            "rotate_hoisted": 1,    # the one diagonal step, hoisted too
            "mul_plain": 2,
            "add": 1,
            "rescale": 1,
        }
        # the dense block charges at least as much of every op
        assert Counter(counts[2]) < Counter(counts[16])

    def test_measure_op_micros_includes_rotations(self):
        # the ops take a few hundred µs at this size, so one cold sample
        # is at the mercy of first-call costs and collector pauses: warm
        # the runtime, then compare medians of five
        params = CkksParams(n=256, scale_bits=25, depth=4)
        measure_op_micros(params, repeats=1)
        micros = measure_op_micros(params, repeats=5)
        assert micros["rotate"] > 0 and micros["rotate_hoisted"] > 0
        assert micros["hoist_decompose"] >= 0
        # the marginal hoisted rotation skips the decomposition entirely,
        # sitting well below a standalone rotate; assert with a wide margin
        # so a CI scheduler hiccup cannot flip a wall-clock inequality
        assert micros["rotate_hoisted"] < 2 * micros["rotate"]

    def test_shared_runtime_is_keyed_on_the_whole_parameter_set(self):
        """Params differing only in ``backend`` must not share the first
        one's evaluator — ``measure_op_micros`` would time the wrong
        kernels (the cache used to key on ``(n, scale_bits, depth)``)."""
        from repro.fhe.latency import shared_runtime

        base = dict(n=256, scale_bits=25, depth=2)
        evs = {
            name: shared_runtime(CkksParams(**base, backend=name))[2]
            for name in ("reference", "vectorized")
        }
        assert evs["reference"] is not evs["vectorized"]
        for name, ev in evs.items():
            assert ev.ctx.backend.name == name
        again = shared_runtime(CkksParams(**base, backend="vectorized"))[2]
        assert again is evs["vectorized"]  # still a cache
