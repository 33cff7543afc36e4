"""Level refresh (simplified bootstrapping): properties and conformance.

Three layers of evidence that a refresh is safe to splice into a
compiled network (``docs/bootstrapping.md``):

* **hypothesis properties** over the evalmod pipeline's two halves —
  the CtS/StC linear maps must invert each other exactly (up to encode
  rounding) *without* EvalMod in between, and EvalMod itself must
  approximate ``sin(2π·t)`` on range-reduced wrapped arguments for
  every admissible integer wrap ``I ∈ [-K, K]``;
* **end-to-end gates** — both methods refresh real ciphertexts back to
  their target level on the canonical scale schedule, and the
  precision gate actually trips (``RefreshPrecisionError``) rather
  than passing corrupted ciphertexts downstream;
* **cross-backend conformance** — a refresh, like every other op, must
  be bit-identical across registered kernel backends.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, CkksEvaluator, CkksParams, keygen
from repro.ckks.backend import available_backends
from repro.ckks.bootstrap import (
    RefreshPrecisionError,
    coeff_to_slot,
    eval_mod,
    mod_raise,
    plan_refresh,
    refresh,
    slot_to_coeff,
)
from repro.ckks.evaluator import Ciphertext

# q0/scale = 2^4: comfortably past evalmod's >= 8 floor, and depth 14
# covers the n=32 pipeline (CtS 2 + cos 4 + 5 double angles + StC 1 = 12)
_PARAMS = {n: CkksParams(n=n, scale_bits=25, depth=14) for n in (16, 32)}
_runtime_cache: dict = {}


def runtime(n, method="evalmod"):
    """Shared (ctx, ev, plan) per ring size — keygen dominates otherwise."""
    key = (n, method)
    if key not in _runtime_cache:
        ctx = CkksContext(_PARAMS[n])
        plan = plan_refresh(ctx, method=method)
        ev = CkksEvaluator(
            ctx, keygen(ctx, seed=0, galois_steps=plan.galois_steps())
        )
        _runtime_cache[key] = (ctx, ev, plan)
    return _runtime_cache[key]


vals = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32),
    min_size=1,
    max_size=8,
)


class TestCtsStcRoundTrip:
    @given(st.sampled_from([16, 32]), vals)
    @settings(max_examples=10, deadline=None)
    def test_linear_maps_invert(self, n, xs):
        """StC(2^r · CtS(ct)) recovers the message without EvalMod.

        CtS plants ``2π·coeff/(2^r·q0)`` in the slots; undoing the
        range reduction with a plaintext ``2^r`` hands StC exactly the
        small-angle ``sin(2πt) ≈ 2πt`` it expects, so the two maps
        compose to the identity — the trig step is the *only* lossy
        stage of the pipeline.
        """
        ctx, ev, plan = runtime(n)
        v = np.zeros(ctx.slots)
        v[: len(xs)] = xs
        assume(np.max(np.abs(v)) > 1e-3)  # rel-err floor needs signal
        ct = ev.encrypt(v)
        ct_a, ct_b = coeff_to_slot(ev, ct, plan)
        undo = float(2**plan.num_double_angles)
        ct_a = ev.mul_plain_rescale(ct_a, undo)
        ct_b = ev.mul_plain_rescale(ct_b, undo)
        back = slot_to_coeff(ev, ct_a, ct_b, plan, ct.scale)
        got = ev.decrypt(back)
        np.testing.assert_allclose(got, v, atol=2e-3)

    def test_galois_steps_cover_both_maps(self):
        ctx, ev, plan = runtime(16)
        steps = plan.galois_steps()
        assert steps[-1] == "conj"
        assert set(steps[:-1]) >= set(plan.cts_plan.rotation_steps())
        assert set(steps[:-1]) >= set(plan.stc_plan.rotation_steps())


class TestEvalModAccuracy:
    @given(
        st.sampled_from([16, 32]),
        st.lists(
            st.floats(min_value=-0.25, max_value=0.25, allow_nan=False, width=32),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_sin_recovered_for_every_wrap(self, n, ts, wrap_seed):
        """``u = 2π(t + I)/2^r`` must come back as ``sin(2πt)``, any I.

        The whole point of EvalMod: the ``q0·I`` wrap introduced by
        ModRaise is an *unknown* integer in ``[-K, K]`` — the cosine's
        periodicity must delete it for every value, not just small ones.
        """
        ctx, ev, plan = runtime(n)
        t = np.zeros(ctx.slots)
        t[: len(ts)] = ts
        wraps = np.random.default_rng(wrap_seed).integers(
            -plan.mod_k, plan.mod_k + 1, ctx.slots
        )
        u = 2.0 * np.pi * (t + wraps) / 2.0**plan.num_double_angles
        got = ev.decrypt(eval_mod(ev, ev.encrypt(u), plan))
        # stage bound: the Chebyshev fit is worst at maximal wrap |I|=K
        # (~2e-2 there, plus fresh-encryption noise), and must stay
        # under evalmod's end-to-end rtol default of 5e-2
        np.testing.assert_allclose(got, np.sin(2.0 * np.pi * t), atol=3.5e-2)


class TestRefreshEndToEnd:
    @pytest.mark.parametrize("method", ["recrypt", "evalmod"])
    def test_refresh_restores_level_on_canonical_scale(self, method):
        ctx, ev, plan = runtime(32, method)
        rng = np.random.default_rng(5)
        v = rng.uniform(-1.0, 1.0, ctx.slots)
        ct = ev.encrypt(v)
        # burn most of the chain first, as a deep network would
        low = ev.mod_switch_to(ct, 1)
        out = refresh(ev, low, plan)
        assert out.level == plan.target_level > low.level
        assert out.scale == ctx.canonical_scale(out.level)
        got = ev.decrypt(out)
        rel = np.max(np.abs(got - v)) / np.max(np.abs(v))
        assert rel <= plan.rtol

    def test_recrypt_costs_no_pipeline_levels(self):
        ctx, ev, plan = runtime(16, "recrypt")
        assert plan.pipeline_levels == 0
        assert plan.target_level == ctx.max_level
        assert plan.galois_steps() == ()

    def test_precision_gate_trips(self):
        """An unmeetable gate raises instead of passing bad ciphertexts."""
        ctx, ev, _ = runtime(32)
        plan = plan_refresh(ctx, method="evalmod", rtol=1e-12)
        v = np.random.default_rng(6).uniform(-1.0, 1.0, ctx.slots)
        with pytest.raises(RefreshPrecisionError) as exc:
            refresh(ev, ev.encrypt(v), plan)
        assert exc.value.rel_err > exc.value.rtol == 1e-12
        assert exc.value.method == "evalmod"

    def test_evalmod_rejects_scale_crowding_q0(self):
        ctx = CkksContext(CkksParams(n=16, scale_bits=28, depth=14))
        with pytest.raises(ValueError, match="q0/scale"):
            plan_refresh(ctx, method="evalmod")

    def test_unknown_method_rejected(self):
        ctx, _, _ = runtime(16)
        with pytest.raises(ValueError, match="unknown refresh method"):
            plan_refresh(ctx, method="modswitch")


class TestRefreshCostModel:
    """The latency model's refresh pricing must match measured counts.

    ``refresh_op_counts`` runs :func:`refresh` itself over shadow
    ciphertexts and is what ``cost_from_counts`` dots with measured
    per-op timings; if it drifted from what a real refresh executes, the
    compile-time refresh-vs-deepen tradeoff would be priced on fiction.
    """

    def _measure(self, n, method):
        from repro.ckks.instrumentation import CountingEvaluator

        ctx, ev, plan = runtime(n, method)
        v = np.random.default_rng(7).uniform(-0.25, 0.25, ctx.slots)
        low = ev.mod_switch_to(ev.encrypt(v), 1)
        counting = CountingEvaluator(ev)
        refresh(counting, low, plan)
        return plan, {k: int(c) for k, c in counting.counts.items() if c}

    @pytest.mark.parametrize("n", [16, 32])
    def test_evalmod_model_is_op_exact(self, n):
        from repro.fhe.latency import refresh_op_counts

        plan, measured = self._measure(n, "evalmod")
        assert refresh_op_counts(plan) == measured

    def test_recrypt_model_prices_the_unmetered_encode(self):
        from repro.fhe.latency import refresh_op_counts

        plan, measured = self._measure(16, "recrypt")
        # the gate's two decryptions are evaluator ops; the re-encode at
        # the top of the chain is an encoder call the counting proxy
        # cannot see, booked as one encrypt on top of them
        assert measured == {"decrypt": 2}
        assert refresh_op_counts(plan) == {"decrypt": 2, "encrypt": 1}

    def test_evalmod_refresh_costs_more_than_recrypt(self):
        from repro.fhe.latency import refresh_op_counts

        _, _, evalmod = runtime(32, "evalmod")
        _, _, recrypt = runtime(32, "recrypt")
        # recrypt touches only the client boundary; evalmod runs the
        # homomorphic pipeline and pays for it in keyswitches of every
        # kind (relin, standalone + hoisted Galois, conjugation);
        # refresh_op_counts drops zero entries, so presence is a count > 0
        assert set(refresh_op_counts(recrypt)) == {"decrypt", "encrypt"}
        assert {"mul", "rotate", "rotate_hoisted", "conjugate"} <= set(
            refresh_op_counts(evalmod)
        )

    def test_shadow_run_leaves_the_plan_memo_real(self):
        """The plan memoises encoded diagonals per consumption point; a
        shadow run must leave nothing there a real refresh could choke
        on.  The plan encodes against its own context, so whatever a
        shadow run leaves is a real plaintext — and a real refresh
        afterwards is bit-identical to one on a plan no shadow touched."""
        from repro.ckks.encoder import Plaintext
        from repro.fhe.latency import refresh_op_counts

        ctx, ev, _ = runtime(32)
        plan = plan_refresh(ctx, method="evalmod")
        refresh_op_counts(plan)
        leaves = [
            pt
            for groups in plan._encoded.values()
            for inner in groups.values()
            for pt in inner.values()
        ]
        assert all(
            isinstance(pt, Plaintext) and isinstance(pt.data, np.ndarray) for pt in leaves
        )
        v = np.random.default_rng(8).uniform(-1.0, 1.0, ctx.slots)
        low = ev.mod_switch_to(ev.encrypt(v), 1)
        out = refresh(ev, low, plan)  # passes its precision gate
        clean = refresh(ev, low, plan_refresh(ctx, method="evalmod"))
        assert (out.level, out.scale) == (clean.level, clean.scale)
        assert np.array_equal(out.data, clean.data)


class TestModRaise:
    @pytest.mark.parametrize("backend", available_backends())
    def test_mod_raise_is_the_centred_lift_of_q0(self, backend):
        """ModRaise (one ModUp from ``q_0``) gives the bytes of its
        spelling: the ``q_0`` row inverse-transformed, centred, and
        lifted onto the chain — at every target level, with coefficients
        on the centring boundary."""
        ctx, ev, _ = runtime(16)
        orig = ctx.backend.name
        try:
            be = ctx.set_backend(backend)
            q0 = ctx.q_chain[0]
            coeffs = np.random.default_rng(3).integers(0, q0, size=(2, ctx.n))
            coeffs[:, :4] = [0, q0 // 2, q0 // 2 + 1, q0 - 1]
            ct = Ciphertext(ctx, be.ntt_forward(coeffs[:, None, :], [0]), 1.0, 0)
            for level in range(ctx.max_level + 1):
                residues = be.ntt_inverse(ct.data, [0])[:, 0]
                centred = ((residues + q0 // 2) % q0) - q0 // 2
                want = be.lift(centred, range(level + 1))
                got = mod_raise(ev, ct, level)
                assert (got.level, got.scale) == (level, ct.scale)
                assert got.data.tobytes() == want.tobytes()
        finally:
            ctx.set_backend(orig)

    def test_evalmod_refresh_makes_no_ntt_call_from_the_evaluator(self, monkeypatch):
        """Every NTT a refresh needs runs inside a backend pipeline or
        the encoder: ``evaluator.py`` itself calls neither transform."""
        ctx, ev, plan = runtime(16)
        be = ctx.backend
        callers = []
        for name in ("ntt_forward", "ntt_inverse"):
            def spy(*args, _real=getattr(be, name), **kwargs):
                callers.append(sys._getframe(1).f_code.co_filename)
                return _real(*args, **kwargs)

            monkeypatch.setattr(be, name, spy)
        v = np.random.default_rng(5).uniform(-1.0, 1.0, ctx.slots)
        refresh(ev, ev.mod_switch_to(ev.encrypt(v), 1), plan)
        assert any(f.endswith("encoder.py") for f in callers)  # the spy sees calls
        assert not [f for f in callers if f.endswith("evaluator.py")]


class TestRefreshBackendConformance:
    @pytest.mark.parametrize("method", ["recrypt", "evalmod"])
    def test_refresh_bit_identical_across_backends(self, method):
        """One encryption, every backend: identical refreshed bits.

        The plan is rebuilt per backend so diagonal *encoding* (NTT of
        the plaintext matrices) is conformance-tested too, not just the
        homomorphic pipeline.
        """
        ctx, ev, _ = runtime(32, method)
        v = np.random.default_rng(7).uniform(-1.0, 1.0, ctx.slots)
        ct = ev.encrypt(v)  # shared input: encryption advances an RNG
        orig = ctx.backend.name
        outs = {}
        try:
            for name in available_backends():
                ctx.set_backend(name)
                outs[name] = refresh(ev, ct, plan_refresh(ctx, method=method))
        finally:
            ctx.set_backend(orig)
        assert len(outs) >= 2
        ref = outs["reference"]
        for name, got in outs.items():
            assert got.level == ref.level and got.scale == ref.scale
            assert np.array_equal(got.data, ref.data), name
