"""HE-op-count regression suite for the encrypted hot paths.

These tests pin the *exact* rotation / keyswitch / rescale counts of the
planned matvec and its per-diagonal reference, both activation paths,
and the full compiled forward pass
via ``CountingEvaluator``, so a future change cannot silently regress a
hot path — the whole point of the BSGS matvec rewrite is the keyswitch
count, and of the Paterson–Stockmeyer activation rewrite the nonscalar
(ct×ct) multiplication count.

Acceptance invariants:

* every *dense* layer with >= 4 nonzero diagonals plans ``n1 < size``
  and does strictly fewer keyswitches than one per nonzero diagonal
  (sparse patterns may tie — the scan then lands on ``n1 = size``, the
  per-diagonal layout, pinned in test_plan_properties.py);
* every registry PAF with a component of degree >= 5 does strictly fewer
  nonscalar mults on the Paterson–Stockmeyer executor than on the
  term-by-term ladder oracle (``poly_oracle``, ``tests/conftest.py``) at
  the *same* level consumption.  ``f1²∘g1²`` (all components degree 3)
  provably ties: the two mults of ``c₁x + c₃x³`` are optimal.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksEvaluator, CkksParams, ShadowEvaluator, keygen
from repro.ckks.instrumentation import CountingEvaluator
from repro.ckks.poly_eval import eval_paf_relu
from repro.ckks.poly_plan import plan_paf_relu
from repro.fhe.linear import (
    diagonals_of,
    encrypted_matvec,
    plan_matvec,
)
from repro.paf import get_paf

SIZE = 16


@pytest.fixture(scope="module")
def rt():
    ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=2))
    keys = keygen(ctx, seed=0, galois_steps=tuple(range(1, SIZE)))
    return ctx, CkksEvaluator(ctx, keys)


def _packed_ct(ctx, ev, size, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=size)
    packed = np.zeros(ctx.slots)
    packed[:size] = x
    packed[size : 2 * size] = x
    return ev.encrypt(packed)


class TestMatvecOpCounts:
    def test_naive_dense_8x8_exact_counts(self, rt):
        ctx, ev = rt
        w = np.random.default_rng(0).normal(size=(8, 8))
        counting = CountingEvaluator(ev)
        ct = _packed_ct(ctx, counting, 8)
        counting.reset()
        encrypted_matvec(counting, ct, w)
        assert dict(counting.counts) == {
            "rotate": 7,
            "mul_plain": 8,
            "add": 7,
            "rescale": 1,
        }
        assert counting.keyswitch_count == 7

    def test_bsgs_dense_8x8_exact_counts(self, rt, planned_matvec):
        ctx, ev = rt
        w = np.random.default_rng(0).normal(size=(8, 8))
        counting = CountingEvaluator(ev)
        ct = _packed_ct(ctx, counting, 8)
        counting.reset()
        planned_matvec(counting, ct, w)
        # n1=4: babies {0,1,2,3} (3 hoisted rotations sharing 1 decompose),
        # giants {0,4} (1 standalone rotation of an accumulated sum)
        assert dict(counting.counts) == {
            "hoist_decompose": 1,
            "rotate_hoisted": 3,
            "rotate": 1,
            "mul_plain": 8,
            "add": 7,
            "rescale": 1,
        }
        assert counting.keyswitch_count == 4

    @pytest.mark.parametrize("size", list(range(4, SIZE + 1)))
    def test_bsgs_strictly_fewer_keyswitches_dense(self, rt, planned_matvec, size):
        """Acceptance: every dense layer with >= 4 nonzero diagonals plans
        ``n1 < size`` and does strictly fewer keyswitches than one per
        nonzero diagonal."""
        ctx, ev = rt
        w = np.random.default_rng(size).normal(size=(size, size))
        diags = diagonals_of(w, ctx.slots)
        plan = plan_matvec(diags.keys(), size)
        per_diagonal = sum(1 for d in diags if d)
        assert plan.n1 < size
        assert plan.keyswitches < per_diagonal

        counting = CountingEvaluator(ev)
        ct = _packed_ct(ctx, counting, size)
        counting.reset()
        planned_matvec(counting, ct, w)
        ks_bsgs = counting.keyswitch_count
        counting.reset()
        encrypted_matvec(counting, ct, w)
        ks_naive = counting.keyswitch_count
        # measured counts match the plan's prediction exactly
        assert ks_bsgs == plan.keyswitches
        assert ks_naive == per_diagonal
        assert ks_bsgs < ks_naive

    def test_both_paths_rescale_once(self, rt, planned_matvec):
        ctx, ev = rt
        w = np.random.default_rng(1).normal(size=(6, 6))
        counting = CountingEvaluator(ev)
        ct = _packed_ct(ctx, counting, 6)
        for fn in (encrypted_matvec, planned_matvec):
            counting.reset()
            fn(counting, ct, w)
            assert counting.counts["rescale"] == 1

    def test_identity_matrix_no_keyswitches(self, rt):
        ctx, ev = rt
        w = np.eye(6)
        plan = plan_matvec(diagonals_of(w, ctx.slots).keys(), 6)
        assert plan.n1 == 6               # nothing to gain: 0 rotations
        assert plan.keyswitches == 0
        counting = CountingEvaluator(ev)
        ct = _packed_ct(ctx, counting, 6)
        counting.reset()
        encrypted_matvec(counting, ct, w)
        assert counting.keyswitch_count == 0


class TestNetworkOpCounts:
    """Full-forward regression anchors for the compiled toy MLP
    (8 -> 6 -> 3 with one f1∘g2 PAF): two dense 8x8-padded linears."""

    @pytest.fixture(scope="class")
    def compiled(self, toy_plain_enc):
        return toy_plain_enc

    def _forward_counts(self, enc):
        counting = CountingEvaluator(enc.ev)
        ct = enc.encrypt_batch([np.zeros(8)])
        counting.reset()
        enc.forward(ct, ev=counting)
        return counting

    def _oracle_counts(self, enc, oracle):
        """The naive-matvec + ladder-PAF reference (tests/fhe/conftest.py)."""
        counting = CountingEvaluator(oracle.evaluator(enc))
        ct = enc.encrypt_batch([np.zeros(8)])
        oracle.forward(enc, ct, counting)
        return counting

    def test_planned_forward_exact_counts(self, compiled):
        """BSGS matvecs + Paterson–Stockmeyer activation (the default)."""
        counting = self._forward_counts(compiled)
        assert dict(counting.counts) == {
            "hoist_decompose": 2,   # one per linear layer
            "rotate_hoisted": 6,    # 3 baby rotations per 8-wide layer
            "rotate": 3,            # 2 giant steps + 1 replication rotation
            "mul_plain": 23,        # 21 leaves/diagonals + 2 exact aligns
            "add": 18,
            "add_plain": 3,
            "mul": 6,               # f1∘g2 PAF: 3 (PS g2) + 2 (f1) + gate
            "rescale": 15,
            "align_correction": 2,  # every cross-level align is exact
            "mod_switch_to": 5,     # plan-scheduled leaf levels
        }
        assert counting.keyswitch_count == 15
        assert counting.nonscalar_mult_count == 6

    def test_naive_forward_exact_counts(self, compiled, oracle):
        """Reference everywhere: naive diagonal loop + ladder activation."""
        counting = self._oracle_counts(compiled, oracle)
        assert dict(counting.counts) == {
            "rotate": 15,           # 7 per dense 8-wide layer + 1 replication
            "mul_plain": 26,        # 21 leaves/diagonals + 5 exact aligns
            "add": 18,
            "add_plain": 3,
            "mul": 7,               # f1∘g2 PAF: 4 (ladder g2) + 2 (f1) + gate
            "rescale": 19,
            "align_correction": 5,  # the oracle aligns exactly too
        }
        assert counting.keyswitch_count == 22
        assert counting.nonscalar_mult_count == 7

    def test_planned_forward_saves_keyswitches_end_to_end(self, compiled, oracle):
        bsgs = self._forward_counts(compiled)
        naive = self._oracle_counts(compiled, oracle)
        # BSGS cuts rotations AND the PS activation cuts relin keyswitches
        assert bsgs.keyswitch_count < naive.keyswitch_count
        assert bsgs.nonscalar_mult_count < naive.nonscalar_mult_count
        # addition structure is untouched by either rewrite
        for op in ("add", "add_plain"):
            assert bsgs.counts[op] == naive.counts[op]

    def test_key_set_smaller_than_reference(self, compiled, per_diagonal_steps):
        """BSGS shrinks the Galois key set: baby+giant+replicate steps
        are fewer than one key per nonzero diagonal."""
        plans = [p for ((p,),) in compiled.matvec_plans.values()]
        bsgs_steps = set().union(*(p.rotation_steps() for p in plans))
        assert len(bsgs_steps) < len(per_diagonal_steps(compiled))


class TestCnnOpCounts:
    """Full-forward regression anchors for the compiled toy CNN
    (conv-BN(folded)-PAF-pool-conv-dense on 1x8x8, f1∘g2 PAF).

    The conv matvecs are where BSGS earns its keep: the second conv reads
    a pool-strided grid and spreads over 120 nonzero diagonals — 119
    keyswitches naive, 21 planned.  The naive reference forward is not
    measured here (it would pay all 186 diagonal rotations); the plan
    predictions pin its cost instead.
    """

    @pytest.fixture(scope="class")
    def compiled(self, toy_cnn):
        return toy_cnn[1]

    #: (num_diagonals, one-per-diagonal keyswitches, planned keyswitches)
    #: per linear layer
    CNN_PLANS = {
        0: (18, 17, 8),     # conv1 (BN folded), dense 1x8x8 -> 2x8x8
        3: (120, 119, 21),  # conv2 reading the pool-strided grid
        4: (34, 33, 11),    # dense head reading the flattened activation
    }

    def test_per_layer_plans_pinned(self, compiled, per_diagonal_steps):
        assert set(compiled.matvec_plans) == set(self.CNN_PLANS)
        for i, (diags, naive, bsgs) in self.CNN_PLANS.items():
            ((plan,),) = compiled.matvec_plans[i]
            assert plan.n1 < plan.size
            assert (
                plan.num_diagonals,
                len(per_diagonal_steps(compiled, i)),
                plan.keyswitches,
            ) == (diags, naive, bsgs)

    def test_planned_forward_exact_counts(self, compiled):
        counting = CountingEvaluator(compiled.ev)
        ct = compiled.encrypt_batch([np.zeros(64)])
        counting.reset()
        compiled.forward(ct, ev=counting)
        assert dict(counting.counts) == {
            "hoist_decompose": 5,   # conv1 + conv2 + dense + 2 pool stages
            "rotate_hoisted": 26,   # baby rotations + one per pool stage
            "rotate": 18,           # giant steps + 2 replication rotations
            "mul_plain": 180,       # 172 diagonals/leaves + pool mask + aligns
            "add": 176,
            "add_plain": 4,
            "mul": 6,               # f1∘g2 PAF: 3 (PS g2) + 2 (f1) + gate
            "rescale": 17,
            "align_correction": 2,
            "mod_switch_to": 5,
        }
        assert counting.keyswitch_count == 50
        assert counting.nonscalar_mult_count == 6

    def test_bsgs_beats_naive_on_every_conv_layer(self, compiled, per_diagonal_steps):
        for i, ((plan,),) in compiled.matvec_plans.items():
            assert plan.keyswitches < len(per_diagonal_steps(compiled, i))

    def test_galois_key_set_far_below_naive(self, compiled, per_diagonal_steps):
        assert len(compiled.keys.galois) < len(per_diagonal_steps(compiled)) // 3


class TestResnetOpCounts:
    """Full-forward regression anchors for the compiled toy ResNet
    (stem + 2 BasicBlocks + pool + dense on 1x8x8, f1∘g2 PAFs, channels
    sharded across 2 ciphertexts).

    Sharding multiplies the activation cost by the shard count (each
    shard runs the PAF) but keeps every conv block at O(√D) keyswitches
    with one hoisted decomposition per *input shard* per layer and one
    giant rotation per (*output shard*, giant step); the two
    residual merges cost 2 alignment corrections + adds each, and only
    the downsampling block pays a projection matvec.
    """

    @pytest.fixture(scope="class")
    def compiled(self, toy_resnet):
        return toy_resnet[1]

    def test_planned_forward_exact_counts(self, compiled):
        counting = CountingEvaluator(compiled.ev)
        cts = compiled.encrypt_batch_shards([np.zeros(64)])
        counting.reset()
        compiled.forward_shards(cts, ev=counting)
        assert dict(counting.counts) == {
            "hoist_decompose": 17,
            "rotate_hoisted": 58,
            # 12 replications + 57 giant steps: one per (output shard,
            # giant step), where one per (block, giant step) paid 108
            "rotate": 69,
            "mul_plain": 644,
            "add": 621,
            "add_plain": 21,
            "mul": 48,          # 4 f1∘g2 PAFs x 2 shards x 6 + gate mults
            "rescale": 123,
            "align_correction": 20,
            "mod_switch_to": 40,
        }
        # the opcount_baseline.json pins (CI gate) must stay in lockstep
        assert counting.keyswitch_count == 175
        assert counting.nonscalar_mult_count == 48

    def test_every_conv_block_plans_bsgs(self, compiled):
        for plans in compiled.matvec_plans.values():
            for row in plans:
                for plan in row:
                    if plan is not None:
                        assert plan.n1 < plan.size

    def test_every_align_is_exact(self, compiled):
        """No tolerated scale mismatch anywhere in the forward — drift
        doubles per level and would overflow a 31-level chain: every
        ``align_to`` hands back exactly the ``(level, scale)`` it was
        asked for, and the logits leave on the canonical schedule."""
        aligns = []

        class Recording(ShadowEvaluator):
            def align_to(self, a, level, scale):
                out = super().align_to(a, level, scale)
                aligns.append(((out.level, out.scale), (level, scale)))
                return out

        ev = Recording(compiled.ctx)
        cts = [ev.encrypt(None) for _ in range(compiled.num_input_shards)]
        (out,) = compiled.forward_shards(cts, ev=ev)
        assert len(aligns) == 20  # the pinned align_correction count
        assert all(got == asked for got, asked in aligns)
        assert out.scale == compiled.ctx.canonical_scale(out.level)


#: pinned nonscalar-mult counts of the encrypted PAF-ReLU per registry form:
#: (term-by-term ladder oracle, Paterson–Stockmeyer plan), both *measured*
#: over shadow ciphertexts.  Component accounting —
#: degree 3: 2/2 (tie, optimal), degree 5: 4/3, degree 7: 6/5,
#: degree 27: 29/17; the ReLU gate adds one on both paths.
RELU_NONSCALAR = {
    "f1g2": (7, 6),          # g2(5) + f1(3) + gate
    "f2g2": (9, 7),          # 4+4+1 -> 3+3+1
    "f2g3": (11, 9),         # g3(7) + f2(5) + gate
    "alpha7": (13, 11),      # two degree-7 minimax components
    "f1f1g1g1": (9, 9),      # four degree-3 components: ladder is optimal
    "alpha10": (38, 25),     # (3, 7, 27) minimax composite
}


class TestActivationOpCounts:
    """Pin the exact nonscalar-mult counts of the executor and the oracle.

    The acceptance invariant of the Paterson–Stockmeyer executor: strictly
    fewer nonscalar mults than the term-by-term ladder for every registry
    PAF with a component of degree >= 5 (in particular every degree >= 7
    form with such a component), never more for any, at identical level
    consumption.
    """

    @pytest.mark.parametrize("form", sorted(RELU_NONSCALAR))
    def test_measured_counts_match_pins(self, poly_oracle, form):
        paf = get_paf(form)
        ladder_pin, ps_pin = RELU_NONSCALAR[form]
        plan = plan_paf_relu(paf)
        assert plan.nonscalar_mults == ps_pin

        def ps(ev, ct):
            out = eval_paf_relu(ev, ct, paf, plan=plan)
            assert ct.level - out.level == plan.mult_depth

        def ladder(ev, ct):      # consumes exactly the analytic depth too
            out = poly_oracle.paf_relu(ev, ct, paf)
            assert ct.level - out.level == plan.mult_depth

        assert poly_oracle.shadow_counts(ps)["mul"] == ps_pin
        assert poly_oracle.shadow_counts(ladder)["mul"] == ladder_pin

    def test_strictly_fewer_for_degree5_plus_components(self):
        for form, (ladder, ps) in RELU_NONSCALAR.items():
            paf = get_paf(form)
            if max(c.degree for c in paf.components) >= 5:
                assert ps < ladder, form
            else:
                assert ps == ladder, form
            assert ps <= ladder, form
