"""Differential suite for encrypted CNN compilation.

Three rings of verification, cheapest first:

* **pure-numpy lowering differentials** (hypothesis-driven): the
  lowering-time conv/linear matrices and rotate-and-sum pool plans are
  checked against ``repro.nn.functional`` on random shapes — no crypto,
  hundreds of examples — and what the lowering rejects or how it lays a
  model out is asserted on :func:`repro.fhe.lower.lower`'s graph, no keys;
* **encrypted layer differentials**: small convs/pools/folded BatchNorms
  run on real ciphertexts against the plaintext forward;
* **the trained toy CNN end to end**: compiled logits match the
  plaintext model within rtol 1e-3, single and SIMD-batched on the
  warmed network a server runs, with the level schedule consumed
  exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksParams
from repro.fhe.cnn import (
    avg_pool_shifts,
    conv2d_layout_matrix,
    fold_bn_into_conv,
    linear_layout_matrix,
)
from repro.fhe.ir import CompilePolicy
from repro.fhe.lower import lower
from repro.fhe.network import compile_network
from repro.fhe.packing import GridLayout
from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# GridLayout geometry
# ----------------------------------------------------------------------
class TestGridLayout:
    def test_dense_positions_are_flat_nchw(self):
        g = GridLayout.dense(2, 3, 4)
        np.testing.assert_array_equal(g.positions().ravel(), np.arange(24))
        assert g.span == g.num_elements == 24

    def test_pooled_strides_and_extent(self):
        g = GridLayout.dense(2, 8, 8).pooled(2, 2)
        assert (g.height, g.width) == (4, 4)
        assert (g.row_stride, g.col_stride) == (16, 2)
        assert g.chan_stride == 64
        # element (c=1, h=2, w=3) sits at the dense parent's (4, 6) corner
        assert g.slot_of(1, 2, 3) == 64 + 2 * 16 + 3 * 2

    def test_global_pooled_one_slot_per_channel(self):
        g = GridLayout.dense(3, 4, 4).global_pooled()
        np.testing.assert_array_equal(g.positions().ravel(), [0, 16, 32])

    def test_pool_window_larger_than_grid_rejected(self):
        with pytest.raises(ValueError):
            GridLayout.dense(1, 2, 2).pooled(3, 1)

    def test_non_injective_layout_rejected(self):
        with pytest.raises(ValueError):
            GridLayout(channels=2, height=2, width=2,
                       chan_stride=1, row_stride=1, col_stride=1)


# ----------------------------------------------------------------------
# pure-numpy lowering differentials (no crypto)
# ----------------------------------------------------------------------
def _slot_vector(x_chw: np.ndarray, layout: GridLayout, slots: int) -> np.ndarray:
    """Scatter a (C, H, W) activation into its layout's slot positions."""
    vec = np.zeros(slots)
    vec[layout.positions().ravel()] = x_chw.ravel()
    return vec


conv_shapes = st.tuples(
    st.integers(1, 3),   # in channels
    st.integers(1, 3),   # out channels
    st.integers(3, 6),   # H = W
    st.integers(1, 3),   # kernel
    st.integers(1, 2),   # stride
    st.integers(0, 1),   # padding
)


class TestConvLowering:
    @settings(max_examples=60, deadline=None)
    @given(conv_shapes, st.integers(0, 10_000))
    def test_matrix_matches_functional_conv(self, shape, seed):
        ic, oc, hw, k, stride, padding = shape
        if k > hw + 2 * padding:
            return
        rng = np.random.default_rng(seed)
        conv = Conv2d(ic, oc, k, stride=stride, padding=padding, rng=rng)
        conv.bias.data = rng.normal(size=oc)
        x = rng.normal(size=(1, ic, hw, hw))
        ref = F.conv2d(
            Tensor(x), conv.weight, conv.bias, stride, padding
        ).data.ravel()

        layout = GridLayout.dense(ic, hw, hw)
        mat, bias_vec, out_layout = conv2d_layout_matrix(
            conv.weight.data, conv.bias.data, layout, stride=stride, padding=padding
        )
        got = mat @ _slot_vector(x[0], layout, layout.span) + bias_vec
        np.testing.assert_allclose(got, ref, atol=1e-10)
        assert out_layout.num_elements == len(ref)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.integers(4, 8), st.integers(0, 10_000))
    def test_conv_composes_with_strided_pool_layout(self, ic, hw, seed):
        """A conv lowered against a pooled (strided) grid reads the window
        corners — garbage columns between them are exactly zero."""
        if hw % 2:
            hw += 1
        rng = np.random.default_rng(seed)
        conv = Conv2d(ic, 2, 3, padding=1, rng=rng)
        dense = GridLayout.dense(ic, hw, hw)
        strided = dense.pooled(2, 2)
        mat, _, _ = conv2d_layout_matrix(
            conv.weight.data, None, strided, stride=1, padding=1
        )
        # plaintext reference on the pooled (compacted) activation
        x_small = rng.normal(size=(1, ic, hw // 2, hw // 2))
        ref = F.conv2d(Tensor(x_small), conv.weight, None, 1, 1).data.ravel()
        # scatter the compacted activation to the strided corners, add
        # garbage everywhere else: the matrix must ignore it
        vec = rng.normal(size=strided.span)  # garbage baseline
        vec[strided.positions().ravel()] = x_small.ravel()
        np.testing.assert_allclose(mat @ vec, ref, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        conv = Conv2d(2, 1, 3)
        with pytest.raises(ValueError):
            conv2d_layout_matrix(conv.weight.data, None, GridLayout.dense(1, 4, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 10_000))
    def test_linear_reads_layout_positions(self, out_f, c, seed):
        rng = np.random.default_rng(seed)
        layout = GridLayout.dense(c, 4, 4).pooled(2, 2)
        w = rng.normal(size=(out_f, layout.num_elements))
        mat = linear_layout_matrix(w, layout.positions().ravel())
        x = rng.normal(size=layout.num_elements)
        vec = np.zeros(mat.shape[1])
        vec[layout.positions().ravel()] = x
        np.testing.assert_allclose(mat @ vec, w @ x, atol=1e-12)


def _rotate_and_sum(vec: np.ndarray, shifts: tuple, pool_scale: float) -> np.ndarray:
    """Numpy model of the encrypted pool: left-rotations + masked scalar."""
    for stage in shifts:
        acc = vec.copy()
        for s in stage:
            acc += np.roll(vec, -s)
        vec = acc
    return vec * pool_scale


class TestPoolLowering:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),               # channels
        st.sampled_from([(4, 2, 2), (6, 2, 2), (6, 3, 3), (8, 2, 2), (8, 4, 4)]),
        st.integers(0, 10_000),
    )
    def test_rotate_and_sum_matches_avg_pool_at_corners(self, c, geom, seed):
        hw, k, stride = geom
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, c, hw, hw))
        ref = F.avg_pool2d(Tensor(x), k, stride).data.ravel()

        layout = GridLayout.dense(c, hw, hw)
        shifts = avg_pool_shifts(layout, k, k)
        vec = np.zeros(2 * layout.span)  # data + zero tail (replica stand-in)
        vec[: layout.span] = x.ravel()
        summed = _rotate_and_sum(vec, shifts, 1.0 / (k * k))
        got = summed[layout.pooled(k, stride).positions().ravel()]
        np.testing.assert_allclose(got, ref, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 10_000))
    def test_global_pool_matches_at_channel_slots(self, c, hw, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, c, hw, hw))
        ref = F.global_avg_pool2d(Tensor(x)).data.ravel()
        layout = GridLayout.dense(c, hw, hw)
        shifts = avg_pool_shifts(layout, hw, hw)
        vec = np.zeros(2 * layout.span)
        vec[: layout.span] = x.ravel()
        summed = _rotate_and_sum(vec, shifts, 1.0 / (hw * hw))
        got = summed[layout.global_pooled().positions().ravel()]
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_stacked_pools_compose(self):
        """Pool-of-pool: the second pool's shifts follow the strided grid."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 8, 8))
        ref = F.avg_pool2d(F.avg_pool2d(Tensor(x), 2, 2), 2, 2).data.ravel()
        layout = GridLayout.dense(2, 8, 8)
        vec = np.zeros(2 * layout.span)
        vec[: layout.span] = x.ravel()
        vec = _rotate_and_sum(vec, avg_pool_shifts(layout, 2, 2), 0.25)
        layout = layout.pooled(2, 2)
        vec = _rotate_and_sum(vec, avg_pool_shifts(layout, 2, 2), 0.25)
        layout = layout.pooled(2, 2)
        got = vec[layout.positions().ravel()]
        np.testing.assert_allclose(got, ref, atol=1e-10)


def _frozen_bn(features: int, seed: int) -> BatchNorm2d:
    rng = np.random.default_rng(seed)
    bn = BatchNorm2d(features, track_running_stats=True)
    bn.gamma.data = rng.uniform(0.5, 1.5, size=features)
    bn.beta.data = rng.normal(size=features)
    bn.running_mean[:] = rng.normal(size=features)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=features)
    bn.training = False
    return bn


class TestBnFolding:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
    def test_folded_conv_matches_bn_of_conv(self, ic, oc, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2d(ic, oc, 3, padding=1, rng=rng)
        conv.bias.data = rng.normal(size=oc)
        bn = _frozen_bn(oc, seed + 1)
        x = rng.normal(size=(2, ic, 5, 5))
        ref = bn(conv(Tensor(x))).data

        w, b = fold_bn_into_conv(conv.weight.data, conv.bias.data, bn)
        got = F.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_batch_stat_bn_rejected(self):
        conv = Conv2d(1, 2, 3)
        bn = BatchNorm2d(2)  # track_running_stats=False: data-dependent
        with pytest.raises(ValueError, match="track_running_stats"):
            fold_bn_into_conv(conv.weight.data, None, bn)


# ----------------------------------------------------------------------
# encrypted layer differentials (real ciphertexts, small ring)
# ----------------------------------------------------------------------
def _mini_paf_net(*layers):
    """Wrap layers in a Sequential; no activation (tested separately)."""
    return Sequential(*layers)


MINI_PARAMS = CkksParams(n=256, scale_bits=25, depth=3)
MINI_POLICY = CompilePolicy(input_shape=(1, 4, 4))


def _compile_mini(model, **overrides):
    """Compile a mini net over 1x4x4 images at ``MINI_PARAMS``."""
    policy = dataclasses.replace(MINI_POLICY, **overrides)
    return compile_network(model, MINI_PARAMS, policy=policy)


class TestEncryptedDifferentials:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_encrypted_conv_pool_dense_matches_plaintext(self, seed):
        rng = np.random.default_rng(seed)
        model = _mini_paf_net(
            Conv2d(1, 2, 3, padding=1, rng=rng),
            AvgPool2d(2),
            Flatten(),
            Linear(8, 3, rng=rng),
        )
        model.eval()
        enc = _compile_mini(model)
        x = rng.normal(size=(1, 1, 4, 4))
        ref = model(Tensor(x)).data.ravel()
        got = enc.decrypt_logits(enc.forward(enc.encrypt_input(x.ravel())), 3)
        np.testing.assert_allclose(got, ref, atol=2e-3)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_encrypted_bn_folded_vs_unfolded(self, seed):
        """A conv-BN net with the BatchNorm folded into the conv decrypts
        to the plaintext (unfolded) model's values; the fold is free —
        two matvecs, two levels."""
        rng = np.random.default_rng(seed)
        conv = Conv2d(1, 2, 3, padding=1, rng=rng)
        bn = _frozen_bn(2, seed)
        model = _mini_paf_net(conv, bn, Flatten(), Linear(32, 3, rng=rng))
        model.eval()
        x = rng.normal(size=16)
        enc = _compile_mini(model)
        assert [layer.kind for layer in enc.layers] == ["linear", "linear"]
        ct = enc.forward(enc.encrypt_input(x))
        assert enc.ctx.max_level - ct.level == 2
        ref = model(Tensor(x.reshape(1, 1, 4, 4))).data.ravel()
        np.testing.assert_allclose(enc.decrypt_logits(ct, 3), ref, atol=2e-3)

    def test_encrypted_global_pool_head(self):
        """Global pool straight into the head: the compiler flattens
        implicitly (the plaintext reference needs an explicit Flatten)."""
        rng = np.random.default_rng(7)
        conv = Conv2d(1, 2, 3, padding=1, rng=rng)
        head = Linear(2, 3, rng=rng)
        plain = _mini_paf_net(conv, GlobalAvgPool2d(), Flatten(), head)
        plain.eval()
        compiled = _mini_paf_net(conv, GlobalAvgPool2d(), head)
        compiled.eval()
        enc = _compile_mini(compiled)
        x = rng.normal(size=(1, 1, 4, 4))
        ref = plain(Tensor(x)).data.ravel()
        got = enc.decrypt_logits(enc.forward(enc.encrypt_input(x.ravel())), 3)
        np.testing.assert_allclose(got, ref, atol=2e-3)

    def test_pool_first_network_matches_plaintext(self):
        """A net that opens with a pool is legal — the pool's mask zeroes
        the packed input's replica half before the head replicates."""
        rng = np.random.default_rng(4)
        model = _mini_paf_net(AvgPool2d(2), Flatten(), Linear(4, 2, rng=rng))
        model.eval()
        enc = _compile_mini(model)
        assert [layer.kind for layer in enc.layers] == ["pool", "linear"]
        x = rng.normal(size=(1, 1, 4, 4))
        ref = model(Tensor(x)).data.ravel()
        got = enc.decrypt_logits(enc.forward(enc.encrypt_input(x.ravel())), 2)
        np.testing.assert_allclose(got, ref, atol=2e-3)

    def test_reference_pool_path_matches_planned(self, oracle):
        """The oracle rotates one by one — same values, same sums."""
        rng = np.random.default_rng(3)
        model = _mini_paf_net(
            Conv2d(1, 1, 3, padding=1, rng=rng), AvgPool2d(2),
            Flatten(), Linear(4, 2, rng=rng),
        )
        model.eval()
        enc = _compile_mini(model)
        x = rng.normal(size=16)
        planned = enc.decrypt_logits(enc.forward(enc.encrypt_input(x)), 2)
        reference = enc.decrypt_logits(
            oracle.forward(enc, enc.encrypt_input(x), oracle.evaluator(enc)), 2
        )
        np.testing.assert_allclose(planned, reference, atol=1e-4)


class TestCompilerRejections:
    def test_exact_relu_rejected(self):
        model = Sequential(Conv2d(1, 1, 3), ReLU())
        with pytest.raises(TypeError, match="exact ReLU"):
            lower(model, MINI_POLICY)

    def test_exact_maxpool_rejected(self):
        model = Sequential(Conv2d(1, 1, 3), MaxPool2d(2))
        with pytest.raises(TypeError, match="MaxPool2d"):
            lower(model, MINI_POLICY)

    def test_paf_maxpool_not_implemented(self):
        from repro.core.paf_layer import PAFMaxPool2d
        from repro.paf import get_paf

        model = Sequential(
            Conv2d(1, 1, 3), PAFMaxPool2d(get_paf("f1g2"), kernel_size=2)
        )
        with pytest.raises(NotImplementedError, match="max-pool"):
            lower(model, MINI_POLICY)

    def test_conv_after_flatten_rejected(self):
        model = Sequential(Flatten(), Conv2d(1, 1, 3))
        with pytest.raises(TypeError, match="flattened"):
            lower(model, MINI_POLICY)

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ValueError, match="C, H, W"):
            lower(Sequential(Conv2d(1, 1, 3)), CompilePolicy(input_shape=(4, 4)))

    def test_unknown_leaf_rejected_not_silently_dropped(self):
        """A layer without an encrypted lowering must fail the compile —
        skipping it would decrypt to wrong logits with no error."""
        from repro.nn.module import Module

        class Swish(Module):
            def forward(self, x):
                return x

        model = Sequential(Conv2d(1, 1, 3), Swish())
        with pytest.raises(TypeError, match="no encrypted lowering"):
            lower(model, MINI_POLICY)

    def test_dropout_and_identity_are_skipped(self):
        from repro.nn.layers import Dropout, Identity

        rng = np.random.default_rng(5)
        model = Sequential(
            Conv2d(1, 1, 3, padding=1, rng=rng), Dropout(0.5), Identity(),
            Flatten(), Linear(16, 2, rng=rng),
        )
        model.eval()
        enc = _compile_mini(model)
        x = rng.normal(size=16)
        ref = model(Tensor(x.reshape(1, 1, 4, 4))).data.ravel()
        got = enc.decrypt_logits(enc.forward(enc.encrypt_input(x)), 2)
        np.testing.assert_allclose(got, ref, atol=2e-3)


# ----------------------------------------------------------------------
# the trained toy CNN, end to end (session-scoped compile)
# ----------------------------------------------------------------------
class TestToyCnnEndToEnd:
    def test_single_request_matches_plaintext_logits(self, toy_cnn):
        model, enc = toy_cnn
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 1, 8, 8))
        ref = model(Tensor(x)).data.ravel()
        got = enc.decrypt_logits(enc.forward(enc.encrypt_input(x.ravel())), 3)
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-4)

    def test_batched_via_serve_artifact(self, toy_cnn):
        """The acceptance path: SIMD-batched requests through the
        warmed network match per-row plaintext logits."""
        model, enc = toy_cnn
        rng = np.random.default_rng(12)
        xs = [rng.normal(size=64) for _ in range(enc.max_batch)]
        ref = model(Tensor(np.stack(xs).reshape(-1, 1, 8, 8))).data
        enc.warm()
        ct = enc.encrypt_batch(xs)
        out = enc.forward(ct)
        got = enc.decrypt_logits(out, 3, batch=len(xs))
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-4)
        # steady state: a second identical batch reads only compiled plaintexts
        misses_before = enc.plaintexts.misses
        enc.forward(enc.encrypt_batch(xs))
        assert enc.plaintexts.misses == misses_before

    def test_level_schedule_consumed_exactly(self, toy_cnn):
        _, enc = toy_cnn
        ct = enc.forward(enc.encrypt_input(np.zeros(64)))
        depth_needed = sum(layer.level_cost() for layer in enc.layers)
        assert enc.ctx.max_level - ct.level == depth_needed == 10

    def test_layer_input_levels_match_kind_costs(self, toy_cnn):
        model, enc = toy_cnn
        graph = lower(model, enc.policy)
        assert [n.kind for n in graph.nodes] == ["linear", "paf", "pool", "linear", "linear"]
        top = 10
        levels = graph.input_levels(top)
        # conv(1) + PAF(6) + pool(1) + conv(1) then the dense head
        assert [levels[i] for i in range(5)] == [top, top - 1, top - 7, top - 8, top - 9]
        assert enc.graph.input_levels(enc.ctx.max_level) == levels

    def test_num_shards_is_a_free_axis(self, toy_cnn):
        """The same toy CNN at ``num_shards=2``: the first conv's two
        channels fan out over two ciphertexts, the cost model runs in
        shadow, and a real forward of an in-domain row still matches the
        plaintext model."""
        from repro.fhe.toy import TOY_CNN_PARAMS, toy_cnn_model

        model, enc1 = toy_cnn
        policy = dataclasses.replace(enc1.policy, num_shards=2)
        enc = compile_network(model, TOY_CNN_PARAMS, policy=policy)
        assert enc.num_input_shards == 1  # a 1-channel image is one shard
        assert max(len(grid) for grid in enc.matvec_plans.values()) == 2
        counts = enc.op_counts()
        assert counts["mul"] == 2 * enc1.op_counts()["mul"]  # one PAF per shard
        # a held-out row inside the PAF's calibrated domain, judged on
        # the plaintext side (pre-activation <= 0.65 of the static scale)
        conv, bn, paf = model[0], model[1], model[2]
        _, data = toy_cnn_model()
        x = next(
            row for row in data.x_val
            if np.max(np.abs(bn(conv(Tensor(row[None]))).data)) <= 0.65 * paf.static_scale
        )
        ref = model(Tensor(x[None])).data.ravel()
        (out,) = enc.forward_shards(enc.encrypt_input_shards(x.ravel()))
        got = enc.decrypt_logits(out, 3)
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-4)

    def test_pool_and_conv_keys_cover_forward(self, toy_cnn, per_diagonal_steps):
        """Compiled Galois key set suffices — forward raised no KeyError —
        and stays far below one key per nonzero diagonal."""
        _, enc = toy_cnn
        assert len(enc.keys.galois) < len(per_diagonal_steps(enc))
