"""Module system, layers, optimizers, SWA tests."""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.nn import (
    SGD,
    Adam,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    SWAAverager,
    Tensor,
    TokenMeanPool,
)
from repro.nn.models import toy_transformer


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.act = ReLU()
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))


class TestModuleMechanics:
    def test_named_parameters(self):
        net = TinyNet()
        names = dict(net.named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}

    def test_parameters_are_parameters(self):
        net = TinyNet()
        assert all(isinstance(p, Parameter) for p in net.parameters())

    def test_named_modules(self):
        net = TinyNet()
        names = [n for n, _ in net.named_modules()]
        assert "" in names and "fc1" in names and "act" in names

    def test_train_eval_propagates(self):
        net = TinyNet()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_freeze_unfreeze(self):
        net = TinyNet()
        net.freeze()
        assert all(not p.requires_grad for p in net.parameters())
        net.unfreeze()
        assert all(p.requires_grad for p in net.parameters())

    def test_zero_grad(self):
        net = TinyNet()
        out = net(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net1, net2 = TinyNet(), TinyNet()
        for p in net2.parameters():
            p.data = p.data + 1.0
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        assert not np.allclose(net1(x).data, net2(x).data)
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_allclose(net1(x).data, net2(x).data)

    def test_load_state_dict_unknown_key(self):
        net = TinyNet()
        with pytest.raises(KeyError):
            net.load_state_dict({"nope": np.zeros(1)})

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_state_dict_copies(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"][:] = 99.0
        assert not np.any(net.fc1.weight.data == 99.0)

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_buffers_in_state_dict(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        assert "buffer::running_mean" in state
        state["buffer::running_mean"] = np.full(3, 7.0)
        bn.load_state_dict(state)
        np.testing.assert_allclose(bn.running_mean, 7.0)


class TestSequential:
    def test_iteration_and_indexing(self):
        seq = Sequential(Linear(2, 3), ReLU(), Linear(3, 1))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        assert isinstance(seq[-1], Linear)
        assert len(list(seq)) == 3

    def test_setitem_replaces_layer(self):
        seq = Sequential(Linear(2, 2), ReLU())
        marker = Flatten()
        seq[1] = marker
        assert seq[1] is marker
        # replacement visible via named_modules (surgery requirement)
        assert any(m is marker for _, m in seq.named_modules())

    def test_setitem_out_of_range(self):
        seq = Sequential(ReLU())
        with pytest.raises(IndexError):
            seq[5] = ReLU()

    def test_append(self):
        seq = Sequential(Linear(2, 2))
        seq.append(ReLU())
        assert len(seq) == 2

    def test_slice(self):
        seq = Sequential(Linear(2, 2), ReLU(), Linear(2, 2))
        head = seq[:2]
        assert len(head) == 2

    def test_forward_composes(self):
        rng = np.random.default_rng(0)
        l1, l2 = Linear(3, 3, rng=rng), Linear(3, 3, rng=rng)
        seq = Sequential(l1, l2)
        x = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(seq(x).data, l2(l1(x)).data)


class TestOptimizers:
    def _quadratic_setup(self):
        # minimise ||p - target||^2
        p = Parameter(np.array([5.0, -3.0]))
        target = np.array([1.0, 2.0])
        return p, target

    def test_sgd_converges(self):
        p, target = self._quadratic_setup()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            loss = ((p - Tensor(target)) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-6)

    def test_sgd_momentum_faster_than_plain(self):
        losses = {}
        for mom in (0.0, 0.9):
            p, target = self._quadratic_setup()
            opt = SGD([p], lr=0.02, momentum=mom)
            for _ in range(50):
                loss = ((p - Tensor(target)) ** 2).sum()
                opt.zero_grad()
                loss.backward()
                opt.step()
            losses[mom] = float(((p.data - target) ** 2).sum())
        assert losses[0.9] < losses[0.0]

    def test_adam_converges(self):
        p, target = self._quadratic_setup()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            loss = ((p - Tensor(target)) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        # zero gradient: only decay acts
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == pytest.approx(9.0)

    def test_param_groups_use_own_lr(self):
        a = Parameter(np.array([1.0]))
        b = Parameter(np.array([1.0]))
        opt = SGD(
            [
                {"params": [a], "lr": 0.1},
                {"params": [b], "lr": 0.0},
            ],
            lr=999.0,
        )
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        assert a.data[0] == pytest.approx(0.9)
        assert b.data[0] == pytest.approx(1.0)

    def test_frozen_params_skipped(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.5)
        p.grad = np.array([1.0])
        p.requires_grad = False
        opt.step()
        assert p.data[0] == pytest.approx(1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_optimizer_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestSWA:
    def test_average_of_constant_is_constant(self):
        net = TinyNet()
        swa = SWAAverager(net)
        for _ in range(3):
            swa.update(net)
        avg = swa.averaged_state()
        for k, v in net.state_dict().items():
            np.testing.assert_allclose(avg[k], v)

    def test_average_of_two_states(self):
        net = TinyNet()
        s0 = net.state_dict()
        swa = SWAAverager(net)
        for p in net.parameters():
            p.data = p.data + 2.0
        swa.update(net)
        avg = swa.averaged_state()
        np.testing.assert_allclose(avg["fc1.weight"], s0["fc1.weight"] + 1.0)

    def test_load_into(self):
        net = TinyNet()
        swa = SWAAverager(net)
        for p in net.parameters():
            p.data = p.data + 4.0
        swa.update(net)
        swa.load_into(net)
        # now equal to original + 2
        assert swa.count == 2

    def test_structure_change_rejected(self):
        net = TinyNet()
        swa = SWAAverager(net)
        other = Sequential(Linear(2, 2))
        with pytest.raises(ValueError):
            swa.update(other)


class TestLayers:
    def test_conv_layer_shapes(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = conv(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_conv_no_bias(self):
        conv = Conv2d(1, 1, 3, bias=False)
        assert conv.bias is None
        assert len(list(conv.named_parameters())) == 1

    def test_linear_shapes(self):
        lin = Linear(5, 2, rng=np.random.default_rng(0))
        assert lin(Tensor(np.zeros((3, 5)))).shape == (3, 2)

    def test_relu_marker(self):
        assert ReLU.is_nonpolynomial
        assert MaxPool2d.is_nonpolynomial

    def test_dropout_toggle(self):
        d = Dropout(p=0.5, seed=0)
        x = Tensor(np.ones(1000))
        d.eval()
        np.testing.assert_array_equal(d(x).data, 1.0)
        d.train()
        assert (d(x).data == 0).any()

    def test_token_mean_pool_is_the_token_axis_mean(self):
        rng = np.random.default_rng(0)
        x, g = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 3))
        pooled, meaned = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out, want = TokenMeanPool()(pooled), meaned.mean(axis=1)
        np.testing.assert_array_equal(out.data, want.data)
        out.backward(g)
        want.backward(g)
        np.testing.assert_array_equal(pooled.grad, meaned.grad)

    def test_training_runs_through_the_token_pool(self):
        model = toy_transformer(seq=4, dim=8, ff=16, num_classes=3, seed=0)
        assert isinstance(model.pool, TokenMeanPool)
        out = model(Tensor(np.random.default_rng(1).normal(size=(2, 4, 8))))
        F.cross_entropy(out, np.array([0, 1])).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_batchnorm_layer(self):
        bn = BatchNorm2d(4)
        x = Tensor(np.random.default_rng(0).normal(3, 2, size=(8, 4, 3, 3)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-9)
