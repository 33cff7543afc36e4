"""Model surgery tests: site discovery, tracing, replacement."""

import numpy as np
import pytest

from repro.core.paf_layer import PAFMaxPool2d, PAFReLU
from repro.core.surgery import (
    find_nonpoly_sites,
    replace_all,
    replace_site,
    replaced_layers,
    trace_nonpoly_order,
)
from repro.nn import ReLU, Sequential, Tensor
from repro.nn.models import resnet18, small_cnn, vgg19
from repro.paf import get_paf

SAMPLE = np.zeros((1, 3, 32, 32))


class TestFindSites:
    def test_resnet18_site_count(self):
        model = resnet18(base_width=4, seed=0)
        sites = find_nonpoly_sites(model, SAMPLE)
        assert len(sites) == 18  # 17 ReLU + 1 MaxPool
        assert sum(s.kind == "maxpool" for s in sites) == 1

    def test_vgg19_site_count(self):
        model = vgg19(base_width=2, input_size=32, seed=0)
        sites = find_nonpoly_sites(model, SAMPLE)
        assert len(sites) == 23  # 18 ReLU + 5 MaxPool
        assert sum(s.kind == "maxpool" for s in sites) == 5

    def test_relu_only_filter(self):
        model = resnet18(base_width=4, seed=0)
        sites = find_nonpoly_sites(model, SAMPLE, kinds=("relu",))
        assert len(sites) == 17
        assert all(s.kind == "relu" for s in sites)

    def test_orders_are_sequential(self):
        model = small_cnn(seed=0)
        sites = find_nonpoly_sites(model, np.zeros((1, 3, 16, 16)))
        assert [s.order for s in sites] == list(range(len(sites)))

    def test_traced_order_matches_inference(self):
        """In ResNet-18 the stem ReLU and MaxPool run before any block."""
        model = resnet18(base_width=4, seed=0)
        sites = find_nonpoly_sites(model, SAMPLE)
        names = [s.name for s in sites]
        assert names[0] == "relu"
        assert names[1] == "maxpool"
        assert names[2].startswith("layer1.0")
        # layer4 sites come last
        assert names[-1].startswith("layer4.1")

    def test_definition_order_equals_traced_order(self):
        """Our models define modules in inference order; both discovery
        modes must agree (documented assumption)."""
        for model, sample in [
            (resnet18(base_width=4, seed=0), SAMPLE),
            (vgg19(base_width=2, input_size=32, seed=0), SAMPLE),
            (small_cnn(seed=0), np.zeros((1, 3, 16, 16))),
        ]:
            traced = [s.name for s in find_nonpoly_sites(model, sample)]
            defined = [s.name for s in find_nonpoly_sites(model)]
            assert traced == defined

    def test_trace_restores_modules(self):
        model = small_cnn(seed=0)
        before = dict(model.named_modules())
        trace_nonpoly_order(model, np.zeros((1, 3, 16, 16)))
        after = dict(model.named_modules())
        assert set(before) == set(after)
        assert all(before[k] is after[k] for k in before)

    def test_trace_detects_unexecuted_site(self):
        class Broken(Sequential):
            def forward(self, x):
                return self[0](x)  # skips the ReLU at index 1

        from repro.nn import Linear

        model = Broken(Linear(4, 4), ReLU())
        with pytest.raises(RuntimeError):
            trace_nonpoly_order(model, np.zeros((1, 4)))


class TestReplace:
    def test_replace_site_relu(self):
        model = small_cnn(seed=0)
        sites = find_nonpoly_sites(model, np.zeros((1, 3, 16, 16)))
        new = replace_site(sites[0], get_paf("f1g2"))
        assert isinstance(new, PAFReLU)
        assert sites[0].module is new

    def test_replace_site_maxpool_preserves_geometry(self):
        model = resnet18(base_width=4, seed=0)
        sites = find_nonpoly_sites(model, SAMPLE)
        mp_site = next(s for s in sites if s.kind == "maxpool")
        old = mp_site.module
        new = replace_site(mp_site, get_paf("f1g2"))
        assert isinstance(new, PAFMaxPool2d)
        assert new.kernel_size == old.kernel_size
        assert new.stride == old.stride
        assert new.padding == old.padding

    def test_replace_twice_raises(self):
        model = small_cnn(seed=0)
        sites = find_nonpoly_sites(model, np.zeros((1, 3, 16, 16)))
        replace_site(sites[0], get_paf("f1g2"))
        with pytest.raises(TypeError):
            replace_site(sites[0], get_paf("f1g2"))

    def test_replace_all(self):
        model = resnet18(base_width=4, seed=0)
        new_layers = replace_all(model, get_paf("f1g2"), SAMPLE)
        assert len(new_layers) == 18
        assert len(replaced_layers(model)) == 18
        # no exact non-polynomial ops remain
        remaining = find_nonpoly_sites(model)
        assert remaining == []

    def test_replaced_model_still_runs(self):
        model = small_cnn(num_classes=4, seed=0)
        replace_all(model, get_paf("f1f1g1g1"), np.zeros((1, 3, 16, 16)))
        model.eval()
        out = model(Tensor(np.random.default_rng(0).normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 4)
        assert np.isfinite(out.data).all()

    def test_each_site_gets_independent_coefficients(self):
        """CT/fine-tuning are per-layer: sites must not share Parameters."""
        model = small_cnn(seed=0)
        replace_all(model, get_paf("f1g2"), np.zeros((1, 3, 16, 16)))
        layers = [m for _, m in replaced_layers(model)]
        p0 = layers[0].sign.component_params()[0]
        p1 = layers[1].sign.component_params()[0]
        assert p0 is not p1
        p0.data[0] += 1.0
        assert p1.data[0] != p0.data[0]

    def test_replace_preserves_training_mode(self):
        model = small_cnn(seed=0)
        model.eval()
        sites = find_nonpoly_sites(model, np.zeros((1, 3, 16, 16)))
        new = replace_site(sites[0], get_paf("f1g2"))
        assert new.training is False


class TestGraph:
    def test_chain_graph(self):
        model = small_cnn(seed=0)
        sites = find_nonpoly_sites(model, np.zeros((1, 3, 16, 16)))
        assert [s.order for s in sites] == [0, 1, 2, 3]

    def test_node_attributes(self):
        model = small_cnn(seed=0)
        sites = find_nonpoly_sites(model, np.zeros((1, 3, 16, 16)))
        kinds = [s.kind for s in sites]
        assert kinds.count("maxpool") == 1
