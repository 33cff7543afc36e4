"""Tests for CT, scaling, trainer split, config and the scheduler."""

import numpy as np
import pytest

from repro.core import (
    SmartPAF,
    SmartPAFConfig,
    SmartPAFScheduler,
    calibrate_static_scales,
    capture_site_inputs,
    coefficient_tune_site,
    convert_to_dynamic,
    convert_to_static,
    find_nonpoly_sites,
    make_optimizer,
    pretrain,
    replace_all,
    replaced_layers,
    scale_summary,
    set_trainable,
    split_parameters,
    tune_paf_for_site,
)
from repro.data import cifar10_like
from repro.nn.models import small_cnn
from repro.paf import get_paf
from repro.paf.fitting import weighted_sign_mse


@pytest.fixture(scope="module")
def setup():
    ds = cifar10_like(n_train=300, n_val=100, image_size=16, seed=0)
    model = small_cnn(num_classes=10, base_width=4, input_size=16, seed=1)
    acc = pretrain(model, ds, epochs=2, seed=0)
    return model.state_dict(), ds, acc


def fresh(setup):
    state, ds, acc = setup
    m = small_cnn(num_classes=10, base_width=4, input_size=16, seed=1)
    m.load_state_dict(state)
    return m, ds, acc


class TestCoefficientTuning:
    def test_capture_site_inputs(self, setup):
        model, ds, _ = fresh(setup)
        sites = find_nonpoly_sites(model, ds.x_train[:2])
        samples = capture_site_inputs(model, sites[0], [ds.x_train[:32]])
        assert samples.size > 0
        assert np.isfinite(samples).all()
        # model restored after capture
        assert sites[0].module is getattr(sites[0].parent, sites[0].attr)

    def test_capture_empty_batches_raises(self, setup):
        model, ds, _ = fresh(setup)
        sites = find_nonpoly_sites(model, ds.x_train[:2])
        with pytest.raises(RuntimeError):
            capture_site_inputs(model, sites[0], [])

    def test_tuned_paf_reduces_weighted_error(self, setup):
        model, ds, _ = fresh(setup)
        sites = find_nonpoly_sites(model, ds.x_train[:2])
        samples = capture_site_inputs(model, sites[0], [ds.x_train[:64]])
        paf = get_paf("f1f1g1g1")
        tuned = tune_paf_for_site(paf, samples, kind="relu")
        # evaluate both on the actual normalised profile
        z = samples / np.abs(samples).max()
        w = z * z  # ReLU-residual weighting
        assert weighted_sign_mse(tuned, z, w) <= weighted_sign_mse(paf, z, w) + 1e-9

    def test_tuned_paf_stays_bounded(self, setup):
        """The guardrails: tuning must not create an exploding composite."""
        model, ds, _ = fresh(setup)
        sites = find_nonpoly_sites(model, ds.x_train[:2])
        samples = capture_site_inputs(model, sites[0], [ds.x_train[:64]])
        for form in ["f1g2", "f2g2", "f1f1g1g1"]:
            base = get_paf(form)
            tuned = tune_paf_for_site(base, samples, kind="relu")
            check = np.linspace(-1.25, 1.25, 301)
            assert (
                np.max(np.abs(tuned(check)))
                <= max(4.0, 2.0 * np.max(np.abs(base(check)))) + 1e-6
            )

    def test_maxpool_kind_profiles_differences(self, setup):
        model, ds, _ = fresh(setup)
        sites = find_nonpoly_sites(model, ds.x_train[:2])
        mp = next(s for s in sites if s.kind == "maxpool")
        tuned = coefficient_tune_site(
            model, mp, get_paf("f2g2"), [ds.x_train[:32]]
        )
        assert np.isfinite(tuned.flat_coeffs()).all()


class TestScaling:
    def test_calibrate_and_convert(self, setup):
        model, ds, _ = fresh(setup)
        replace_all(model, get_paf("f1f1g1g1"), ds.x_train[:2])
        calibrate_static_scales(model, [ds.x_train[:64], ds.x_train[64:128]])
        scales = convert_to_static(model)
        assert len(scales) == 4
        assert all(s > 1e-6 for _, s in scales)
        summary = scale_summary(model)
        assert all(v["mode"] == "static" for v in summary.values())
        convert_to_dynamic(model)
        assert all(
            v["mode"] == "dynamic" for v in scale_summary(model).values()
        )

    def test_ss_accuracy_close_to_ds_for_high_degree(self, setup):
        model, ds, base_acc = fresh(setup)
        runner = SmartPAF(lambda: get_paf("f1f1g1g1"), SmartPAFConfig.quick())
        ds_acc, ss_acc = runner.replace_only(model, ds)
        assert ss_acc >= ds_acc - 0.15  # high-degree PAF survives SS


class TestTrainerSplit:
    def test_split_parameters(self, setup):
        model, ds, _ = fresh(setup)
        replace_all(model, get_paf("f1g2"), ds.x_train[:2])
        paf_params, other_params = split_parameters(model)
        assert len(paf_params) == 4 * 2  # 4 sites x 2 components
        assert len(other_params) > 0
        ids = {id(p) for p in paf_params}
        assert not ids & {id(p) for p in other_params}

    def test_set_trainable_modes(self, setup):
        model, ds, _ = fresh(setup)
        replace_all(model, get_paf("f1g2"), ds.x_train[:2])
        paf_params, other_params = split_parameters(model)
        set_trainable(model, "paf")
        assert all(p.requires_grad for p in paf_params)
        assert not any(p.requires_grad for p in other_params)
        set_trainable(model, "other")
        assert not any(p.requires_grad for p in paf_params)
        assert all(p.requires_grad for p in other_params)
        set_trainable(model, "all")
        assert all(p.requires_grad for p in paf_params + other_params)
        with pytest.raises(ValueError):
            set_trainable(model, "nothing")

    def test_optimizer_uses_table5_groups(self, setup):
        model, ds, _ = fresh(setup)
        replace_all(model, get_paf("f1g2"), ds.x_train[:2])
        cfg = SmartPAFConfig()
        opt = make_optimizer(model, cfg)
        assert len(opt.groups) == 2
        assert opt.groups[0]["lr"] == pytest.approx(1e-4)     # PAF
        assert opt.groups[0]["weight_decay"] == pytest.approx(0.01)
        assert opt.groups[1]["lr"] == pytest.approx(1e-5)     # others
        assert opt.groups[1]["weight_decay"] == pytest.approx(0.1)


class TestConfig:
    def test_paper_defaults_match_table5(self):
        cfg = SmartPAFConfig.paper()
        assert cfg.optimizer == "adam"
        assert cfg.lr_paf == 1e-4
        assert cfg.lr_other == 1e-5
        assert cfg.weight_decay_paf == 0.01
        assert cfg.weight_decay_other == 0.1
        assert cfg.epochs_per_group == 20
        assert cfg.overfit_margin == pytest.approx(0.10)

    def test_with_techniques(self):
        cfg = SmartPAFConfig().with_techniques(ct=False, pa=False, at=True)
        assert not cfg.coefficient_tuning
        assert not cfg.progressive
        assert cfg.alternate_training

    def test_label(self):
        assert SmartPAFConfig().label() == "baseline + CT + PA + AT + DS"
        none = SmartPAFConfig().with_techniques(ct=False, pa=False, at=False)
        assert none.label() == "baseline + DS"


class TestSchedulerAndPipeline:
    def test_progressive_schedule_covers_all_sites(self, setup):
        model, ds, _ = fresh(setup)
        cfg = SmartPAFConfig.quick(epochs_per_group=1, max_groups_per_step=1)
        sched = SmartPAFScheduler(model, ds, lambda: get_paf("f1g2"), cfg)
        result = sched.run()
        assert len(result.steps) == 4
        assert len(replaced_layers(model)) == 4
        replaces = [e for _, e in result.events if e.startswith("replace:")]
        assert len(replaces) == 4

    def test_direct_schedule_single_step(self, setup):
        model, ds, _ = fresh(setup)
        cfg = SmartPAFConfig.quick(epochs_per_group=1).with_techniques(pa=False)
        sched = SmartPAFScheduler(model, ds, lambda: get_paf("f1g2"), cfg)
        result = sched.run()
        assert len(result.steps) == 1
        assert result.steps[0]["step"] == "all"

    def test_history_records_epochs(self, setup):
        model, ds, _ = fresh(setup)
        cfg = SmartPAFConfig.quick(epochs_per_group=2, max_groups_per_step=1)
        sched = SmartPAFScheduler(model, ds, lambda: get_paf("f1f1g1g1"), cfg)
        result = sched.run()
        assert len(result.curve) >= 8  # >= 2 epochs x 4 steps
        assert all(0.0 <= v <= 1.0 for v in result.curve)

    def test_fit_returns_ds_and_ss(self, setup):
        model, ds, base_acc = fresh(setup)
        runner = SmartPAF(
            lambda: get_paf("f1f1g1g1"),
            SmartPAFConfig.quick(epochs_per_group=1, max_groups_per_step=1),
        )
        result = runner.fit(model, ds)
        assert 0.0 <= result.ss_accuracy <= 1.0
        assert result.ds_accuracy >= base_acc - 0.15
        assert result.paf_name == "f1^2 o g1^2"
        assert len(result.static_scales) == 4
        coeffs = result.coefficients_by_layer()
        assert len(coeffs) == 4

    def test_relu_only_kinds(self, setup):
        model, ds, _ = fresh(setup)
        runner = SmartPAF(
            lambda: get_paf("f1g2"),
            SmartPAFConfig.quick(epochs_per_group=1, max_groups_per_step=1),
            kinds=("relu",),
        )
        result = runner.fit(model, ds)
        assert len(result.static_scales) == 3  # 3 ReLUs, MaxPool untouched
        remaining = find_nonpoly_sites(result.model)
        assert [s.kind for s in remaining] == ["maxpool"]
