"""Tests for the shared experiment infrastructure."""

import numpy as np
import pytest

from repro.core import evaluate_accuracy
from repro.experiments.common import (
    PAPER_FORMS,
    default_baseline,
    fresh_model,
    is_quick,
    quick_config,
    scale_mode,
    smallcnn_cifar_baseline,
)


class TestBaselines:
    def test_smallcnn_baseline_cached(self):
        a = smallcnn_cifar_baseline(0)
        b = smallcnn_cifar_baseline(0)
        assert a is b  # lru_cache: pretraining happens once per process

    def test_fresh_model_restores_checkpoint(self):
        base = smallcnn_cifar_baseline(0)
        m1 = fresh_model(base)
        m2 = fresh_model(base)
        assert m1 is not m2
        acc1 = evaluate_accuracy(m1, base.dataset.x_val, base.dataset.y_val)
        acc2 = evaluate_accuracy(m2, base.dataset.x_val, base.dataset.y_val)
        assert acc1 == pytest.approx(acc2)
        assert acc1 == pytest.approx(base.accuracy, abs=1e-9)

    def test_fresh_models_are_independent(self):
        base = smallcnn_cifar_baseline(0)
        m1, m2 = fresh_model(base), fresh_model(base)
        p1 = next(iter(m1.parameters()))
        p1.data += 100.0
        p2 = next(iter(m2.parameters()))
        assert not np.allclose(p1.data, p2.data)

    def test_default_baseline_is_resnet(self):
        base = default_baseline(0)
        assert base.arch == "resnet18"

    def test_baseline_accuracy_above_chance(self):
        base = smallcnn_cifar_baseline(0)
        assert base.accuracy > 2.0 / base.dataset.num_classes


class TestScaleMode:
    def test_quick_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_mode() == "quick"
        assert is_quick()

    def test_full_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert scale_mode() == "full"
        assert not is_quick()

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ful")
        with pytest.raises(ValueError, match="'quick' or 'full'"):
            scale_mode()
        with pytest.raises(ValueError, match="'quick' or 'full'"):
            is_quick()

    def test_quick_config_budgets(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        cfg = quick_config()
        assert cfg.epochs_per_group <= 2
        assert cfg.max_groups_per_step <= 2

    def test_quick_config_overrides(self):
        cfg = quick_config(epochs_per_group=3, seed=7)
        assert cfg.epochs_per_group == 3
        assert cfg.seed == 7


class TestPaperForms:
    def test_all_resolvable(self):
        from repro.paf import get_paf

        for form in PAPER_FORMS:
            paf = get_paf(form)
            assert paf.mult_depth >= 5
