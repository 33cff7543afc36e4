"""Cross-module integration tests: the full paper pipeline end to end."""

import pytest

from repro.ckks import CkksParams
from repro.core import SmartPAF, SmartPAFConfig, pretrain
from repro.data import cifar10_like
from repro.data.synthetic import Dataset, make_pattern_dataset
from repro.fhe import compile_network
from repro.nn import Tensor, no_grad
from repro.nn.models import mlp, small_cnn
from repro.paf import get_paf


@pytest.mark.slow
class TestFullPipeline:
    def test_cnn_smartpaf_recovers_accuracy(self):
        """Pretrain -> replace all non-poly ops -> fine-tune -> SS deploy.

        The headline claim at small scale: the HE-deployable model stays
        within a few points of the original accuracy for a high-degree PAF.
        """
        ds = cifar10_like(n_train=600, n_val=200, image_size=16, seed=0)
        model = small_cnn(num_classes=10, base_width=8, input_size=16, seed=1)
        base_acc = pretrain(model, ds, epochs=4, seed=0)
        assert base_acc > 0.5

        runner = SmartPAF(
            lambda: get_paf("f1f1g1g1"),
            SmartPAFConfig.quick(epochs_per_group=2, max_groups_per_step=2),
        )
        result = runner.fit(model, ds)
        assert result.ds_accuracy > base_acc - 0.08
        assert result.ss_accuracy > base_acc - 0.12

    def test_low_degree_degrades_more_than_high_degree(self):
        """Tab. 3's central ordering: lower degree => lower SS accuracy,
        measured without fine-tuning so the PAF quality is isolated."""
        ds = cifar10_like(n_train=400, n_val=150, image_size=16, seed=3)
        model = small_cnn(num_classes=10, base_width=8, input_size=16, seed=2)
        pretrain(model, ds, epochs=4, seed=0)
        state = model.state_dict()
        accs = {}
        for form in ("f1f1g1g1", "f1g2"):
            m = small_cnn(num_classes=10, base_width=8, input_size=16, seed=2)
            m.load_state_dict(state)
            runner = SmartPAF(
                lambda f=form: get_paf(f),
                SmartPAFConfig.quick().with_techniques(ct=False),
            )
            _, ss = runner.replace_only(m, ds)
            accs[form] = ss
        assert accs["f1f1g1g1"] >= accs["f1g2"] - 0.02

    def test_mlp_training_to_encrypted_inference(self):
        """The complete Fig.-2 story: train, approximate, encrypt, infer."""
        img = make_pattern_dataset(3, 200, 40, image_size=4, noise=0.4, seed=1)
        x_tr = img.x_train.reshape(len(img.x_train), -1)
        x_va = img.x_val.reshape(len(img.x_val), -1)
        ds = Dataset(x_tr, img.y_train, x_va, img.y_val, 3, "flat")
        model = mlp(x_tr.shape[1], hidden=(10,), num_classes=3, seed=0)
        pretrain(model, ds, epochs=5, seed=0)
        runner = SmartPAF(
            lambda: get_paf("f1g2"),
            SmartPAFConfig.quick(epochs_per_group=1, max_groups_per_step=1),
        )
        runner.fit(model, ds)

        enc = compile_network(model, CkksParams(n=1024, scale_bits=25, depth=9))
        model.eval()
        with no_grad():
            plain = model(Tensor(x_va[:4])).data.argmax(axis=1)
        enc_preds = [enc.predict(x_va[i], 3) for i in range(4)]
        agreement = sum(int(a == b) for a, b in zip(plain, enc_preds))
        assert agreement >= 3  # encrypted model tracks the plaintext model
