"""End-to-end private inference (the paper's Fig. 2 pipeline).

A client encrypts an input; the server runs a SMART-PAF-approximated MLP
entirely on ciphertexts (Halevi-Shoup linear layers + PAF activations);
the client decrypts the logits.  No plaintext data or activations ever
exist server-side.

Run:  python examples/private_inference.py
"""

import time

from repro.ckks import CkksParams
from repro.core import SmartPAF, SmartPAFConfig, pretrain
from repro.data.synthetic import Dataset, make_pattern_dataset
from repro.fhe import compile_network
from repro.nn import Tensor, no_grad
from repro.nn.models import mlp
from repro.paf import get_paf


def main() -> None:
    # Small flattened-image task so the encrypted matvec stays snappy.
    img = make_pattern_dataset(4, 300, 60, image_size=4, noise=0.4, seed=0)
    x_train = img.x_train.reshape(len(img.x_train), -1)   # 48 features
    x_val = img.x_val.reshape(len(img.x_val), -1)
    ds = Dataset(x_train, img.y_train, x_val, img.y_val, 4, "flat-patterns")

    model = mlp(x_train.shape[1], hidden=(12,), num_classes=4, seed=0)
    acc = pretrain(model, ds, epochs=6, seed=0)
    print(f"plaintext MLP accuracy: {acc:.3f}")

    # Replace the ReLU with a trainable PAF and fine-tune (SMART-PAF).
    runner = SmartPAF(
        lambda: get_paf("f1f1g1g1"),
        SmartPAFConfig.quick(epochs_per_group=2, max_groups_per_step=1),
    )
    result = runner.fit(model, ds)
    print(f"PAF-approximated accuracy: DS {result.ds_accuracy:.3f}, SS {result.ss_accuracy:.3f}")

    # Compile to CKKS. Depth: one linear (1) + PAF ReLU (8+1) + linear (1).
    print("compiling to CKKS ...")
    t0 = time.time()
    enc = compile_network(model, CkksParams(n=2048, scale_bits=25, depth=12))
    print(f"  compiled in {time.time() - t0:.1f}s "
          f"(ring N={enc.ctx.n}, {len(enc.keys.galois)} rotation keys)")

    model.eval()
    with no_grad():
        plain_pred = model(Tensor(x_val[:5])).data.argmax(axis=1)
    hits, agree = 0, 0
    t0 = time.time()
    for i in range(5):
        pred = enc.predict(x_val[i], num_classes=4)
        hits += int(pred == ds.y_val[i])
        agree += int(pred == plain_pred[i])
        print(f"  sample {i}: encrypted pred={pred} "
              f"plaintext pred={plain_pred[i]} true={ds.y_val[i]}")
    dt = (time.time() - t0) / 5
    print(f"encrypted inference: {hits}/5 correct, {agree}/5 agree with "
          f"plaintext, {dt:.2f}s/sample")


if __name__ == "__main__":
    main()
