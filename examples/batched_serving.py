"""Batched encrypted-inference serving: many clients, one ciphertext.

Trains the same tiny PAF-MLP as ``private_inference.py``, then serves a
burst of client requests through ``repro.serve``: requests are packed
into disjoint SIMD slot blocks of a single ciphertext, the artifact's
plaintext memo eliminates steady-state plaintext encoding, and the
metrics report throughput and latency.

Run:  python examples/batched_serving.py
"""

import time


from repro.ckks import CkksParams
from repro.core import SmartPAF, SmartPAFConfig, pretrain
from repro.data.synthetic import Dataset, make_pattern_dataset
from repro.fhe import compile_network
from repro.nn.models import mlp
from repro.paf import get_paf
from repro.serve import InferenceServer, ModelArtifact


def main() -> None:
    img = make_pattern_dataset(4, 300, 60, image_size=4, noise=0.4, seed=0)
    x_train = img.x_train.reshape(len(img.x_train), -1)   # 48 features
    x_val = img.x_val.reshape(len(img.x_val), -1)
    ds = Dataset(x_train, img.y_train, x_val, img.y_val, 4, "flat-patterns")

    model = mlp(x_train.shape[1], hidden=(12,), num_classes=4, seed=0)
    pretrain(model, ds, epochs=6, seed=0)
    runner = SmartPAF(
        lambda: get_paf("f1g2"),
        SmartPAFConfig.quick(epochs_per_group=2, max_groups_per_step=1),
    )
    runner.fit(model, ds)

    print("compiling + building serving artifact ...")
    enc = compile_network(model, CkksParams(n=2048, scale_bits=25, depth=9))
    print(
        f"  SIMD capacity: {enc.max_batch} requests/ciphertext "
        f"({enc.ctx.slots} slots / {enc.block_stride} per request)"
    )
    artifact = ModelArtifact(enc).warm()
    print(f"  plaintext memo warmed: {artifact.stats()['entries']} plaintexts")

    n_req = min(8, enc.max_batch)

    # sequential baseline
    t0 = time.perf_counter()
    seq_preds = [enc.predict(x, num_classes=4) for x in x_val[:n_req]]
    t_seq = time.perf_counter() - t0
    print(f"\nsequential: {n_req} requests in {t_seq:.1f}s "
          f"({n_req / t_seq:.2f} req/s)")

    # batched server
    with InferenceServer(
        artifact, num_classes=4, max_batch_size=n_req, max_wait_ms=50
    ) as srv:
        t0 = time.perf_counter()
        results = srv.predict_many(x_val[:n_req])
        t_batch = time.perf_counter() - t0
    print(f"batched:    {n_req} requests in {t_batch:.1f}s "
          f"({n_req / t_batch:.2f} req/s) -> {t_seq / t_batch:.1f}x speedup")

    agree = sum(r.prediction == p for r, p in zip(results, seq_preds))
    print(f"predictions agree with sequential: {agree}/{n_req}")
    print("\nserver metrics:")
    print(srv.metrics.format())


if __name__ == "__main__":
    main()
