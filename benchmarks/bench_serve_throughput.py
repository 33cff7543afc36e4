"""Batched-serving throughput: SIMD packing + encoding caches vs sequential,
plus the BSGS matvec's rotation/keyswitch savings over the naive path.

One ciphertext carries ``slots // (2·size)`` requests through a single
encrypted forward, and the serving artifact's plaintext caches remove all
steady-state encoding — so requests/sec should scale close to the batch
size.  The acceptance bars: batched serving at B >= 8 sustains at least
4x the sequential ``predict`` throughput on the toy MLP with identical
logits (atol 1e-3), and the BSGS matvec performs strictly fewer
keyswitches than the naive op-level reference while producing the same
values.
"""

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.ckks import CkksContext, CkksEvaluator, CkksParams, keygen
from repro.ckks.instrumentation import CountingEvaluator
from repro.fhe.linear import (
    bsgs_diagonals,
    diagonals_of,
    encrypted_matvec,
    encrypted_matvec_bsgs,
    plan_matvec,
)
from repro.fhe.toy import compiled_toy
from repro.serve import InferenceServer, ModelArtifact


def _matvec_paths(repeats: int = 3):
    """Per-path op counts (one counted call) + timed calls of one dense
    8x8 matvec — the op-level pair; compiled networks only run BSGS."""
    ctx = CkksContext(CkksParams(n=512, scale_bits=25, depth=2))
    ev = CkksEvaluator(ctx, keygen(ctx, seed=0, galois_steps=tuple(range(1, 8))))
    rng = np.random.default_rng(2)
    w, x = rng.normal(size=(8, 8)), rng.normal(size=8)
    packed = np.zeros(ctx.slots)
    packed[:8] = packed[8:16] = x
    ct = ev.encrypt(packed)
    diags = diagonals_of(w, ctx.slots)
    groups = bsgs_diagonals(diags, plan_matvec(diags.keys(), 8))
    counting = CountingEvaluator(ev)
    out = {}
    for label, run in (
        ("naive", lambda e: encrypted_matvec(e, ct, diagonals=diags)),
        ("bsgs", lambda e: encrypted_matvec_bsgs(e, ct, groups=groups)),
    ):
        counting.reset()
        ct_out = run(counting)
        t0 = time.perf_counter()
        for _ in range(repeats):
            run(ev)
        out[label] = {
            "seconds": (time.perf_counter() - t0) / repeats,
            "rotations": counting.counts["rotate"] + counting.counts["rotate_hoisted"],
            "keyswitches": counting.keyswitch_count,
            "logits": ev.decrypt(ct_out, num_values=8),
        }
    return out


def _measure(enc, batch_sizes):
    rng = np.random.default_rng(1)
    xs_all = rng.normal(size=(max(batch_sizes), 8))

    # sequential baseline: one request per ciphertext, per-call encoding
    n_seq = 4
    t0 = time.perf_counter()
    seq_logits = [
        enc.decrypt_logits(enc.forward(enc.encrypt_input(x)), 3)
        for x in xs_all[:n_seq]
    ]
    seq_rps = n_seq / (time.perf_counter() - t0)

    rows = [["sequential predict", 1, f"{seq_rps:.2f}", "1.0x"]]
    speedups = {}
    artifact = ModelArtifact(enc).warm()
    for b in batch_sizes:
        xs = xs_all[:b]
        with InferenceServer(
            artifact, num_classes=3, max_batch_size=b, max_wait_ms=100, warm=False
        ) as srv:
            srv.predict_many(xs)                       # steady-state warmup pass
            srv.metrics.reset()
            t0 = time.perf_counter()
            results = srv.predict_many(xs)
            rps = b / (time.perf_counter() - t0)
        for res, seq in zip(results, seq_logits):
            np.testing.assert_allclose(res.logits, seq, atol=1e-3)
        speedups[b] = rps / seq_rps
        rows.append([f"batched serve (B={b})", b, f"{rps:.2f}", f"{speedups[b]:.1f}x"])
    return rows, speedups, artifact


def bench_serve_throughput(benchmark, artifact):
    enc = compiled_toy()
    rows, speedups, art = benchmark.pedantic(
        lambda: _measure(enc, batch_sizes=[8, enc.max_batch]), rounds=1, iterations=1
    )
    rows.append(["encoding cache hit-rate", "", f"{art.cache.hit_rate:.2f}", ""])
    artifact(
        "serve_throughput.txt",
        format_table(
            ["path", "batch", "req/s", "speedup"],
            rows,
            title="Batched encrypted-inference serving throughput (toy MLP)",
        ),
    )
    # acceptance: SIMD batching at B >= 8 amortises to >= 4x sequential
    assert speedups[8] >= 4.0, f"B=8 speedup {speedups[8]:.2f}x < 4x"
    assert speedups[enc.max_batch] >= speedups[8] * 0.8  # scaling does not collapse


def bench_bsgs_vs_naive_matvec(benchmark, artifact):
    """Rotation/keyswitch counts and wall-clock of one encrypted matvec:
    BSGS with hoisted baby steps vs the naive diagonal loop."""
    paths = benchmark.pedantic(_matvec_paths, rounds=1, iterations=1)
    naive, bsgs = paths["naive"], paths["bsgs"]
    speedup = naive["seconds"] / bsgs["seconds"]
    rows = [
        [
            label,
            p["rotations"],
            p["keyswitches"],
            f"{p['seconds'] * 1e3:.0f}",
            f"{naive['seconds'] / p['seconds']:.2f}x",
        ]
        for label, p in (("naive matvec", naive), ("bsgs matvec", bsgs))
    ]
    artifact(
        "bsgs_matvec.txt",
        format_table(
            ["path", "rotations", "keyswitches", "ms/matvec", "speedup"],
            rows,
            title="Encrypted 8x8 matvec: naive Halevi-Shoup vs BSGS + hoisting",
        ),
    )
    np.testing.assert_allclose(bsgs["logits"], naive["logits"], atol=1e-3)
    assert bsgs["keyswitches"] < naive["keyswitches"], (
        f"BSGS keyswitches {bsgs['keyswitches']} not below naive "
        f"{naive['keyswitches']}"
    )
    assert speedup > 1.0, f"BSGS matvec not faster ({speedup:.2f}x)"
