"""Golden forward digests: the executor's output bytes, pinned.

``golden_forward_digests.json`` holds one blake2b digest per toy model
of the forward output's ``(level, scale, c0.data, c1.data)``.
``toy_mlp`` / ``toy_cnn`` carry the digests recorded at the commit that
made Paterson–Stockmeyer with exact aligns the only polynomial
evaluator; ``toy_resnet`` and ``toy_transformer`` were re-recorded when
giant steps began to pay once — the sharded matvec sums inner products
across input shards *before* the giant keyswitch (every coefficient
moves; the decrypt differs by ~4e-6), and the attention's window
parking shares one divide-by-``P`` descent whose rounding feeds a ct-ct
product — after ``toy_mlp`` / ``toy_cnn`` were first shown green
against the previous digests under both backends (one descent instead
of one per giant step is byte-identical after a ``1 x 1`` matvec's own
rescale).  ``python tests/fhe/test_golden_forward.py --record`` wrote
the file; nothing else may.  Any executor or kernel refactor that claims to move dispatch, not
math, must reproduce these bytes — under every kernel backend, since
backends are bit-identical by contract (``docs/backends.md``).

Inputs are seeded rows encrypted with a *fresh* seeded evaluator over
the network's own keys, so neither test order nor earlier draws from
``enc.ev``'s RNG can move a digest.  Models with one input ciphertext
go through ``forward(ct)`` — the surface the server and the ladder call
— and those with several input shards through ``forward_shards``.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.ckks import CkksEvaluator
from repro.ckks.backend import available_backends

GOLDEN = Path(__file__).with_name("golden_forward_digests.json")

#: model -> (input dim, batch rows, input/encryption seed)
CASES = {
    "toy_mlp": (8, 2, 101),
    "toy_cnn": (64, 1, 102),
    "toy_resnet": (64, 1, 103),
    "toy_transformer": (32, 1, 104),
}


def forward_digest(enc, name: str) -> str:
    """Digest of one seeded forward's output ciphertext."""
    dim, batch, seed = CASES[name]
    xs = list(np.random.default_rng(seed).normal(size=(batch, dim)))
    ev = CkksEvaluator(enc.ctx, enc.keys, seed=seed)
    if enc.num_input_shards > 1:
        (out,) = enc.forward_shards(enc.encrypt_batch_shards(xs, ev=ev), ev=ev)
    else:
        out = enc.forward(enc.encrypt_batch(xs, ev=ev), ev=ev)
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<qd", out.level, out.scale))
    h.update(np.ascontiguousarray(out.data).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["digests"]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("backend_name", available_backends())
def test_forward_bytes_match_golden(request, golden, name, backend_name):
    # the session fixtures of conftest.py, fetched lazily so selecting one
    # model does not compile the other three
    if name == "toy_mlp":
        enc = request.getfixturevalue("toy_plain_enc")
    else:
        _, enc = request.getfixturevalue(name)
    orig = enc.ctx.backend.name
    enc.ctx.set_backend(backend_name)
    try:
        assert forward_digest(enc, name) == golden[name]
    finally:
        enc.ctx.set_backend(orig)


if __name__ == "__main__":  # pragma: no cover - the recording tool
    import sys

    from repro.fhe import toy

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/fhe/test_golden_forward.py --record")
    builders = {
        "toy_mlp": toy.compiled_toy,
        "toy_cnn": toy.compiled_toy_cnn,
        "toy_resnet": toy.compiled_toy_resnet,
        "toy_transformer": toy.compiled_toy_transformer,
    }
    digests = {name: forward_digest(build(), name) for name, build in builders.items()}
    GOLDEN.write_text(json.dumps({"digests": digests}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2))
