"""The attention node on its own: differential, structural, refusal.

Whole-model logits (``test_transformer.py``) average an attention bug
over a residual, an MLP and a mean pool; here a hand-built graph of an
identity embed plus one :class:`~repro.fhe.ir.AttentionNode` runs on a
small ring against a numpy reference of the same ``exp_poly`` /
squarings / ``recip_init`` / ``recip_iters``.  Every SIMD block carries
a different input, because neighbour-block spill is how a full-slot
rotation in a windowed layout goes wrong.

The shapes cover a request block exactly filled by its ``seq`` windows
of ``dim`` lanes, one with spare windows, and ``seq > dim``.  Twelve
Newton iterations are deliberate: off-stride noise in the reciprocal
doubles per iteration under a full-slot ``2``, so the iteration count
is what turns that mistake into a failing tolerance here rather than a
flaky row elsewhere.
"""

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.fhe.ir import AttentionNode, Graph, MatvecNode
from repro.fhe.network import EncryptedNetwork
from repro.paf.transformer import affine_recip_init, exp_paf, paf_softmax

RTOL = 1e-3
RING = 128
#: (seq, dim, size): seq·dim == block_stride, spare windows, seq > dim
SHAPES = [(2, 4, 4), (2, 4, 8), (4, 2, 4)]
EXP_DEGREE, EXP_SQUARINGS, RECIP_ITERS = 3, 1, 12


def _embed(seq: int, dim: int) -> MatvecNode:
    eye = np.eye(dim)
    return MatvecNode(
        blocks=[[eye if i == j else None for j in range(seq)] for i in range(seq)]
    )


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: "seq{}-dim{}-size{}".format(*s))
def case(request):
    """(network, node, per-block inputs, numpy reference outputs)."""
    seq, dim, size = request.param
    rng = np.random.default_rng(7)
    batch = (RING // 2) // (2 * size)
    w = {k: rng.normal(size=(dim, dim)) / np.sqrt(dim) for k in ("wq", "wk", "wv", "wo")}
    b = {k: 0.1 * rng.normal(size=dim) for k in ("bq", "bk", "bv", "bo")}
    xs = rng.normal(size=(batch, seq, dim))
    score_scale = 1.0 / np.sqrt(dim)

    q, k, v = (xs @ w["w" + p].T + b["b" + p] for p in "qkv")
    scores = np.einsum("bid,bjd->bij", q, k) * score_scale
    # calibrate the PAF domains on these very scores, as surgery does
    centred = scores - scores.mean(axis=-1, keepdims=True)
    pad = 0.25 * (centred.max() - centred.min())
    exp = exp_paf((centred.min() - pad, centred.max() + pad), EXP_DEGREE, EXP_SQUARINGS)
    sums = exp(centred).sum(axis=-1)
    init = affine_recip_init((sums.min() / 1.25, sums.max() * 1.25))
    want = (paf_softmax(scores, exp, init, RECIP_ITERS) @ v) @ w["wo"].T + b["bo"]

    node = AttentionNode(
        seq=seq,
        dim=dim,
        score_scale=score_scale,
        **w,
        **b,
        exp_poly=exp.poly,
        exp_squarings=EXP_SQUARINGS,
        recip_init=init,
        recip_iters=RECIP_ITERS,
    )
    graph = Graph(
        [_embed(seq, dim), node], size=size, input_shards=seq, input_splits=[dim] * seq
    )
    params = CkksParams(
        n=RING, scale_bits=27, depth=graph.validate(), scale_tracking=True
    )
    return EncryptedNetwork(graph, params), node, xs, want


def test_full_batch_matches_numpy_reference(case):
    enc, node, xs, want = case
    assert len(xs) == enc.max_batch > 1
    outs = enc.forward_shards(enc.encrypt_batch_shards([x.ravel() for x in xs]))
    entry = enc.ctx.max_level - 1  # the embed took one
    assert {out.level for out in outs} == {entry - node.level_cost()}
    for i, out in enumerate(outs):
        blocks = enc.ev.decrypt(out).reshape(enc.max_batch, enc.block_stride)
        got = blocks[:, : node.dim]
        assert np.max(np.abs(got - want[:, i])) / np.max(np.abs(want)) < RTOL
        # what the merge and the next _replicate rely on
        assert np.max(np.abs(blocks[:, node.dim :])) < 1e-3


def test_work_is_per_query_not_per_pair(case):
    enc, node, _, _ = case
    seq, dim = node.seq, node.dim
    counts = enc.op_counts()  # the embed is one diagonal: no rotation, no ct-mult
    state = enc.attention_states[1]

    per_query_mults = (
        2  # scores, mix
        + state["exp_plan"].nonscalar_mults
        + node.exp_squarings
        + 2 * node.recip_iters
        + 1  # probs
    )
    assert counts["mul"] == seq * per_query_mults

    def giant_rotations(plans):
        return sum(
            sum(1 for g in p.giant_steps if g)
            for (p,) in plans
        )

    log_seq, log_dim = seq.bit_length() - 1, dim.bit_length() - 1
    per_query = 4 * log_seq + 2 * log_dim + 1
    packing = 2 * (seq - 1)
    replicates = seq
    giants = seq * (giant_rotations(state["qkv"][0]) + giant_rotations(state["o"][0]))
    assert counts["rotate"] == seq * per_query + packing + replicates + giants


def test_block_too_small_for_the_windows_is_refused_at_compile():
    seq, dim, size = 4, 4, 4
    eye = np.eye(dim)
    node = AttentionNode(
        seq=seq,
        dim=dim,
        wq=eye,
        wk=eye,
        wv=eye,
        wo=eye,
        exp_poly=exp_paf((-1.0, 1.0), EXP_DEGREE, EXP_SQUARINGS).poly,
        exp_squarings=EXP_SQUARINGS,
        recip_init=(1.0, 0.0),
        recip_iters=1,
    )
    graph = Graph(
        [_embed(seq, dim), node], size=size, input_shards=seq, input_splits=[dim] * seq
    )
    params = CkksParams(n=RING, scale_bits=27, depth=graph.validate(), scale_tracking=True)
    with pytest.raises(
        ValueError,
        match=r"attention layer 1: seq 4 x dim 4 = 16 window slots exceed block_stride 8",
    ):
        EncryptedNetwork(graph, params)
