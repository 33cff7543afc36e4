"""Encrypted single-head self-attention: the attention node's executor.

Tokens are ciphertext shards: a ``seq``-token block runs with one
ciphertext per token, each packed like any other request vector
(``dim`` features zero-padded to ``size`` with wraparound replication,
SIMD-tiled across blocks).  Matmuls against *plaintext* weights are the
usual per-shard Halevi-Shoup matvecs; the two ciphertext-ciphertext
matmuls of attention (``Q Kᵀ`` and ``P V``) decompose into all-pairs
slot-wise products with rotate-and-sum dot-product reduction and
mask-place/broadcast glue:

* **scores** — ``m = q_i ⊙ k_j`` (1 level), doubling rotations sum the
  ``dim`` feature lanes into slot 0 of every block, a placement mask
  (``1/√dim`` folded in) parks ``s_ij`` at slot ``j`` (1 level); the
  same reduced products accumulate through a ``1/(seq·√dim)`` mask into
  the broadcast window-mean used for stabilisation — a parallel branch
  at the same level, so centring is level-free;
* **softmax PAF** — the centred scores feed the range-reduced ``exp``
  polynomial (Paterson-Stockmeyer plan + ``exp_squarings`` squarings),
  doubling rotations sum the window, a mask + right-rotation doubling
  broadcasts the sum (1 level), and the affine-seeded Newton reciprocal
  (1 + 2·``recip_iters`` levels) normalises;
* **mixing** — each probability is extracted by a slot mask (1 level),
  broadcast across the whole block by right-rotation doubling, and
  multiplied into the corresponding value shard (1 level); the
  accumulated mix takes the output projection like any linear layer.

Level budget: ``AttentionNode.level_cost()`` — 9 fixed + exp depth +
squarings + 2 per Newton iteration; the executor consumes exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.instrumentation import span as trace_span
from repro.ckks.poly_eval import eval_poly
from repro.ckks.poly_plan import plan_poly
from repro.fhe.linear import encrypted_matvec_shards, tile_blocks

__all__ = ["compile_attention_state", "attention_forward"]


def _pad_square(w: np.ndarray, size: int) -> np.ndarray:
    out_dim, in_dim = w.shape
    if out_dim > size or in_dim > size:
        raise ValueError(f"weight {w.shape} exceeds layer size {size}")
    mat = np.zeros((size, size))
    mat[:out_dim, :in_dim] = w
    return mat


def _doubling_steps(span: int) -> list:
    """Left-rotation steps 1, 2, 4, ... summing a ``span``-slot window."""
    if span & (span - 1):
        raise ValueError(f"rotate-and-sum window must be a power of two, got {span}")
    return [1 << t for t in range(span.bit_length() - 1)]


def compile_attention_state(net, i: int, node) -> dict:
    """Build the per-node caches the attention executor reads.

    Registers every rotation step the dance needs on the network's
    shared Galois-step set (keygen runs after the compile loop), plans
    the four projection matvecs exactly like standalone linear layers,
    plans the ``exp`` polynomial, and tiles the placement / mean / sum /
    extraction masks across the SIMD blocks.
    """
    seq, dim = node.seq, node.dim
    slots = net.ctx.slots
    size = net.size
    if dim > size or seq > size:
        raise ValueError(f"attention layer {i}: seq/dim exceed size {size}")
    state: dict = {"proj": {}}
    for name, w, b in (
        ("q", node.wq, node.bq),
        ("k", node.wk, node.bk),
        ("v", node.wv, node.bv),
        ("o", node.wo, node.bo),
    ):
        # each projection is a 1 x 1 grid applied to every token shard
        _, groups, biases = net._plan_grid(
            i, [[_pad_square(w, size)]], None if b is None else [b]
        )
        state["proj"][name] = (groups, biases)

    score_scale = node.score_scale or 1.0 / np.sqrt(dim)
    place, extract = [], []
    for j in range(seq):
        e_j = np.zeros(size)
        e_j[j] = 1.0
        place.append(
            tile_blocks(e_j * score_scale, slots, net.max_batch, net.block_stride)
        )
        extract.append(tile_blocks(e_j, slots, net.max_batch, net.block_stride))
    e_0 = np.zeros(size)
    e_0[0] = 1.0
    state["place_masks"] = place
    state["extract_masks"] = extract
    state["mean_mask"] = tile_blocks(
        e_0 * (score_scale / seq), slots, net.max_batch, net.block_stride
    )
    state["sum_mask"] = tile_blocks(e_0, slots, net.max_batch, net.block_stride)

    # rotation steps: feature-lane reduce, window reduce, right-rotation
    # window broadcast, score placement, probability extraction, and the
    # full-block broadcast that spreads one slot over vector + replica
    steps = set(_doubling_steps(dim)) | set(_doubling_steps(seq))
    steps |= {slots - s for s in _doubling_steps(seq)}
    steps |= {slots - j for j in range(1, seq)}
    steps |= set(range(1, seq))
    steps |= {slots - s for s in _doubling_steps(net.block_stride)}
    net._galois_steps.update(steps)

    state["exp_plan"] = plan_poly(node.exp_poly)
    return state


def _proj_matvec(ev, state: dict, name: str, ct):
    """One Q/K/V/O projection of one token shard."""
    groups, biases = state["proj"][name]
    return encrypted_matvec_shards(ev, [ct], groups, bias_slots=biases)[0]


def _rotate_sum(ev, ct, steps: list):
    """Accumulate ``ct`` with its rotations by doubling ``steps``."""
    for s in steps:
        ct = ev.add(ct, ev.rotate(ct, s))
    return ct


def _broadcast_right(ev, ct, steps: list, slots: int):
    """Spread slot 0 of every block over a window by right rotations."""
    for s in steps:
        ct = ev.add(ct, ev.rotate(ct, slots - s))
    return ct


def attention_forward(net, i: int, node, cts, ev, *, executor=None) -> list:
    """Execute one attention node over the per-token ciphertext shards.

    Returns one output shard per token, ``level_cost()`` levels below
    the input, with zeroed replica halves (the output projection's
    masked matvec restores the block invariant the next layer relies
    on).
    """
    state = net.attention_states[i]
    seq, dim = node.seq, node.dim
    if len(cts) != seq:
        raise ValueError(
            f"attention layer {i}: expected {seq} token shards, got {len(cts)}"
        )
    slots = net.ctx.slots
    dim_steps = _doubling_steps(dim)
    seq_steps = _doubling_steps(seq)
    block_steps = _doubling_steps(net.block_stride)

    with trace_span(ev, "attention:qkv", kind="exec", shards=seq) as sp:
        sp.ct_entry(cts)
        xs = [net._replicate(ct, ev) for ct in cts]
        qs, ks, vs = (
            net._map_shards(
                executor, lambda x, name=name: _proj_matvec(ev, state, name, x), xs
            )
            for name in "qkv"
        )
        sp.ct_exit(qs)

    def one_query(qi):
        # all-pairs reduced products: dot(q_i, k_j) at slot 0 per block
        reduced = []
        for kj in ks:
            m = ev.mul_rescale(qi, kj)
            reduced.append(_rotate_sum(ev, m, dim_steps))
        # place s_ij at slot j (1/sqrt(dim) in the mask) and, from the
        # same products, accumulate the stabilising window mean — a
        # parallel branch at the same level, so centring is level-free
        score_acc = None
        mean_acc = None
        for j, red in enumerate(reduced):
            placed = ev.rotate(red, slots - j) if j else red
            term = ev.mul_plain(placed, state["place_masks"][j])
            score_acc = term if score_acc is None else ev.add(score_acc, term)
            mterm = ev.mul_plain(red, state["mean_mask"])
            mean_acc = mterm if mean_acc is None else ev.add(mean_acc, mterm)
        scores = ev.rescale(score_acc)
        mean = _broadcast_right(ev, ev.rescale(mean_acc), seq_steps, slots)
        z = ev.sub(scores, mean)

        # softmax PAF: range-reduced exp, window sum, Newton reciprocal
        e = eval_poly(ev, z, node.exp_poly, plan=state["exp_plan"])
        for _ in range(node.exp_squarings):
            e = ev.rescale(ev.square(e))
        total = _rotate_sum(ev, e, seq_steps)
        total = ev.rescale(ev.mul_plain(total, state["sum_mask"]))
        total = _broadcast_right(ev, total, seq_steps, slots)
        a, b = node.recip_init
        y = ev.add_plain(
            ev.rescale(ev.mul_plain(total, np.full(slots, b))), np.full(slots, a)
        )
        for _ in range(node.recip_iters):
            t = ev.mul_rescale(ev.align_to(total, y.level, y.scale), y)
            u = ev.add_plain(ev.negate(t), np.full(slots, 2.0))
            y = ev.mul_rescale(ev.align_to(y, u.level, u.scale), u)
        probs = ev.mul_rescale(ev.align_to(e, y.level, y.scale), y)

        # mix: extract p_ij, broadcast over the whole block, weight v_j
        mix = None
        for j, vj in enumerate(vs):
            p = ev.rescale(ev.mul_plain(probs, state["extract_masks"][j]))
            if j:
                p = ev.rotate(p, j)
            p = _broadcast_right(ev, p, block_steps, slots)
            term = ev.mul_rescale(ev.align_to(vj, p.level, p.scale), p)
            mix = term if mix is None else ev.add(mix, term)
        out = net._replicate(mix, ev)
        return _proj_matvec(ev, state, "o", out)

    with trace_span(ev, "attention:mix", kind="exec", shards=seq) as sp:
        sp.ct_entry(cts)
        outs = net._map_shards(executor, one_query, qs)
        sp.ct_exit(outs)
    return outs
