"""Encrypted single-head self-attention: the attention node's executor.

Tokens are ciphertext shards: a ``seq``-token block runs with one
ciphertext per token, each packed like any other request vector
(``dim`` features zero-padded to ``size`` with wraparound replication,
SIMD-tiled across blocks).  Matmuls against *plaintext* weights are the
usual Halevi-Shoup matvecs; the two ciphertext-ciphertext matmuls of
attention (``Q Kᵀ`` and ``P V``) are **token-packed**: a request block
of ``block_stride ≥ seq·dim`` slots is read as ``seq`` *windows* of
``dim`` lanes, keys and values are parked one token per window once per
layer, and — rotate-and-sum being linear — every query then reduces
once for all its keys instead of once per pair:

* **projections** — each token's Q, K and V are one ``3 × 1`` shard
  grid, so the token pays one hoisted decomposition and one set of baby
  rotations for all three (1 level);
* **packing** — the keys are centred with additions only,
  ``k'_j = seq·k_j − Σ_l k_l``, so that with ``1/seq`` folded into the
  score mask ``q_i·k'_j`` *is* the mean-stabilised score
  ``s_ij − mean_j s_ij`` and no mean branch exists; ``Σ_j
  rot_right(k'_j, j·dim)`` and the same sum over the values cost
  ``seq − 1`` rotations each, shared by all queries, and need no mask
  because projection outputs are zero outside ``[0, dim)``;
* **scores** — broadcast ``q_i`` over the windows, one product with the
  packed keys (1 level), one ``log2(dim)`` lane tree landing every
  ``s_ij`` at slot ``j·dim``, one strided mask carrying
  ``score_scale/seq`` (1 level);
* **softmax PAF** — the range-reduced ``exp`` polynomial
  (Paterson-Stockmeyer plan + ``exp_squarings`` squarings), a window
  tree and a slot-0 mask for the sum (1 level), a window broadcast, and
  the affine-seeded Newton reciprocal (1 + 2·``recip_iters`` levels)
  whose constants live *only* at slots ``j·dim``: the reciprocal, hence
  the probabilities (1 level), are zero off-stride without a mask of
  their own — and the off-stride rescale noise, which a full-slot ``2``
  would double every iteration, stays noise;
* **mixing** — broadcast every ``p_ij`` over its window, one product
  with the packed values (1 level), a window tree folding the mix into
  window 0, a window-0 mask (1 level) clearing the partial sums the
  fold leaves in the replica half, then the output projection like any
  linear layer (1 level).

Per query that is ``4·log2(seq) + 2·log2(dim) + 1`` rotations and two
ciphertext-ciphertext products, whatever ``seq`` is.  Level budget:
``AttentionNode.level_cost()`` — 9 fixed + exp depth + squarings + 2
per Newton iteration; the executor consumes exactly that.
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


def _doubling_steps(span: int, unit: int = 1) -> list:
    """Steps ``unit·(1, 2, 4, ...)`` covering ``span`` units by doubling."""
    if span & (span - 1):
        raise ValueError(f"rotate-and-sum window must be a power of two, got {span}")
    return [unit << t for t in range(span.bit_length() - 1)]


def compile_attention_state(net, i: int, node) -> dict:
    """Build the per-node caches the attention executor reads.

    Registers every rotation step the executor needs on the network's
    shared Galois-step set (keygen runs after the compile loop), plans
    the fused Q/K/V grid and the output projection exactly like
    standalone linear layers (``(plans, groups, biases)`` under
    ``"qkv"`` / ``"o"``), plans the ``exp`` polynomial, and tiles the
    strided / slot-0 / window-0 masks across the SIMD blocks.
    """
    seq, dim = node.seq, node.dim
    slots = net.ctx.slots
    size = net.size
    stride = net.block_stride
    if dim > size or seq > size:
        raise ValueError(f"attention layer {i}: seq/dim exceed size {size}")
    if seq * dim > stride:
        raise ValueError(
            f"attention layer {i}: seq {seq} x dim {dim} = {seq * dim} window "
            f"slots exceed block_stride {stride}"
        )
    # left steps reduce (feature lanes within a window, windows within a
    # block), right steps broadcast the same spans back and park token j
    # in window j
    lanes = _doubling_steps(dim)
    windows = _doubling_steps(seq, dim)
    steps = set(lanes) | set(windows)
    steps |= {slots - s for s in lanes + windows}
    steps |= {slots - j * dim for j in range(1, seq)}
    net._galois_steps.update(steps)

    def tiled(block: np.ndarray) -> np.ndarray:
        return tile_blocks(block, slots, net.max_batch, stride)

    strided = np.zeros((seq - 1) * dim + 1)
    strided[::dim] = 1.0
    score_scale = node.score_scale or 1.0 / np.sqrt(dim)
    a, b = node.recip_init
    return {
        # one 3 x 1 grid: a token's Q, K and V share its hoisted rotations
        "qkv": net._plan_grid(
            i,
            [[_pad_square(w, size)] for w in (node.wq, node.wk, node.wv)],
            [node.bq, node.bk, node.bv],
        ),
        "o": net._plan_grid(
            i, [[_pad_square(node.wo, size)]], None if node.bo is None else [node.bo]
        ),
        "exp_plan": plan_poly(node.exp_poly),
        "score_mask": tiled(strided * (score_scale / seq)),
        "sum_mask": tiled(np.ones(1)),
        "seed_offset": tiled(strided * a),
        "seed_slope": tiled(strided * b),
        "newton_two": tiled(strided * 2.0),
        "window0_mask": tiled(np.ones(dim)),
    }


def _rotate_sum(ev, ct, steps: list):
    """Accumulate ``ct`` with its rotations by doubling ``steps``."""
    for s in steps:
        ct = ev.add(ct, ev.rotate(ct, s))
    return ct


def _pack_windows(ev, cts: list, dim: int):
    """Park shard ``j``'s ``[0, dim)`` lanes in window ``j`` of one ciphertext."""
    return ev.sum_rotated({-j * dim: ct for j, ct in enumerate(cts)})


def attention_forward(net, i: int, node, cts, ev) -> list:
    """Execute one attention node over the per-token ciphertext shards.

    Returns one output shard per token, ``level_cost()`` levels below
    the input, with zeroed replica halves (the window-0 mask and the
    output projection's masked matvec restore the block invariant the
    next layer relies on).
    """
    state = net.attention_states[i]
    seq, dim = node.seq, node.dim
    if len(cts) != seq:
        raise ValueError(
            f"attention layer {i}: expected {seq} token shards, got {len(cts)}"
        )
    slots = net.ctx.slots
    lanes = _doubling_steps(dim)
    windows = _doubling_steps(seq, dim)
    lanes_right = [slots - s for s in lanes]
    windows_right = [slots - s for s in windows]
    _, qkv_groups, qkv_biases = state["qkv"]
    _, o_groups, o_biases = state["o"]

    with trace_span(ev, "attention:qkv", kind="exec", shards=seq) as sp:
        sp.ct_entry(cts)
        qs, ks, vs = zip(
            *(
                encrypted_matvec_shards(
                    ev,
                    [net._replicate(ct, ev)],
                    qkv_groups,
                    bias_slots=qkv_biases,
                )
                for ct in cts
            )
        )
        # centre by additions: q_i·(seq·k_j − Σ_l k_l)/seq = s_ij − mean_j s_ij
        key_sum = ks[0]
        for k in ks[1:]:
            key_sum = ev.add(key_sum, k)
        centred = []
        for k in ks:
            for _ in range(seq.bit_length() - 1):  # seq·k_j, seq a power of two
                k = ev.add(k, k)
            centred.append(ev.sub(k, key_sum))
        keys = _pack_windows(ev, centred, dim)
        values = _pack_windows(ev, vs, dim)
        sp.ct_exit(qs)

    def one_query(qi):
        # every score of the query from one product and one lane tree:
        # s_ij − mean_j s_ij lands at slot j·dim, the mask zeroes the rest
        m = ev.mul_rescale(_rotate_sum(ev, qi, windows_right), keys)
        z = ev.rescale(ev.mul_plain(_rotate_sum(ev, m, lanes), state["score_mask"]))

        # softmax PAF: range-reduced exp, window sum, Newton reciprocal
        e = eval_poly(ev, z, node.exp_poly, plan=state["exp_plan"])
        for _ in range(node.exp_squarings):
            e = ev.rescale(ev.square(e))
        total = _rotate_sum(ev, e, windows)
        total = ev.rescale(ev.mul_plain(total, state["sum_mask"]))
        total = _rotate_sum(ev, total, windows_right)
        # exp(0) ≈ 1 off-stride: the seed and Newton's 2 exist only at
        # slots j·dim, so y — and with it probs — stays zero elsewhere
        y = ev.add_plain(
            ev.rescale(ev.mul_plain(total, state["seed_slope"])), state["seed_offset"]
        )
        for _ in range(node.recip_iters):
            t = ev.mul_rescale(ev.align_to(total, y.level, y.scale), y)
            u = ev.add_plain(ev.negate(t), state["newton_two"])
            y = ev.mul_rescale(ev.align_to(y, u.level, u.scale), u)
        probs = ev.mul_rescale(ev.align_to(e, y.level, y.scale), y)

        # mix: p_ij over window j, weight the packed values, fold the
        # windows into window 0 and clear the partial sums left behind
        p = _rotate_sum(ev, probs, lanes_right)
        mix = ev.mul_rescale(ev.align_to(values, p.level, p.scale), p)
        mix = _rotate_sum(ev, mix, windows)
        mix = ev.rescale(ev.mul_plain(mix, state["window0_mask"]))
        return encrypted_matvec_shards(
            ev, [net._replicate(mix, ev)], o_groups, bias_slots=o_biases
        )[0]

    with trace_span(ev, "attention:mix", kind="exec", shards=seq) as sp:
        sp.ct_entry(cts)
        outs = [one_query(qi) for qi in qs]
        sp.ct_exit(outs)
    return outs
