"""Encrypted linear algebra: the Halevi-Shoup diagonal matvec, BSGS-planned.

``y = W x`` for a plaintext matrix ``W`` and an encrypted, slot-packed
``x`` is computed as ``Σ_d diag_d(W) ⊙ rot(x, d)`` over the generalised
diagonals — the standard CKKS technique the FHE-inference literature
builds on.  Rotating once per nonzero diagonal (:func:`encrypted_matvec`,
kept as the op-level reference the differential tests compare against —
no compiled network executes it) pays ``O(D)`` keyswitches.

Baby-step/giant-step (BSGS) decomposition cuts that to ``O(√D)``.  Factor
every diagonal index ``d = g·n1 + b`` with baby step ``b ∈ [0, n1)`` and
giant step ``g``; since rotation distributes over slot products,

    y = Σ_g rot( Σ_b roll(diag_{g·n1+b}, g·n1) ⊙ rot(x, b),  g·n1 )

where ``roll(·, k)`` pre-rotates the diagonal *right* by ``k`` slots at
plan time (free — it is plaintext).  Only ``n1`` baby rotations of the
input and ``n2 = ⌈D/n1⌉`` giant rotations of accumulated sums remain, and
the baby rotations all act on the *same* ciphertext, so they share one
hoisted keyswitch decomposition (:meth:`CkksEvaluator.rotate_many`).

On a ``K_out × K_in`` grid of blocks (channel-sharded ciphertexts) the
giant half is shared too — one keyswitch per (output shard, giant step),
one descent and one rescale per output shard; that grouped loop,
:func:`encrypted_matvec_shards`, is the one every compiled layer runs.

:func:`plan_matvec` picks ``n1`` by scanning candidates for the minimum
keyswitch count.  The scan always includes ``n1 = size``, where every
diagonal is a baby step and the only giant step is 0: that point *is*
the per-diagonal layout (one hoisted rotation per nonzero diagonal), so
degenerate layers with ≤ 3 nonzero diagonals, or patterns that do not
factor, land there rather than on a separate path.  The plan also names
the exact rotation-step set keygen must cover — ``n1 - 1`` baby plus
``n2 - 1`` giant steps instead of ``D - 1`` per-diagonal steps, so the
Galois key set shrinks alongside the keyswitch count.

SIMD batching composes transparently: diagonals can be *tiled* across
several disjoint slot blocks (``num_blocks`` copies at stride
``block_stride``), and because the decomposition acts on the full slot
vector the BSGS regrouping is exact algebra for any block layout — the
rotation steps are unchanged, and the per-request cost is divided by the
batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.evaluator import Ciphertext, CkksEvaluator
from repro.ckks.instrumentation import span as trace_span

__all__ = [
    "encrypted_matvec",
    "encrypted_matvec_shards",
    "diagonals_of",
    "MatvecPlan",
    "plan_matvec",
    "grouped_diagonals",
    "shard_hoist_steps",
]


def diagonals_of(
    w: np.ndarray,
    slots: int,
    *,
    num_blocks: int = 1,
    block_stride: int | None = None,
) -> dict:
    """Generalised diagonals of ``W`` padded into the slot vector space.

    ``diag_d[i] = W[i, (i + d) % in_dim]`` for output row ``i``; entries
    beyond the matrix shape are zero.  With ``num_blocks > 1`` each
    diagonal is replicated at slot offsets ``b * block_stride`` so a
    single plaintext multiply serves every block of a batched ciphertext.
    """
    out_dim, in_dim = w.shape
    size = max(out_dim, in_dim)
    if size > slots:
        raise ValueError(f"matrix dim {size} exceeds slot count {slots}")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    stride = size if block_stride is None else block_stride
    if num_blocks > 1 and stride < size:
        raise ValueError(f"block stride {stride} < matrix dim {size}")
    if (num_blocks - 1) * stride + size > slots:
        raise ValueError(
            f"{num_blocks} blocks of stride {stride} exceed slot count {slots}"
        )
    diags = {}
    rows = np.arange(out_dim)
    for d in range(size):
        cols = (rows + d) % size
        valid = cols < in_dim
        base = np.zeros(size)
        base[rows[valid]] = w[rows[valid], cols[valid]]
        if not np.any(base):
            continue
        vec = np.zeros(slots)
        for b in range(num_blocks):
            vec[b * stride : b * stride + size] = base
        diags[d] = vec
    return diags


def tile_blocks(
    values: np.ndarray, slots: int, num_blocks: int, block_stride: int
) -> np.ndarray:
    """Replicate a per-block vector at every block offset of a slot vector."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if (num_blocks - 1) * block_stride + len(values) > slots:
        raise ValueError(
            f"{num_blocks} blocks of stride {block_stride} exceed slot count {slots}"
        )
    vec = np.zeros(slots)
    for b in range(num_blocks):
        vec[b * block_stride : b * block_stride + len(values)] = values
    return vec


@dataclass(frozen=True)
class MatvecPlan:
    """How one encrypted matvec will be executed: the baby-step modulus
    ``n1`` and the baby / giant step sets it factors the diagonals into.

    ``n1 = size`` is the per-diagonal layout — every diagonal a baby
    step, one giant step 0 — which the scan picks whenever no smaller
    ``n1`` is strictly cheaper.
    """

    size: int                      #: square matrix dim (diagonal index space)
    n1: int                        #: baby-step modulus (giant stride)
    baby_steps: tuple              #: sorted residues ``d % n1`` present
    giant_steps: tuple             #: sorted rotation amounts ``(d // n1)·n1`` present
    num_diagonals: int             #: nonzero diagonal count D (plaintext multiplies)

    @property
    def n2(self) -> int:
        """Giant-step count (``n1 · n2`` covers every planned diagonal)."""
        return len(self.giant_steps)

    @property
    def keyswitches(self) -> int:
        """Galois applications: one per nonzero baby and giant step."""
        return len(self.rotation_steps())

    def rotation_steps(self) -> tuple:
        """Rotation steps keygen must provide.  Nonzero babies are
        ``< n1 ≤`` nonzero giants, so the two sets never overlap."""
        return tuple(b for b in self.baby_steps if b) + tuple(
            g for g in self.giant_steps if g
        )


def plan_matvec(diag_indices, size: int) -> MatvecPlan:
    """Choose the cheapest baby-step modulus for a set of nonzero diagonals.

    Scans baby-step moduli ``n1`` and counts the Galois applications each
    would need — ``|{d % n1} \\ {0}| + |{(d//n1)·n1} \\ {0}|`` — keeping
    the minimum (ties broken toward larger ``n1``: more baby steps means
    more rotations sharing the one hoisted decomposition).  For dense
    diagonal sets the winner sits near ``√size``, so for large ``size``
    only a window around ``√size`` (plus ``n1 = size``, the per-diagonal
    point) is scanned.

    >>> plan = plan_matvec([0, 1], 6)
    >>> plan.n1, plan.rotation_steps()
    (6, (1,))
    >>> plan = plan_matvec(range(16), 16)
    >>> plan.n1, plan.keyswitches
    (4, 6)
    """
    ds = np.unique(np.asarray(list(diag_indices), dtype=np.int64))
    if ds.size == 0:
        raise ValueError("matrix has no nonzero diagonals")
    if ds[0] < 0 or ds[-1] >= size:
        raise ValueError(f"diagonal indices must lie in [0, {size}), got {ds}")

    if size <= 256:
        candidates = range(1, size + 1)
    else:
        root = int(np.sqrt(size))
        candidates = sorted(set(range(max(1, root // 2), 4 * root + 1)) | {1, size})
    best = None
    for n1 in candidates:
        babies = np.unique(ds % n1)
        giants = np.unique(ds - ds % n1)
        cost = int(np.count_nonzero(babies)) + int(np.count_nonzero(giants))
        key = (cost, -n1)
        if best is None or key < best[0]:
            best = (key, n1, babies, giants)
    _, n1, babies, giants = best
    return MatvecPlan(
        size=size,
        n1=n1,
        baby_steps=tuple(int(b) for b in babies),
        giant_steps=tuple(int(g) for g in giants),
        num_diagonals=int(ds.size),
    )


def grouped_diagonals(diagonals: dict, plan: MatvecPlan) -> dict:
    """Regroup diagonals into pre-rotated giant-step groups.

    Returns ``{giant_step: {baby_step: vector}}`` where each diagonal
    ``d = g + b`` is rolled *right* by its giant step ``g`` so that the
    post-accumulation giant rotation puts it back in place:
    ``rot(roll(v, g) ⊙ rot(x, b), g) = v ⊙ rot(x, g + b)``.  Rolling is
    over the full slot vector, so block-tiled diagonals regroup exactly.
    An ``n1 = size`` plan yields the single group ``{0: diagonals}``.
    """
    groups: dict = {}
    for d, vec in diagonals.items():
        b = d % plan.n1
        g = d - b
        groups.setdefault(g, {})[b] = np.roll(vec, g)
    return groups


def shard_hoist_steps(blocks: list, shard: int) -> list:
    """Baby-rotation steps input shard ``shard`` needs across all blocks.

    ``blocks[j][i]`` is a grouped-diagonal mapping (or ``None`` for an
    all-zero block); the union over output shards is what one
    :meth:`~repro.ckks.evaluator.CkksEvaluator.rotate_many` call hoists.
    """
    steps: set = set()
    for row in blocks:
        groups = row[shard]
        if not groups:
            continue
        for inner in groups.values():
            steps.update(b for b in inner if b)
    return sorted(steps)


def encrypted_matvec_shards(
    ev: CkksEvaluator,
    cts: list,
    blocks: list,
    bias_slots: list | None = None,
) -> list:
    """Block matvec over channel-sharded ciphertexts.

    ``y_j = Σ_i W_{j,i} x_i`` for ``K_in`` input ciphertexts and a
    ``K_out × K_in`` grid of grouped-diagonal blocks
    (``blocks[j][i] = {giant: {baby: vector | Plaintext}}`` from
    :func:`grouped_diagonals`, or ``None`` where the weight block is all
    zero).  Each input shard's baby rotations are hoisted *once* across
    every output shard that reads it.  An output shard's chain is

        rescale( sum_rotated({g: mul_plain_sum([(rot_b(x_i), diag_{j,i,g,b})
                                                for i, b]) for g}) ) + bias_j

    over the union of its row's giant steps: the products of every input
    shard that has step ``g`` with its diagonals are one
    :meth:`~repro.ckks.evaluator.CkksEvaluator.mul_plain_sum` (same
    level, same ``Δ²`` scale; one backend call that lifts each held
    diagonal itself), so a giant step is keyswitched once per output
    shard however many blocks share it, and the ``{g: inner_g}`` map
    goes to one :meth:`~repro.ckks.evaluator.CkksEvaluator.sum_rotated`,
    which divides by ``P`` once for the whole chain.  Each output shard
    rescales exactly once (the canonical-scale invariant holds shard by
    shard).  This is the one grouped inner loop: a single-ciphertext
    layer is the ``K_in = K_out = 1`` grid.

    ``bias_slots[j]`` (raw vector or pre-encoded post-rescale
    :class:`~repro.ckks.encoder.Plaintext`) is added to output shard
    ``j``; ``None`` entries skip the add.
    """
    if not blocks or any(len(row) != len(cts) for row in blocks):
        raise ValueError(
            f"blocks must be K_out x {len(cts)} to match the input shards"
        )
    with trace_span(
        ev, "matvec:shards", kind="matvec", k_in=len(cts), k_out=len(blocks),
        backend=ev.ctx.backend.name,
    ) as sp:
        sp.ct_entry(cts)
        rotated = []
        for i, ct in enumerate(cts):
            steps = shard_hoist_steps(blocks, i)
            rot = ev.rotate_many(ct, steps) if steps else {}
            rot[0] = ct
            rotated.append(rot)
        outs = []
        for j, row in enumerate(blocks):
            inners = {
                g: ev.mul_plain_sum(
                    (rotated[i][b], groups[g][b])
                    for i, groups in enumerate(row)
                    if groups and g in groups
                    for b in sorted(groups[g])
                )
                for g in sorted({g for groups in row if groups for g in groups})
            }
            if not inners:
                raise ValueError(f"output shard {j} reads no nonzero block")
            acc = ev.rescale(ev.sum_rotated(inners))
            if bias_slots is not None and bias_slots[j] is not None:
                acc = ev.add_plain(acc, bias_slots[j])
            outs.append(acc)
        sp.ct_exit(outs)
    return outs


def encrypted_matvec(
    ev: CkksEvaluator,
    ct_x: Ciphertext,
    w: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    *,
    diagonals: dict | None = None,
    bias_slots=None,
) -> Ciphertext:
    """``W x + b`` on an encrypted slot-packed vector.

    The input vector must be replicated-padded to ``max(out, in)`` length:
    slots beyond ``in_dim`` must hold a copy of the wrapped-around entries
    for the cyclic diagonals to line up.  For the square / zero-padded
    layouts produced by :mod:`repro.fhe.network` this holds by packing
    ``x`` into the first ``size`` slots with wraparound replication (and
    identically inside each block for batched ciphertexts).

    ``diagonals`` short-circuits the per-call :func:`diagonals_of`
    recomputation: a mapping ``d -> slot vector`` *or* ``d -> Plaintext``
    (pre-encoded at the ciphertext's level and scale).  ``bias_slots`` is the
    full-slot (optionally block-tiled) bias, again raw or pre-encoded at
    the *post-rescale* level and scale; when omitted, ``bias`` is padded
    into the leading slots as before.
    """
    if diagonals is None:
        if w is None:
            raise ValueError("need either a weight matrix or precomputed diagonals")
        diagonals = diagonals_of(w, ev.ctx.slots)
    if not diagonals:
        raise ValueError("matrix has no nonzero diagonals")
    with trace_span(
        ev, "matvec:naive", kind="matvec", diagonals=len(diagonals),
        backend=ev.ctx.backend.name,
    ) as sp:
        sp.ct_entry(ct_x)
        acc = ev.rescale(ev.mul_plain_sum(
            (ev.rotate(ct_x, d) if d else ct_x, vec) for d, vec in diagonals.items()
        ))
        if bias_slots is None and bias is not None:
            bias_slots = np.zeros(ev.ctx.slots)
            bias_slots[: len(bias)] = bias
        if bias_slots is not None:
            acc = ev.add_plain(acc, bias_slots)
        sp.ct_exit(acc)
    return acc

