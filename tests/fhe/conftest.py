"""Shared fixtures: the compiled toy models for the fhe suite, and the
test-side reference oracle.

The canonical 8 -> 6 -> 3 MLP and the trained 2-conv CNN builds live in
:mod:`repro.fhe.toy` (shared with ``tests/serve`` and the benchmarks).
All are compiled in production form; session-scoped because keygen plus
one encrypted forward is seconds, not milliseconds.

:func:`oracle_forward` is the network-level differential baseline that
used to live inside the executor as ``mode="reference"``: a
straight-line interpreter over the IR's own weights that takes the
naive op-level path everywhere — one rotation per diagonal
(:func:`~repro.fhe.linear.encrypted_matvec`), one per pool shift, the
term-by-term ladder (``poly_oracle``, ``tests/conftest.py``) for every
activation — and shares nothing with the compiled plans.  The naive
Galois keys it needs are minted on a private copy of the network's key
chain.
"""

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks import CkksEvaluator
from repro.fhe.ir import MatvecNode, PafNode, PolyNode, PoolNode
from repro.fhe.linear import (
    diagonals_of,
    encrypted_matvec,
    encrypted_matvec_shards,
    grouped_diagonals,
    plan_matvec,
    tile_blocks,
)
from repro.fhe.toy import (
    compiled_toy,
    compiled_toy_cnn,
    compiled_toy_resnet,
    compiled_toy_transformer,
)


def _tiled(enc, vec) -> np.ndarray:
    base = np.zeros(enc.size)
    base[: len(vec)] = vec
    return tile_blocks(base, enc.ctx.slots, enc.max_batch, enc.block_stride)


def oracle_evaluator(enc) -> CkksEvaluator:
    """An evaluator over ``enc``'s keys plus every naive rotation step.

    The Galois families are grown on a *copy* of the chain
    (``ensure_galois_steps`` derives each family from the chain's own
    seed, so shared elements stay bit-identical), which keeps the
    session-scoped network's production key set untouched.
    """
    steps = {enc._replicate_step}
    for node in enc.layers:
        if isinstance(node, MatvecNode):
            ((weight,),) = node.blocks
            steps.update(diagonals_of(weight, enc.ctx.slots))
        elif isinstance(node, PoolNode):
            steps.update(s for stage in node.shifts for s in stage)
    keys = dataclasses.replace(enc.keys, galois=dict(enc.keys.galois))
    keys.ensure_galois_steps(enc.ctx, sorted(steps - {0}))
    return CkksEvaluator(enc.ctx, keys)


def oracle_forward(enc, ct, ev, poly_oracle):
    """Naive-everything forward of a single-ciphertext network.

    ``ev`` must hold the naive keys (:func:`oracle_evaluator`, optionally
    wrapped in a ``CountingEvaluator``), ``poly_oracle`` is the ladder
    fixture.  Reads only the IR nodes — never the compiled plans, groups
    or masks it is the oracle for.
    """
    for i, node in enumerate(enc.layers):
        if isinstance(node, MatvecNode):
            if i > 0:
                ct = ev.add(ct, ev.rotate(ct, enc._replicate_step))
            ((weight,),), (bias,) = node.blocks, node.bias_shards or [None]
            diags = diagonals_of(
                weight,
                enc.ctx.slots,
                num_blocks=enc.max_batch,
                block_stride=enc.block_stride,
            )
            bias = None if bias is None else _tiled(enc, bias)
            ct = encrypted_matvec(ev, ct, diagonals=diags, bias_slots=bias)
        elif isinstance(node, PafNode):
            ct = poly_oracle.paf_relu(ev, ct, node.paf, scale=node.scale)
        elif isinstance(node, PolyNode):
            ct = poly_oracle.eval_poly(ev, ct, node.poly)
        elif isinstance(node, PoolNode):
            for stage in node.shifts:
                rotated = [ev.rotate(ct, s) for s in stage if s]
                for r in rotated:
                    ct = ev.add(ct, r)
            mask = _tiled(enc, np.full(enc.size, node.pool_scale))
            ct = ev.rescale(ev.mul_plain(ct, mask))
        else:
            raise AssertionError(f"oracle has no {type(node).__name__} rule")
    return ct


@pytest.fixture(scope="session")
def oracle(poly_oracle):
    """The reference interpreter: ``oracle.evaluator(enc)`` builds the
    naive-key evaluator, ``oracle.forward(enc, ct, ev)`` runs it."""
    return SimpleNamespace(
        evaluator=oracle_evaluator,
        forward=functools.partial(oracle_forward, poly_oracle=poly_oracle),
    )


def _planned_matvec(ev, ct, w=None, *, groups=None, bias_slots=None):
    """``W x`` (+ ``bias_slots``) on one ciphertext the way a compiled
    layer runs it: ``w``'s diagonals planned, regrouped and fed to the
    ``1 x 1`` grid of :func:`~repro.fhe.linear.encrypted_matvec_shards`
    (or ``groups`` as already grouped)."""
    if groups is None:
        diags = diagonals_of(w, ev.ctx.slots)
        groups = grouped_diagonals(diags, plan_matvec(diags.keys(), max(w.shape)))
    return encrypted_matvec_shards(ev, [ct], [[groups]], bias_slots=[bias_slots])[0]


@pytest.fixture(scope="session")
def planned_matvec():
    """``planned_matvec(ev, ct, w)``: the single-ciphertext planned matvec."""
    return _planned_matvec


def _per_diagonal_steps(enc, layer: int | None = None) -> set:
    """Galois steps of the per-diagonal layout (every block of ``enc``,
    or of its ``layer`` only, planned at ``n1 = size``): each compiled
    block's nonzero diagonal indices, read back off its grouped
    payload."""
    return {
        g + b
        for i, grid in enc.matvec_groups.items()
        if layer in (None, i)
        for row in grid
        for groups in row
        if groups
        for g, inner in groups.items()
        for b in inner
    } - {0}


@pytest.fixture(scope="session")
def per_diagonal_steps():
    """``per_diagonal_steps(enc[, layer])``: the key set one rotation per
    nonzero diagonal would need — what the planned key set is measured
    against."""
    return _per_diagonal_steps


def banded_matrix(size: int, diags, seed: int) -> np.ndarray:
    """A ``size x size`` matrix whose nonzero generalised diagonals are
    exactly ``diags`` (entries of magnitude 0.5-1.5, random sign)."""
    rng = np.random.default_rng(seed)
    w = np.zeros((size, size))
    rows = np.arange(size)
    for d in diags:
        w[rows, (rows + d) % size] = rng.uniform(0.5, 1.5, size) * rng.choice(
            [-1.0, 1.0], size
        )
    return w


@pytest.fixture(scope="session")
def giant_set_blocks():
    """Four 8 x 8 blocks whose plans disagree about giant steps — what a
    grid row must mix to exercise the cross-shard giant sum: ``a`` is
    BSGS with giants {0, 4}, ``b`` BSGS with {0, 3}, ``c`` BSGS with
    {4, 6} (no giant 0) and ``n`` planned at ``n1 = size`` (the giant-0
    group only)."""
    return SimpleNamespace(
        a=banded_matrix(8, range(8), 1),
        b=banded_matrix(8, range(6), 2),
        c=banded_matrix(8, (4, 5, 6, 7), 3),
        n=banded_matrix(8, (0, 1), 4),
        giants={"a": (0, 4), "b": (0, 3), "c": (4, 6), "n": (0,)},
    )


@pytest.fixture(scope="session")
def paf_mlp_model():
    """The toy MLP's plaintext side alone: PAF-replaced, calibrated,
    ready to lower or compile (no keys yet)."""
    from repro.core import calibrate_static_scales, convert_to_static, replace_all
    from repro.nn.models import mlp
    from repro.paf import get_paf

    rng = np.random.default_rng(0)
    model = mlp(8, hidden=(6,), num_classes=3, seed=0)
    replace_all(model, get_paf("f1g2"), np.zeros((1, 8)))
    calibrate_static_scales(model, [rng.normal(size=(64, 8))])
    convert_to_static(model)
    model.eval()
    return model


@pytest.fixture(scope="session")
def toy_plain_enc():
    """Compiled toy MLP (production form: BSGS plans/keys only)."""
    return compiled_toy()


@pytest.fixture(scope="session")
def toy_cnn():
    """(plain model, compiled EncryptedNetwork) — the trained 2-conv CNN."""
    return compiled_toy_cnn(with_model=True)


@pytest.fixture(scope="session")
def toy_transformer():
    """(PAF-approximated plain model, compiled EncryptedNetwork) — the
    trained single-block toy transformer."""
    return compiled_toy_transformer(with_model=True)


@pytest.fixture(scope="session")
def toy_transformer_stacked():
    """(PAF-approximated plain model, compiled EncryptedNetwork) — the
    trained 2-block stacked transformer, compiled through the auto
    refresh policy (the depth-wall demo)."""
    return compiled_toy_transformer(with_model=True, num_blocks=2)


@pytest.fixture(scope="session")
def toy_resnet():
    """(plain model, compiled sharded EncryptedNetwork) — the trained
    2-block toy ResNet, channels across 2 ciphertexts."""
    return compiled_toy_resnet(with_model=True)
