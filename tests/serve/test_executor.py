"""Block executors: ordering, conformance, bit-identical HE results.

The load-bearing property is at the bottom: a sharded forward scheduled
across threads or forked processes produces ciphertexts *bit-identical*
to serial execution — every HE op in the simulator is deterministic, so
an executor can only change wall time, never a single limb.
"""

import numpy as np
import pytest

from repro.serve.executor import (
    BlockExecutor,
    ProcessBlockExecutor,
    ThreadBlockExecutor,
    make_executor,
)


class TestMakeExecutor:
    def test_names_round_trip(self):
        for name, cls in [
            ("serial", BlockExecutor),
            ("thread", ThreadBlockExecutor),
            ("process", ProcessBlockExecutor),
        ]:
            with make_executor(name) as ex:
                assert type(ex) is cls
                assert ex.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")


class TestOrdering:
    def test_serial_preserves_order(self):
        ex = BlockExecutor()
        assert ex.map_blocks([lambda i=i: i * i for i in range(7)]) == [
            i * i for i in range(7)
        ]

    def test_thread_preserves_order(self):
        with ThreadBlockExecutor(workers=4) as ex:
            # stagger completion so order-by-completion would scramble
            import time

            def task(i):
                time.sleep(0.02 * (5 - i) / 5)
                return i

            assert ex.map_blocks([lambda i=i: task(i) for i in range(5)]) == list(
                range(5)
            )

    def test_process_requires_ctx_for_multiple_tasks(self):
        ex = ProcessBlockExecutor(workers=2)
        with pytest.raises(ValueError, match="needs ctx"):
            ex.map_blocks([lambda: None, lambda: None])

    def test_process_single_task_runs_inline(self):
        # <= 1 task short-circuits serially — no ctx, no fork
        assert ProcessBlockExecutor(workers=2).map_blocks([lambda: 42]) == [42]


def _he_tasks(enc, ev, cts):
    """Deterministic per-ciphertext HE chains (the shard-block shape)."""

    def chain(ct):
        out = ev.rotate(ct, 1)
        out = ev.mul_plain(out, 0.5)
        out = ev.rescale(out)
        return ev.add(out, out)

    return [lambda ct=ct: chain(ct) for ct in cts]


class TestBitIdentity:
    @pytest.fixture()
    def he_case(self, toy):
        _, enc = toy
        ev = enc.ev
        rng = np.random.default_rng(5)
        cts = [enc.encrypt_batch([rng.normal(size=8)], ev=ev) for _ in range(4)]
        return enc, ev, cts

    @staticmethod
    def _assert_same(a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.c0.data, y.c0.data)
            np.testing.assert_array_equal(x.c1.data, y.c1.data)
            assert (x.scale, x.level) == (y.scale, y.level)

    def test_thread_matches_serial(self, he_case):
        enc, ev, cts = he_case
        serial = BlockExecutor().map_blocks(_he_tasks(enc, ev, cts))
        with ThreadBlockExecutor(workers=4) as ex:
            threaded = ex.map_blocks(_he_tasks(enc, ev, cts), ctx=enc.ctx)
        self._assert_same(serial, threaded)

    def test_process_matches_serial(self, he_case):
        enc, ev, cts = he_case
        serial = BlockExecutor().map_blocks(_he_tasks(enc, ev, cts))
        with ProcessBlockExecutor(workers=2) as ex:
            forked = ex.map_blocks(_he_tasks(enc, ev, cts), ctx=enc.ctx)
        self._assert_same(serial, forked)


@pytest.mark.slow
def test_sharded_forward_bit_identical_across_executors(
    toy_resnet_artifact, toy_transformer_artifact
):
    """End-to-end: a shard grid scheduled across thread and process pools
    decrypts to *exactly* the serial logits — the toy ResNet's channel
    shards, and the toy transformer's token shards (fused Q/K/V output
    tasks, per-query attention tasks over the shared packed keys/values)."""
    for art in (toy_resnet_artifact, toy_transformer_artifact):
        enc = art.model
        ev = enc.ev
        x = np.random.default_rng(3).normal(size=sum(enc.input_splits))
        cts = enc.encrypt_batch_shards([x], ev=ev)

        def forward(executor=None):
            out = enc.forward_shards(cts, ev=ev, executor=executor)[0]
            return enc.decrypt_logits(out, 3, batch=1, ev=ev)[0]

        serial = forward()
        with make_executor("thread", workers=4) as ex:
            np.testing.assert_array_equal(forward(ex), serial)
        with make_executor("process", workers=2) as ex:
            np.testing.assert_array_equal(forward(ex), serial)
