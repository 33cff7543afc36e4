"""The op-count gate's backend-invariance machinery, without crypto.

Three parts, all stdlib-fast:

* ``tools/check_opcounts.py --invariant`` — the CI-side byte-compare of
  two summaries' gate metrics;
* ``benchmarks/opcount_summary.py``'s ``verify_backend_invariance`` —
  the producer-side re-measure-under-every-backend assertion (driven
  here with fake contexts/counters so no model is compiled);
* its ``measure_forward`` — the modeled == measured assertion against
  ``enc.op_counts()`` and the NTT-row meter around the forward (driven
  with a fake network over a keyless n = 64 context).
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams

ROOT = Path(__file__).resolve().parents[1]


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def check_opcounts():
    return load_module(ROOT / "tools" / "check_opcounts.py")


@pytest.fixture(scope="module")
def opcount_summary():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        return load_module(ROOT / "benchmarks" / "opcount_summary.py")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


def summary(ks=10, counts=None, ntt_rows=1000):
    return {
        "models": {
            "toy": {
                "keyswitches": ks,
                "nonscalar_mults": 3,
                "ntt_rows": ntt_rows,
                "counts": counts or {"rotate": 7, "mul": 3},
            }
        }
    }


class TestInvarianceCompare:
    def test_identical_summaries_pass(self, check_opcounts):
        assert check_opcounts.invariance_failures(summary(), summary()) == []

    def test_diverging_metric_named(self, check_opcounts):
        msgs = check_opcounts.invariance_failures(summary(10), summary(11))
        assert len(msgs) == 1
        assert "toy" in msgs[0] and "keyswitches: 10 != 11" in msgs[0]

    def test_diverging_counts_dict_caught(self, check_opcounts):
        msgs = check_opcounts.invariance_failures(
            summary(), summary(counts={"rotate": 8, "mul": 3})
        )
        assert len(msgs) == 1 and "counts" in msgs[0]

    def test_missing_model_reported_both_ways(self, check_opcounts):
        empty = {"models": {}}
        assert check_opcounts.invariance_failures(summary(), empty) == [
            "toy: missing from second summary"
        ]
        assert check_opcounts.invariance_failures(empty, summary()) == [
            "toy: missing from first summary"
        ]

    def test_cli_invariant_gate(self, check_opcounts, tmp_path):
        a, b, base = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "base.json"
        a.write_text(json.dumps(summary()))
        base.write_text(json.dumps(summary()))
        b.write_text(json.dumps(summary(11)))
        ok = ["prog", str(a), "--baseline", str(base), "--invariant", str(a)]
        assert check_opcounts.main(ok) == 0
        bad = ["prog", str(a), "--baseline", str(base), "--invariant", str(b)]
        assert check_opcounts.main(bad) == 1


class TestNttRowsGate:
    """``ntt_rows`` is gated like ``keyswitches``: 2 % up fails, down is
    an improvement, and a baseline recorded before the meter existed
    gates nothing on it."""

    def test_regression_improvement_and_tolerance(self, check_opcounts):
        base = summary(ntt_rows=1000)
        regressions, improvements, _ = check_opcounts.compare(
            base, summary(ntt_rows=1021), 0.02
        )
        assert len(regressions) == 1 and "toy.ntt_rows: 1000 -> 1021" in regressions[0]
        assert check_opcounts.compare(base, summary(ntt_rows=1020), 0.02)[0] == []
        regressions, improvements, _ = check_opcounts.compare(
            base, summary(ntt_rows=800), 0.02
        )
        assert regressions == [] and "toy.ntt_rows: 1000 -> 800" in improvements[0]

    def test_missing_from_current_fails_missing_from_baseline_passes(self, check_opcounts):
        old = summary()
        del old["models"]["toy"]["ntt_rows"]
        assert check_opcounts.compare(old, summary(), 0.02)[0] == []
        regressions, _, _ = check_opcounts.compare(summary(), old, 0.02)
        assert regressions == ["toy.ntt_rows: missing from current run"]

    def test_invariance_names_the_metric(self, check_opcounts):
        msgs = check_opcounts.invariance_failures(summary(), summary(ntt_rows=999))
        assert len(msgs) == 1 and "ntt_rows: 1000 != 999" in msgs[0]


class _FakeCtx:
    def __init__(self):
        self.backend = SimpleNamespace(name="reference")

    def set_backend(self, name):
        self.backend = SimpleNamespace(name=name)


def fake_counting(keyswitches, ntt_rows=100):
    """What ``measure_forward`` returns: ``(op counter, NTT rows)``."""
    counting = SimpleNamespace(
        keyswitch_count=keyswitches,
        nonscalar_mult_count=2,
        counts={"rotate": keyswitches - 2, "mul": 2},
    )
    return counting, ntt_rows


class TestVerifyBackendInvariance:
    def test_invariant_measure_passes_and_restores_backend(self, opcount_summary):
        ctx = _FakeCtx()
        base = opcount_summary.gate_metrics(*fake_counting(10))
        opcount_summary.verify_backend_invariance(
            "toy", ctx, lambda: fake_counting(10), base
        )
        assert ctx.backend.name == "reference"

    def test_divergent_ntt_rows_fail_too(self, opcount_summary):
        ctx = _FakeCtx()
        base = opcount_summary.gate_metrics(*fake_counting(10))

        def measure():
            return fake_counting(10, 100 if ctx.backend.name == "reference" else 101)

        with pytest.raises(SystemExit, match="not backend-invariant"):
            opcount_summary.verify_backend_invariance("toy", ctx, measure, base)

    def test_divergent_backend_fails_loudly(self, opcount_summary):
        ctx = _FakeCtx()
        base = opcount_summary.gate_metrics(*fake_counting(10))

        def measure():
            # pretends the non-reference backend runs one extra keyswitch
            return fake_counting(10 if ctx.backend.name == "reference" else 11)

        with pytest.raises(SystemExit) as exc:
            opcount_summary.verify_backend_invariance("toy", ctx, measure, base)
        msg = str(exc.value)
        assert "toy" in msg and "vectorized" in msg and "backends.md" in msg
        assert ctx.backend.name == "reference"  # restored even on failure


class _FakeNet:
    """A 'network' whose forward books three rotations on the counter
    and pushes 2 + 1 residue rows through the context's NTTs (its
    'encrypt' pushes one more, which the meters must not see)."""

    ev = SimpleNamespace()

    def __init__(self, modeled):
        self.modeled = modeled
        self.ctx = CkksContext(CkksParams(n=64, scale_bits=25, depth=1))

    def _rows(self, count):
        return np.zeros((count, self.ctx.n), dtype=np.int64), list(range(count))

    def encrypt_batch_shards(self, xs):
        self.ctx.backend.ntt_forward(*self._rows(1))
        return []

    def forward_shards(self, cts, ev):
        ev.counts["rotate"] += 3
        self.ctx.backend.ntt_forward(*self._rows(2))
        self.ctx.backend.ntt_inverse(*self._rows(1))

    def op_counts(self):
        return self.modeled


class TestModeledEqualsMeasured:
    """``measure_forward`` holds every measured forward equal to the
    network's shadow-forward cost model, and meters its NTT rows."""

    def test_agreeing_model_passes(self, opcount_summary):
        net = _FakeNet({"rotate": 3})
        backend = net.ctx.backend
        counting, ntt_rows = opcount_summary.measure_forward(net, 8)
        assert counting.counts == {"rotate": 3}
        assert ntt_rows == 3  # the forward's rows only: reset after encrypt
        assert net.ctx.backend is backend  # the meter is gone again
        assert opcount_summary.gate_metrics(counting, ntt_rows)["ntt_rows"] == 3

    def test_drifted_model_fails_loudly(self, opcount_summary):
        net = _FakeNet({"rotate": 2, "mul": 1})
        backend = net.ctx.backend
        with pytest.raises(SystemExit) as exc:
            opcount_summary.measure_forward(net, 8)
        msg = str(exc.value)
        assert "'rotate': (2, 3)" in msg and "'mul': (1, None)" in msg
        assert net.ctx.backend is backend
