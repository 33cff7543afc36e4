"""HE-op-count regression gate for CI.

    python tools/check_opcounts.py CURRENT.json [--baseline benchmarks/opcount_baseline.json]
                                   [--tolerance 0.02] [--invariant OTHER.json]

Compares the per-model gate metrics emitted by
``benchmarks/opcount_summary.py --json`` against the checked-in
baseline.  The gated metrics are the hot-path cost currencies:

* ``keyswitches`` — Galois/relinearisation key inner products (the
  dominant wall-clock cost of an encrypted forward);
* ``nonscalar_mults`` — ciphertext×ciphertext multiplications (the
  polynomial-evaluation cost the Paterson–Stockmeyer rewrite minimises);
* ``ntt_rows`` — residue rows through a forward or inverse NTT during
  the forward: the structural meter *below* the op counts, which sees
  shared decompositions and shared divide-by-``P`` descents (exact and
  backend-invariant, so it repeats to the row).

The job fails when any of them regresses by more than ``--tolerance``
(default 2%) on any pinned model, and also when a baselined model
disappears from the current run.  Improvements pass with a reminder to
refresh the baseline so the gate keeps ratcheting downward.  Stdlib
only.

``--invariant OTHER.json`` additionally requires the two summaries'
``models`` sections to be byte-identical once canonicalised — the
backend-invariance gate: a summary measured under one kernel backend
and a summary measured under another must report exactly the same op
counts, because backends may only change how residue arithmetic
executes, never which HE ops run (see docs/backends.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATED_METRICS = ("keyswitches", "nonscalar_mults", "ntt_rows")


def compare(baseline: dict, current: dict, tolerance: float) -> tuple:
    """Returns ``(regressions, improvements, notes)`` as message lists."""
    regressions: list = []
    improvements: list = []
    notes: list = []
    base_models = baseline.get("models", {})
    cur_models = current.get("models", {})
    for model, base in sorted(base_models.items()):
        cur = cur_models.get(model)
        if cur is None:
            regressions.append(f"{model}: missing from current run")
            continue
        for metric in GATED_METRICS:
            if metric not in base:
                continue
            b, c = base[metric], cur.get(metric)
            if c is None:
                regressions.append(f"{model}.{metric}: missing from current run")
            elif c > b * (1 + tolerance):
                regressions.append(
                    f"{model}.{metric}: {b} -> {c} "
                    f"(+{(c - b) / b:.1%} > {tolerance:.0%} tolerance)"
                )
            elif c < b:
                improvements.append(f"{model}.{metric}: {b} -> {c} ({(c - b) / b:.1%})")
    for model in sorted(set(cur_models) - set(base_models)):
        notes.append(f"{model}: not in baseline (add it to pin its op counts)")
    return regressions, improvements, notes


def invariance_failures(current: dict, other: dict) -> list:
    """Byte-compare two summaries' ``models`` sections.

    Returns one message per divergence; empty means byte-identical.
    """
    cur_models = current.get("models", {})
    oth_models = other.get("models", {})
    failures: list = []
    for model in sorted(set(cur_models) - set(oth_models)):
        failures.append(f"{model}: missing from second summary")
    for model in sorted(set(oth_models) - set(cur_models)):
        failures.append(f"{model}: missing from first summary")
    for model in sorted(set(cur_models) & set(oth_models)):
        a = json.dumps(cur_models[model], sort_keys=True).encode()
        b = json.dumps(oth_models[model], sort_keys=True).encode()
        if a != b:
            cur, oth = cur_models[model], oth_models[model]
            keys = sorted(set(cur) | set(oth))
            diffs = [
                f"{k}: {cur.get(k)!r} != {oth.get(k)!r}"
                for k in keys
                if cur.get(k) != oth.get(k)
            ]
            failures.append(f"{model}: {'; '.join(diffs)}")
    return failures


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="JSON from opcount_summary.py --json")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "benchmarks" / "opcount_baseline.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.02)
    parser.add_argument(
        "--invariant",
        metavar="OTHER.json",
        help="second summary that must report byte-identical op counts "
        "(the kernel-backend invariance gate)",
    )
    args = parser.parse_args(argv[1:])

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)

    regressions, improvements, notes = compare(baseline, current, args.tolerance)
    if args.invariant:
        with open(args.invariant) as fh:
            other = json.load(fh)
        for msg in invariance_failures(current, other):
            regressions.append(
                f"backend invariance broken — op counts must be identical "
                f"under every kernel backend (docs/backends.md): {msg}"
            )
    for msg in notes:
        print(f"note: {msg}")
    for msg in improvements:
        print(f"improved: {msg}")
    if improvements:
        print(
            "op counts improved — refresh benchmarks/opcount_baseline.json "
            "(opcount_summary.py --json) so the gate ratchets down"
        )
    for msg in regressions:
        print(f"REGRESSION: {msg}", file=sys.stderr)
    print(
        f"check_opcounts: {len(baseline.get('models', {}))} pinned models, "
        f"{len(regressions)} regressions"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
