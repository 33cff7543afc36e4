"""Compare two ladder files, one row per (workload, end-to-end metric).

    python3 benchmarks/ladder/compare.py A.json B.json

``A`` is the base: every ratio is ``B / A``.  A file is what
``run.py --json`` wrote: one set of runs, or with ``--check-repeat`` two
of the same code.  Each side's value is the median over its sets, and
its *noise* is how far its own sets disagree —
(largest − smallest) / median, measured **between runs**: on a shared box
the speed drifts from one minute to the next, which the samples inside
one run do not see.  The verdict uses the bound and direction
``BENCHMARK.json`` declares for the metric:

* ``unresolved`` — the noise exceeds the bound, or neither file holds two
  sets to measure it from: the two cannot be told apart at this sizing;
* ``worse``      — B is worse than A by more than the bound;
* ``better``     — B is better than A by more than the bound;
* ``same``       — within the bound either way.

Exit 1 if any row is ``worse`` or ``unresolved``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import declaration  # noqa: E402

__all__ = ["run_to_run", "verdict", "compare", "format_rows"]


def run_to_run(values) -> float | None:
    """How far runs of the same code disagree, as a share of their median."""
    if len(values) < 2:
        return None
    return (max(values) - min(values)) / statistics.median(values)


def verdict(a: float, b: float, better: str, bound: float, noise: float | None) -> str:
    """Judge ``b`` against base ``a`` for a metric where ``better`` is
    ``"lower"`` or ``"higher"``."""
    if noise is None or noise > bound:
        return "unresolved"
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _values(runs: list, workload: str, metric: str) -> list:
    return [run["workloads"][workload]["metrics"][metric]["value"] for run in runs]


def compare(runs_a: list, runs_b: list, same_code: bool = False) -> list:
    """Rows for two lists of sets.  ``same_code`` says both sides ran
    the same code (``--check-repeat``), so the distance between them is
    itself run-to-run noise and the only verdicts are ``same`` and
    ``unresolved``."""
    rows = []
    for workload in runs_a[0]["workloads"]:
        if workload not in runs_b[0]["workloads"]:
            continue
        for name, decl in declaration.metric_table("end_to_end").items():
            values_a = _values(runs_a, workload, name)
            values_b = _values(runs_b, workload, name)
            groups = [values_a, values_b] + ([values_a + values_b] if same_code else [])
            noises = [n for n in map(run_to_run, groups) if n is not None]
            noise = max(noises, default=None)
            a, b = statistics.median(values_a), statistics.median(values_b)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": decl["unit"],
                    "a": a,
                    "b": b,
                    "ratio_b_over_a": b / a,
                    "noise": noise,
                    "bound": decl["bound"],
                    "better": decl["better"],
                    "verdict": verdict(a, b, decl["better"], decl["bound"], noise),
                }
            )
    return rows


def format_rows(rows: list, label_a: str = "A", label_b: str = "B") -> str:
    header = ["workload", "metric", label_a, label_b, f"ratio (x of {label_a})",
              "run-to-run", "bound", "verdict"]
    cells = [header]
    for r in rows:
        sign = "+" if r["better"] == "lower" else "-"
        cells.append(
            [
                r["workload"],
                f"{r['metric']} [{r['unit']}]",
                f"{r['a']:.5g}",
                f"{r['b']:.5g}",
                f"{r['ratio_b_over_a']:.4f}",
                "-" if r["noise"] is None else f"{100 * r['noise']:.1f}%",
                f"{sign}{100 * r['bound']:.0f}%",
                r["verdict"],
            ]
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", help="base (ladder JSON)")
    parser.add_argument("b", help="judged against the base")
    args = parser.parse_args(argv)
    sides = []
    for path in (args.a, args.b):
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("schema") != declaration.SCHEMA or payload.get("trace") != 0:
            print(f"compare: {path} is not a timed {declaration.SCHEMA} file", file=sys.stderr)
            return 2
        sides.append(payload["runs"])
    rows = compare(*sides)
    print(format_rows(rows, Path(args.a).name, Path(args.b).name))
    return 1 if any(r["verdict"] in ("worse", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
