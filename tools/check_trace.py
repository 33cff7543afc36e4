"""Schema and invariant check for ``repro-trace-v1`` execution traces.

    python tools/check_trace.py TRACE.json [TRACE.json ...]

Validates the traces CI produces from the toy models
(``benchmarks/opcount_summary.py --trace-dir``) before uploading them
as artifacts:

* **schema** — format tag, spans flattened depth-first with ``id ==
  index``, every parent id points at an earlier span, required keys
  present with sane types;
* **timing** — non-negative durations, every child's interval nested
  inside its parent's;
* **op accounting** — a parent's HE-op deltas cover the sum of its
  children's (spans accumulate ops while open), and on the executor's
  ``forward`` root (``kind == "forward"``) the per-layer deltas add up
  *exactly* to the root's totals — the tracer's books must balance
  against the ``CountingEvaluator`` aggregate;
* **levels** — rescaling only consumes modulus levels, so no span may
  exit at a higher level than it entered.  The one legitimate exception
  is a level refresh: spans named ``refresh:*`` (and any span containing
  one, which inherits the raise) may exit higher; the strict rule holds
  everywhere else.

Exit 1 with one line per violation.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys

REQUIRED_KEYS = ("id", "parent", "name", "kind", "start_ms", "duration_ms", "ops")

#: spans nested a few microseconds outside the parent are clock noise
TIME_EPS_MS = 1e-3


def _sum_ops(spans: list) -> dict:
    total: dict = {}
    for sp in spans:
        for op, n in sp.get("ops", {}).items():
            total[op] = total.get(op, 0) + n
    return total


def check_trace(trace: dict, label: str = "trace") -> list:
    """Returns a list of violation messages (empty when the trace is valid)."""
    errors: list = []

    def err(msg: str) -> None:
        errors.append(f"{label}: {msg}")

    if trace.get("format") != "repro-trace-v1":
        err(f"bad format tag {trace.get('format')!r}")
        return errors
    spans = trace.get("spans")
    if not isinstance(spans, list) or not spans:
        err("no spans")
        return errors

    for i, sp in enumerate(spans):
        for key in REQUIRED_KEYS:
            if key not in sp:
                err(f"span {i} missing key {key!r}")
        if sp.get("id") != i:
            err(f"span {i}: id {sp.get('id')} != position {i}")
        parent = sp.get("parent")
        if parent is not None and not (
            isinstance(parent, int) and 0 <= parent < i
        ):
            err(f"span {i} ({sp.get('name')}): parent {parent!r} not an earlier span")
        if sp.get("duration_ms", 0) < 0:
            err(f"span {i} ({sp.get('name')}): negative duration")
    if errors:
        return errors  # structural problems poison the checks below

    children: dict = {i: [] for i in range(len(spans))}
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]].append(sp)

    # spans allowed to raise the chain level: a refresh itself, plus every
    # ancestor enclosing one (the raise propagates to their exit levels)
    refreshing: set = set()
    for sp in spans:
        if str(sp["name"]).startswith("refresh:"):
            i = sp["id"]
            while i is not None:
                refreshing.add(i)
                i = spans[i]["parent"]

    for sp in spans:
        # child intervals nest inside the parent's
        for child in children[sp["id"]]:
            if child["start_ms"] < sp["start_ms"] - TIME_EPS_MS or (
                child["start_ms"] + child["duration_ms"]
                > sp["start_ms"] + sp["duration_ms"] + TIME_EPS_MS
            ):
                errors.append(
                    f"{label}: span {child['id']} ({child['name']}) escapes "
                    f"parent {sp['id']} ({sp['name']}) interval"
                )
        # parent op deltas cover the children's
        child_ops = _sum_ops(children[sp["id"]])
        for op, n in child_ops.items():
            if sp["ops"].get(op, 0) < n:
                errors.append(
                    f"{label}: span {sp['id']} ({sp['name']}) ops[{op}]="
                    f"{sp['ops'].get(op, 0)} < children's {n}"
                )
        # rescaling only ever consumes levels — refreshes excepted
        entry, exit_ = sp.get("entry"), sp.get("exit")
        if sp["id"] not in refreshing \
                and entry and exit_ and exit_["level"] > entry["level"]:
            errors.append(
                f"{label}: span {sp['id']} ({sp['name']}) exits at level "
                f"{exit_['level']} above entry level {entry['level']}"
            )
        # on a forward root, layer deltas must balance exactly
        if sp["parent"] is None and sp["kind"] == "forward":
            layers = [c for c in children[sp["id"]] if c["kind"] == "layer"]
            layer_ops = _sum_ops(layers)
            if layer_ops != sp["ops"]:
                errors.append(
                    f"{label}: root {sp['name']} ops {sp['ops']} != "
                    f"summed layer ops {layer_ops}"
                )
    return errors


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="+", help="repro-trace-v1 JSON files")
    args = parser.parse_args(argv[1:])
    failures = 0
    for path in args.traces:
        with open(path) as fh:
            trace = json.load(fh)
        errors = check_trace(trace, label=path)
        for msg in errors:
            print(f"INVALID: {msg}", file=sys.stderr)
        if errors:
            failures += 1
        else:
            n_layers = sum(1 for s in trace["spans"] if s["kind"] == "layer")
            print(f"{path}: ok ({len(trace['spans'])} spans, {n_layers} layers)")
    print(f"check_trace: {len(args.traces)} traces, {failures} invalid")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
