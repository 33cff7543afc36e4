"""Convert a ``repro-trace-v1`` execution trace to Chrome trace format.

    python tools/trace_to_chrome.py TRACE.json [-o OUT.json]

Takes the JSON written by :meth:`repro.obs.Tracer.write_json` (or
``benchmarks/opcount_summary.py --trace-dir`` /
``benchmarks/ladder/run.py --trace 1``) and emits a Chrome
``traceEvents`` file loadable in ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev): one complete ("X") event per span, with the
span kind as the category and the HE-op deltas, ciphertext levels and
level slack in ``args`` for the inspector pane.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys


def to_chrome(trace: dict) -> dict:
    """Map repro-trace-v1 spans onto Chrome ``traceEvents``."""
    if trace.get("format") != "repro-trace-v1":
        raise ValueError(f"not a repro-trace-v1 trace: format={trace.get('format')!r}")
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": trace.get("model", "encrypted-forward")},
        }
    ]
    for sp in trace["spans"]:
        args = dict(sp.get("attrs", {}))
        if sp.get("ops"):
            args["ops"] = sp["ops"]
        for key in ("entry", "exit"):
            if sp.get(key):
                args[key] = sp[key]
        events.append(
            {
                "name": sp["name"],
                "cat": sp.get("kind", "span"),
                "ph": "X",
                "ts": sp["start_ms"] * 1000.0,       # Chrome wants microseconds
                "dur": sp["duration_ms"] * 1000.0,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="repro-trace-v1 JSON file")
    parser.add_argument(
        "-o",
        "--out",
        help="output path (default: <trace>.chrome.json)",
    )
    args = parser.parse_args(argv[1:])
    with open(args.trace) as fh:
        trace = json.load(fh)
    chrome = to_chrome(trace)
    out = args.out or (args.trace.removesuffix(".json") + ".chrome.json")
    with open(out, "w") as fh:
        json.dump(chrome, fh, indent=2)
        fh.write("\n")
    print(f"trace_to_chrome: {len(chrome['traceEvents']) - 1} spans -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
