"""One workload, measured in this process.

    python3 benchmarks/ladder/child.py WORKLOAD --seed N --seconds S --trace 0|1
        [--smoke] [--record PATH] [--trace-dir DIR]

``run.py`` starts this once per workload, so every workload gets a fresh
interpreter.  It prints the workload's metrics by name, and as the last
line of standard output ``{"correct", "attempted", "failed", "metrics"}``:
every declared end-to-end metric with ``--trace 0`` (tracing off), every
declared per-layer metric with ``--trace 1``.  Exit 0 when the workload
met its oracle, 1 when it did not, 2 when the output does not match
``BENCHMARK.json``.
"""

import time

T_START = time.perf_counter()  # set-up time counts from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Fixed conditions, part of every workload's definition: one BLAS/OpenMP
# thread (the box has 2 cores; serving runs 2 workers plus the sender)
# and the vectorized kernel backend, the deployment docs/backends.md
# describes.  Set before numpy is first imported.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["REPRO_BACKEND"] = "vectorized"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import declaration  # noqa: E402
import samples  # noqa: E402

sys.path.insert(1, str(declaration.ROOT / "src"))  # the program under test


def timed_run(name: str, seed: int, sizing) -> dict:
    """Tracing off: the end-to-end metrics of one workload."""
    import workloads as wl

    detail: dict = {}
    if name == "serve_mixed_open":
        w = wl.ServeMixedOpen(seed, sizing)
        closed, bursts = [], []
        try:
            w.start()
            setup_s = time.perf_counter() - T_START
            # closed blocks and bursts alternate, so each metric's samples
            # span the whole run and a slow spell on the box lands on both
            for _ in range(sizing.rounds):
                closed.append(w.closed_phase(sizing.closed_block_seconds))
                bursts.append(w.burst_phase())
        finally:
            w.stop()
        latencies = [s for phase in closed for s in phase.latencies]
        burst_walls = [b.wall_s for b in bursts]
        throughput = len(bursts[0].records) / samples.median(burst_walls)
        attempted, failed = w.attempted, w.failed
        detail["burst_walls_s"] = burst_walls
        detail["pool_rows"] = {model: len(pool) for model, pool in w.pools.items()}
    else:
        if name == "paf_relu_sweep":
            w = wl.PafSweep(seed, sizing)
        else:
            w = wl.ForwardWorkload(name, seed)
            detail["pool_rows"] = len(w.pool)
        w.operation()  # untimed warm-up: lazy diagonal encodes, twiddle tables, keys
        setup_s = time.perf_counter() - T_START
        loop = wl.closed_loop(w.operation, sizing.seconds, sizing.min_ops(name))
        latencies = loop.durations
        throughput = w.evals_per_op * len(latencies) / sum(latencies) if latencies else 0.0
        attempted, failed = loop.attempted, loop.failed
    detail["samples"] = len(latencies)
    if len(latencies) > 1:
        detail["sample_spread"] = samples.spread(latencies)  # within this run, not between runs
    detail["oracle_worst_share"] = w.worst_oracle_share  # error / tolerance; above 1 is a failure
    detail["fail_share"] = failed / attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_p50_s": samples.median(latencies) if latencies else wl.REQUEST_TIMEOUT_S,
            "throughput_per_s": throughput,
            "setup_s": setup_s,
            "peak_rss_mb": samples.peak_rss_mb(),
        },
        "detail": detail,
        "tables": [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=declaration.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", help="write the full record (metrics + detail) here")
    parser.add_argument("--trace-dir", help="with --trace 1: write repro-trace-v1 files here")
    args = parser.parse_args(argv)

    import workloads as wl

    sizing = wl.Sizing(seconds=0.0 if args.smoke else args.seconds, smoke=args.smoke)
    if args.trace:
        import layers

        record = layers.traced_run(args.workload, args.seed, sizing, T_START, args.trace_dir)
    else:
        record = timed_run(args.workload, args.seed, sizing)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = declaration.metric_table(kind)
    record["metrics"] = {
        name: {"value": float(value), "unit": declared[name]["unit"]}
        for name, value in record["metrics"].items()
    }
    record["correct"] = record["failed"] == 0
    record.update(workload=args.workload, seed=args.seed, seconds=sizing.seconds, trace=args.trace)

    print(f"== {args.workload} seed={args.seed} seconds={sizing.seconds:g} trace={args.trace}")
    for name, entry in record["metrics"].items():
        print(f"{name:56s} {entry['value']:.6g} {entry['unit']}")
    for key, value in sorted(record["detail"].items()):
        if not isinstance(value, (dict, list)):
            print(f"  ({key} = {value})")
    print(f"  attempted={record['attempted']} failed={record['failed']}")
    for table in record.pop("tables"):
        print(table)
    if args.record:
        declaration.write_json(args.record, record)

    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.trace:
        # The result line carries every declared per-layer metric on every
        # workload (the driver's contract); the ones another workload
        # measures (declaration.owner) read 0 here and are absent from the
        # record above.
        result["metrics"] = {
            name: record["metrics"].get(name, {"value": 0.0, "unit": d["unit"]})
            for name, d in declared.items()
        }
    problems = declaration.validate_result(result, trace=bool(args.trace))
    for problem in problems:
        print(f"ladder: output does not match BENCHMARK.json: {problem}", file=sys.stderr)
    if problems:
        return 2
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
