"""The wall-clock ladder: four workloads, one command.

    python3 benchmarks/ladder/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--json PATH] [--smoke] [--check-repeat]

runs each workload (or the one named) in its own fresh subprocess, one
at a time, prints every metric by name with its unit, checks outputs
against the plaintext oracle and writes the JSON.  README.md defines the
workloads and metrics; the root ``BENCHMARK.json`` declares them.

``--trace 0`` (the default) is the timed set: tracing off, the
end-to-end metrics.  ``--trace 1`` is the traced set: the per-layer
metrics, the per-node tables, ``repro-trace-v1`` files checked by
``tools/check_trace.py`` and ``BENCH_{kernels,forward,serve}.json``,
all under ``out/``.  With ``--workload`` the last line of standard
output is that workload's ``{"correct", "attempted", "failed",
"metrics"}`` — what the benchmark driver reads.

Exit codes: 0 every workload ran and met its oracle; 1 a workload
failed, missed its oracle or (``--check-repeat``) two sets of the same
code disagreed; 2 usage or environment error (no result is printed).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import declaration  # noqa: E402
import samples  # noqa: E402

ROOT = declaration.ROOT

DEFAULT_SECONDS = 40.0
CHILD_TIMEOUT_S = 900.0
OUT_DIR = HERE / "out"


def run_child(workload: str, seed: int, seconds: float, smoke: bool, trace: int, tag: str) -> dict:
    """Run one workload in a fresh interpreter; return its record."""
    record_path = OUT_DIR / f"{tag}_{workload}.json"
    record_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--record", str(record_path),
        "--trace-dir", str(OUT_DIR),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not record_path.exists():
        raise RuntimeError(f"{workload}: subprocess exited {proc.returncode} without a record")
    with open(record_path) as fh:
        return json.load(fh)


def run_set(names, seed: int, seconds: float, smoke: bool, trace: int, tag: str) -> dict:
    """One set: the named workloads, one at a time."""
    return {
        "fingerprint": samples.fingerprint(str(ROOT)),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {n: run_child(n, seed, seconds, smoke, trace, tag) for n in names},
    }


def _correct(run: dict) -> bool:
    return all(rec["correct"] for rec in run["workloads"].values())


def _check_traces() -> bool:
    """Every trace the traced set wrote must pass the repo's own checker."""
    traces = sorted(str(p) for p in OUT_DIR.glob("trace_*.json"))
    checker = ROOT / "tools" / "check_trace.py"
    check = subprocess.run([sys.executable, str(checker), *traces], cwd=ROOT, stdout=sys.stderr)
    return check.returncode == 0


def write_bench_files(traced: dict) -> None:
    """``BENCH_{kernels,forward,serve}.json``: a traced set's per-layer
    numbers by layer group, with the box they came from."""
    groups = {"kernels": ("ckks.",), "forward": ("fhe.",), "serve": ("serve.", "bench.")}
    for group, prefixes in groups.items():
        per_layer: dict = {}
        details: dict = {}
        for wname, rec in traced["workloads"].items():
            mine = {n: m for n, m in rec["metrics"].items() if n.startswith(prefixes)}
            per_layer.update(mine)
            if mine:
                details[wname] = rec["detail"]
        payload = {
            "schema": declaration.SCHEMA,
            "fingerprint": traced["fingerprint"],
            "seed": traced["seed"],
            "seconds": traced["seconds"],
            "smoke": traced["smoke"],
            "per_layer": dict(sorted(per_layer.items())),
            "detail": details,
        }
        declaration.write_json(OUT_DIR / f"BENCH_{group}.json", payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=declaration.workload_names(),
                        help="run only this workload; its result line is printed last")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"how long each workload measures (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0 = timed set, end-to-end metrics (default); "
                             "1 = traced set, per-layer metrics")
    parser.add_argument("--json", help="write the ladder file here")
    parser.add_argument("--smoke", action="store_true",
                        help="sub-minute schema check (one PAF, MLP-only serving)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the timed set twice (plus once on seed+1); "
                             "exit 1 unless every metric reads `same`")
    args = parser.parse_args(argv)
    if args.check_repeat and args.trace:
        parser.error("--check-repeat compares timed sets: use it with --trace 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ladder: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else declaration.workload_names()
    seconds = 0.0 if args.smoke else args.seconds
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        for stale in OUT_DIR.glob("trace_*.json"):
            stale.unlink()
    first = run_set(names, args.seed, seconds, args.smoke, args.trace, "a")
    ok = _correct(first)
    payload = {"schema": declaration.SCHEMA, "trace": args.trace, "runs": [first]}
    if args.trace:
        ok = ok and _check_traces()
        write_bench_files(first)
    if args.check_repeat:
        second = run_set(names, args.seed, seconds, args.smoke, 0, "b")
        other_seed = run_set(names, args.seed + 1, seconds, args.smoke, 0, "c")
        rows = compare.compare([first], [second], same_code=True)
        print(compare.format_rows(rows, "first set", "second set"))
        ok = ok and _correct(second) and _correct(other_seed)
        ok = ok and all(row["verdict"] == "same" for row in rows)
        payload["runs"].append(second)
        payload.update(second_seed=other_seed, comparison=rows)
    if args.json:
        declaration.write_json(args.json, payload)
    if not args.workload:  # with --workload the child's result line stays the last one
        print(f"ladder: {'ok' if ok else 'FAILED'} ({len(names)} workloads, seed {args.seed})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
