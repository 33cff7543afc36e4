"""CLI: regenerate paper artefacts and run their shape checks.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments fig7 fig8
    python -m repro.experiments all
    REPRO_SCALE=full python -m repro.experiments table3

Every target prints its table and then each of its paper-shape checks;
the exit status is 1 if any check failed (2 for an unknown target).
"""

from __future__ import annotations

import sys

from repro.experiments import (
    check_appendix_depth,
    check_fig7,
    check_fig8,
    check_fig9,
    check_table2,
    check_table3,
    check_table4,
    print_appendix_depth,
    print_fig7,
    print_fig8,
    print_fig9,
    print_table2,
    print_table3,
    print_table4,
    run_fig7,
    run_fig8,
    run_fig9,
    run_measured_depths,
    run_table2,
    run_table3,
    run_table4,
)

#: target -> (run, print, check); ``table4`` also prints the Fig. 1 frontier
RUNNERS = {
    "table2": (run_table2, print_table2, check_table2),
    "fig7": (run_fig7, print_fig7, check_fig7),
    "fig8": (run_fig8, print_fig8, check_fig8),
    "fig9": (run_fig9, print_fig9, check_fig9),
    "table3": (run_table3, print_table3, check_table3),
    "table4": (run_table4, print_table4, check_table4),
    "depth": (run_measured_depths, print_appendix_depth, check_appendix_depth),
}


def main(argv: list) -> int:
    targets = argv or ["table2"]
    if targets == ["all"]:
        targets = list(RUNNERS)
    unknown = [t for t in targets if t not in RUNNERS]
    if unknown:
        print(f"unknown targets {unknown}; choose from {sorted(RUNNERS)} or 'all'")
        return 2
    failed = []
    for t in targets:
        run, show, check = RUNNERS[t]
        result = run()
        print(show(result))
        for name, ok in check(result).items():
            print(f"  [{'ok' if ok else 'FAIL'}] {t}: {name}")
            if not ok:
                failed.append(f"{t}: {name}")
        print()
    if failed:
        print(f"{len(failed)} check(s) failed:")
        print("\n".join(f"  {name}" for name in failed))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
