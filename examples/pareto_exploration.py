"""Explore the latency-accuracy trade-off space (the paper's Fig. 1).

Measures encrypted-ReLU latency for every PAF form on the CKKS simulator,
runs the SMART-PAF accuracy pipeline per form, and prints Tab. 4, the
Pareto frontier and an ASCII scatter.

Run:  python examples/pareto_exploration.py
"""


from repro.experiments.table4 import print_table4, run_fig1, run_table4


def ascii_scatter(points, width: int = 60, height: int = 14) -> str:
    lats = [p.latency for p in points]
    accs = [p.accuracy for p in points]
    lo_l, hi_l = min(lats), max(lats)
    lo_a, hi_a = min(accs), max(accs)
    grid = [[" "] * width for _ in range(height)]
    for i, p in enumerate(points):
        x = int((p.latency - lo_l) / max(hi_l - lo_l, 1e-9) * (width - 1))
        y = int((p.accuracy - lo_a) / max(hi_a - lo_a, 1e-9) * (height - 1))
        grid[height - 1 - y][x] = str(i)
    legend = "\n".join(
        f"  {i}: {p.name} (lat {p.latency:.3f}s, acc {p.accuracy:.3f})"
        for i, p in enumerate(points)
    )
    axis = f"accuracy {lo_a:.2f}..{hi_a:.2f} (up), latency {lo_l:.3f}..{hi_l:.3f}s (right)"
    return "\n".join("".join(row) for row in grid) + "\n" + axis + "\n" + legend


def main() -> None:
    print("measuring latency + accuracy per PAF form (quick scale) ...")
    t4 = run_table4(seed=0, with_accuracy=True)
    print()
    print(print_table4(t4))
    print("\n" + ascii_scatter(run_fig1(t4)["points"]))


if __name__ == "__main__":
    main()
