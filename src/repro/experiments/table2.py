"""Tab. 2 — PAF forms with reported degree and multiplication depth."""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.paf import paf_depth_table, paper_pafs

__all__ = ["run_table2", "print_table2", "check_table2", "PAPER_TABLE2"]

#: the paper's printed (degree, depth) per form
PAPER_TABLE2 = {
    "alpha=10": (27, 10),
    "f1^2 o g1^2": (14, 8),
    "alpha=7": (12, 6),
    "f2 o g3": (12, 6),
    "f2 o g2": (10, 6),
    "f1 o g2": (5, 5),
}


def run_table2() -> dict:
    """Compute the Tab. 2 rows from the PAF registry."""
    rows = paf_depth_table(paper_pafs(include_alpha10=True))
    result = {
        r.name: {
            "degree": r.reported_degree,
            "mult_depth": r.mult_depth,
            "degree_sum": r.degree_sum,
            "components": r.num_components,
        }
        for r in rows
    }
    return result


def print_table2(result: dict) -> str:
    rows = [
        [name, v["degree"], v["mult_depth"], PAPER_TABLE2[name][0], PAPER_TABLE2[name][1]]
        for name, v in result.items()
    ]
    return format_table(
        ["form", "degree", "mult depth", "paper degree", "paper depth"],
        rows,
        title="Table 2: PAF forms — degree and multiplication depth",
    )


def check_table2(result: dict) -> dict:
    """Shape checks: ``{check name: passed}``."""
    got = {k: (v["degree"], v["mult_depth"]) for k, v in result.items()}
    return {"(degree, depth) per form == paper Tab. 2": got == PAPER_TABLE2}
