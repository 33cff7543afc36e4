"""The root ``BENCHMARK.json`` as the single declaration of the ladder.

``run.py`` emits exactly what is declared there, ``compare.py`` takes
its bounds and directions from it, and the tests validate one against
the other in both directions.  Stdlib only.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "ROOT",
    "SCHEMA",
    "NAME_RE",
    "load",
    "write_json",
    "metric_table",
    "workload_names",
    "owner",
    "owned",
    "validate_result",
]

ROOT = Path(__file__).resolve().parents[2]

#: version tag of every JSON file the ladder writes
SCHEMA = "repro-ladder-v1"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Which workload measures a per-layer metric, read off the metric's
#: name (first match wins).  ``BENCHMARK.json`` has no field for this,
#: so the module path in the name carries it: a layer is measured by the
#: one workload that exercises it.
OWNER_RULES = (
    ("serve.", "serve_mixed_open"),
    ("bench.", "serve_mixed_open"),
    ("fhe.ir.toy_mlp.", "serve_mixed_open"),
    ("fhe.ir.toy_cnn.", "serve_mixed_open"),
    (".toy_resnet.", "resnet_forward"),
    (".toy_transformer.", "transformer_forward"),
    (".n512_l34.", "transformer_forward"),
    ("ckks.", "paf_relu_sweep"),
)


def load() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def write_json(path, payload: dict) -> None:
    """Every JSON file the ladder writes goes through here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def metric_table(kind: str) -> dict:
    """``{name: declaration}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m for m in load()[kind]}


def workload_names() -> list:
    return [w["name"] for w in load()["workloads"]]


def owner(metric: str) -> str:
    """The workload whose traced run measures this per-layer metric."""
    for pattern, workload in OWNER_RULES:
        if pattern in metric:
            return workload
    raise KeyError(f"no workload measures per-layer metric {metric!r}")


def owned(workload: str) -> set:
    """The declared per-layer metrics this workload's traced run measures."""
    return {name for name in metric_table("per_layer") if owner(name) == workload}


def validate_result(result: dict, trace: bool) -> list:
    """Problems with one result line (empty = valid).

    Both directions: every declared metric is emitted with its declared
    unit, and nothing undeclared is.
    """
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)} != attempted/correct/failed/metrics")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = metric_table("per_layer" if trace else "end_to_end")
    emitted = result["metrics"]
    for name in sorted(set(declared) - set(emitted)):
        problems.append(f"declared metric {name} not emitted")
    for name in sorted(set(emitted) - set(declared)):
        problems.append(f"emitted metric {name} not declared")
    for name, entry in emitted.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        if sorted(entry) != ["unit", "value"]:
            problems.append(f"{name}: keys {sorted(entry)} != unit/value")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            problems.append(f"{name}: value {value!r} is not a number")
        if name in declared and entry["unit"] != declared[name]["unit"]:
            problems.append(f"{name}: unit {entry['unit']!r} != declared {declared[name]['unit']!r}")
    return problems
