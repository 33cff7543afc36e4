"""Level/scale-slack reports over a recorded trace.

Turns the layer spans of a :class:`~repro.obs.trace.Tracer` (or an
exported ``repro-trace-v1`` dict) into the per-layer headroom view the
bootstrapping / level-refresh work is gated on: where the compiled
schedule is tight (minimum remaining level slack), where the measured
scale has drifted furthest off the canonical per-level schedule, and
what each layer paid in keyswitches, nonscalar mults and wall time.

``benchmarks/slack_baseline.json`` pins the per-layer slack of the toy
models; ``tools/check_slack.py`` fails CI when any layer's slack drops
below its baseline — an early warning that a plan change spent schedule
headroom, before the rtol accuracy suites can notice.
"""

from __future__ import annotations

from repro.ckks.instrumentation import keyswitches
from repro.obs.trace import Tracer

__all__ = ["slack_report", "format_slack_report", "slack_baseline_entry"]


def _layer_rows(trace) -> list:
    """Per-layer observation dicts from a tracer or exported trace."""
    if isinstance(trace, Tracer):
        trace = trace.to_dict()
    rows = []
    for sp in trace.get("spans", []):
        if sp.get("kind") != "layer":
            continue
        ops = sp.get("ops", {})
        attrs = sp.get("attrs", {})
        entry = sp.get("entry") or {}
        exit_ = sp.get("exit") or {}
        rows.append(
            {
                "name": sp["name"],
                "entry_level": entry.get("level"),
                "exit_level": exit_.get("level"),
                "level_slack": attrs.get("level_slack"),
                "scale_drift": exit_.get("scale_drift"),
                "keyswitches": keyswitches(ops),
                "nonscalar_mults": ops.get("mul", 0),
                "duration_ms": sp.get("duration_ms", 0.0),
            }
        )
    return rows


def slack_report(trace, model: str | None = None) -> dict:
    """Level/scale-slack summary of one traced forward.

    Returns ``{"model", "layers": [...], "min_slack", "tightest",
    "max_abs_drift"}`` where ``tightest`` names every layer sitting at
    the minimum slack — the layers a level-refresh (bootstrapping)
    insertion pass would have to relieve first.
    """
    if model is None and not isinstance(trace, Tracer):
        model = trace.get("model")
    layers = _layer_rows(trace)
    slacks = [r["level_slack"] for r in layers if r["level_slack"] is not None]
    drifts = [abs(r["scale_drift"]) for r in layers if r["scale_drift"] is not None]
    min_slack = min(slacks) if slacks else None
    return {
        "model": model,
        "layers": layers,
        "min_slack": min_slack,
        "tightest": [
            r["name"] for r in layers if r["level_slack"] == min_slack
        ]
        if min_slack is not None
        else [],
        "max_abs_drift": max(drifts) if drifts else None,
    }


def format_slack_report(report: dict) -> str:
    """Aligned text rendering of a :func:`slack_report`."""
    from repro.analysis.tables import format_table

    rows = [
        [
            r["name"],
            _opt(r["entry_level"]),
            _opt(r["exit_level"]),
            _opt(r["level_slack"]),
            f"{r['scale_drift']:+.2e}" if r["scale_drift"] is not None else "-",
            r["keyswitches"],
            r["nonscalar_mults"],
            f"{r['duration_ms']:.1f}",
        ]
        for r in report["layers"]
    ]
    title = "Level/scale slack"
    if report.get("model"):
        title += f" ({report['model']})"
    table = format_table(
        ["layer", "lvl in", "lvl out", "slack", "scale drift", "ks", "ct*ct", "ms"],
        rows,
        title=title,
    )
    lines = [table]
    if report["min_slack"] is not None:
        lines.append(
            f"min slack {report['min_slack']} at: "
            + ", ".join(report["tightest"])
        )
    if report["max_abs_drift"] is not None:
        lines.append(f"max |scale drift| {report['max_abs_drift']:.3e}")
    return "\n".join(lines)


def slack_baseline_entry(report: dict) -> dict:
    """The checked-in baseline record for one model's slack report."""
    return {
        "layers": {
            r["name"]: r["level_slack"]
            for r in report["layers"]
            if r["level_slack"] is not None
        },
        "min_slack": report["min_slack"],
    }


def _opt(value):
    return "-" if value is None else value
