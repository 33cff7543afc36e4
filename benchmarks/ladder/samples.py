"""Sample statistics for the ladder: medians, guarded percentiles, spread.

Stdlib + numpy only, no ``repro`` import — ``compare.py`` and the tests
use these without building any crypto.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys

__all__ = [
    "TooFewSamples",
    "median",
    "percentile",
    "spread",
    "peak_rss_mb",
    "fingerprint",
]

#: a percentile is only reported when at least this many samples lie
#: beyond it — below that the "tail" is one or two outliers, not a tail
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile, refused on a thin tail.

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie beyond the returned order statistic (200 samples support p95,
    100 support p90, a 6-sample forward loop supports no tail at all).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(n - rank, 0)} beyond it "
            f"(need {min_beyond})"
        )
    return float(ordered[rank - 1])


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the run-to-run
    noise figure the regression bounds are judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else math.inf


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            # a checkout that is not a repository must not find one above it
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root))),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: str) -> dict:
    """What box and what code a recorded number came from."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": _commit(root),
    }
