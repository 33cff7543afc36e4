"""Open-loop load generator: requests leave on a schedule, not on replies.

One thread (the caller's) walks a list of due times, submits each
request when it falls due, and never waits for a reply before sending
the next — independent users do not slow down because the server did.
Every request is timed **from the instant it was due**, so the wait a
stall imposes on the requests queued behind it is counted, and how late
the generator itself ran (``lag``) is reported beside the latencies.

A burst is the same loop with every due time at zero.

No ``repro`` import: ``submit`` is any callable returning a
``concurrent.futures.Future``, which is what lets the tests drive the
generator against a stub server.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass

import numpy as np

__all__ = ["RequestRecord", "poisson_schedule", "run_schedule"]


@dataclass
class RequestRecord:
    """One generated request; times are seconds from the phase start."""

    index: int
    payload: object
    due_s: float
    submitted_s: float | None = None
    done_s: float | None = None
    result: object = None
    error: BaseException | None = None

    @property
    def lag_s(self) -> float:
        """How late the generator sent this request."""
        return self.submitted_s - self.due_s

    @property
    def latency_s(self) -> float | None:
        """Completion minus *due* time (``None`` if it never completed)."""
        if self.done_s is None or self.error is not None:
            return None
        return self.done_s - self.due_s


def poisson_schedule(rng: np.random.Generator, rate_per_s: float, count: int) -> np.ndarray:
    """Due times of ``count`` Poisson arrivals at ``rate_per_s``."""
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=count))


def run_schedule(due_times, payloads, submit, timeout_s: float) -> tuple[list[RequestRecord], float]:
    """Send ``payloads[i]`` at ``due_times[i]``; gather every outcome.

    ``submit(payload)`` must return a future; an exception it raises
    (a shed request, a closed server) is that request's outcome, not the
    generator's.  Returns the records and the wall time from the phase
    start to the last completion.
    """
    records = [
        RequestRecord(index=i, payload=p, due_s=float(due))
        for i, (due, p) in enumerate(zip(due_times, payloads))
    ]
    futures = []
    t0 = time.perf_counter()

    def stamp(rec: RequestRecord):
        def on_done(_future) -> None:
            rec.done_s = time.perf_counter() - t0

        return on_done

    for rec in records:
        wait = rec.due_s - (time.perf_counter() - t0)
        if wait > 0:
            time.sleep(wait)
        rec.submitted_s = time.perf_counter() - t0
        try:
            future = submit(rec.payload)
        except Exception as exc:  # the request's failure, counted by the caller
            rec.error = exc
            continue
        future.add_done_callback(stamp(rec))
        futures.append((rec, future))
    deadline = time.perf_counter() + timeout_s
    for rec, future in futures:
        try:
            rec.result = future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except FutureTimeout as exc:
            rec.error = exc
            future.cancel()
        except Exception as exc:  # served, but with an error
            rec.error = exc
        # a future wakes its waiters before it runs its callbacks, so the
        # completion stamp can trail result() by a few microseconds
        while rec.done_s is None and future.done() and not future.cancelled():
            time.sleep(0)
    wall = max((rec.done_s or 0.0 for rec in records), default=0.0)
    return records, wall
