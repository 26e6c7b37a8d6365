"""Live progress heartbeats for long runs (DESIGN.md §8).

A long packet cell runs minutes with zero feedback; a heartbeat every few
wall-seconds — sim-time advance, events/s, flows completed, ETA — turns
"is it stuck?" into a glance.  :class:`ProgressReporter` is wall-clock
rate-limited (the drive loop calls :meth:`tick` every sim-time chunk;
almost all calls return without formatting anything), writes to stderr
so piped experiment output stays clean, and is wired in by ``fncc-exp
--progress``.

ETA comes from the sim-time advance rate against the drive horizon; once
flows complete, the flow completion rate usually beats the horizon bound
and the smaller of the two is shown.
"""

from __future__ import annotations

import sys
import time
from typing import Optional


def _fmt_rate(n: float) -> str:
    if n >= 1e3:
        return f"{n / 1e3:.1f}k"
    return f"{n:.0f}"  # census: under a thousand a second — tests/obs/test_progress.py::TestHeartbeat::test_rate_and_eta_formats


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None or seconds != seconds or seconds < 0:
        return "?"  # census: nothing to extrapolate from — tests/obs/test_progress.py::TestHeartbeat::test_rate_and_eta_formats
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"  # census: an ETA past a minute — tests/obs/test_progress.py::TestHeartbeat::test_rate_and_eta_formats
    return f"{seconds:.1f}s"


class ProgressReporter:
    """Wall-clock heartbeats for one run (or one cell of a sweep).

    >>> prog = ProgressReporter(label="fncc", interval_s=5.0)
    >>> ... drive loop calls prog.tick(sim, completed=..., ...) ...
    """

    def __init__(
        self,
        label: str = "",
        interval_s: float = 5.0,
        stream=None,
    ) -> None:
        self.label = label
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self.heartbeats = 0
        self._t0 = time.monotonic()
        self._last_wall = self._t0
        self._last_events = 0
        self._last_now = 0
        self._total: Optional[int] = None
        self._horizon_ps: Optional[int] = None

    # -- heartbeats ---------------------------------------------------------
    def tick(
        self,
        sim,
        completed: Optional[int] = None,
        total: Optional[int] = None,
        horizon_ps: Optional[int] = None,
        force: bool = False,
    ) -> bool:
        """Rate-limited heartbeat; returns True when a line was printed.
        ``force`` bypasses the interval (the drive loops force the first
        tick so even a short run prints at least one heartbeat)."""
        if total is not None:
            self._total = total
        if horizon_ps is not None:
            self._horizon_ps = horizon_ps
        wall = time.monotonic()
        if not force and wall - self._last_wall < self.interval_s:
            return False
        dt = wall - self._last_wall
        devents = sim.events_dispatched - self._last_events
        dsim = sim.now - self._last_now
        eps = devents / dt if dt > 1e-9 else 0.0
        self._last_wall = wall
        self._last_events = sim.events_dispatched
        self._last_now = sim.now
        self.heartbeats += 1
        self._emit(sim, completed, eps, dsim / dt if dt > 1e-9 else 0.0)
        return True

    def _emit(self, sim, completed, events_per_s: float, simps_per_s: float) -> None:
        parts = ["[progress]"]
        if self.label:
            parts.append(self.label)
        horizon = self._horizon_ps
        if horizon:
            parts.append(
                f"sim={sim.now / 1e9:.2f}ms/{horizon / 1e9:.2f}ms"
                f" ({100.0 * sim.now / horizon:.1f}%)"
            )
        else:
            # census: a tick before the drive loop names its horizon — tests/obs/test_progress.py::TestHeartbeat::test_heartbeat_without_horizon_or_flows
            parts.append(f"sim={sim.now / 1e9:.2f}ms")
        parts.append(f"events/s={_fmt_rate(events_per_s)}")
        eta = None
        if completed is not None and self._total:
            parts.append(f"flows={completed}/{self._total}")
            elapsed = time.monotonic() - self._t0
            if completed > 0 and elapsed > 1e-9:
                eta = (self._total - completed) * elapsed / completed
        if horizon and simps_per_s > 0:
            horizon_eta = (horizon - sim.now) / simps_per_s
            eta = horizon_eta if eta is None else min(eta, horizon_eta)
        parts.append(f"eta={_fmt_eta(eta)}")
        print(" ".join(parts), file=self.stream, flush=True)

    def finish(self, sim=None, completed: Optional[int] = None,
               total: Optional[int] = None) -> None:
        """Final summary line with run totals."""
        elapsed = time.monotonic() - self._t0
        parts = ["[progress]"]
        if self.label:
            parts.append(self.label)
        parts.append("done")
        if sim is not None:
            parts.append(f"sim={sim.now / 1e9:.2f}ms")
            parts.append(f"events={_fmt_rate(sim.events_dispatched)}")
            if elapsed > 1e-9:
                parts.append(f"events/s={_fmt_rate(sim.events_dispatched / elapsed)}")
        if completed is not None:
            tot = total if total is not None else self._total
            parts.append(
                f"flows={completed}/{tot}" if tot is not None else f"flows={completed}"
            )
        parts.append(f"wall={elapsed:.1f}s")
        print(" ".join(parts), file=self.stream, flush=True)
