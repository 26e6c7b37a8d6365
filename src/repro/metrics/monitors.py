"""Periodic samplers for the quantities the paper plots.

* :class:`QueueSampler` — egress queue length of one port (Figs. 1b-d, 9, 13).
* :class:`RateSampler` — a sender QP's pacing rate in Gb/s (Figs. 9b/d/f, 13d/e).
* :class:`UtilizationSampler` — bytes actually transmitted on a port per
  interval over capacity (Figs. 9g-h, 13a-c).
* :func:`port_totals` — every port counter summed over a set of nodes.
* :func:`pause_frame_count` — PAUSE frames emitted by switches (Fig. 3).
* :func:`pfc_frame_totals` — fabric-wide PAUSE/RESUME tx-vs-rx ledger, for
  reconciling the Fig. 3 counts (every sent frame must be received by the
  peer once the run drains).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable

from repro.metrics.series import TimeSeries
from repro.net.port import COUNTERS, PFC_COUNTERS
from repro.sim.timer import Periodic
from repro.units import serialization_ps, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import Port
    from repro.net.switch import Switch
    from repro.sim.engine import Simulator
    from repro.transport.sender import SenderQP


class _PeriodicSampler:
    """Shared sampler lifecycle: one :class:`Periodic`, one
    :class:`TimeSeries`, and registration with the owning
    :class:`Simulator` so ``sim.stop_monitors()`` (called by the flight
    recorder when a run raises) disarms every pending tick — without it,
    a sampler built in a ``try`` body leaked its ``Periodic`` into the
    heap forever.  ``stop`` is idempotent.
    """

    def __init__(self, sim: "Simulator", interval_ps: int, name: str,
                 first_offset: "int | None", lane: int = 0) -> None:
        self.series = TimeSeries(name)
        self._periodic = Periodic(sim, interval_ps, self._sample, lane)
        register = getattr(sim, "register_monitor", None)
        if register is not None:
            register(self)
        self._periodic.start(offset=first_offset)

    def stop(self) -> None:
        self._periodic.stop()


class QueueSampler(_PeriodicSampler):
    """Samples one egress queue's backlog (bytes) every ``interval_ps``."""

    def __init__(self, sim: "Simulator", port: "Port", interval_ps: int = us(1)) -> None:
        self.port = port
        super().__init__(
            sim, interval_ps, f"qlen:{port.node.name}.{port.index}",
            first_offset=0, lane=port.node.lane,
        )

    def _sample(self, now: int) -> None:
        self.series.append(now, float(self.port.qbytes_total))


class RateSampler(_PeriodicSampler):
    """Samples a sender QP's current pacing rate (Gb/s)."""

    def __init__(self, sim: "Simulator", qp: "SenderQP", interval_ps: int = us(1)) -> None:
        self.qp = qp
        super().__init__(
            sim, interval_ps, f"rate:flow{qp.flow.flow_id}",
            first_offset=0, lane=qp.host.lane,
        )

    def _sample(self, now: int) -> None:
        qp = self.qp
        if qp.finished or now < qp.start_ps:
            rate = 0.0
        else:
            rate = min(qp.rate_gbps, qp.line_rate_gbps)
        self.series.append(now, rate)


class UtilizationSampler(_PeriodicSampler):
    """Fraction of a port's capacity used per interval (achieved goodput of
    the link, the paper's 'utilization')."""

    def __init__(self, sim: "Simulator", port: "Port", interval_ps: int = us(5)) -> None:
        self.port = port
        self.interval_ps = interval_ps
        self._last_tx_bytes = port.tx_bytes
        # First tick at one full interval (no offset-0 sample): a delta
        # sampler has nothing to report at t=0.
        super().__init__(
            sim, interval_ps, f"util:{port.node.name}.{port.index}",
            first_offset=None, lane=port.node.lane,
        )

    def _sample(self, now: int) -> None:
        tx = self.port.tx_bytes
        delta = tx - self._last_tx_bytes
        self._last_tx_bytes = tx
        capacity_time = serialization_ps(delta, self.port.rate_gbps)
        self.series.append(now, min(1.0, capacity_time / self.interval_ps))


def port_totals(nodes: Iterable[object]) -> Dict[str, int]:
    """Each of :data:`~repro.net.port.COUNTERS` summed over every port of
    ``nodes`` (hosts and switches alike).  ``tx_packets`` is the
    simulated-work unit, frames delivered across any link (frame-hops):
    frames that rode the fused train path count individually, as the train
    machinery increments the same per-frame counters."""
    ports = [port for node in nodes for port in node.ports]
    return {name: sum(map(attrgetter(name), ports)) for name in COUNTERS}


def pause_frame_count(switches: Iterable["Switch"]) -> int:
    """Total PAUSE frames emitted by the given switches (Fig. 3's metric)."""
    return port_totals(switches)["pause_sent"]


def pfc_frame_totals(nodes: Iterable[object]) -> Dict[str, int]:
    """The :data:`~repro.net.port.PFC_COUNTERS` entries of
    :func:`port_totals`.

    On a drained fabric the ledger balances: ``pause_sent ==
    pause_received`` and ``resume_sent == resume_received`` (each control
    frame is delivered to exactly one peer port).  A mismatch on a
    finished run means frames were stranded on a wire or a counter went
    asymmetric — the bug the ``resume_received`` counter was added to
    catch."""
    totals = port_totals(nodes)
    return {name: totals[name] for name in PFC_COUNTERS}
