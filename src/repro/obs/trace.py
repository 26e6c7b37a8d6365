"""Structured event tracing with bounded ring buffers (DESIGN.md §8).

Categories map to the run's decision points:

* ``flow``   — flow lifecycle (start instants, completion spans with FCT)
* ``pfc``    — PAUSE/RESUME frame emission at switches
* ``lb``     — load-balancer reroute decisions (ConWeave-lite epochs)
* ``hybrid`` — tier demotions and epoch-exchange ticks of the hybrid backend
* ``cc``     — congestion-control pacing-rate changes

A tracer records every category; the ``cc`` hook is the only per-ACK one.

Train-safety contract (the hard constraint of the observability layer):
every hook :meth:`EventTracer.attach` installs is **train-safe** — it
never wraps a switch's ``receive`` or ``router``, so the frame-train gate
(``Switch._train_ok``) stays open and fingerprints are byte-identical
with the tracer on or off:

* ``_send_pfc`` wrappers are honored *by* the fused delivery pipeline
  (``Port._tx_deliver`` calls ``A._send_pfc`` through instance-attribute
  lookup) and only run when a control frame is actually emitted — a cold
  path by construction.
* Host-side hooks (``start_flow``, ``on_flow_received``, per-flow CC
  methods) live on endpoints, and trains never fuse into hosts.
* LB reroute events come from an explicit ``on_reroute`` callback slot the
  strategy exposes, invoked only on the (rare) reroute branch.


All buffers are bounded ``deque(maxlen=capacity)`` rings: a week-long run
cannot exhaust memory, and the flight recorder's "last N events" is just
the ring's tail.  Per-category emit totals keep counting after eviction.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.net.packet import PAUSE

#: The categories, all train-safe.
CATEGORIES = ("flow", "pfc", "lb", "hybrid", "cc")


class TraceEvent:
    """One trace record.  ``ph`` follows the Chrome trace-event phases this
    exports to: ``"i"`` instant, ``"X"`` complete (with ``dur_ps``)."""

    __slots__ = ("ts_ps", "cat", "name", "ph", "dur_ps", "args")

    def __init__(self, ts_ps: int, cat: str, name: str, ph: str = "i",
                 dur_ps: int = 0, args: Optional[dict] = None) -> None:
        self.ts_ps = ts_ps
        self.cat = cat
        self.name = name
        self.ph = ph
        self.dur_ps = dur_ps
        self.args = args

    def to_dict(self) -> dict:
        d = {"ts_ps": self.ts_ps, "cat": self.cat, "name": self.name, "ph": self.ph}
        if self.ph == "X":
            d["dur_ps"] = self.dur_ps
        if self.args:
            d["args"] = self.args
        return d


class EventTracer:
    """Ring-buffer tracer for one run.

    >>> tracer = EventTracer()
    >>> tracer.attach(topo)          # train-safe hooks only
    >>> ... run ...
    >>> export_chrome_trace("t.json", tracer)
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.events: deque = deque(maxlen=capacity)
        #: total emitted per category, *including* ring-evicted events.
        self.counts: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self._undo: List = []

    # -- core ---------------------------------------------------------------
    def emit(self, cat: str, name: str, ts_ps: int, ph: str = "i",
             dur_ps: int = 0, args: Optional[dict] = None) -> None:
        self.counts[cat] += 1
        self.events.append(TraceEvent(ts_ps, cat, name, ph, dur_ps, args))

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (emitted minus retained)."""
        return sum(self.counts.values()) - len(self.events)

    def tail(self, n: int) -> List[TraceEvent]:
        """The last ``n`` events (the flight recorder's dump window)."""
        if n >= len(self.events):
            return list(self.events)
        return list(self.events)[-n:]

    # -- hook installation (train-safe) -------------------------------------
    def attach(self, topo) -> None:
        """Install the train-safe hooks on a topology-like object
        (``.hosts`` / ``.switches``).  May be called for several fabrics
        (the hybrid backend rebuilds its packet fabric between refine
        rounds); :meth:`detach` unwinds everything."""
        switches = list(getattr(topo, "switches", ()))
        hosts = list(getattr(topo, "hosts", ()))
        for sw in switches:
            self._hook_pfc(sw)
        seen = set()
        for sw in switches:
            lb = getattr(sw, "lb", None)
            if lb is not None and id(lb) not in seen:
                seen.add(id(lb))
                self._hook_lb(lb)
        for host in hosts:
            self._hook_host(host)

    def detach(self) -> None:
        """Unwind every installed hook (reverse order, nested-safe)."""
        while self._undo:
            self._undo.pop()()

    def _hook_pfc(self, sw) -> None:
        # Instance-attribute wrapper: the fused train pipeline resolves
        # ``_send_pfc`` through the instance dict, so PAUSE/RESUME emission
        # is traced identically on the per-frame and fused paths — without
        # touching the train gate (PFC frames are rare, this is cold).
        orig = sw._send_pfc
        had = "_send_pfc" in sw.__dict__
        sim = sw.sim
        emit = self.emit

        def _send_pfc(port_idx: int, kind: int, _orig=orig) -> None:
            emit(
                "pfc",
                "pause" if kind == PAUSE else "resume",
                sim.now,
                args={"node": sw.name, "port": port_idx},
            )
            _orig(port_idx, kind)

        sw._send_pfc = _send_pfc

        def undo(sw=sw, orig=orig, had=had):
            if had:
                sw._send_pfc = orig
            else:
                del sw._send_pfc

        self._undo.append(undo)

    def _hook_lb(self, lb) -> None:
        # Strategies expose an ``on_reroute`` callback slot (None when
        # nobody listens); the router closure invokes it only on the
        # reroute branch.  No wrapper on ``router`` — gate stays open for
        # train-transparent strategies.
        if not hasattr(lb, "on_reroute") or lb.on_reroute is not None:
            return
        emit = self.emit

        def on_reroute(now, src, dst, flow_id, old_port, new_port):
            emit(
                "lb",
                "reroute",
                now,
                args={
                    "src": src,
                    "dst": dst,
                    "flow": flow_id,
                    "from_port": old_port,
                    "to_port": new_port,
                },
            )

        lb.on_reroute = on_reroute

        def undo(lb=lb):
            lb.on_reroute = None

        self._undo.append(undo)

    def _hook_host(self, host) -> None:
        # Hosts never fuse, so endpoint wrappers are train-safe.
        emit = self.emit
        sim = host.sim

        orig_start = host.start_flow
        had_start = "start_flow" in host.__dict__

        def start_flow(flow, cc, base_rtt_ps, _orig=orig_start):
            emit(
                "flow",
                "flow_start",
                max(flow.start_ps, sim.now),
                args={
                    "flow": flow.flow_id,
                    "size": flow.size_bytes,
                    "src": flow.src,
                    "dst": flow.dst,
                },
            )
            self._wrap_cc(cc, flow.flow_id, sim)
            return _orig(flow, cc, base_rtt_ps)

        host.start_flow = start_flow

        def undo_start(host=host, orig=orig_start, had=had_start):
            if had:
                host.start_flow = orig
            else:
                del host.start_flow

        self._undo.append(undo_start)

        orig_recv = host.on_flow_received
        had_recv = "on_flow_received" in host.__dict__

        def on_flow_received(rqp, _orig=orig_recv):
            f = rqp.flow
            emit(
                "flow",
                f"flow {f.flow_id} ({f.size_bytes}B)",
                f.start_ps,
                ph="X",
                dur_ps=sim.now - f.start_ps,
                args={"flow": f.flow_id, "size": f.size_bytes,
                      "fct_ps": sim.now - f.start_ps},
            )
            _orig(rqp)

        host.on_flow_received = on_flow_received

        def undo_recv(host=host, orig=orig_recv, had=had_recv):
            if had:
                host.on_flow_received = orig
            else:
                del host.on_flow_received

        self._undo.append(undo_recv)

    def _wrap_cc(self, cc, flow_id: int, sim) -> None:
        # Per-flow CC objects are run-owned and discarded with the fabric,
        # so these wrappers need no undo entry.  Emission only on an actual
        # rate change keeps the ring proportional to CC *decisions*.
        emit = self.emit
        orig_ack = cc.on_ack
        orig_cnp = cc.on_cnp

        def on_ack(qp, ack, _orig=orig_ack):
            before = qp.rate_gbps
            _orig(qp, ack)
            after = qp.rate_gbps
            if after != before:
                emit(
                    "cc",
                    "rate",
                    sim.now,
                    args={"flow": flow_id, "gbps": round(after, 3),
                          "prev_gbps": round(before, 3)},
                )

        def on_cnp(qp, _orig=orig_cnp):
            before = qp.rate_gbps
            _orig(qp)
            after = qp.rate_gbps
            if after != before:
                emit(
                    "cc",
                    "rate",
                    sim.now,
                    args={"flow": flow_id, "gbps": round(after, 3),
                          "prev_gbps": round(before, 3), "cnp": True},
                )

        cc.on_ack = on_ack
        cc.on_cnp = on_cnp
