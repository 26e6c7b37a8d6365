"""Fault-plan execution: the :class:`FaultInjector` (DESIGN.md §10).

The injector turns a :class:`~repro.faults.plan.FaultPlan` into ordinary
engine events at **arm time**: every schedule call, every flap-jitter
draw, and every wrapper installation happens in one deterministic pass
before the run starts, so two runs arming the same plan against the same
seed interleave fault events with traffic identically (same event seqs,
same tie-breaks — DESIGN.md §4.1).

Interception model
------------------
Faults act at *delivery*: a node named by any link/loss/fail spec gets one
instance-dict ``receive`` wrapper installed at arm time.  The wrapper
consults per-node filter state — dead in-ports (link down), a fail-stop
flag (switch fail), and per-in-port loss filters (gray loss) — and
either drops the frame (``Port.drops``, the drop convention of
``net/switch.py``) or forwards to the original ``receive``.
Installing an instance-dict ``receive`` closes the frame-train gate on
that switch via the single-definition predicate
(``Switch._recompute_train_ok``), so fused trains can never bypass a
fault — the protocol every ``receive`` wrapper on a switch follows.

Nodes not named by the plan are untouched: arming ``FaultPlan.noop()``
installs nothing and schedules nothing, which is how ``faults=None`` is
proved zero-perturbation
(``tests/faults/test_inject.py::test_noop_plan_is_zero_perturbation``).

Recovery wiring
---------------
Link transitions notify each endpoint's load balancer
(``on_link_down``/``on_link_up`` — :mod:`repro.lb.base`), clear the
frame-train route memos on all adjacent ports, and bump
``topo.routing_epoch``, mirroring the cache discipline of
:func:`repro.lb.base.install_lb`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.audit import FaultAuditor
from repro.faults.plan import FaultPlan
from repro.net.packet import PAUSE, Packet
from repro.units import PAUSE_FRAME_SIZE

__all__ = ["FaultInjector"]

#: counter keys, in report order.
COUNTERS = (
    "events",
    "drops_link_down",
    "drops_switch_fail",
    "drops_gray",
    "storm_pauses",
)


class _NodeState:
    """Per-node fault filter state consulted by the receive wrapper."""

    __slots__ = ("node", "dead_in", "filters", "fail_all")

    def __init__(self, node) -> None:
        self.node = node
        self.dead_in = set()  # in-port indices with a dead peer link
        self.filters: Dict[int, list] = {}  # in-port -> [[prob, counter_key], ...]
        self.fail_all = False


class FaultInjector:
    """Arms one :class:`FaultPlan` against one live simulation.

    >>> inj = FaultInjector(plan).arm(sim, topo, seeds=topo.seeds)
    >>> ... run ...
    >>> inj.counters["drops_link_down"]
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise TypeError(f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.sim = None
        self.topo = None
        self.auditor: Optional[FaultAuditor] = None
        self.counters: Dict[str, int] = {k: 0 for k in COUNTERS}
        #: chronological record of executed fault events (flight dump).
        self.timeline: List[dict] = []
        self._rng = None
        self._states: Dict[str, _NodeState] = {}
        self._undo: List = []
        self._dead_links = set()
        self._failed_switches = set()
        self._loss_active: List[dict] = []

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self, sim, topo, seeds=None) -> "FaultInjector":
        """Resolve the plan against ``topo``, install wrappers, schedule
        every fault event, and mark the run (``sim.faults = self``).  One
        deterministic pass; raises before perturbing anything if a spec
        names an unknown node or link."""
        if self.sim is not None:
            raise RuntimeError("FaultInjector is already armed")
        self.sim = sim
        self.topo = topo
        specs = self.plan.specs
        if seeds is None:
            seeds = getattr(topo, "seeds", None)
        if seeds is not None:
            self._rng = seeds.stream(f"faults.{self.plan.name}")
        self._validate(specs)
        # One wrapper per intercepting node, installed up front so the
        # train gate state is fixed for the whole run (not a mid-run
        # perturbation source).
        for name in self._intercepted_nodes(specs):
            self._install_wrapper(name)
        for spec in specs:
            self._schedule(spec)
        self.auditor = FaultAuditor(topo, faults=self)
        sim.faults = self
        return self

    # -- resolution helpers ---------------------------------------------

    def _edge_ports(self, a: str, b: str) -> Dict[str, int]:
        try:
            return self.topo.adj[a][b]["ports"]
        except KeyError:
            raise ValueError(f"fault plan {self.plan.name!r}: no link {a!r}-{b!r}")

    def _node(self, name: str):
        try:
            return self.topo.node(name)
        except KeyError:
            raise ValueError(f"fault plan {self.plan.name!r}: no node {name!r}")

    def _validate(self, specs) -> None:
        for spec in specs:
            kind = spec["kind"]
            if kind in ("link_down", "link_flap", "gray_loss"):
                self._edge_ports(spec["a"], spec["b"])
            elif kind == "switch_fail":
                self._node(spec["switch"])
            elif kind == "pfc_storm":
                self._node(spec["switch"])
                self._edge_ports(spec["switch"], spec["toward"])
            if self._rng is None and (
                kind == "gray_loss" or (kind == "link_flap" and spec["jitter_ps"])
            ):
                raise ValueError(
                    f"fault plan {self.plan.name!r} has stochastic specs but no "
                    "seed factory; pass seeds= (or build the topology with one)"
                )

    def _intercepted_nodes(self, specs) -> List[str]:
        names: List[str] = []

        def add(name: str) -> None:
            if name not in names:
                names.append(name)

        for spec in specs:
            kind = spec["kind"]
            if kind in ("link_down", "link_flap"):
                add(spec["a"])
                add(spec["b"])
            elif kind == "switch_fail":
                add(spec["switch"])
            elif kind == "gray_loss":
                add(spec["b"])  # loss is applied at the receiving end
        return names

    def _install_wrapper(self, name: str) -> None:
        node = self._node(name)
        st = self._states[name] = _NodeState(node)
        orig = node.receive  # instance wrapper if present, else class method
        had = "receive" in node.__dict__
        counters = self.counters
        rng = self._rng
        ports = node.ports

        def receive(pkt, in_port: int, _orig=orig, _st=st) -> None:
            if _st.fail_all:
                ports[in_port].drops += 1
                counters["drops_switch_fail"] += 1
                return
            if in_port in _st.dead_in:
                ports[in_port].drops += 1
                counters["drops_link_down"] += 1
                return
            fl = _st.filters.get(in_port)
            if fl is not None and pkt.kind < PAUSE:
                # Control frames are exempt: losing PAUSE/RESUME corrupts
                # the pause ledger, a different pathology than gray loss.
                for rec in fl:
                    if rng.random() < rec[0]:
                        ports[in_port].drops += 1
                        counters[rec[1]] += 1
                        return
            _orig(pkt, in_port)

        node.receive = receive
        self._undo.append((node, had, orig))
        rec = getattr(node, "_recompute_train_ok", None)
        if rec is not None:
            # Single-definition gate: an instance-dict ``receive`` closes
            # the frame-train fast path on this switch.
            rec()

    # -- scheduling ------------------------------------------------------

    def _schedule(self, spec: dict) -> None:
        sim = self.sim
        kind = spec["kind"]
        if kind == "link_down":
            sim.schedule_at(spec["at_ps"], self._fire_link, (spec["a"], spec["b"], True))
        elif kind == "link_flap":
            # Expand the train now; one jitter draw per flap cycle keeps
            # the expansion reproducible and down/up strictly ordered.
            a, b = spec["a"], spec["b"]
            jitter = spec["jitter_ps"]
            t = spec["start_ps"]
            for _ in range(spec["flaps"]):
                j = self._rng.randrange(jitter + 1) if jitter else 0
                sim.schedule_at(t + j, self._fire_link, (a, b, True))
                sim.schedule_at(t + j + spec["down_ps"], self._fire_link, (a, b, False))
                t += spec["down_ps"] + spec["up_ps"]
        elif kind == "switch_fail":
            sim.schedule_at(spec["at_ps"], self._fire_switch_fail, spec["switch"])
        elif kind == "gray_loss":
            ports = self._edge_ports(spec["a"], spec["b"])
            rec = [spec["prob"], "drops_gray"]
            win = {
                "kind": kind,
                "a": spec["a"],
                "b": spec["b"],
                "prob": spec["prob"],
                "end_ps": spec["end_ps"],
            }
            arg = (spec["b"], ports[spec["b"]], rec, win)
            sim.schedule_at(spec["start_ps"], self._fire_loss_on, arg)
            sim.schedule_at(spec["end_ps"], self._fire_loss_off, arg)
        elif kind == "pfc_storm":
            ports = self._edge_ports(spec["switch"], spec["toward"])
            until = spec["start_ps"] + spec["duration_ps"]
            arg = (
                self._node(spec["switch"]),
                ports[spec["switch"]],
                until,
                spec["interval_ps"],
            )
            sim.schedule_at(spec["start_ps"], self._fire_storm_start, arg)

    # -- event handlers --------------------------------------------------

    def _log(self, name: str, **args) -> None:
        self.counters["events"] += 1
        entry = {"ts_ps": self.sim.now, "event": name}
        entry.update(args)
        self.timeline.append(entry)

    def _fire_link(self, arg) -> None:
        a, b, down = arg
        key = (a, b) if a <= b else (b, a)
        if down:
            if key in self._dead_links:
                return  # overlapping flap/down specs: already dead
            self._dead_links.add(key)
        else:
            if key not in self._dead_links:
                return
            self._dead_links.discard(key)
        ports = self._edge_ports(a, b)
        endpoints = ((self._node(a), ports[a]), (self._node(b), ports[b]))
        for node, idx in endpoints:
            st = self._states.get(node.name)
            if st is not None:
                if down:
                    st.dead_in.add(idx)
                else:
                    st.dead_in.discard(idx)
        self._reroute(endpoints, down)
        self._log("link_down" if down else "link_up", a=a, b=b)

    def _fire_switch_fail(self, name: str) -> None:
        node = self._node(name)
        st = self._states[name]
        if st.fail_all:
            return
        st.fail_all = True
        self._failed_switches.add(name)
        # Every neighbour loses its port toward the dead switch.
        endpoints = []
        for port in node.ports:
            peer = port.peer
            if peer is not None:
                endpoints.append((peer.node, peer.index))
        self._reroute(endpoints, True)
        self._log("switch_fail", switch=name)

    def _reroute(self, endpoints, down: bool) -> None:
        """LB failover + route-memo invalidation, mirroring install_lb."""
        for node, idx in endpoints:
            lb = getattr(node, "lb", None)
            if lb is not None:
                cb = getattr(lb, "on_link_down" if down else "on_link_up", None)
                if cb is not None:
                    cb(idx)
            for port in getattr(node, "ports", ()):
                port._rt_cache.clear()
                peer = port.peer
                if peer is not None:
                    peer._rt_cache.clear()
        topo = self.topo
        topo.routing_epoch = getattr(topo, "routing_epoch", 0) + 1

    def _fire_loss_on(self, arg) -> None:
        name, in_port, rec, win = arg
        self._states[name].filters.setdefault(in_port, []).append(rec)
        self._loss_active.append(win)
        self._log("loss_on", kind=win["kind"], a=win["a"], b=win["b"], prob=win["prob"])

    def _fire_loss_off(self, arg) -> None:
        name, in_port, rec, win = arg
        fl = self._states[name].filters.get(in_port)
        if fl is not None and rec in fl:
            fl.remove(rec)
            if not fl:
                del self._states[name].filters[in_port]
        if win in self._loss_active:
            self._loss_active.remove(win)
        self._log("loss_off", kind=win["kind"], a=win["a"], b=win["b"])

    def _fire_storm_start(self, arg) -> None:
        sw, in_port, until, interval = arg
        self._log("pfc_storm_start", switch=sw.name, port=in_port)
        self._storm_tick(arg)

    def _storm_tick(self, arg) -> None:
        sw, in_port, until, interval = arg
        frame = Packet(PAUSE, size=PAUSE_FRAME_SIZE)
        # Delivered through the ordinary control path: the victim's PFC
        # watchdog (if armed) sees exactly what a hung neighbour produces.
        sw.receive(frame, in_port)
        self.counters["storm_pauses"] += 1
        sim = self.sim
        if sim.now + interval <= until:
            sim.schedule(interval, self._storm_tick, arg)
        else:
            self._log("pfc_storm_end", switch=sw.name, port=in_port)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def flight_state(self) -> dict:
        """The ``faults`` section of the flight-dump schema (obs/flight.py)."""
        doc = {
            "plan": self.plan.name,
            "specs": len(self.plan.specs),
            "counters": dict(self.counters),
            "timeline": self.timeline[-256:],
            "active": {
                "dead_links": sorted(list(k) for k in self._dead_links),
                "failed_switches": sorted(self._failed_switches),
                "loss_windows": list(self._loss_active),
            },
        }
        if self.auditor is not None:
            doc["audit"] = self.auditor.audit(quiescent=False)
        return doc
