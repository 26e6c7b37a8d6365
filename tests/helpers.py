"""Cross-directory test helpers (importable because conftest.py puts the
tests/ directory on sys.path)."""

import threading
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple
from unittest import mock

from repro.experiments.common import build_cc_env, launch_flows
from repro.net.node import Node
from repro.net.packet import KIND_NAMES, Packet
from repro.net.port import Port
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.units import MB, us


def make_dumbbell(sim, cc="fncc", n_senders=2, rate=100.0, **env_kw):
    """A wired dumbbell with the CC's switch config applied."""
    env = build_cc_env(cc, link_rate_gbps=rate, **env_kw)
    topo = dumbbell(
        sim,
        n_senders=n_senders,
        n_switches=3,
        link=LinkSpec(rate_gbps=rate, prop_delay_ps=us(1.5)),
        switch_config=env.switch_config,
        seeds=SeedSequenceFactory(7),
        cnp_enabled=env.cnp_enabled,
    )
    env.post_install(topo)
    return topo, env


def run_one_flow(sim, topo, env, size_bytes=2 * MB, src=0, horizon_us=5000):
    """Start a single flow and run to completion; returns the receiver QP."""
    dst = topo.hosts[-1].host_id
    flow = Flow(0, src, dst, size_bytes)
    launch_flows(topo, [flow], env)
    sim.run(until=us(horizon_us))
    return topo.hosts[dst].receivers[0]


def classic_hops_only():
    """Reference mode for the fused-vs-classic equivalence suites: a context
    manager under which every port built and run takes the classic
    ``on_departure -> receive -> enqueue`` chain on every hop.

    The product has no such switch — the port picks the path itself — so
    this patches the port's one-time classification to find no fusable
    peer, which also keeps the commit window at its un-widened
    ``commit_lookahead``, and no stock switch of its own, so departure
    bookkeeping goes through ``_departure_hook`` — a *call* to
    ``Switch.on_departure`` — and the reference side cannot share a bug
    with the copy ``Port._tx_deliver`` inlines.  Callers keep the
    engagement guards honest: ``train_frames == 0`` inside the block,
    ``> 0`` outside it."""
    stock = Port._classify_train_path

    def classify(port):
        stock(port)
        port._peer_sw = port._own_sw = None

    return mock.patch.object(Port, "_classify_train_path", classify)


@contextmanager
def live_thread():
    """A second thread, blocked on an event, for the duration of the block:
    the condition under which ``repro.exec.executor.worker_context`` spawns
    workers instead of forking them."""
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        yield
    finally:
        release.set()
        helper.join()


def train_gate_open(sw) -> bool:
    """Whether the frame-train fast path may forward fused bursts through
    ``sw`` (recomputed from live state, as ``Switch._recompute_train_ok``
    defines it): a static per-flow strategy installed and unswapped on an
    untapped, storm-free switch."""
    sw._recompute_train_ok()
    return sw._train_ok


# -- PacketTap: capture at a node, and the switch's train-gate protocol --------
#
# A receive wrapper on a switch must close the frame-train pass-through gate
# for its lifetime and recompute it on removal (DESIGN.md §2.2); FaultInjector
# is the simulator's own wrapper, this is the tests' instrument.

Predicate = Callable[[Packet], bool]


class PacketTap:
    """Records packets arriving at one node.

    >>> tap = PacketTap(host, kind=ACK, flow_id=3)
    >>> ... run ...
    >>> tap.count, tap.packets[0]

    A record holds the frame itself, not a copy: identity fields (kind,
    flow, seq) stay as captured, while fields the fabric writes further
    downstream (``hops``, ``in_port``, ``ecn``, ``int_records``) read their
    final values.
    """

    def __init__(
        self,
        node: Node,
        kind: Optional[int] = None,
        flow_id: Optional[int] = None,
        predicate: Optional[Predicate] = None,
        max_packets: int = 1_000_000,
    ) -> None:
        self.node = node
        self.kind = kind
        self.flow_id = flow_id
        self.predicate = predicate
        self.max_packets = max_packets
        self.records: List[Tuple[int, Packet]] = []
        self.dropped = 0  # records beyond max_packets
        self._orig = node.receive
        self._installed = True
        # Tapping a switch forces the frame-train fast path (DESIGN.md
        # §2.2) back to per-frame delivery through this node, so the spy
        # observes every frame individually: clear the train pass-through
        # gate for the tap's lifetime.  (Hosts need nothing — trains never
        # fuse into hosts.)  Ad-hoc spies that wrap a *switch's* receive
        # without going through PacketTap must do the same.
        self._gated_switch = hasattr(node, "_train_ok")
        if self._gated_switch:
            node._train_ok = False
        # Remember whether ``receive`` was already an instance attribute
        # (a nested tap / earlier spy): uninstall must delete our wrapper
        # rather than assign the bound original back, or the instance dict
        # would keep shadowing the class method forever (and keep the
        # train gate closed).
        self._had_instance_receive = "receive" in node.__dict__
        node.receive = self._spy  # type: ignore[method-assign]

    def _matches(self, pkt: Packet) -> bool:
        if self.kind is not None and pkt.kind != self.kind:
            return False
        if self.flow_id is not None and pkt.flow_id != self.flow_id:
            return False
        if self.predicate is not None and not self.predicate(pkt):
            return False
        return True

    def _spy(self, pkt: Packet, in_port: int) -> None:
        if self._matches(pkt):
            if len(self.records) < self.max_packets:
                self.records.append((self.node.sim.now, pkt))
            else:
                self.dropped += 1
        self._orig(pkt, in_port)

    def uninstall(self) -> None:
        """Restore the node's original receive method (and the train
        pass-through gate on switches)."""
        if self._installed:
            node = self.node
            if self._had_instance_receive:
                node.receive = self._orig  # type: ignore[method-assign]
            else:
                del node.receive  # pristine: the class method resurfaces
            if self._gated_switch:
                # Recompute rather than restore a snapshot: the strategy
                # may have been reinstalled while the tap was up (a
                # snapshot would clobber the newer gate value), and with
                # nested taps the outermost uninstall re-derives the truth
                # (an inner wrapper still in __dict__ keeps the gate
                # closed).  Single definition: Switch._recompute_train_ok.
                node._recompute_train_ok()
            self._installed = False

    # -- conveniences -----------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def packets(self) -> List[Packet]:
        return [p for _, p in self.records]

    @property
    def times(self) -> List[int]:
        return [t for t, _ in self.records]

    def inter_arrival_ps(self) -> List[int]:
        ts = self.times
        return [b - a for a, b in zip(ts, ts[1:])]

    def summary(self) -> str:
        by_kind: dict = {}
        for _, p in self.records:
            by_kind[p.kind] = by_kind.get(p.kind, 0) + 1
        parts = ", ".join(
            f"{KIND_NAMES.get(k, k)}={n}" for k, n in sorted(by_kind.items())
        )
        return f"<PacketTap {self.node.name}: {self.count} pkts ({parts})>"
