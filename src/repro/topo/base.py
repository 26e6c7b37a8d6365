"""Topology container: nodes, wires, and path arithmetic.

A :class:`Topology` owns the simulator's node population and records the
physical wiring in one insertion-ordered adjacency map, :attr:`Topology.adj`
(``name -> {neighbour -> link attrs}``), which the routing installers and
the path arithmetic read directly; :meth:`Topology.edges` lists every link
once in a fixed order (shard cut indices and flow-level link ids are
positions in it).  It also computes per-flow base RTTs (the ``T`` of
Alg. 3) from store-and-forward first-packet latency in both directions.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.host import Host
from repro.net.port import connect
from repro.net.switch import Switch, SwitchConfig
from repro.routing.tables import bfs_distances
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.transport.sender import TransportConfig
from repro.units import ACK_SIZE, DEFAULT_MTU, serialization_ps, us


class LinkSpec:
    """Default physical parameters for new links (paper §5: 100 Gb/s links
    with 1.5 µs propagation delay)."""

    __slots__ = ("rate_gbps", "prop_delay_ps")

    def __init__(self, rate_gbps: float = 100.0, prop_delay_ps: int = us(1.5)) -> None:
        if rate_gbps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_gbps = rate_gbps
        self.prop_delay_ps = prop_delay_ps


class Topology:
    """Nodes + wiring (the adjacency map) + routing and RTT math on it."""

    def __init__(
        self,
        sim: Simulator,
        seeds: Optional[SeedSequenceFactory] = None,
        default_link: Optional[LinkSpec] = None,
        switch_config: Optional[SwitchConfig] = None,
        transport_config: Optional[TransportConfig] = None,
    ) -> None:
        self.sim = sim
        self.seeds = seeds or SeedSequenceFactory(1)
        self.default_link = default_link or LinkSpec()
        self.switch_config = switch_config or SwitchConfig()
        # Topology-owned copy: every host shares it (so install-time
        # adjustments like the LB layer's reorder window reach receivers
        # registered later), but a caller's config object passed to several
        # topologies is never mutated behind their back.
        self.transport_config = copy.copy(transport_config) if transport_config else TransportConfig()
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        # The wiring: name -> {neighbour -> attrs}, nodes in creation order,
        # a node's neighbours in the order its links were added; both
        # directions of a link share one attrs dict (ports, rate_gbps,
        # prop_delay_ps).  Everything else here is derived from it.
        self.adj: Dict[str, Dict[str, dict]] = {}
        self._dist: Dict[str, Dict[str, int]] = {}  # dst name -> hop counts
        self._by_name: Dict[str, object] = {}
        # Set by repro.lb.install_lb: the installed strategy config (None
        # for hand-wired routing).
        self.lb_config = None
        # Bumped by install_lb on every (re)install; consumers that cache
        # routing decisions outside the switches (the flow-level path memo)
        # compare against it instead of hooking the install path.
        self.routing_epoch = 0

    # -- construction ------------------------------------------------------------
    def add_host(self, name: str, cnp_enabled: bool = False) -> Host:
        if name in self._by_name:
            raise ValueError(f"duplicate node name {name}")
        host = Host(
            self.sim,
            name,
            host_id=len(self.hosts),
            transport=self.transport_config,
            cnp_enabled=cnp_enabled,
        )
        self.hosts.append(host)
        self._by_name[name] = host
        self.adj[name] = {}
        self._dist.clear()
        return host

    def add_switch(self, name: str, config: Optional[SwitchConfig] = None) -> Switch:
        if name in self._by_name:
            raise ValueError(f"duplicate node name {name}")
        sw = Switch(self.sim, name, config or self.switch_config)
        if sw.config.ecn is not None:
            sw.set_ecn_rng(self.seeds.stream(f"ecn.{name}"))
        self.switches.append(sw)
        self._by_name[name] = sw
        self.adj[name] = {}
        self._dist.clear()
        return sw

    def link(
        self,
        a,
        b,
        rate_gbps: Optional[float] = None,
        prop_delay_ps: Optional[int] = None,
    ) -> Tuple:
        """Wire ``a`` and ``b`` (nodes or names) with a full-duplex link."""
        node_a = self._by_name[a] if isinstance(a, str) else a
        node_b = self._by_name[b] if isinstance(b, str) else b
        rate = rate_gbps if rate_gbps is not None else self.default_link.rate_gbps
        delay = (
            # census: a link with its own propagation delay — tests/topo/test_topologies.py::TestTopologyContainer::test_a_link_takes_its_own_delay
            prop_delay_ps
            if prop_delay_ps is not None
            else self.default_link.prop_delay_ps
        )
        pa, pb = connect(self.sim, node_a, node_b, rate, delay)
        attrs = {
            "ports": {node_a.name: pa.index, node_b.name: pb.index},
            "rate_gbps": rate,
            "prop_delay_ps": delay,
        }
        self.adj[node_a.name][node_b.name] = attrs
        self.adj[node_b.name][node_a.name] = attrs
        self._dist.clear()
        return pa, pb

    def edges(self) -> Iterator[Tuple[str, str, dict]]:
        """Every link once, as ``(u, v, attrs)``: grouped by the endpoint
        created first, a node's links in the order they were added (the
        order a ``networkx.Graph`` built link by link lists them).  The
        order depends on construction alone, so every process that builds
        the same topology enumerates the same links at the same positions."""
        seen = set()
        for u, nbrs in self.adj.items():
            for v, attrs in nbrs.items():
                if v not in seen:
                    yield u, v, attrs
            seen.add(u)

    def node(self, name: str):
        return self._by_name[name]

    def start(self) -> None:
        """Arm periodic switch machinery (INT table refresh, etc.)."""
        for sw in self.switches:
            sw.start()

    # -- path arithmetic ----------------------------------------------------------
    def path_names(self, src_host_id: int, dst_host_id: int) -> List[str]:
        """One shortest path (node names), deterministic tie-break."""
        src = self.hosts[src_host_id].name
        dst = self.hosts[dst_host_id].name
        dist = self._dist.get(dst)
        if dist is None:
            dist = self._dist[dst] = bfs_distances(self.adj, dst)
        if src not in dist:
            raise ValueError(f"no path between {src} and {dst}")
        # Of all shortest paths the smallest as a tuple of names: every one
        # has the same length, so taking the smallest next name that is one
        # hop nearer at each step decides the comparison in order.
        adj = self.adj
        path = [src]
        cur = src
        for d in range(dist[src] - 1, -1, -1):
            cur = min(v for v in adj[cur] if dist.get(v) == d)
            path.append(cur)
        return path

    def path_links(
        self, src_host_id: int, dst_host_id: int
    ) -> List[Tuple[float, int]]:
        """``(rate_gbps, prop_delay_ps)`` per link along one shortest path."""
        names = self.path_names(src_host_id, dst_host_id)
        links = []
        for u, v in zip(names, names[1:]):
            e = self.adj[u][v]
            links.append((e["rate_gbps"], e["prop_delay_ps"]))
        return links

    def base_rtt_ps(self, src_host_id: int, dst_host_id: int) -> int:
        """Unloaded RTT: store-and-forward MTU frame out, ACK back.

        This is the ``RTT`` of Eq. 4 and the ``T`` of Alg. 3.
        """
        links = self.path_links(src_host_id, dst_host_id)
        fwd = sum(serialization_ps(DEFAULT_MTU, r) + d for r, d in links)
        back = sum(serialization_ps(ACK_SIZE, r) + d for r, d in links)
        return fwd + back
