"""Jellyfish (Singla et al., NSDI'12): random regular switch graph.

Used here to exercise Observation 2's spanning-tree routing: on Jellyfish,
shortest-path ECMP is generally *asymmetric*, so FNCC's requirement that
data and ACK share a path needs the multiple-spanning-tree scheme of
Fig. 6 (:func:`repro.routing.install_spanning_trees`).
"""

from __future__ import annotations

from typing import Optional

from repro.net.switch import SwitchConfig
from repro.routing import install_spanning_trees
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec, Topology
from repro.transport.sender import TransportConfig


def jellyfish(
    sim: Simulator,
    n_switches: int = 8,
    switch_degree: int = 4,
    hosts_per_switch: int = 1,
    link: Optional[LinkSpec] = None,
    switch_config: Optional[SwitchConfig] = None,
    transport_config: Optional[TransportConfig] = None,
    seeds: Optional[SeedSequenceFactory] = None,
    n_trees: int = 3,
    cnp_enabled: bool = False,
    lb=None,
) -> Topology:
    """Random ``switch_degree``-regular switch fabric with
    ``hosts_per_switch`` hosts hanging off each switch.  ``lb=None`` keeps
    the paper's spanning-tree routing (symmetric by construction); passing
    an :class:`repro.lb.LbConfig`/strategy name installs shortest-path
    multi-path routing under that strategy instead (generally *asymmetric*
    on Jellyfish — the Observation 2 regime the lbmatrix experiment
    probes)."""
    import networkx as nx

    if switch_degree >= n_switches:
        raise ValueError("degree must be below the switch count")
    if (n_switches * switch_degree) % 2:
        raise ValueError("n_switches * switch_degree must be even")
    topo = Topology(
        sim,
        seeds=seeds,
        default_link=link,
        switch_config=switch_config,
        transport_config=transport_config,
    )
    seed = topo.seeds.child_seed("jellyfish") % (2**31)
    rrg = nx.random_regular_graph(switch_degree, n_switches, seed=seed)
    if not nx.is_connected(rrg):  # rare for the sizes used; retry once
        rrg = nx.random_regular_graph(switch_degree, n_switches, seed=seed + 1)
        if not nx.is_connected(rrg):
            raise RuntimeError("could not build a connected Jellyfish graph")
    switches = [topo.add_switch(f"sw{i}") for i in range(n_switches)]
    for u, v in sorted(rrg.edges):
        topo.link(switches[u], switches[v])
    for i, sw in enumerate(switches):
        for h in range(hosts_per_switch):
            host = topo.add_host(f"h{i}_{h}", cnp_enabled=cnp_enabled)
            topo.link(host, sw)
    if lb is None:
        install_spanning_trees(topo, n_trees=n_trees, seed=topo.seeds.root_seed)
    else:
        from repro.lb import install_lb

        install_lb(topo, lb)
    topo.start()
    return topo
