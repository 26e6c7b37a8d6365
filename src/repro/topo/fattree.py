"""Three-level fat-tree (the §5.5 large-scale fabric).

Standard k-ary fat-tree: k pods, each with k/2 edge (ToR) and k/2
aggregation switches; (k/2)^2 core switches; k/2 hosts per ToR, so k^3/4
hosts total (k=8 gives the paper's 128 servers, k=4 a 16-server scale
model).  1:1 oversubscription: every link runs at the same rate, as in the
paper.

Naming is chosen so that sorted-neighbor ECMP is symmetric (see
:mod:`repro.routing.ecmp`): aggregation switch ``agg_{pod}_{i}`` connects to
cores ``core_{i}_{j}``, so picking up-link index j at level 2 reaches the
same core from any pod.
"""

from __future__ import annotations

from typing import Optional

from repro.lb import install_lb
from repro.net.switch import SwitchConfig
from repro.routing import install_ecmp
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec, Topology
from repro.transport.sender import TransportConfig


def fattree_wiring(
    sim: Simulator,
    k: int = 4,
    link: Optional[LinkSpec] = None,
    switch_config: Optional[SwitchConfig] = None,
    transport_config: Optional[TransportConfig] = None,
    seeds: Optional[SeedSequenceFactory] = None,
    cnp_enabled: bool = False,
) -> Topology:
    """The fat-tree's nodes and links with nothing installed or started:
    what :func:`fattree` routes, and all the shard planner needs (names,
    adjacency, propagation delays)."""
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
    half = k // 2
    topo = Topology(
        sim,
        seeds=seeds,
        default_link=link,
        switch_config=switch_config,
        transport_config=transport_config,
    )

    cores = [
        [topo.add_switch(f"core_{i}_{j}") for j in range(half)] for i in range(half)
    ]
    for pod in range(k):
        aggs = [topo.add_switch(f"agg_{pod}_{i}") for i in range(half)]
        tors = [topo.add_switch(f"tor_{pod}_{e}") for e in range(half)]
        for i, agg in enumerate(aggs):
            for j in range(half):
                topo.link(agg, cores[i][j])
            for tor in tors:
                topo.link(tor, agg)
        for e, tor in enumerate(tors):
            for h in range(half):
                host = topo.add_host(
                    f"h_{pod}_{e}_{h}", cnp_enabled=cnp_enabled
                )
                topo.link(host, tor)
    return topo


def fattree(
    sim: Simulator,
    k: int = 4,
    link: Optional[LinkSpec] = None,
    switch_config: Optional[SwitchConfig] = None,
    transport_config: Optional[TransportConfig] = None,
    seeds: Optional[SeedSequenceFactory] = None,
    cnp_enabled: bool = False,
    lb=None,
) -> Topology:
    """``lb`` selects the load-balancing strategy (an
    :class:`repro.lb.LbConfig` or a strategy name); None keeps the
    symmetric-ECMP baseline."""
    topo = fattree_wiring(
        sim, k, link, switch_config, transport_config, seeds, cnp_enabled
    )
    if lb is None:
        install_ecmp(topo)
    else:
        install_lb(topo, lb)
    topo.start()
    return topo
