"""The dumbbell topology of Fig. 10.

``N`` senders attach to switch0; a chain of ``M`` switches leads to a single
receiver on the last switch.  All flows share the switch0 -> switch1 link
(M >= 2) or the switch0 -> receiver link (M == 1), so switch0's egress is
the congestion point the paper monitors.
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


def dumbbell(
    sim: Simulator,
    n_senders: int = 2,
    n_switches: int = 3,
    link: Optional[LinkSpec] = None,
    switch_config: Optional[SwitchConfig] = None,
    transport_config: Optional[TransportConfig] = None,
    seeds: Optional[SeedSequenceFactory] = None,
    cnp_enabled: bool = False,
    lb=None,
) -> Topology:
    """Build Fig. 10's dumbbell: senders are hosts ``0..N-1``, the receiver
    is host ``N`` (``topo.hosts[-1]``).  Routing is installed; ``lb``
    selects the strategy (single-path here, so every strategy degenerates
    to the same forwarding — the knob exists so ``run_microbench`` can
    thread one configuration through any builder)."""
    if n_senders < 1:
        raise ValueError("need at least one sender")
    if n_switches < 1:
        raise ValueError("need at least one switch")
    topo = Topology(
        sim,
        seeds=seeds,
        default_link=link,
        switch_config=switch_config,
        transport_config=transport_config,
    )
    switches = [topo.add_switch(f"sw{i}") for i in range(n_switches)]
    senders = [
        topo.add_host(f"sender{i}", cnp_enabled=cnp_enabled) for i in range(n_senders)
    ]
    receiver = topo.add_host("receiver0", cnp_enabled=cnp_enabled)
    for s in senders:
        topo.link(s, switches[0])
    for a, b in zip(switches, switches[1:]):
        topo.link(a, b)
    topo.link(switches[-1], receiver)
    if lb is None:
        install_ecmp(topo)
    else:
        # census: a strategy given — tests/topo/test_topologies.py::TestDumbbell::test_takes_a_strategy
        install_lb(topo, lb)
    topo.start()
    return topo
