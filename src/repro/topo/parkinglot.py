"""Fig. 11's scenarios: congestion at a chosen hop of a 3-switch chain.

Two senders, one receiver, a chain sw0 -> sw1 -> sw2 -> receiver0.

* ``"first"``  — both senders on sw0: flows collide on sw0 -> sw1.
* ``"middle"`` — sender0 on sw0, sender1 on sw1: collide on sw1 -> sw2.
* ``"last"``   — sender0 on sw0, sender1 on sw2: collide on sw2 -> receiver,
  the last hop — the scenario LHCS (Alg. 2) accelerates.

``congested_switch_index`` on the returned topology names the switch whose
egress toward the receiver is the collision point.
"""

from __future__ import annotations

from typing import Optional

from repro.net.switch import SwitchConfig
from repro.routing import install_ecmp
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec, Topology

LOCATIONS = ("first", "middle", "last")


def congestion_at(
    sim: Simulator,
    location: str,
    n_switches: int = 3,
    link: Optional[LinkSpec] = None,
    switch_config: Optional[SwitchConfig] = None,
    seeds: Optional[SeedSequenceFactory] = None,
    cnp_enabled: bool = False,
) -> Topology:
    if location not in LOCATIONS:
        raise ValueError(f"location must be one of {LOCATIONS}, got {location!r}")
    if n_switches < 3:
        raise ValueError("need at least 3 switches for distinct hop locations")
    topo = Topology(sim, seeds=seeds, default_link=link, switch_config=switch_config)
    switches = [topo.add_switch(f"sw{i}") for i in range(n_switches)]
    sender0 = topo.add_host("sender0", cnp_enabled=cnp_enabled)
    sender1 = topo.add_host("sender1", cnp_enabled=cnp_enabled)
    receiver = topo.add_host("receiver0", cnp_enabled=cnp_enabled)

    for a, b in zip(switches, switches[1:]):
        topo.link(a, b)
    topo.link(switches[-1], receiver)
    topo.link(sender0, switches[0])
    if location == "first":
        topo.link(sender1, switches[0])
        congested = 0
    elif location == "middle":
        topo.link(sender1, switches[n_switches // 2])
        congested = n_switches // 2
    else:  # last
        topo.link(sender1, switches[-1])
        congested = n_switches - 1
    install_ecmp(topo)
    topo.start()

    topo.congested_switch_index = congested
    return topo
