"""ECMP with the paper's symmetric routing tables (Fig. 5).

The hash input is the canonical five-tuple ``(min(src,dst), max(src,dst),
flow_id)``: a data packet and its ACK produce the same hash, and with
consistently ordered next-hop lists (see :mod:`repro.routing.tables`) the
two directions select the same physical path.

Since the load-balancing subsystem landed, the strategy itself lives in
:class:`repro.lb.ecmp.EcmpLB`; this installer is the compatibility entry
point that wires the ECMP baseline onto every switch.  The per-flow hash
memo is owned by the per-switch strategy instance (fresh per install, so a
new topology never inherits stale entries) and bounded — see
:mod:`repro.lb.base` for the ownership rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.routing.tables import RoutingTables

if TYPE_CHECKING:  # pragma: no cover
    from repro.topo.base import Topology


def install_ecmp(topo: "Topology") -> RoutingTables:
    """Compute tables and attach an ECMP router to every switch."""
    # Deferred: repro.lb.base imports repro.routing.tables.  The topology
    # modules import repro.lb when they load, so this finds it loaded and
    # a forked worker imports nothing here.
    from repro.lb.base import LbConfig, install_lb

    return install_lb(topo, LbConfig("ecmp"))
