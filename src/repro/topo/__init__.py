"""Topology builders.

* :class:`~repro.topo.base.Topology` — generic container: nodes, links, and
  the adjacency map (``topo.adj``), the one record of the wiring, which
  routing, spanning trees and base-RTT/path computation read.
* :func:`~repro.topo.dumbbell.dumbbell` — Fig. 10: N senders, a chain of M
  switches, one receiver.
* :func:`~repro.topo.parkinglot.congestion_at` — Fig. 11: two senders whose
  flows collide at the first, middle, or last hop of a 3-switch chain.
* :func:`~repro.topo.fattree.fattree` — three-level fat-tree (any even k),
  the §5.5 large-scale fabric.
* :func:`~repro.topo.star.star` — single-switch star (incast scenarios).
* :func:`~repro.topo.jellyfish.jellyfish` — random regular graph, used to
  exercise the spanning-tree routing of Observation 2.
"""

from repro.topo.base import LinkSpec, Topology
from repro.topo.dumbbell import dumbbell
from repro.topo.parkinglot import congestion_at
from repro.topo.fattree import fattree
from repro.topo.star import star
from repro.topo.jellyfish import jellyfish

__all__ = [
    "LinkSpec",
    "Topology",
    "dumbbell",
    "congestion_at",
    "fattree",
    "star",
    "jellyfish",
]
