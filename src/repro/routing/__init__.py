"""Routing installers.

* :func:`install_ecmp` — shortest-path routing with ECMP load balancing.
  The hash operates on a *canonical* five-tuple (Fig. 5's symmetric routing
  table): a data packet and its ACK share the hash value, and equal-cost
  next-hop lists are ordered consistently, so both directions traverse the
  same switches — the property FNCC's Observation 2 requires.
* :func:`install_spanning_trees` — the paper's alternative (Fig. 6):
  multiple spanning trees, each with a unique path between any two nodes;
  flows hash onto a tree.  Symmetric by construction.
"""

from repro.routing.tables import build_graph_tables
from repro.routing.ecmp import install_ecmp
from repro.routing.spanning_tree import install_spanning_trees

__all__ = [
    "build_graph_tables",
    "install_ecmp",
    "install_spanning_trees",
]
