"""Pluggable load-balancing strategies (the LB axis of the CC × LB matrix).

* :class:`EcmpLB` — per-flow symmetric ECMP (the paper baseline, bounded
  hash cache).
* :class:`SprayLB` — per-packet round-robin spray over equal-cost next hops.
* :class:`FlowletLB` — idle-gap flowlet switching, congestion-aware
  (CONGA-style).
* :class:`ConWeaveLiteLB` — congestion-driven rerouting with epoch/tail
  markers (ConWeave, simplified — see the module docstring).

:func:`install_lb` installs one strategy instance per switch;
:class:`LbConfig` is the threadable configuration object.  Strategies that
reorder require the receiver-side reorder window (enabled automatically).
"""

from repro.lb.base import (
    DEFAULT_REORDER_WINDOW,
    LbConfig,
    LoadBalancer,
    REGISTRY,
    install_lb,
)
from repro.lb.conweave import ConWeaveLiteLB
from repro.lb.ecmp import EcmpLB
from repro.lb.flowlet import FlowletLB
from repro.lb.spray import SprayLB

STRATEGIES = tuple(sorted(REGISTRY))

__all__ = [
    "DEFAULT_REORDER_WINDOW",
    "LbConfig",
    "LoadBalancer",
    "REGISTRY",
    "STRATEGIES",
    "install_lb",
    "EcmpLB",
    "SprayLB",
    "FlowletLB",
    "ConWeaveLiteLB",
]
